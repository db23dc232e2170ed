"""Entities: the vehicles/packages moved by the protocol.

An entity is an ``l x l`` square identified by a unique id, with its
center at ``(x, y)`` in the Euclidean plane. Entities are *passive*: only
the cell containing an entity ever changes its position, so the class is
a small mutable record with explicit movement/snapping methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geometry.point import Point
from repro.geometry.square import Square
from repro.grid.topology import CellId, Direction


@dataclass
class Entity:
    """A single entity: unique id, center position, and bookkeeping.

    ``birth_round`` records when the source created the entity, enabling
    transit-latency metrics; it plays no role in the protocol itself.
    """

    uid: int
    x: float
    y: float
    birth_round: int = 0
    side: float = field(default=0.0, repr=False)

    @property
    def center(self) -> Point:
        return Point(self.x, self.y)

    @property
    def cell(self) -> CellId:
        """The cell holding the entity: the floor of its center.

        Exact for every entity a cell holds: sources insert strictly
        inside their own cell, and a transfer fires once the leading
        edge (not the center) crosses a wall.
        """
        return (int(self.x), int(self.y))

    def footprint(self, side: float) -> Square:
        """The ``side x side`` square the entity occupies."""
        return Square(self.center, side)

    def translate(self, direction: Direction, distance: float) -> None:
        """Move the center ``distance`` along ``direction`` (in place)."""
        self.x += direction.di * distance
        self.y += direction.dj * distance

    def snap_to_entry_edge(
        self, cell: CellId, direction: Direction, half_l: float
    ) -> None:
        """Place the entity just inside ``cell``, flush against the edge it
        entered through.

        ``direction`` is the travel direction of the transfer. Following the
        paper's Move function (lines 13-20, with the ``l/2`` reading): an
        entity entering cell ``<m, n>`` moving east gets ``px := m + l/2``
        (trailing edge on the boundary ``x = m``), and symmetrically for the
        other directions. The perpendicular coordinate is untouched.
        """
        m, n = cell
        if direction is Direction.EAST:
            self.x = m + half_l
        elif direction is Direction.WEST:
            self.x = (m + 1) - half_l
        elif direction is Direction.NORTH:
            self.y = n + half_l
        else:  # SOUTH
            self.y = (n + 1) - half_l

    def clone(self) -> "Entity":
        """An independent copy (used by state snapshots and the explorer)."""
        return Entity(
            uid=self.uid,
            x=self.x,
            y=self.y,
            birth_round=self.birth_round,
            side=self.side,
        )

    def position_key(self, quantum: float = 1e-9) -> tuple:
        """A hashable, quantized representation of the entity state.

        Used by the exhaustive explorer to canonicalize states; two states
        whose positions differ by less than ``quantum`` are identified.
        """
        return (self.uid, round(self.x / quantum), round(self.y / quantum))
