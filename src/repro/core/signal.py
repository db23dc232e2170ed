"""The Signal function (paper Figure 5).

Signal is the safety/progress core of the protocol. Each non-faulty cell:

1. Computes ``NEPrev`` — the neighbors whose (post-Route) ``next`` points
   at this cell and whose ``Members`` is nonempty. Failed neighbors never
   appear (they do not communicate).
2. Maintains a ``token`` over ``NEPrev`` for mutual exclusion: at most one
   inbound neighbor is considered per round.
3. Grants ``signal := token`` only when the cell has a *clear gap of depth
   d* along its edge facing the token holder — i.e. no member's edge is
   within ``d`` of that boundary (with the ``l/2`` reading of the scanned
   text; see DESIGN.md). Otherwise ``signal := bot`` and the token parks on
   the blocked neighbor so it is retried next round (this is the fairness
   step of Lemma 9).
4. After a grant, the token rotates to a different member of ``NEPrev``
   when one exists, giving every inbound neighbor a turn infinitely often.

The grant is what makes transfers safe: predicate H says a granted edge
has a ``d``-deep empty strip behind it, so an entity snapped onto that
edge lands at distance >= d from every resident entity (Theorem 5).

:func:`signal_cells` is the one loop around the per-cell step: the full
sweep (:func:`signal_phase`), ``System.signal_cells`` (the incremental
engine and the shard coordinator's fallback) and the shard workers run
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.core.cell import CellState
from repro.core.params import Parameters
from repro.core.policies import RoundRobinTokenPolicy, TokenPolicy
from repro.geometry.tolerance import EPS
from repro.grid.topology import CellId, Direction, Grid, direction_between


@dataclass
class SignalPhaseReport:
    """Grant/block decisions of one Signal phase (for monitors/metrics)."""

    granted: Dict[CellId, CellId] = field(default_factory=dict)
    """Mapping granting-cell -> neighbor granted permission."""

    blocked: List[CellId] = field(default_factory=list)
    """Cells that held a token but lacked the gap (signal forced to bot)."""

    rotated: List[Tuple[CellId, CellId, CellId]] = field(default_factory=list)
    """``(cell, previous holder, new holder)`` for each post-grant token
    rotation — the fairness steps of Lemma 9, recorded so the
    observability layer (:mod:`repro.obs`) can count and trace them."""

    block_reasons: Dict[CellId, str] = field(default_factory=dict)
    """Optional block-reason annotations keyed by blocked cell.

    The core Signal rule only blocks for one reason — the occupied
    depth-``d`` strip — so it leaves this empty and consumers default a
    missing entry to ``"gap"``. Systems with additional admission
    conjuncts (the multi-commodity residency rule) record the reason
    here; values must come from ``repro.obs.events.BLOCK_REASONS``."""


def gap_clear(
    state: CellState, toward: Direction, params: Parameters
) -> bool:
    """The paper's lines 4-7: is a depth-``d`` strip clear on the edge of
    ``state``'s cell facing direction ``toward``?

    ``toward`` is the direction *from this cell to the token-holding
    neighbor* — the edge through which that neighbor's entities would
    enter. For the east edge the condition is
    ``forall p: px + l/2 <= i + 1 - d``; the other edges are symmetric.

    Each member is tested with the exact float expression of
    :func:`~repro.geometry.tolerance.tol_le` / ``tol_ge``
    (``a <= b + EPS`` / ``a >= b - EPS``), the tolerant bound
    ``b ± EPS`` computed once per call. This is the one gap rule of the
    2-D protocol: every engine, the shard workers, the timed processes,
    the multi-commodity admission test and predicate H's monitor call it.
    """
    i, j = state.cell_id
    half = params.half_l
    d = params.d
    members = state.members.values()
    if toward is Direction.EAST:
        bound = i + 1 - d + EPS
        for e in members:
            if not (e.x + half <= bound):
                return False
    elif toward is Direction.WEST:
        bound = i + d - EPS
        for e in members:
            if not (e.x - half >= bound):
                return False
    elif toward is Direction.NORTH:
        bound = j + 1 - d + EPS
        for e in members:
            if not (e.y + half <= bound):
                return False
    else:
        bound = j + d - EPS
        for e in members:
            if not (e.y - half >= bound):
                return False
    return True


def compute_ne_prev(
    grid: Grid, cells: Mapping[CellId, CellState], cid: CellId
) -> Set[CellId]:
    """``NEPrev``: nonempty, non-faulty neighbors routing through ``cid``.

    Reads the neighbors' fields directly: a failed neighbor is masked
    (:func:`~repro.core.cell.effective_next` / ``effective_nonempty``
    read it as ``next = bot``, empty), so it never appears.
    """
    result: Set[CellId] = set()
    for nbr in grid.neighbors_by_id(cid):
        nbr_state = cells[nbr]
        if nbr_state.next_id == cid and nbr_state.members and not nbr_state.failed:
            result.add(nbr)
    return result


def signal_phase(
    grid: Grid,
    cells: Dict[CellId, CellState],
    params: Parameters,
    policy: Optional[TokenPolicy] = None,
) -> SignalPhaseReport:
    """Apply Signal simultaneously to every non-faulty cell."""
    if policy is None:
        policy = RoundRobinTokenPolicy()
    return signal_cells(grid, cells, params, policy, cells)


def signal_cells(
    grid: Grid,
    cells: Mapping[CellId, CellState],
    params: Parameters,
    policy: TokenPolicy,
    cids: Iterable[CellId],
) -> SignalPhaseReport:
    """Signal at the non-faulty cells among ``cids``, in that order.

    Reads the neighbors' post-Route ``next``, membership and ``failed``;
    writes each listed cell's own ``ne_prev``, ``token`` and ``signal``.
    One pass is simultaneous because Signal writes only the cell's own
    variables while reading only the neighbors' shared ones, which no
    cell's Signal modifies. ``cells`` may hold cells the loop never
    evaluates (a shard worker's rim).
    """
    report = SignalPhaseReport()
    for cid in cids:
        state = cells[cid]
        if not state.failed:
            ne_prev = compute_ne_prev(grid, cells, cid)
            _signal_step(state, ne_prev, params, policy, report)
    return report


def _signal_step(
    state: CellState,
    ne_prev: Set[CellId],
    params: Parameters,
    policy: TokenPolicy,
    report: SignalPhaseReport,
    gap=None,
) -> None:
    """One cell's Signal computation.

    ``gap`` is the grant predicate; by default :func:`gap_clear`,
    resolved at call time so tests can monkeypatch the module
    attribute. A system with extra admission conjuncts (the
    multi-commodity residency rule) passes its own, which ends in
    :func:`gap_clear`.
    """
    state.ne_prev = ne_prev
    if not ne_prev:
        # Nobody to grant. The token policy is not consulted: its
        # ``initial`` of an empty NEPrev is bottom and draws no
        # randomness (the token-policy contract of repro.sim.engine).
        state.token = None
        state.signal = None
        return
    if gap is None:
        gap = gap_clear
    # Clarified corner (see DESIGN.md): a token whose holder left NEPrev
    # (drained, re-routed or failed) is dropped before the initial choose,
    # otherwise it could dangle forever and starve live neighbors.
    if state.token is not None and state.token not in ne_prev:
        state.token = None
    if state.token is None:
        state.token = policy.initial(ne_prev)
    if state.token is None:
        state.signal = None
        return
    toward = direction_between(state.cell_id, state.token)
    if gap(state, toward, params):
        state.signal = state.token
        report.granted[state.cell_id] = state.token
        state.token = policy.rotate(ne_prev, state.token)
        if state.token != state.signal:
            report.rotated.append((state.cell_id, state.signal, state.token))
    else:
        # Blocked: deny everyone this round but keep the token parked on
        # the same neighbor, so it gets the next opportunity (fairness).
        state.signal = None
        report.blocked.append(state.cell_id)
