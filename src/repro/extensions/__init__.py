"""Extensions beyond the paper's core protocol.

:mod:`repro.extensions.grid3d` — "an extension to three dimensional
rectangular partitions follows in an obvious way": the full protocol on
an ``Nx x Ny x Nz`` lattice of unit cubes (6-neighborhoods, cube
entities, per-axis separation over three axes). The conclusion's other
generalization, multiple types of entities, is :mod:`repro.multiflow`.
"""

from repro.extensions.grid3d import (
    Cell3D,
    Direction3D,
    Entity3D,
    Grid3D,
    System3D,
    check_safe_3d,
)

__all__ = [
    "Cell3D",
    "Direction3D",
    "Entity3D",
    "Grid3D",
    "System3D",
    "check_safe_3d",
]
