"""Spectral calculus on the round 2-sphere."""

from .grid import SphereGrid, build_grid
from .fields import ScalarField, TangentField, SymTensorField
from .operators import (
    laplace,
    helmholtz2_solve,
    divdiv,
    conformal_killing_apply,
    conformal_killing_solve,
)

__all__ = [
    "SphereGrid",
    "build_grid",
    "ScalarField",
    "TangentField",
    "SymTensorField",
    "laplace",
    "helmholtz2_solve",
    "divdiv",
    "conformal_killing_apply",
    "conformal_killing_solve",
]
