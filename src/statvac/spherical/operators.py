"""Spectral operators on sphere fields.

Every operator acts as a diagonal multiplier on the real harmonic basis:
the Laplacian multiplies degree-l coefficients by -l(l+1), the shifted
Helmholtz operator (Laplace + 2) by 2 - l(l+1) with a one-dimensional
kernel at l = 1, and the double divergence of a trace-free tensor built
from the potential p by l(l+1)(l(l+1) - 2)/2.  The multipliers are pinned
against a dense finite-difference oracle on the grid (see the operator
test suite) rather than taken on faith from the closed-form derivation.
"""

from __future__ import annotations

import numpy as np

from .fields import ScalarField, SymTensorField, TangentField

__all__ = [
    "laplace",
    "helmholtz2_solve",
    "divdiv",
    "conformal_killing_apply",
    "conformal_killing_solve",
    "divdiv_multiplier",
    "helmholtz2_multiplier",
]


def divdiv_multiplier(ls: np.ndarray) -> np.ndarray:
    """Diagonal factor of div div tfHess on degree-l potentials."""
    lam = (ls * (ls + 1)).astype(float)
    return 0.5 * lam * (lam - 2.0)


def helmholtz2_multiplier(ls: np.ndarray) -> np.ndarray:
    """Diagonal factor of (Laplace + 2) on degree-l scalars."""
    lam = (ls * (ls + 1)).astype(float)
    return 2.0 - lam


def laplace(field: ScalarField) -> ScalarField:
    grid = field.grid
    return ScalarField.from_coeffs(grid, -grid.lam * field.coeffs)


def helmholtz2_solve(rhs: ScalarField):
    """Solve (Laplace + 2) f = rhs on the orthogonal complement of l = 1.

    Returns (f, l1_residual) where l1_residual is the L2 norm of the l = 1
    part of the right-hand side, which the operator cannot reach.  The
    solution has zero l = 1 component.
    """
    grid = rhs.grid
    mult = helmholtz2_multiplier(grid.ls)
    sel = grid.ls == 1
    l1_residual = float(np.sqrt(np.sum(rhs.coeffs[sel] ** 2)))
    safe = mult.copy()
    safe[sel] = np.inf
    return ScalarField.from_coeffs(grid, rhs.coeffs / safe), l1_residual


def divdiv(gbreve: SymTensorField) -> ScalarField:
    """Double divergence of a trace-free symmetric tensor.

    Only the gradient-type potential contributes; the rotated potential is
    annihilated because the divergence of a rotated gradient vanishes.
    """
    grid = gbreve.grid
    return ScalarField.from_coeffs(grid, divdiv_multiplier(grid.ls) * gbreve.p_coeffs)


def conformal_killing_apply(X: TangentField) -> SymTensorField:
    """Trace-free deformation tensor X_{a:b} + X_{b:a} - (div X) g.

    Gradient potentials map to twice their trace-free Hessian, rotated
    potentials to twice the rotated trace-free Hessian, so in potential
    form the operator is simply (a, b) -> (2a, 2b) restricted to l >= 2.
    Degree-1 potentials span the conformal Killing kernel.
    """
    grid = X.grid
    return SymTensorField(grid, ScalarField.zeros(grid),
                          2.0 * X.a_coeffs, 2.0 * X.b_coeffs)


def conformal_killing_solve(gbreve: SymTensorField):
    """Invert the conformal Killing operator on a trace-free tensor.

    Returns (X, residual).  The degree-1 potentials of X are set to zero
    (kernel gauge) and the residual is the max-norm mismatch between the
    deformation tensor of X and the input components, which captures any
    part of the input outside the band-limited potential range.  The
    deformation tensor has potentials (2 * p/2, 2 * q/2) = (p, q) exactly,
    so that mismatch is the input's own ``tracefree_truncation``.  A trace
    above 1e-9 times (1 + the largest component) raises ValueError.
    """
    grid = gbreve.grid
    tmax = float(np.max(np.abs(gbreve.trace.values), initial=0.0))
    scale = 1.0 + gbreve.max_component()
    if tmax > 1e-9 * scale:
        raise ValueError("conformal_killing_solve expects a trace-free input; "
                         f"max |trace| = {tmax:.3e}")
    X = TangentField(grid, 0.5 * gbreve.p_coeffs, 0.5 * gbreve.q_coeffs)
    return X, gbreve.tracefree_truncation
