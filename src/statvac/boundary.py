"""Boundary system for the linearized static vacuum exterior.

Given a perturbation (gamma1, H1) of the round metric and mean curvature
-2 on the unit sphere, the linearized static vacuum extension on the
exterior region is encoded by a harmonic function v decaying at infinity
together with a boundary function f and a tangent field X.  The four
boundary equations are

  (a)  v harmonic on the exterior, v -> 0 at infinity,
  (b)  v + 2 f = (1/2) tr gamma1 - div X        on the sphere,
  (c)  (Laplace + 2) f = H1 - (v - v_r)         on the sphere,
  (d)  deformation tensor of X = trace-free part of gamma1,

with v_r the radial derivative trace.  Equation (a) is built into the
representation of v by exterior decay modes, X comes from inverting the
conformal Killing operator on the trace-free part, v is determined
mode-wise by the second radial derivative relation, and f is read off
from (b); equation (c) then holds identically and its numerical residual
is reported as a solution diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spherical import harmonics
from .spherical.fields import ScalarField, SymTensorField, TangentField
from .spherical.grid import SphereGrid
from .spherical.operators import (
    conformal_killing_solve,
    divdiv,
    helmholtz2_multiplier,
)

__all__ = [
    "HarmonicExterior",
    "BartnikPerturbation",
    "BoundarySolution",
    "harmonic_from_vrr",
    "solve_boundary_system",
]


class HarmonicExterior:
    """Harmonic function on the exterior of the unit ball, decaying at infinity.

    Stored as coefficients d_lm of the decay modes Y_lm(direction) r^(-l-1).
    The boundary trace is d_lm, the radial derivative trace is -(l+1) d_lm
    and the second radial derivative trace is (l+1)(l+2) d_lm.
    """

    def __init__(self, grid: SphereGrid, coeffs: np.ndarray):
        coeffs = np.ascontiguousarray(np.asarray(coeffs, dtype=float))
        if coeffs.shape != (grid.nmodes,):
            raise ValueError("coefficient vector does not match the grid")
        coeffs.setflags(write=False)
        self.grid = grid
        self.coeffs = coeffs

    def trace(self) -> ScalarField:
        return ScalarField.from_coeffs(self.grid, self.coeffs)

    def radial_trace(self) -> ScalarField:
        ls = self.grid.ls
        return ScalarField.from_coeffs(self.grid, -(ls + 1.0) * self.coeffs)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Values at ambient points outside the origin."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        r = np.linalg.norm(points, axis=1)
        theta, phi = harmonics.angles_from_directions(points)
        Y = harmonics.harmonic_tables(self.grid.lmax, theta, phi, derivative=False)
        radial = r[None, :] ** (-(self.grid.ls + 1.0))[:, None]
        return self.coeffs @ (Y * radial)

    def gradient(self) -> np.ndarray:
        """Ambient gradient at the grid nodes, shape (nnodes, 3).

        Taken through the grid transforms: the radial trace along the
        normal plus the surface gradient of the boundary trace.
        """
        g = self.grid
        g1, g2 = g.grad_synth(self.coeffs)
        return (self.radial_trace().values[:, None] * g.nodes
                + g1[:, None] * g.e_theta + g2[:, None] * g.e_phi)

    def dirichlet_energy(self) -> float:
        """Exterior energy integral of |grad v|^2, mode-wise (l+1) d_lm^2."""
        ls = self.grid.ls.astype(float)
        return float(np.sum((ls + 1.0) * self.coeffs ** 2))


@dataclass(frozen=True)
class BartnikPerturbation:
    """First-order boundary data: metric perturbation and mean curvature offset."""

    gamma1: SymTensorField
    H1: ScalarField

    def __post_init__(self):
        if not self.gamma1.grid.same_layout(self.H1.grid):
            raise ValueError("gamma1 and H1 live on different grids")

    @property
    def grid(self) -> SphereGrid:
        return self.gamma1.grid

    @property
    def epsilon_estimate(self) -> float:
        """Max-norm size of the data, used as the smallness diagnostic."""
        return float(max(self.gamma1.max_component(),
                         np.max(np.abs(self.H1.values), initial=0.0)))

    def scaled(self, s: float) -> "BartnikPerturbation":
        return BartnikPerturbation(self.gamma1.scaled(s), self.H1 * s)


@dataclass(frozen=True)
class BoundarySolution:
    """Solved boundary fields with per-equation residual diagnostics."""

    v: HarmonicExterior
    f: ScalarField
    X: TangentField
    residuals: dict = field(default_factory=dict)
    l1_residual: float = 0.0


def harmonic_from_vrr(grid: SphereGrid, vrr: ScalarField) -> HarmonicExterior:
    """Exterior harmonic with prescribed second radial derivative trace.

    Mode-wise division by (l+1)(l+2), which never vanishes, so this is
    well posed on the whole band.
    """
    ls = grid.ls.astype(float)
    return HarmonicExterior(grid, vrr.coeffs / ((ls + 1.0) * (ls + 2.0)))


def solve_boundary_system(data: BartnikPerturbation) -> BoundarySolution:
    """Solve the linearized boundary system for (v, f, X).

    The second radial derivative of v on the boundary is
    2*H1 + divdiv(tracefree gamma1) - (1/2)(Laplace + 2) tr gamma1,
    X inverts the conformal Killing operator on the trace-free part with
    degree-1 gauge fixed to zero, and f follows from the trace equation.
    All four equation residuals are evaluated pointwise and returned.
    """
    grid = data.grid
    gamma = data.gamma1
    H1 = data.H1
    tr = gamma.trace
    gbreve = gamma.tracefree()

    X, ck_residual = conformal_killing_solve(gbreve)

    vrr_coeffs = (2.0 * H1.coeffs + divdiv(gbreve).coeffs
                  - 0.5 * helmholtz2_multiplier(grid.ls) * tr.coeffs)
    v = harmonic_from_vrr(grid, ScalarField.from_coeffs(grid, vrr_coeffs))

    v_tr = v.trace()
    divX = X.divergence()
    f = 0.25 * tr - 0.5 * divX - 0.5 * v_tr

    # residuals: (a) is structural, (b) by construction, (c) the real check
    res_b = v_tr + 2.0 * f - 0.5 * tr + divX
    helm_f = ScalarField.from_coeffs(grid, helmholtz2_multiplier(grid.ls) * f.coeffs)
    vr_tr = v.radial_trace()
    res_c = v_tr - vr_tr + helm_f - H1

    rhs_c = H1 - (v_tr - vr_tr)
    sel = grid.ls == 1
    l1 = float(np.sqrt(np.sum(rhs_c.coeffs[sel] ** 2)))

    residuals = {
        "a": 0.0,
        "b": float(np.max(np.abs(res_b.values), initial=0.0)),
        "c": float(np.max(np.abs(res_c.values), initial=0.0)),
        "d": ck_residual,
    }
    return BoundarySolution(v=v, f=f, X=X, residuals=residuals, l1_residual=l1)
