"""Mass functionals for near-round sphere data.

The first-order estimate is the linear boundary integral

  m1 = (1/16 pi) * int (2 H1 - tr gamma1),

which also equals (1/16 pi) * int (-2 v_r) for the solved exterior
harmonic v.  The second-order correction is the quadratic boundary
integral

  m2 = (1/16 pi) * int [ H1 (tr gamma1 - f - v) + (1/2)(v - v_r)(v + 2 f)
                         + (1/2) |tracefree gamma1|^2 ],

evaluated with the fields of the solved boundary system.  m2 is invariant
under degree-1 shifts of f and under conformal Killing shifts of X, which
the tests exercise directly.  The Hawking functional is evaluated on full
(round plus offset) data for cross reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .boundary import (
    BartnikPerturbation,
    BoundarySolution,
    solve_boundary_system,
)
from .curvature import CurvatureJet, reference_expansions, small_sphere_data
from .spherical.fields import ScalarField, SymTensorField
from .spherical.grid import SphereGrid

__all__ = [
    "MassReport",
    "compute_m1",
    "compute_m2",
    "hawking_mass",
    "estimate",
    "small_sphere_report",
    "small_sphere_quintic",
]

_SIXTEEN_PI = 16.0 * math.pi


@dataclass(frozen=True)
class MassReport:
    """Result bundle for one mass evaluation."""

    m1: float
    m2: float
    hawking: float | None = None
    tau: float | None = None
    reference: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    @property
    def total(self) -> float:
        return self.m1 + self.m2

    @property
    def tau_scaled_total(self) -> float | None:
        if self.tau is None:
            return None
        return self.tau * self.total

    def to_dict(self) -> dict:
        return {
            "m1": self.m1,
            "m2": self.m2,
            "total": self.total,
            "tau_scaled_total": self.tau_scaled_total,
            "hawking": self.hawking,
            "reference": dict(self.reference),
            "diagnostics": dict(self.diagnostics),
        }


def compute_m1(data: BartnikPerturbation, sol: BoundarySolution | None = None):
    """First-order mass and its harmonic-flux cross check.

    Returns (m1, m1_flux): the boundary-data form and the equivalent
    integral of -2 v_r over the solved exterior harmonic.  The two must
    agree to roundoff for consistent inputs.
    """
    grid = data.grid
    direct = grid.integrate(2.0 * data.H1.values - data.gamma1.trace.values) / _SIXTEEN_PI
    if sol is None:
        sol = solve_boundary_system(data)
    flux = grid.integrate(-2.0 * sol.v.radial_trace().values) / _SIXTEEN_PI
    return direct, flux


def compute_m2(data: BartnikPerturbation, sol: BoundarySolution | None = None) -> float:
    """Second-order mass correction from the solved boundary fields."""
    if sol is None:
        sol = solve_boundary_system(data)
    grid = data.grid
    H1 = data.H1.values
    tr = data.gamma1.trace.values
    f = sol.f.values
    v = sol.v.trace().values
    vr = sol.v.radial_trace().values
    tf_sq = data.gamma1.tracefree_norm_sq_values()
    integrand = (H1 * (tr - f - v)
                 + 0.5 * (v - vr) * (v + 2.0 * f)
                 + 0.5 * tf_sq)
    return grid.integrate(integrand) / _SIXTEEN_PI


def hawking_mass(gamma_offset: SymTensorField, H_offset: ScalarField) -> float:
    """Hawking functional on full data (round + offsets).

    sqrt(|S|/16 pi) * (1 - (1/16 pi) int H^2 dA) with the area measure of
    the full metric.  Raises on degenerate metrics.
    """
    grid = gamma_offset.grid
    c11, c12, c22 = gamma_offset.components()
    g11 = 1.0 + c11
    g22 = 1.0 + c22
    det = g11 * g22 - c12 ** 2
    # positive determinant alone admits negative-definite tensors, so the
    # leading minor is required as well
    if np.min(g11) <= 0.0 or np.min(det) <= 0.0:
        raise ValueError("metric data is degenerate: nonpositive area density")
    density = np.sqrt(det)
    H_full = -2.0 + H_offset.values
    area = grid.integrate(density)
    willmore = grid.integrate(H_full ** 2 * density) / _SIXTEEN_PI
    return math.sqrt(area / _SIXTEEN_PI) * (1.0 - willmore)


def estimate(data: BartnikPerturbation, tau: float | None = None,
             jet: CurvatureJet | None = None) -> MassReport:
    """Full second-order mass estimate with diagnostics.

    Solves the boundary system, evaluates both mass orders, the Hawking
    cross reference on the full data, and packs residual diagnostics.
    When tau and the source curvature jet are supplied the report also
    carries the reference expansion coefficients.
    """
    sol = solve_boundary_system(data)
    m1, m1_flux = compute_m1(data, sol)
    m2 = compute_m2(data, sol)
    try:
        hawking = hawking_mass(data.gamma1, data.H1)
    except ValueError:
        hawking = None
    diagnostics = {
        "residuals": dict(sol.residuals),
        "l1_residual": sol.l1_residual,
        "epsilon_estimate": data.epsilon_estimate,
        "m1_flux": m1_flux,
        "m1_consistency": abs(m1 - m1_flux),
        "dirichlet_energy": sol.v.dirichlet_energy(),
        "tracefree_truncation": data.gamma1.tracefree_truncation,
        "trace_truncation": data.gamma1.trace.truncation,
        "h1_truncation": data.H1.truncation,
    }
    reference = {}
    if jet is not None:
        reference = reference_expansions(jet).to_dict()
    return MassReport(m1=m1, m2=m2, hawking=hawking, tau=tau,
                      reference=reference, diagnostics=diagnostics)


def small_sphere_report(jet: CurvatureJet, tau: float, grid: SphereGrid,
                        order: int = 4) -> MassReport:
    """Mass estimate of the geodesic sphere of radius tau from a curvature jet."""
    data = small_sphere_data(jet, tau, order, grid)
    return estimate(data, tau=tau, jet=jet)


def small_sphere_quintic(jet: CurvatureJet, tau: float, grid: SphereGrid) -> dict:
    """Exact-order assembly of the cubic and quintic mass coefficients.

    The cubic coefficient comes from m1 on second-order data.  The quintic
    coefficient splits into the quartic part of m1 (difference of order-4
    and order-2 data, the odd order integrating to zero) plus m2 on
    second-order data, both divided by tau^4.  The assembly is exact in
    tau, so it isolates the coefficients without fitting.
    """
    data2 = small_sphere_data(jet, tau, 2, grid)
    data4 = small_sphere_data(jet, tau, 4, grid)
    sol2 = solve_boundary_system(data2)
    m1_o2, _ = compute_m1(data2, sol2)
    m1_o4, _ = compute_m1(data4)
    m2_o2 = compute_m2(data2, sol2)
    c3 = m1_o2 / tau ** 2
    c5 = (m1_o4 - m1_o2 + m2_o2) / tau ** 4
    return {"c3": c3, "c5": c5}
