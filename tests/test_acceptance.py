"""Acceptance checks: one test per advertised guarantee of the package.

Every test prints a single summary line (shown under ``pytest -s``)
naming the criterion, the measured residuals, and PASS or FAIL, then
asserts the stated tolerances.  Seeds are fixed so the lines are
reproducible run to run; guards inside the draws keep the relative
comparisons away from accidental zeros.
"""

import itertools
import math
import time

import numpy as np
import pytest

from statvac.boundary import (
    BartnikPerturbation,
    BoundarySolution,
    HarmonicExterior,
    solve_boundary_system,
)
from statvac.curvature import (
    jet_from_arrays,
    quadratic_invariants,
    random_jet,
    reference_expansions,
    riemann_from_ricci,
    small_sphere_data,
)
from statvac.mass import compute_m1, compute_m2, small_sphere_quintic
from statvac.oracles import (
    MetricField,
    conformal_probe_check,
    conformal_ricci,
    fd_ricci,
    mass_variation_identity,
    random_data,
    random_deformation,
    run_suite,
    variation_check,
)
from statvac.spherical.fields import ScalarField, SymTensorField, TangentField

SQRT4PI = math.sqrt(4.0 * math.pi)


def report_criterion(num, label, parts, elapsed=None, budget=None):
    """Print one pass/fail line for a criterion, then assert it.

    ``parts`` is a list of (name, residual, tolerance) triples; the
    criterion passes when every residual is within its tolerance and,
    when a budget is given, the elapsed time stays under it.
    """
    passed = all(res <= tol for _, res, tol in parts)
    if budget is not None:
        passed = passed and elapsed <= budget
    detail = ", ".join("%s %.3e (tol %.0e)" % (name, res, tol)
                       for name, res, tol in parts)
    if elapsed is not None:
        detail += ", %.2fs" % elapsed
        if budget is not None:
            detail += " (budget %.0fs)" % budget
    print("criterion %02d %s: %s (%s)"
          % (num, label, "PASS" if passed else "FAIL", detail))
    for name, res, tol in parts:
        assert res <= tol, "%s: %s residual %g exceeds %g" % (label, name,
                                                              res, tol)
    if budget is not None:
        assert elapsed <= budget, "%s: %.2fs over the %.0fs budget" % (
            label, elapsed, budget)


def constant_mode_data(grid, c, eps):
    """Round metric scaled by (1+c) with mean curvature offset eps."""
    trace = np.zeros(grid.nmodes)
    trace[0] = 2.0 * c * SQRT4PI
    H = np.zeros(grid.nmodes)
    H[0] = eps * SQRT4PI
    gamma = SymTensorField(grid, ScalarField.from_coeffs(grid, trace),
                           np.zeros(grid.nmodes), np.zeros(grid.nmodes))
    return BartnikPerturbation(gamma, ScalarField.from_coeffs(grid, H))


def exact_schwarzschild_mass(c, eps):
    a = math.sqrt(1.0 + c)
    return 0.5 * a * (1.0 - a * a * (2.0 - eps) ** 2 / 4.0)


def second_order_mass(c, eps):
    return 0.5 * (eps - c) + 0.25 * (3.0 * c * eps - 0.5 * eps ** 2 - c ** 2)


def test_criterion_01_constant_mode_quadratic(grid8):
    """Constant offsets reproduce the Schwarzschild mass through second
    order, and the assembled value matches a Taylor fit of the exact
    mass along the scaling line through each offset pair."""
    start = time.perf_counter()
    worst = 0.0
    worst_fit = 0.0
    s = np.linspace(-0.5, 0.5, 13)
    for c in np.linspace(-0.1, 0.1, 5):
        for eps in np.linspace(-0.1, 0.1, 5):
            data = constant_mode_data(grid8, c, eps)
            sol = solve_boundary_system(data)
            m1, _ = compute_m1(data, sol)
            m2 = compute_m2(data, sol)
            worst = max(worst, abs(m1 + m2 - second_order_mass(c, eps)))
            samples = [exact_schwarzschild_mass(si * c, si * eps) for si in s]
            coef = np.polyfit(s, samples, 8)
            worst_fit = max(worst_fit, abs(m1 + m2 - coef[-2] - coef[-3]))
    elapsed = time.perf_counter() - start
    report_criterion(1, "constant-mode second-order mass",
                     [("closed quadratic", worst, 1e-10),
                      ("exact-mass Taylor fit", worst_fit, 1e-8)],
                     elapsed=elapsed, budget=1.0)


def test_criterion_02_quintic_from_pure_ricci_data(grid8):
    """On order-2 sphere data the quintic mass coefficient is the known
    quadratic curvature combination (30|Ric|^2 - 25 R^2) / 2160."""
    start = time.perf_counter()
    rng = np.random.default_rng(20260817)
    tau = 0.01
    worst = 0.0
    smallest_ref = np.inf
    for _ in range(20):
        ric = rng.uniform(-1.0, 1.0, (3, 3))
        ric = 0.5 * (ric + ric.T)
        jet = jet_from_arrays(ric, np.zeros((3, 3, 3)),
                              np.zeros((3, 3, 3, 3)))
        ref = (30.0 * np.sum(ric * ric) - 25.0 * np.trace(ric) ** 2) / 2160.0
        smallest_ref = min(smallest_ref, abs(ref))
        data = small_sphere_data(jet, tau, 2, grid8)
        c5 = compute_m2(data) / tau ** 4
        worst = max(worst, abs(c5 - ref) / abs(ref))
    assert smallest_ref > 1e-3
    unit = np.diag([1.0, 0.0, 0.0])
    jet = jet_from_arrays(unit, np.zeros((3, 3, 3)), np.zeros((3, 3, 3, 3)))
    c5 = compute_m2(small_sphere_data(jet, tau, 2, grid8)) / tau ** 4
    instance = abs(c5 - 1.0 / 432.0) * 432.0
    elapsed = time.perf_counter() - start
    report_criterion(2, "order-two quintic coefficient",
                     [("random Ricci draws", worst, 1e-8),
                      ("unit diagonal instance", instance, 1e-8)],
                     elapsed=elapsed, budget=5.0)


def test_criterion_03_first_order_mass_on_full_jets(grid8):
    """m1 on order-4 sphere data matches R/12 tau^2 + lap R/120 tau^4."""
    rng = np.random.default_rng(23)
    tau = 1e-2
    worst = 0.0
    for _ in range(10):
        jet = random_jet(rng, require_lap=True)
        while abs(jet.scalar) <= 0.3:
            jet = random_jet(rng, require_lap=True)
        data = small_sphere_data(jet, tau, 4, grid8)
        m1, _ = compute_m1(data)
        ref = jet.scalar / 12.0 * tau ** 2 + jet.lap_scalar / 120.0 * tau ** 4
        worst = max(worst, abs(m1 - ref) / abs(ref))
    report_criterion(3, "first-order mass of small spheres",
                     [("ten random jets", worst, 1e-9)])


def test_criterion_04_quintic_matches_reference_table():
    """The assembled quintic coefficient agrees with the closed-form
    static expansion for full order-4 data."""
    rng = np.random.default_rng(47)
    worst = 0.0
    for _ in range(10):
        jet = random_jet(rng, require_lap=True)
        got = small_sphere_quintic(jet)["c5"]
        worst = max(worst, abs(got - reference_expansions(jet).static_c5))
    report_criterion(4, "assembled quintic vs closed form",
                     [("ten random jets", worst, 1e-10)])


def test_criterion_05_monomial_moments(grid8):
    """Quadrature integrates every monomial of degree at most four over
    the sphere to the closed double-factorial value."""
    x = grid8.nodes
    worst = 0.0

    def double_factorial(n):
        out = 1
        while n > 1:
            out *= n
            n -= 2
        return out

    for k in range(0, 5):
        for combo in itertools.combinations_with_replacement(range(3), k):
            powers = [combo.count(axis) for axis in range(3)]
            vals = np.ones(grid8.nnodes)
            for axis in range(3):
                vals = vals * x[:, axis] ** powers[axis]
            got = grid8.integrate(vals)
            if any(p % 2 for p in powers):
                closed = 0.0
            else:
                closed = 4.0 * np.pi * np.prod(
                    [double_factorial(p - 1) for p in powers]
                ) / double_factorial(k + 1)
            denom = abs(closed) if closed else 4.0 * np.pi
            worst = max(worst, abs(got - closed) / denom)
    report_criterion(5, "monomial moments",
                     [("degrees 0..4", worst, 1e-12)])


def test_criterion_06_quadratic_invariants():
    """The two quadratic curvature invariants match dense contractions
    of the Riemann tensor rebuilt from the Ricci tensor."""
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(1000):
        ric = rng.standard_normal((3, 3))
        ric = 0.5 * (ric + ric.T)
        inv_sq, inv_cross = quadratic_invariants(ric)
        dense = riemann_from_ricci(ric).dense
        dense_sq = float(np.einsum("abcd,abcd->", dense, dense))
        dense_cross = float(np.einsum("abcd,adcb->", dense, dense))
        worst = max(worst, abs(inv_sq - dense_sq) / abs(dense_sq),
                    abs(inv_cross - dense_cross) / abs(dense_cross))
    report_criterion(6, "quadratic curvature invariants",
                     [("thousand random draws", worst, 1e-12)])


def test_criterion_07_finite_difference_ricci():
    """Finite-difference Ricci of conformally flat metrics matches the
    pointwise closed form."""
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    kept = 0
    while kept < 100:
        b = rng.uniform(-0.3, 0.3, 3)
        A = rng.uniform(-0.3, 0.3, (3, 3))
        A = 0.5 * (A + A.T)
        point = rng.uniform(-0.3, 0.3, 3)
        rho0 = 1.0 + b @ point + point @ A @ point
        closed = conformal_ricci(rho0, b + 2.0 * A @ point, 2.0 * A)
        if rho0 < 0.6 or np.max(np.abs(closed)) < 0.05:
            continue
        kept += 1

        def rho_fun(pts, b=b, A=A):
            return 1.0 + pts @ b + np.einsum("ni,ij,nj->n", pts, A, pts)

        def drho_fun(pts, b=b, A=A):
            return b + 2.0 * pts @ A

        metric = MetricField.conformal(rho_fun, drho_fun)
        fd = fd_ricci(metric, point, step=1e-3)
        worst = max(worst,
                    np.max(np.abs(closed - fd)) / np.max(np.abs(closed)))
    elapsed = time.perf_counter() - start
    report_criterion(7, "finite-difference Ricci",
                     [("hundred conformal metrics", worst, 1e-6)],
                     elapsed=elapsed, budget=10.0)


def test_criterion_08_mass_variation_identity(grid12):
    """The variation of the mass integrand balances the flux integrand
    for affine metric velocities."""
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(20):
        A = rng.uniform(-0.5, 0.5, (3, 3))
        A = 0.5 * (A + A.T)
        B = rng.uniform(-0.5, 0.5, (3, 3, 3))
        B = 0.5 * (B + B.transpose(0, 2, 1))

        def gdot(pts, A=A, B=B):
            return A[None] + np.einsum("cab,nc->nab", B, pts)

        out = mass_variation_identity(gdot, grid12)
        worst = max(worst, out["difference"] / (1.0 + abs(out["rhs"])))
    report_criterion(8, "mass variation identity",
                     [("twenty affine velocities", worst, 1e-8)])


def test_criterion_09_surface_variation_formulas(grid8):
    """First and second variations of the induced metric trace and the
    mean curvature agree with centered differences along deformations,
    and the conformal probe reproduces its closed curve."""
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(20):
        params = random_deformation(grid8, rng, amplitude=0.1)
        worst = max(worst, variation_check(params)["max_discrepancy"])
    probe = conformal_probe_check()
    report_criterion(9, "surface variation formulas",
                     [("twenty deformations", worst, 1e-6),
                      ("conformal probe", probe["second_derivative_error"],
                       1e-8)])


def test_criterion_10_boundary_system_residuals(grid16):
    """The linear boundary solve leaves residuals far below the data
    size, and exterior harmonics satisfy the Dirichlet energy identity."""
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(50):
        data = random_data(grid16, rng, amplitude=0.1)
        sol = solve_boundary_system(data)
        worst = max(worst,
                    max(sol.residuals.values()) / data.epsilon_estimate)
    worst_dirichlet = 0.0
    for _ in range(100):
        decay = 1.0 / (1.0 + grid16.ls.astype(float)) ** 2
        v = HarmonicExterior(grid16,
                             0.3 * decay * rng.standard_normal(grid16.nmodes))
        lhs = v.dirichlet_energy()
        rhs = -grid16.integrate(v.trace().values * v.radial_trace().values)
        worst_dirichlet = max(worst_dirichlet, abs(lhs - rhs) / lhs)
    report_criterion(10, "boundary solve and energy identity",
                     [("system residuals", worst, 1e-9),
                      ("Dirichlet identity", worst_dirichlet, 1e-10)])


def test_criterion_11_gauge_invariance_of_m2(grid8):
    """m2 is unchanged by the degree-one shift of the linear lapse and
    by resolving the same data with a different kernel choice for the
    tangential reparametrization."""
    rng = np.random.default_rng(111)
    worst = 0.0
    kernel = grid8.ls == 1
    for _ in range(5):
        data = random_data(grid8, rng, amplitude=0.1)
        sol = solve_boundary_system(data)
        base = compute_m2(data, sol)
        shift = np.zeros(grid8.nmodes)
        shift[kernel] = rng.normal(size=3)
        eta = ScalarField.from_coeffs(grid8, shift)
        shifted = BoundarySolution(v=sol.v, f=sol.f + eta, X=sol.X)
        worst = max(worst, abs(compute_m2(data, shifted) - base))
        a = sol.X.a_coeffs.copy()
        b = sol.X.b_coeffs.copy()
        a[kernel] = rng.normal(size=3)
        b[kernel] = rng.normal(size=3)
        X2 = TangentField(grid8, a, b)
        f2 = (0.25 * data.gamma1.trace - 0.5 * X2.divergence()
              - 0.5 * sol.v.trace())
        regauged = BoundarySolution(v=sol.v, f=f2, X=X2)
        worst = max(worst, abs(compute_m2(data, regauged) - base))
    report_criterion(11, "gauge invariance of the second order",
                     [("lapse and kernel shifts", worst, 1e-12)])


@pytest.mark.slow
def test_criterion_12_geodesic_taylor_suite():
    """Geodesic spheres in random metrics converge to the small-sphere
    Taylor data at fifth order, and the fitted Hawking coefficients
    match their closed forms."""
    start = time.perf_counter()
    report = run_suite("taylor", seed=0, lmax=16, fast=False)
    elapsed = time.perf_counter() - start
    checks = report["checks"]
    parts = [(name, block["max_residual"], block["tolerance"])
             for name, block in checks.items()]
    report_criterion(12, "geodesic sphere verification suite", parts,
                     elapsed=elapsed, budget=300.0)
