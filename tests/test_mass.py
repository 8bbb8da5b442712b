"""Mass functionals: closed forms, scaling, consistency, gauge freedom."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.transform import Rotation

from statvac.boundary import (
    BartnikPerturbation,
    BoundarySolution,
    solve_boundary_system,
)
from statvac.curvature import (
    CurvatureJet,
    random_jet,
    reference_expansions,
    small_sphere_data,
)
from statvac.mass import (
    compute_m1,
    compute_m2,
    estimate,
    hawking_mass,
    small_sphere_quintic,
    small_sphere_report,
)
from statvac.oracles.sphere_variation import deformed_sphere_geometry, random_deformation
from statvac.oracles.suites import _m2_quadrature, random_data
from statvac.spherical import harmonics
from statvac.spherical.fields import ScalarField, SymTensorField, TangentField
from statvac.spherical.grid import build_grid

SQRT4PI = math.sqrt(4.0 * math.pi)


def constant_mode_data(grid, c, eps):
    """Round-sphere data scaled by sqrt(1+c) with mean curvature -2+eps."""
    trace = np.zeros(grid.nmodes)
    trace[0] = 2.0 * c * SQRT4PI
    H = np.zeros(grid.nmodes)
    H[0] = eps * SQRT4PI
    gamma = SymTensorField(grid, ScalarField.from_coeffs(grid, trace),
                           np.zeros(grid.nmodes), np.zeros(grid.nmodes))
    return BartnikPerturbation(gamma, ScalarField.from_coeffs(grid, H))


def random_perturbation(grid, rng, amplitude=0.1):
    decay = amplitude / (1.0 + grid.ls) ** 2
    trace = ScalarField.from_coeffs(grid, rng.normal(size=grid.nmodes) * decay)
    p = rng.normal(size=grid.nmodes) * decay
    q = rng.normal(size=grid.nmodes) * decay
    p[grid.ls < 2] = 0.0
    q[grid.ls < 2] = 0.0
    H1 = ScalarField.from_coeffs(grid, rng.normal(size=grid.nmodes) * decay)
    return BartnikPerturbation(SymTensorField(grid, trace, p, q), H1)


def exact_schwarzschild_mass(c, eps):
    """Mass of the Schwarzschild slice whose sphere of area radius
    a = sqrt(1+c) has mean curvature (-2+eps)/a: solving
    (2/a) sqrt(1 - 2m/a) = (2-eps)/a for m."""
    a = math.sqrt(1.0 + c)
    return 0.5 * a * (1.0 - a * a * (2.0 - eps) ** 2 / 4.0)


def test_round_data_has_zero_mass(grid8):
    data = constant_mode_data(grid8, 0.0, 0.0)
    report = estimate(data)
    assert report.m1 == 0.0
    assert report.m2 == 0.0
    assert abs(report.hawking) < 1e-14


def test_constant_mode_first_order(grid8):
    for c, eps in [(0.02, 0.0), (0.0, 0.03), (-0.04, 0.01)]:
        data = constant_mode_data(grid8, c, eps)
        m1, flux = compute_m1(data)
        assert abs(m1 - 0.5 * (eps - c)) < 1e-14
        assert abs(flux - m1) < 1e-14


def test_constant_mode_second_order_taylor(grid8):
    """m1 + m2 reproduces the quadratic Taylor polynomial of the exact
    Schwarzschild mass in the size of the offsets."""
    for c in (-0.08, -0.02, 0.05):
        for eps in (-0.06, 0.01, 0.07):
            data = constant_mode_data(grid8, c, eps)
            report = estimate(data)
            quadratic = (0.5 * (eps - c)
                         + 0.25 * (3.0 * c * eps - 0.5 * eps ** 2 - c ** 2))
            assert abs(report.total - quadratic) < 1e-13
            exact = exact_schwarzschild_mass(c, eps)
            size = max(abs(c), abs(eps))
            assert abs(report.total - exact) < 2.0 * size ** 3


def test_pure_mean_curvature_offset(grid8):
    eps = 0.01
    data = constant_mode_data(grid8, 0.0, eps)
    report = estimate(data)
    assert abs(report.m1 - eps / 2.0) < 1e-15
    assert abs(report.m2 + eps ** 2 / 8.0) < 1e-16


def test_mass_orders_scale_correctly(grid8, rng):
    data = random_perturbation(grid8, rng)
    base = estimate(data)
    scaled = estimate(data.scaled(0.5))
    assert abs(scaled.m1 - 0.5 * base.m1) < 1e-14
    assert abs(scaled.m2 - 0.25 * base.m2) < 1e-14


def test_m1_flux_consistency_random_data(grid8, rng):
    for _ in range(5):
        data = random_perturbation(grid8, rng)
        m1, flux = compute_m1(data)
        assert abs(m1 - flux) < 1e-13 * (1.0 + abs(m1))


def test_m2_invariant_under_degree_one_shift_of_f(grid8, rng):
    data = random_perturbation(grid8, rng)
    sol = solve_boundary_system(data)
    base = compute_m2(data, sol)
    shift = np.zeros(grid8.nmodes)
    shift[grid8.ls == 1] = rng.normal(size=3)
    eta = ScalarField.from_coeffs(grid8, shift)
    shifted = BoundarySolution(v=sol.v, f=sol.f + eta, X=sol.X)
    assert abs(compute_m2(data, shifted) - base) < 1e-14


def test_m2_invariant_under_killing_shift_of_x(grid8, rng):
    data = random_perturbation(grid8, rng)
    sol = solve_boundary_system(data)
    base = compute_m2(data, sol)
    a = np.array(sol.X.a_coeffs)
    b = np.array(sol.X.b_coeffs)
    kernel = grid8.ls == 1
    a[kernel] = rng.normal(size=3)
    b[kernel] = rng.normal(size=3)
    X2 = TangentField(grid8, a, b)
    f2 = 0.25 * data.gamma1.trace - 0.5 * X2.divergence() - 0.5 * sol.v.trace()
    shifted = BoundarySolution(v=sol.v, f=f2, X=X2)
    assert abs(compute_m2(data, shifted) - base) < 1e-14


def test_hawking_mass_closed_cases(grid8):
    zero = SymTensorField.zeros(grid8)
    assert abs(hawking_mass(zero, ScalarField.zeros(grid8))) < 1e-14
    # constant rescale: area radius a, Willmore (2/a)^2 a^2 / 4 = 1, mass 0
    c = 0.1
    data = constant_mode_data(grid8, c, 0.0)
    offset = 2.0 - 2.0 / math.sqrt(1.0 + c)
    H_round = ScalarField.constant(grid8, offset)
    assert abs(hawking_mass(data.gamma1, H_round)) < 1e-13


def test_hawking_mass_rejects_degenerate_metric(grid8):
    # trace -2.4 makes both frame diagonals negative, so the area density
    # determinant alone stays positive and the leading minor must be checked
    bad = constant_mode_data(grid8, -1.2, 0.0)
    with pytest.raises(ValueError):
        hawking_mass(bad.gamma1, ScalarField.zeros(grid8))


def test_estimate_diagnostics_shape(grid8, rng):
    data = random_perturbation(grid8, rng)
    jet = CurvatureJet.from_ricci(np.eye(3))
    report = estimate(data, tau=0.3, jet=jet)
    for key in ("residuals", "l1_residual", "epsilon_estimate", "m1_flux",
                "m1_consistency", "dirichlet_energy", "tracefree_truncation"):
        assert key in report.diagnostics
    assert set(report.diagnostics["residuals"]) == {"a", "b", "c", "d"}
    assert report.reference["static_c3"] == pytest.approx(0.25)
    assert report.tau_scaled_total == pytest.approx(0.3 * report.total)
    d = report.to_dict()
    assert d["total"] == report.m1 + report.m2


def test_small_sphere_quintic_matches_reference(grid8, rng):
    jet = random_jet(rng)
    ref = reference_expansions(jet)
    out = small_sphere_quintic(jet)
    assert abs(out["c3"] - ref.static_c3) < 1e-11
    assert abs(out["c5"] - ref.static_c5) < 1e-9
    report = small_sphere_report(jet, 0.01, grid8)
    assert report.tau == 0.01
    m1_even = ref.static_c3 * 1e-4 + jet.lap_scalar / 120.0 * 1e-8
    assert abs(report.m1 - m1_even) < 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(0.1, 10.0))
def test_small_sphere_quintic_is_exact_at_every_scale(seed, scale):
    """The coefficients come from the jet alone, with no radius to divide
    by, so they carry only the roundoff of the closed forms' terms: the
    sums of the absolute terms of R/12 and of
    (30|Ric|^2 - 25R^2 + 18 lap R)/2160 set the scale."""
    jet = random_jet(np.random.default_rng(seed), scale=scale)
    ref = reference_expansions(jet)
    out = small_sphere_quintic(jet)
    c3_scale = np.sum(np.abs(np.diag(jet.ric))) / 12.0
    c5_scale = (30.0 * jet.ric_sq + 25.0 * jet.scalar ** 2
                + 18.0 * np.sum(np.abs(np.einsum("ddii->di", jet.d2ric)))) / 2160.0
    assert abs(out["c3"] - ref.static_c3) <= 1e-13 * c3_scale
    assert abs(out["c5"] - ref.static_c5) <= 1e-13 * c5_scale


def rotated_jet(jet, R):
    """The jet of the same metric in coordinates rotated by R, on every index."""
    return CurvatureJet(np.einsum("ia,jb,ab->ij", R, R, jet.ric),
                        np.einsum("ic,ja,kb,cab->ijk", R, R, R, jet.dric),
                        np.einsum("id,jc,ka,lb,dcab->ijkl", R, R, R, R, jet.d2ric))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), tau=st.floats(0.01, 0.3))
def test_small_sphere_masses_are_rotation_invariant(grid8, seed, tau):
    rng = np.random.default_rng(seed)
    jet = random_jet(rng)
    R = Rotation.random(random_state=rng).as_matrix()
    base = small_sphere_report(jet, tau, grid8)
    turned = small_sphere_report(rotated_jet(jet, R), tau, grid8)
    eps = base.diagnostics["epsilon_estimate"]
    assert abs(turned.m1 - base.m1) <= 1e-12 * eps
    assert abs(turned.m2 - base.m2) <= 1e-12 * eps ** 2


def rotated(grid, coeffs, R):
    """Coefficients of n -> u(R n) for a band-limited scalar u: sampled at
    the rotated nodes and analyzed, which is exact at the grid's band."""
    theta, phi = harmonics.angles_from_directions(grid.nodes @ R.T)
    return grid.analyze(coeffs @ harmonics.harmonic_tables(grid.lmax, theta, phi,
                                                           derivative=False))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), lmax=st.integers(2, 12))
def test_masses_of_general_data_are_rotation_invariant(seed, lmax):
    """Turning the sphere by a rotation turns the trace, the trace-free
    potentials p and q, and H1 as scalars, since the trace-free Hessian and
    the rotation J commute with it; m1 and m2 must stay put.  A per-mode
    multiplier that depended on m would break this."""
    grid = build_grid(lmax)
    rng = np.random.default_rng(seed)
    data = random_perturbation(grid, rng)
    R = Rotation.random(random_state=rng).as_matrix()
    gamma = data.gamma1
    turned = BartnikPerturbation(
        SymTensorField(grid, ScalarField.from_coeffs(grid, rotated(grid, gamma.trace.coeffs, R)),
                       rotated(grid, gamma.p_coeffs, R), rotated(grid, gamma.q_coeffs, R)),
        ScalarField.from_coeffs(grid, rotated(grid, data.H1.coeffs, R)))
    base, after = estimate(data), estimate(turned)
    eps = data.epsilon_estimate
    assert abs(after.m1 - base.m1) <= 1e-12 * eps
    assert abs(after.m2 - base.m2) <= 1e-12 * eps ** 2


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), tau=st.floats(0.01, 0.3))
def test_small_sphere_masses_are_resolved_at_band_four(grid16, seed, tau):
    """Small-sphere data through order four is band-limited at degree four,
    so an lmax-4 grid gives the masses of an lmax-16 grid."""
    jet = random_jet(np.random.default_rng(seed))
    fine = small_sphere_report(jet, tau, grid16)
    coarse = small_sphere_report(jet, tau, build_grid(4))
    eps = fine.diagnostics["epsilon_estimate"]
    assert abs(coarse.m1 - fine.m1) <= 1e-12 * eps
    assert abs(coarse.m2 - fine.m2) <= 1e-12 * eps ** 2


# The three properties below measured at most 2.1e-16 in units of their
# tolerances' epsilon scale, over 400 examples of seed, lmax 2-12 and s.


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), lmax=st.integers(2, 12))
def test_m2_is_invariant_under_a_degree_one_shift_of_f(seed, lmax):
    """The (Laplace + 2) multiplier vanishes at degree one, so equation (c)
    leaves the degree-one part of the lapse f free; m2 must not see it."""
    grid = build_grid(lmax)
    rng = np.random.default_rng(seed)
    data = random_perturbation(grid, rng)
    sol = solve_boundary_system(data)
    shift = np.zeros(grid.nmodes)
    shift[grid.ls == 1] = rng.normal(size=3)
    lapse = BoundarySolution(v=sol.v, f=sol.f + ScalarField.from_coeffs(grid, shift), X=sol.X)
    gap = abs(compute_m2(data, lapse) - compute_m2(data, sol))
    assert gap <= 1e-12 * data.epsilon_estimate ** 2


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), lmax=st.integers(2, 12))
def test_m2_is_invariant_under_degree_one_regauging(seed, lmax):
    """m2 does not see a conformal Killing (degree-one) shift of X with f
    re-solved from equation (b)."""
    grid = build_grid(lmax)
    rng = np.random.default_rng(seed)
    data = random_perturbation(grid, rng)
    sol = solve_boundary_system(data)
    kernel = grid.ls == 1
    a = np.array(sol.X.a_coeffs)
    b = np.array(sol.X.b_coeffs)
    a[kernel] = rng.normal(size=3)
    b[kernel] = rng.normal(size=3)
    X2 = TangentField(grid, a, b)
    f2 = 0.25 * data.gamma1.trace - 0.5 * X2.divergence() - 0.5 * sol.v.trace()
    killing = BoundarySolution(v=sol.v, f=f2, X=X2)
    gap = abs(compute_m2(data, killing) - compute_m2(data, sol))
    assert gap <= 1e-12 * data.epsilon_estimate ** 2


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), lmax=st.integers(2, 12),
       s=st.floats(-10.0, 10.0).filter(lambda s: abs(s) >= 1e-3))
def test_mass_orders_are_homogeneous_in_the_data(seed, lmax, s):
    data = random_perturbation(build_grid(lmax), np.random.default_rng(seed))
    base = estimate(data)
    scaled = estimate(data.scaled(s))
    eps = data.epsilon_estimate
    assert abs(scaled.m1 - s * base.m1) <= 1e-12 * abs(s) * eps
    assert abs(scaled.m2 - s * s * base.m2) <= 1e-12 * (s * eps) ** 2


def quadrature_gap(data):
    """|node quadrature of m2's boundary integral - compute_m2| / (1 + |m2|)."""
    sol = solve_boundary_system(data)
    m2 = compute_m2(data, sol)
    return abs(_m2_quadrature(data, sol) - m2) / (1.0 + abs(m2))


def test_m2_sum_matches_the_quadrature_on_full_band_data(rng):
    grid = build_grid(48)
    for _ in range(3):
        assert quadrature_gap(random_perturbation(grid, rng)) <= 1e-12


@pytest.mark.parametrize("lmax", [4, 16, 128])
def test_m2_sum_matches_the_quadrature_on_small_sphere_data(lmax):
    grid = build_grid(lmax)
    jet = random_jet(np.random.default_rng(lmax))
    for tau in (1e-3, 0.05, 1.0):
        assert quadrature_gap(small_sphere_data(jet, tau, 4, grid)) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), lmax=st.integers(4, 24))
def test_m2_sum_matches_the_quadrature_on_random_data(seed, lmax):
    data = random_data(build_grid(lmax), np.random.default_rng(seed))
    assert quadrature_gap(data) <= 1e-12


@pytest.mark.parametrize("lmax", [6, 8])
def test_m2_quadrature_gap_is_bounded_by_the_truncations(lmax):
    """Deformed-sphere data is node-valued and not band-limited, so the two
    m2 routes differ, by no more than the bound in compute_m2's docstring,
    which estimate reports as m2_truncation_bound."""
    grid = build_grid(lmax)
    for seed in range(3):
        params = random_deformation(grid, np.random.default_rng(seed))
        (c11, c12, c22), h = deformed_sphere_geometry(params, [1.0])
        data = BartnikPerturbation(
            SymTensorField.from_components(grid, c11[0] - 1.0, c12[0], c22[0] - 1.0),
            ScalarField.from_values(grid, h[0] + 2.0))
        sol = solve_boundary_system(data)
        gap = abs(_m2_quadrature(data, sol) - compute_m2(data, sol))
        a = data.H1.truncation
        b = data.gamma1.trace.truncation
        c = data.gamma1.tracefree_truncation
        bound = estimate(data).diagnostics["m2_truncation_bound"]
        assert bound == 3.0 / 16.0 * a * b + 0.5 * c * c
        assert 1e-8 < gap <= bound


def test_m2_truncation_bound_is_zero_for_coefficient_data(grid8, rng):
    data = random_perturbation(grid8, rng)
    assert estimate(data).diagnostics["m2_truncation_bound"] == 0.0
