"""Geodesic-sphere sampling and curvature-jet extraction from ambient metrics."""

import gc

import numpy as np
import pytest
from scipy.integrate import DOP853

from statvac.curvature import CurvatureJet, small_sphere_data
from statvac.oracles import dop853, geodesic
from statvac.oracles import (
    MetricField,
    NumericalFailure,
    geodesic_sphere,
    jet_from_metric,
    random_polynomial_metric,
    space_form_reference,
)
from statvac.spherical.grid import build_grid


def test_space_form_reference_closed_values():
    factor, scaled_h = space_form_reference(0.0, 0.7)
    assert factor == 1.0 and scaled_h == -2.0

    k, tau = 0.8, 0.3
    x = np.sqrt(k) * tau
    factor, scaled_h = space_form_reference(k, tau)
    assert abs(factor - (np.sin(x) / x) ** 2) < 1e-15
    assert abs(scaled_h + 2.0 * x / np.tan(x)) < 1e-15
    # small-radius expansion: factor = 1 - x^2/3 + ..., scaled H = -2 + 2 x^2/3
    assert abs(factor - 1.0 + x ** 2 / 3.0) < x ** 4
    assert abs(scaled_h + 2.0 - 2.0 * x ** 2 / 3.0) < x ** 4

    factor, scaled_h = space_form_reference(-1.2, 0.4)
    x = np.sqrt(1.2) * 0.4
    assert abs(factor - (np.sinh(x) / x) ** 2) < 1e-15
    assert abs(scaled_h + 2.0 * x / np.tanh(x)) < 1e-15

    with pytest.raises(ValueError):
        space_form_reference(0.5, 0.0)
    with pytest.raises(ValueError):
        space_form_reference(1.0, np.pi)
    for k, tau in ((0.5, np.nan), (0.5, np.inf), (-0.5, np.inf), (np.nan, 0.1),
                   (np.inf, 0.1), (-np.inf, 0.1)):
        with pytest.raises(ValueError):
            space_form_reference(k, tau)


def test_flat_geodesic_sphere_has_no_offsets():
    grid = build_grid(6)
    pert = geodesic_sphere(MetricField.polynomial(), (0.1, -0.2, 0.05), 0.37, grid)
    assert np.max(np.abs(pert.gamma1.trace.values)) < 1e-10
    assert np.max(pert.gamma1.tracefree_norm_sq_values()) < 1e-20
    assert np.max(np.abs(pert.H1.values)) < 1e-10


def test_space_form_spheres_match_the_closed_reference():
    grid = build_grid(6)
    tau = 0.1
    for k in (0.6, -0.9):
        metric = MetricField.space_form(k)
        diag = {}
        pert = geodesic_sphere(metric, (0.0, 0.0, 0.0), tau, grid,
                               diagnostics=diag)
        factor, scaled_h = space_form_reference(k, tau)
        np.testing.assert_allclose(pert.gamma1.trace.values,
                                   2.0 * (factor - 1.0), atol=1e-11)
        assert np.max(pert.gamma1.tracefree_norm_sq_values()) < 1e-22
        np.testing.assert_allclose(pert.H1.values, scaled_h + 2.0, atol=1e-11)
        assert diag["speed_drift"] < 1e-12
        assert diag["nfev"] > diag["num_steps"] > 1


@pytest.mark.parametrize("k", [0.7, -0.55])
def test_lmax12_space_form_spheres_match_the_closed_forms(k):
    grid = build_grid(12)
    for tau in (0.05, 0.1, 0.3):
        pert = geodesic_sphere(MetricField.space_form(k), (0.0, 0.0, 0.0),
                               tau, grid)
        factor, scaled_h = space_form_reference(k, tau)
        c11, c12, c22 = pert.gamma1.components()
        np.testing.assert_allclose(c11, factor - 1.0, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(c12, 0.0, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(c22, factor - 1.0, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(pert.H1.values, scaled_h + 2.0,
                                   rtol=0.0, atol=1e-12)


def test_lmax12_sphere_is_resolved_against_a_finer_grid():
    """The lmax-12 data of a random metric agree, through degree 12, with the
    same sphere sampled on an lmax-20 grid.  Measured worst over six metrics
    and tau in (0.03, 0.05, 0.08): 7.7e-13, set by the l = 0 coefficients;
    the lmax-12 spectral tail stayed below 6e-16."""
    coarse, fine = build_grid(12), build_grid(20)
    nm = coarse.nmodes

    def coeffs(pert):
        gamma = pert.gamma1
        return np.stack([gamma.trace.coeffs[:nm], gamma.p_coeffs[:nm],
                         gamma.q_coeffs[:nm], pert.H1.coeffs[:nm]])

    metric = random_polynomial_metric(np.random.default_rng(2), amplitude=0.5)
    for tau in (0.03, 0.08):
        diag = {}
        a = geodesic_sphere(metric, (0.0, 0.0, 0.0), tau, coarse, diagnostics=diag)
        b = geodesic_sphere(metric, (0.0, 0.0, 0.0), tau, fine)
        assert np.max(np.abs(coeffs(a) - coeffs(b))) < 3e-12
        assert 0.0 <= diag["spectral_tail"] < 1e-14


def test_integration_never_evaluates_more_points_than_grid_nodes():
    grid = build_grid(6)
    base = random_polynomial_metric(np.random.default_rng(0), amplitude=0.5)
    widths = []

    def jet(pts, order):
        widths.append(pts.shape[0])
        return base.jet(pts) if order == 1 else (base.jet(pts)[0], None)

    diag = {}
    geodesic_sphere(MetricField._from_jet(jet), (0.0, 0.0, 0.0),
                    0.1, grid, diagnostics=diag)
    assert max(widths) == grid.nnodes
    # one full-width jet per right-hand side and one at the end points
    assert widths.count(grid.nnodes) == diag["nfev"] + 1


def test_geodesic_sphere_never_forms_christoffel_symbols(monkeypatch):
    calls = []
    original = MetricField.christoffel

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(MetricField, "christoffel", counted)
    pert = geodesic_sphere(MetricField.space_form(0.6), (0.0, 0.0, 0.0), 0.1,
                           build_grid(6))
    assert np.all(np.isfinite(pert.H1.values))
    assert calls == []


def test_space_form_spheres_match_the_taylor_data():
    """The fourth-order Taylor data and the integrated geometry must agree
    to the tau^6 remainder; this pins the signs of both constructions."""
    grid = build_grid(6)
    tau = 0.1
    for k in (0.6, -0.9):
        pert = geodesic_sphere(MetricField.space_form(k), (0.0, 0.0, 0.0),
                               tau, grid)
        jet = CurvatureJet.from_ricci(2.0 * k * np.eye(3))
        data = small_sphere_data(jet, tau, 4, grid)
        np.testing.assert_allclose(pert.gamma1.trace.values,
                                   data.gamma1.trace.values, atol=2e-8)
        np.testing.assert_allclose(pert.H1.values, data.H1.values, atol=2e-8)


def test_small_sphere_is_one_step_of_the_whole_radius():
    metric = random_polynomial_metric(np.random.default_rng(0), amplitude=0.5)
    diag = {}
    geodesic_sphere(metric, (0.0, 0.0, 0.0), 0.03, build_grid(12), diagnostics=diag)
    assert diag["num_steps"] == 2  # the initial point and one accepted step
    assert diag["nfev"] == 13  # the initial derivative and twelve stages


def data_gap(a, b):
    pairs = zip(a.gamma1.components() + (a.H1.values,),
                b.gamma1.components() + (b.H1.values,))
    return max(float(np.max(np.abs(x - y))) for x, y in pairs)


def scipy_dop853(fun, y0, t_end, first_step, *, rtol, atol):
    """The stepper's contract run by scipy's DOP853, the independent reference."""
    solver = DOP853(lambda _t, y: fun(y), 0.0, y0, t_end, rtol=rtol, atol=atol,
                    first_step=first_step)
    nstep = 0
    while solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            raise NumericalFailure(message)
        nstep += 1
    return solver.y, solver.nfev, nstep


def test_default_tolerances_track_a_tight_reference(monkeypatch):
    """The whole-radius first step keeps the data within 3e-13 of a tight
    scipy integration of the same right-hand side (rtol 2.3e-14, atol
    1e-17, first step tau/32) up to tau 0.05, and within 2e-12 at tau 0.08."""
    grid = build_grid(12)

    def short_first_step(fun, y0, t_end, **tols):
        return scipy_dop853(fun, y0, t_end, t_end / 32, **tols)

    for seed in range(3):
        metric = random_polynomial_metric(np.random.default_rng(seed), amplitude=0.5)
        for tau, bound in ((0.005, 3e-13), (0.03, 3e-13), (0.05, 3e-13), (0.08, 2e-12)):
            data = geodesic_sphere(metric, (0.0, 0.0, 0.0), tau, grid)
            with monkeypatch.context() as patch:
                patch.setattr(geodesic, "integrate", short_first_step)
                ref = geodesic_sphere(metric, (0.0, 0.0, 0.0), tau, grid,
                                      rtol=2.3e-14, atol=1e-17)
            assert data_gap(data, ref) < bound, (seed, tau)


def geodesic_system(monkeypatch, metric, tau):
    """The arguments of geodesic_sphere's one integration at lmax 8."""
    seen = []

    def record(*args, **tols):
        seen.append((args, tols))
        return dop853.integrate(*args, **tols)

    with monkeypatch.context() as patch:
        patch.setattr(geodesic, "integrate", record)
        try:
            geodesic_sphere(metric, (0.0, 0.0, 0.0), tau, build_grid(8))
        except NumericalFailure:
            pass
    (fun, y0, t_end), tols = seen[0]
    return fun, y0, t_end, tols


def test_stepper_matches_scipy_dop853_bitwise(monkeypatch):
    """Final state, evaluations and steps equal scipy's DOP853 started
    with the whole interval as its first step."""
    def effort(fun, y0, t_end, **tols):
        y, nfev, nstep = dop853.integrate(fun, y0, t_end, **tols)
        y_ref, nfev_ref, nstep_ref = scipy_dop853(fun, y0, t_end, t_end, **tols)
        assert np.array_equal(y, y_ref)
        assert (nfev, nstep) == (nfev_ref, nstep_ref)
        return nfev, nstep

    metric = random_polynomial_metric(np.random.default_rng(0), amplitude=0.5)
    fun, y0, tau, default = geodesic_system(monkeypatch, metric, 0.08)
    assert effort(fun, y0, tau, rtol=2.3e-14, atol=1e-17)[1] > 2
    # the whole radius is rejected once, then two steps pass
    assert effort(fun, y0, tau, **default) == (1 + 12 * 3, 2)
    # an oscillator's first step shrinks so far that the next one passes
    # with room to grow, which the step right after a rejection may not do
    effort(lambda y: np.array([y[1], -y[0]]), np.array([1.0, 0.0]), 2.0,
           rtol=1e-12, atol=1e-14)
    # scipy raises an rtol below 100 machine epsilons to that, with a warning
    with pytest.warns(UserWarning, match="rtol"):
        effort(fun, y0, tau, rtol=1e-16, atol=1e-17)

    fun, y0, tau, tols = geodesic_system(
        monkeypatch, metric_beyond(0.02, np.eye(3), np.nan), 0.1)
    with pytest.raises(NumericalFailure) as ours:
        dop853.integrate(fun, y0, tau, **tols)
    with pytest.raises(NumericalFailure) as ref:
        scipy_dop853(fun, y0, tau, tau, **tols)
    assert str(ours.value) == str(ref.value) == dop853.TOO_SMALL_STEP


def test_geodesic_sphere_validation():
    grid = build_grid(6)
    metric = MetricField.polynomial()
    with pytest.raises(ValueError):
        geodesic_sphere(metric, (0.0, 0.0, 0.0), -0.1, grid)
    # non-finite input would leave the integrator stepping forever, and a
    # radius whose square overflows would fail deep inside
    for tau in (np.nan, np.inf, 1e300):
        with pytest.raises(ValueError, match="tau"):
            geodesic_sphere(metric, (0.0, 0.0, 0.0), tau, grid)
    for center in ((np.nan, 0.0, 0.0), (0.0, np.inf, 0.0), (0.0, 0.0, -np.inf)):
        with pytest.raises(ValueError, match="center"):
            geodesic_sphere(metric, center, 0.1, grid)


def test_indefinite_metric_is_a_numerical_failure():
    grid = build_grid(6)

    def fun(pts):
        return np.broadcast_to(np.diag([1.0, 1.0, -1.0]),
                               (pts.shape[0], 3, 3)).copy()

    with pytest.raises(NumericalFailure):
        geodesic_sphere(MetricField(fun), (0.0, 0.0, 0.0),
                        0.1, grid)


def test_non_finite_metric_at_the_center_is_a_numerical_failure():
    def fun(pts):
        g = np.broadcast_to(np.eye(3), (pts.shape[0], 3, 3)).copy()
        g[np.all(pts == 0.0, axis=1), 2, 2] = np.nan
        return g

    with pytest.raises(NumericalFailure, match="not finite at the center"):
        geodesic_sphere(MetricField(fun), (0.0, 0.0, 0.0),
                        0.1, build_grid(4))


def test_geodesic_sphere_frees_its_solver_without_a_collection():
    """The integration leaves no reference cycle behind, so its stage
    arrays go as soon as the call returns, not at the next collection."""
    gc.collect()
    gc.disable()
    try:
        geodesic_sphere(MetricField.space_form(0.6), (0.0, 0.0, 0.0), 0.1,
                        build_grid(4))
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


def metric_beyond(radius, g_outside, dg_outside):
    """Identity metric with zero gradient inside |x| <= radius, given values
    outside; a jet sets the value and the gradient independently."""

    def jet(pts, order):
        outside = np.linalg.norm(pts, axis=1) > radius
        g = np.broadcast_to(np.eye(3), (pts.shape[0], 3, 3)).copy()
        g[outside] = g_outside
        dg = np.zeros((pts.shape[0], 3, 3, 3))
        dg[outside] = dg_outside
        return (np.ascontiguousarray(np.moveaxis(g, 0, -1)),
                np.ascontiguousarray(np.moveaxis(dg, 0, -1)) if order else None)

    return MetricField._from_jet(jet)


def test_non_finite_gradient_is_a_numerical_failure():
    metric = metric_beyond(0.02, np.eye(3), np.nan)
    with pytest.raises(NumericalFailure) as err:
        geodesic_sphere(metric, (0.0, 0.0, 0.0), 0.1, build_grid(4))
    assert str(err.value) == ("geodesic integration failed: Required step size "
                              "is less than spacing between numbers.")


def test_metric_singular_along_a_probe_is_a_numerical_failure():
    metric = metric_beyond(0.02, np.nan, 0.0)
    with pytest.raises(NumericalFailure) as err:
        geodesic_sphere(metric, (0.0, 0.0, 0.0), 0.1, build_grid(4))
    assert str(err.value) == ("geodesic integration failed: "
                              "singular or non-finite metric")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("g_outside, message", [
    (np.diag([1.0, 1.0, -1.0]), "degenerate induced metric"),
    (-np.eye(3), "degenerate surface normal"),
])
def test_degenerate_sphere_is_a_numerical_failure(g_outside, message):
    """Geodesics run straight where the gradient vanishes, so they end on
    the flat sphere of radius 0.1; the metric there makes its induced
    metric indefinite, or leaves it definite but the normal null."""
    metric = metric_beyond(0.05, g_outside, 0.0)
    with pytest.raises(NumericalFailure, match=message):
        geodesic_sphere(metric, (0.0, 0.0, 0.0), 0.1, build_grid(4))


def test_jet_from_metric_on_a_space_form():
    k = 0.5
    jet = jet_from_metric(MetricField.space_form(k), (0.0, 0.0, 0.0))
    np.testing.assert_allclose(jet.ric, 2.0 * k * np.eye(3), atol=1e-8)
    assert abs(jet.scalar - 6.0 * k) < 1e-8
    # parallel Ricci: both covariant derivative blocks vanish
    assert np.max(np.abs(jet.dric)) < 1e-7
    assert np.max(np.abs(jet.d2ric)) < 1e-5


def test_jet_from_metric_needs_a_critical_center():
    with pytest.raises(ValueError):
        jet_from_metric(MetricField.space_form(0.5), (0.3, 0.0, 0.0))
