"""Geodesic-sphere sampling and curvature-jet extraction from ambient metrics."""

import gc

import numpy as np
import pytest
from scipy.integrate import DOP853

from statvac.curvature import CurvatureJet, small_sphere_data
from statvac.oracles import geodesic
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
    pert = geodesic_sphere(MetricField.euclidean(), (0.1, -0.2, 0.05), 0.37, grid)
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

    def fun(pts):
        widths.append(pts.shape[0])
        return base(pts)

    def grad(pts):
        widths.append(pts.shape[0])
        return base.gradient(pts)

    diag = {}
    geodesic_sphere(MetricField(fun, grad, label="counted"), (0.0, 0.0, 0.0),
                    0.1, grid, diagnostics=diag)
    assert max(widths) == grid.nnodes
    # two calls (value and gradient) per right-hand side, all full width
    assert widths.count(grid.nnodes) >= 2 * diag["nfev"]


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


def test_default_tolerances_track_a_tight_reference(monkeypatch):
    """The whole-radius first step keeps the data within 3e-13 of a tight
    integration (rtol 2.3e-14, atol 1e-17, first step tau/32) up to
    tau 0.05, and within 2e-12 at tau 0.08."""
    grid = build_grid(12)

    def short_first_step(*args, **kwargs):
        return DOP853(*args, **{**kwargs, "first_step": kwargs["first_step"] / 32})

    for seed in range(3):
        metric = random_polynomial_metric(np.random.default_rng(seed), amplitude=0.5)
        for tau, bound in ((0.005, 3e-13), (0.03, 3e-13), (0.05, 3e-13), (0.08, 2e-12)):
            data = geodesic_sphere(metric, (0.0, 0.0, 0.0), tau, grid)
            with monkeypatch.context() as patch:
                patch.setattr(geodesic, "DOP853", short_first_step)
                ref = geodesic_sphere(metric, (0.0, 0.0, 0.0), tau, grid,
                                      rtol=2.3e-14, atol=1e-17)
            assert data_gap(data, ref) < bound, (seed, tau)


def test_geodesic_sphere_validation():
    grid = build_grid(6)
    metric = MetricField.euclidean()
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
        geodesic_sphere(MetricField(fun, label="indefinite"), (0.0, 0.0, 0.0),
                        0.1, grid)


def test_geodesic_sphere_frees_its_solver_without_a_collection():
    gc.collect()
    gc.disable()
    try:
        geodesic_sphere(MetricField.space_form(0.6), (0.0, 0.0, 0.0), 0.1,
                        build_grid(4))
        alive = [obj for obj in gc.get_objects() if isinstance(obj, DOP853)]
    finally:
        gc.enable()
    assert alive == []


def metric_beyond(radius, g_outside, dg_outside):
    """Identity metric with zero gradient inside |x| <= radius, given values outside."""

    def outside(pts):
        return np.linalg.norm(pts, axis=1) > radius

    def fun(pts):
        g = np.broadcast_to(np.eye(3), (pts.shape[0], 3, 3)).copy()
        g[outside(pts)] = g_outside
        return g

    def grad(pts):
        dg = np.zeros((pts.shape[0], 3, 3, 3))
        dg[outside(pts)] = dg_outside
        return dg

    return MetricField(fun, grad, label="cut off")


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
