"""Geodesic-sphere sampling and curvature-jet extraction from ambient metrics."""

import numpy as np
import pytest

from statvac.curvature import CurvatureJet, small_sphere_data
from statvac.oracles import (
    MetricField,
    NumericalFailure,
    geodesic_sphere,
    jet_from_metric,
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


def test_geodesic_sphere_validation():
    grid = build_grid(6)
    metric = MetricField.euclidean()
    with pytest.raises(ValueError):
        geodesic_sphere(metric, (0.0, 0.0, 0.0), -0.1, grid)
    with pytest.raises(ValueError):
        geodesic_sphere(metric, (0.0, 0.0, 0.0), 0.1, grid, steps=(0.01, 0.02))
    with pytest.raises(ValueError):
        geodesic_sphere(metric, (0.0, 0.0, 0.0), 0.1, grid, steps=(0.2, 0.1))


def test_indefinite_metric_is_a_numerical_failure():
    grid = build_grid(6)

    def fun(pts):
        return np.broadcast_to(np.diag([1.0, 1.0, -1.0]),
                               (pts.shape[0], 3, 3)).copy()

    with pytest.raises(NumericalFailure):
        geodesic_sphere(MetricField(fun, label="indefinite"), (0.0, 0.0, 0.0),
                        0.1, grid)


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
