"""First and second variations of sphere geometry under ambient deformations."""

import numpy as np
import pytest

from statvac.boundary import HarmonicExterior
from statvac.oracles import sphere_variation
from statvac.oracles import (
    DeformationParams,
    NumericalFailure,
    conformal_probe_check,
    deformed_sphere_geometry,
    first_variation,
    mass_variation_identity,
    random_deformation,
    variation_check,
)
from statvac.spherical.fields import ScalarField, TangentField
from statvac.spherical.grid import build_grid


def constant_params(grid, f_const=0.0, v_const=0.0):
    coeffs = np.zeros(grid.nmodes)
    coeffs[0] = v_const * np.sqrt(4.0 * np.pi)
    return DeformationParams(f=ScalarField.constant(grid, f_const),
                             X=TangentField.zeros(grid),
                             vperp=HarmonicExterior(grid, coeffs))


def test_undeformed_sphere_is_round(grid8, rng):
    params = random_deformation(grid8, rng)
    gamma, h = deformed_sphere_geometry(params, 0.0)
    np.testing.assert_allclose(gamma.trace.values, 2.0, atol=1e-12)
    assert np.max(gamma.tracefree_norm_sq_values()) < 1e-24
    np.testing.assert_allclose(h.values, -2.0, atol=1e-12)


def test_pure_scaling_curve_is_exact(grid8):
    """f = c rescales the sphere to radius 1 + t c, so the induced metric is
    (1 + t c)^2 times round and H = -2 / (1 + t c), exactly in t."""
    c = 0.3
    params = constant_params(grid8, f_const=c)
    for t in (0.0, 0.05, -0.08, 0.4):
        r = 1.0 + t * c
        gamma, h = deformed_sphere_geometry(params, t)
        np.testing.assert_allclose(gamma.trace.values, 2.0 * r ** 2, atol=1e-12)
        np.testing.assert_allclose(h.values, -2.0 / r, atol=1e-12)
    trdot, hdot = first_variation(params)
    np.testing.assert_allclose(trdot.values, 4.0 * c, atol=1e-13)
    np.testing.assert_allclose(hdot.values, 2.0 * c, atol=1e-13)


def test_variation_check_evaluates_the_exterior_gradient_once(grid8, rng, monkeypatch):
    """grad v does not depend on t, so the five sampled times share it."""
    calls = []
    original = HarmonicExterior.gradient

    def counted(self, points=None):
        calls.append(points)
        return original(self, points)

    monkeypatch.setattr(HarmonicExterior, "gradient", counted)
    variation_check(random_deformation(grid8, rng))
    assert calls == [None]


def test_variation_check_builds_the_t_independent_data_once(grid8, rng, monkeypatch):
    calls = []
    original = TangentField.ambient_components

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(TangentField, "ambient_components", counted)
    variation_check(random_deformation(grid8, rng))
    assert len(calls) == 1


def test_first_variation_is_linear_in_the_parameters(grid8, rng):
    pa = random_deformation(grid8, rng)
    pb = random_deformation(grid8, rng)
    psum = DeformationParams(f=pa.f + pb.f,
                             X=TangentField(grid8,
                                            pa.X.a_coeffs + pb.X.a_coeffs,
                                            pa.X.b_coeffs + pb.X.b_coeffs),
                             vperp=HarmonicExterior(grid8,
                                                    pa.vperp.coeffs + pb.vperp.coeffs))
    tr_a, h_a = first_variation(pa)
    tr_b, h_b = first_variation(pb)
    tr_s, h_s = first_variation(psum)
    np.testing.assert_allclose(tr_s.values, tr_a.values + tr_b.values, atol=1e-13)
    np.testing.assert_allclose(h_s.values, h_a.values + h_b.values, atol=1e-13)


def test_variation_check_on_random_deformations(rng):
    grid = build_grid(6)
    worst = 0.0
    for _ in range(3):
        params = random_deformation(grid, rng, amplitude=0.1)
        report = variation_check(params)
        assert set(report) == {"trace_first", "h_first", "trace_second",
                               "h_second", "max_discrepancy"}
        worst = max(worst, report["max_discrepancy"])
    assert worst < 1e-6


def test_variation_check_rejects_uneven_steps(grid8, rng):
    params = random_deformation(grid8, rng)
    with pytest.raises(ValueError):
        variation_check(params, steps=(8e-3, 3e-3))


def test_widened_params_keep_the_variation(grid8, rng):
    params = random_deformation(grid8, rng)
    wide = params.widened(build_grid(12))
    trdot, hdot = first_variation(params)
    trdot_w, hdot_w = first_variation(wide)
    np.testing.assert_allclose(trdot_w.coeffs[: grid8.nmodes], trdot.coeffs,
                               atol=1e-13)
    np.testing.assert_allclose(hdot_w.coeffs[: grid8.nmodes], hdot.coeffs,
                               atol=1e-13)
    assert np.max(np.abs(trdot_w.coeffs[grid8.nmodes:])) < 1e-13
    with pytest.raises(ValueError):
        params.widened(build_grid(6))


@pytest.mark.filterwarnings("error")
def test_degenerate_surface_raises(grid8):
    """f = -1 at t = 1 collapses the sphere to a point: every tangent is 0."""
    params = constant_params(grid8, f_const=-1.0)
    with pytest.raises(ValueError, match="deformed surface is degenerate at this t"):
        deformed_sphere_geometry(params, 1.0)


@pytest.mark.filterwarnings("error")
def test_nonpositive_conformal_factor_raises(grid8):
    params = constant_params(grid8, v_const=-1.5)
    with pytest.raises(ValueError, match="conformal factor is not positive at this t"):
        deformed_sphere_geometry(params, 1.0)


def test_conformal_probe_matches_the_closed_curve():
    report = conformal_probe_check(lmax=6)
    assert report["h_curve_error"] < 1e-12
    assert abs(report["second_derivative"] + 4.5) < 1e-8
    assert report["second_derivative_error"] < 1e-8


def test_conformal_probe_builds_each_of_its_five_spheres_once(monkeypatch):
    times = []
    original = sphere_variation.deformed_sphere_geometry

    def counted(params, t):
        times.append(t)
        return original(params, t)

    monkeypatch.setattr(sphere_variation, "deformed_sphere_geometry", counted)
    conformal_probe_check(lmax=6, steps=(2e-3, 1e-3))
    assert sorted(times) == [-2e-3, -1e-3, 0.0, 1e-3, 2e-3]


def test_mass_variation_identity_differences_gdot_once(grid12, monkeypatch):
    """gdot and its finite-difference gradient do not depend on t."""
    calls = []
    original = sphere_variation.fd_gradient

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(sphere_variation, "fd_gradient", counted)
    mass_variation_identity(lambda pts: np.eye(3) + pts[:, :, None] * pts[:, None, :],
                            grid12)
    assert len(calls) == 1


def test_mass_variation_identity_on_linear_perturbations(grid12, rng):
    for _ in range(3):
        coup = rng.normal(size=(3, 3, 3))
        coup = 0.5 * (coup + np.swapaxes(coup, 0, 1))
        const = rng.normal(size=(3, 3))
        const = 0.5 * (const + const.T)

        def gdot_fun(pts, coup=coup, const=const):
            return const + np.einsum("abk,nk->nab", coup, pts)

        report = mass_variation_identity(gdot_fun, grid12)
        assert report["difference"] < 1e-8 * (1.0 + abs(report["rhs"]))


@pytest.mark.filterwarnings("error")
def test_mass_variation_identity_rejects_an_indefinite_metric(grid12):
    """At t = 1e-3 this gdot makes g = diag(1, 1, -1), in which the unit
    sphere's induced metric is indefinite near the equator."""
    with pytest.raises(NumericalFailure, match="degenerate induced metric"):
        mass_variation_identity(
            lambda pts: np.broadcast_to(np.diag([0.0, 0.0, -2000.0]),
                                        (pts.shape[0], 3, 3)), grid12)
