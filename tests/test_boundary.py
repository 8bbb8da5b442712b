"""Exterior harmonics and the linearized boundary system."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from statvac.boundary import (
    BartnikPerturbation,
    HarmonicExterior,
    harmonic_from_vrr,
    solve_boundary_system,
)
from statvac.curvature import CurvatureJet, small_sphere_data
from statvac.spherical import harmonics
from statvac.spherical.fields import ScalarField, SymTensorField
from statvac.spherical.grid import build_grid


def random_perturbation(grid, rng, amplitude=0.1):
    decay = amplitude / (1.0 + grid.ls) ** 2
    trace = ScalarField.from_coeffs(grid, rng.normal(size=grid.nmodes) * decay)
    p = rng.normal(size=grid.nmodes) * decay
    q = rng.normal(size=grid.nmodes) * decay
    p[grid.ls < 2] = 0.0
    q[grid.ls < 2] = 0.0
    H1 = ScalarField.from_coeffs(grid, rng.normal(size=grid.nmodes) * decay)
    return BartnikPerturbation(SymTensorField(grid, trace, p, q), H1)


def test_single_mode_traces(grid8):
    g = grid8
    l, m = 3, 1
    k = l * l + l + m
    coeffs = np.zeros(g.nmodes)
    coeffs[k] = 1.5
    v = HarmonicExterior(g, coeffs)
    Y = g.Y[k]
    np.testing.assert_allclose(v.trace().values, 1.5 * Y, atol=1e-13)
    np.testing.assert_allclose(v.radial_trace().values, -1.5 * (l + 1) * Y, atol=1e-13)
    assert abs(v.dirichlet_energy() - (l + 1) * 1.5 ** 2) < 1e-13


def test_evaluate_decays_with_radius(grid8, rng):
    coeffs = rng.normal(size=grid8.nmodes) / (1.0 + grid8.ls) ** 2
    v = HarmonicExterior(grid8, coeffs)
    on_sphere = v.evaluate(grid8.nodes)
    np.testing.assert_allclose(on_sphere, v.trace().values, atol=1e-12)
    far = v.evaluate(100.0 * grid8.nodes[:5])
    assert np.max(np.abs(far)) < 1e-2 * np.max(np.abs(on_sphere))


def test_evaluate_is_harmonic_in_the_exterior(grid8, rng):
    coeffs = rng.normal(size=grid8.nmodes) / (1.0 + grid8.ls) ** 2
    v = HarmonicExterior(grid8, coeffs)
    pts = 1.7 * grid8.nodes[::19]

    def lap_fd(h):
        out = -6.0 * v.evaluate(pts)
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = h
            out = out + v.evaluate(pts + e) + v.evaluate(pts - e)
        return out / h ** 2

    richardson = (4.0 * lap_fd(0.01) - lap_fd(0.02)) / 3.0
    assert np.max(np.abs(richardson)) < 1e-7


def test_gradient_matches_finite_differences(grid8, rng):
    """The node path against central differences of evaluate at the nodes."""
    coeffs = rng.normal(size=grid8.nmodes) / (1.0 + grid8.ls) ** 2
    v = HarmonicExterior(grid8, coeffs)
    grad = v.gradient()
    h = 1e-5
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = h
        fd = (v.evaluate(grid8.nodes + e) - v.evaluate(grid8.nodes - e)) / (2.0 * h)
        np.testing.assert_allclose(grad[:, axis], fd, atol=1e-8)


grid_of = lru_cache(maxsize=None)(build_grid)


@settings(max_examples=40, deadline=None)
@given(lmax=st.integers(0, 24), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.floats(1e-3, 1e3), growth=st.sampled_from((-2.0, 0.0, 2.0)))
def test_gradient_at_the_nodes_matches_the_offgrid_path(lmax, seed, scale, growth):
    """gradient() goes through grad_synth; the off-grid harmonic tables
    built at the grid's own angles give the same gradient to roundoff."""
    g = grid_of(lmax)
    coeffs = scale * (1.0 + g.ls) ** growth * np.random.default_rng(seed).standard_normal(g.nmodes)
    v = HarmonicExterior(g, coeffs)
    at_nodes = v.gradient()
    Y, dY = harmonics.harmonic_tables(lmax, g.theta, g.phi)
    reference = ((coeffs @ (-(g.ls + 1.0)[:, None] * Y))[:, None] * g.nodes
                 + (coeffs @ dY)[:, None] * g.e_theta
                 + (g.dphi_coeffs(coeffs) @ Y / g.sin_theta)[:, None] * g.e_phi)
    size = 1.0 + np.max(np.abs(reference))
    assert np.max(np.abs(at_nodes - reference)) <= 4e-15 * size


def test_dirichlet_energy_equals_boundary_flux(grid8, rng):
    """Exterior energy = - int v v_r over the boundary sphere."""
    coeffs = rng.normal(size=grid8.nmodes)
    v = HarmonicExterior(grid8, coeffs)
    flux = -grid8.integrate(v.trace().values * v.radial_trace().values)
    assert abs(v.dirichlet_energy() - flux) < 1e-10 * (1.0 + abs(flux))


def test_harmonic_from_vrr_roundtrip(grid8, rng):
    vrr = ScalarField.from_coeffs(grid8, rng.normal(size=grid8.nmodes))
    v = harmonic_from_vrr(grid8, vrr)
    ls = grid8.ls
    np.testing.assert_allclose((ls + 1.0) * (ls + 2.0) * v.coeffs, vrr.coeffs,
                               atol=1e-13)


def test_boundary_system_equations_hold(grid8, rng):
    data = random_perturbation(grid8, rng)
    sol = solve_boundary_system(data)
    assert sol.residuals["a"] == 0.0
    assert sol.residuals["b"] < 1e-13
    assert sol.residuals["c"] < 1e-12
    assert sol.residuals["d"] < 1e-12
    assert sol.l1_residual < 1e-13


def test_boundary_solution_scales_linearly(grid8, rng):
    data = random_perturbation(grid8, rng)
    sol = solve_boundary_system(data)
    sol3 = solve_boundary_system(data.scaled(3.0))
    np.testing.assert_allclose(sol3.v.coeffs, 3.0 * sol.v.coeffs, atol=1e-13)
    np.testing.assert_allclose(sol3.f.values, 3.0 * sol.f.values, atol=1e-13)


def test_ball_data_closed_forms(grid8, rng):
    """On geodesic-ball data the solved fields are explicit in the scalar
    curvature and the radial Ricci component:

      v   = (2 R / 9 - Rnn / 6) tau^2
      v_r = ( -R / 3 + Rnn / 2) tau^2
      f   = ( -R / 36 - Rnn / 4) tau^2
    """
    ric = rng.normal(size=(3, 3))
    ric = ric + ric.T
    jet = CurvatureJet.from_ricci(ric)
    tau = 1e-3
    data = small_sphere_data(jet, tau, 2, grid8)
    sol = solve_boundary_system(data)
    R = jet.scalar
    Rnn = np.einsum("na,ab,nb->n", grid8.nodes, ric, grid8.nodes)
    t2 = tau * tau
    np.testing.assert_allclose(sol.v.trace().values,
                               (2.0 * R / 9.0 - Rnn / 6.0) * t2, atol=1e-13)
    np.testing.assert_allclose(sol.v.radial_trace().values,
                               (-R / 3.0 + Rnn / 2.0) * t2, atol=1e-13)
    np.testing.assert_allclose(sol.f.values,
                               (-R / 36.0 - Rnn / 4.0) * t2, atol=1e-13)


def test_perturbation_validation(grid8, grid16):
    with pytest.raises(ValueError):
        BartnikPerturbation(SymTensorField.zeros(grid8), ScalarField.zeros(grid16))
    with pytest.raises(ValueError):
        HarmonicExterior(grid8, np.zeros(3))
    data = BartnikPerturbation(SymTensorField.zeros(grid8), ScalarField.zeros(grid8))
    assert data.epsilon_estimate == 0.0
