"""Spectral operators against dense finite-difference oracles."""

import numpy as np
import pytest

from statvac.spherical import harmonics, operators
from statvac.spherical.fields import ScalarField, SymTensorField, TangentField


def homogeneous_extension(grid, coeffs, points):
    """Degree-zero homogeneous extension of a band-limited sphere function."""
    theta, phi = harmonics.angles_from_directions(points)
    Y = harmonics.harmonic_tables(grid.lmax, theta, phi, derivative=False)
    return coeffs @ Y


def ambient_laplacian(fun, points, h):
    """Second-order seven-point ambient Laplacian."""
    out = -6.0 * fun(points)
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = h
        out += fun(points + e) + fun(points - e)
    return out / h ** 2


def test_laplace_spectrum_single_modes(grid8, rng):
    g = grid8
    for _ in range(10):
        k = rng.integers(0, g.nmodes)
        coeffs = np.zeros(g.nmodes)
        coeffs[k] = 1.0
        f = ScalarField.from_coeffs(g, coeffs)
        lap = operators.laplace(f)
        expect = -g.lam[k] * f.values
        assert np.max(np.abs(lap.values - expect)) < 1e-10


def test_laplace_matches_ambient_finite_differences(grid8, rng):
    """The surface Laplacian of f equals the ambient Laplacian of the
    degree-zero homogeneous extension restricted to the sphere."""
    g = grid8
    coeffs = rng.normal(size=g.nmodes) / (1.0 + g.lam) ** 2
    f = ScalarField.from_coeffs(g, coeffs)
    lap = operators.laplace(f)
    fine = ambient_laplacian(lambda p: homogeneous_extension(g, coeffs, p),
                             g.nodes, 0.01)
    coarse = ambient_laplacian(lambda p: homogeneous_extension(g, coeffs, p),
                               g.nodes, 0.02)
    richardson = (4.0 * fine - coarse) / 3.0
    assert np.max(np.abs(richardson - lap.values)) < 5e-7


def test_helmholtz_solve_inverts_off_kernel(grid8, rng):
    g = grid8
    coeffs = rng.normal(size=g.nmodes)
    coeffs[g.ls == 1] = 0.0
    rhs = ScalarField.from_coeffs(g, coeffs)
    f, l1 = operators.helmholtz2_solve(rhs)
    assert l1 < 1e-14
    back = ScalarField.from_coeffs(g, operators.helmholtz2_multiplier(g.ls) * f.coeffs)
    np.testing.assert_allclose(back.values, rhs.values, atol=1e-11)


def test_helmholtz_solve_reports_kernel_component(grid8):
    g = grid8
    coeffs = np.zeros(g.nmodes)
    coeffs[g.ls == 1] = [0.3, -0.4, 0.0]
    f, l1 = operators.helmholtz2_solve(ScalarField.from_coeffs(g, coeffs))
    assert abs(l1 - 0.5) < 1e-14
    assert np.max(np.abs(f.coeffs)) < 1e-14


def test_divdiv_multiplier_values():
    ls = np.arange(0, 6)
    lam = ls * (ls + 1.0)
    np.testing.assert_allclose(operators.divdiv_multiplier(ls),
                               0.5 * lam * (lam - 2.0), atol=0.0)
    assert operators.divdiv_multiplier(np.array([0]))[0] == 0.0
    assert operators.divdiv_multiplier(np.array([1]))[0] == 0.0


def test_divdiv_matches_integration_by_parts(grid12):
    """int |tfHess Y_l|^2 equals the divdiv multiplier, computed here from
    the synthesized trace-free Hessian and exact quadrature rather than the spectral rule."""
    g = grid12
    for l in range(2, 7):
        unit = np.zeros(g.nmodes)
        unit[l * l + l] = 1.0  # m = 0 mode
        e1, e2 = g.tfhess_synth(unit)
        norm_sq = g.integrate(2.0 * (e1 ** 2 + e2 ** 2))
        expect = operators.divdiv_multiplier(np.array([l]))[0]
        assert abs(norm_sq - expect) < 1e-9 * max(1.0, expect)


def test_conformal_killing_roundtrip(grid8, rng):
    g = grid8
    a = rng.normal(size=g.nmodes)
    b = rng.normal(size=g.nmodes)
    a[g.ls < 2] = 0.0
    b[g.ls < 2] = 0.0
    X = TangentField(g, a, b)
    image = operators.conformal_killing_apply(X)
    back, residual = operators.conformal_killing_solve(image)
    assert residual < 1e-11
    np.testing.assert_allclose(back.a_coeffs, a, atol=1e-12)
    np.testing.assert_allclose(back.b_coeffs, b, atol=1e-12)


def test_conformal_killing_solve_rejects_traceful_input(grid8):
    g = grid8
    gamma = SymTensorField(g, ScalarField.constant(g, 1.0),
                           np.zeros(g.nmodes), np.zeros(g.nmodes))
    with pytest.raises(ValueError):
        operators.conformal_killing_solve(gamma)


def test_degree_one_potentials_span_killing_kernel(grid8):
    g = grid8
    a = np.zeros(g.nmodes)
    a[g.ls == 1] = [0.7, -0.2, 0.5]
    X = TangentField(g, a, np.zeros(g.nmodes))
    image = operators.conformal_killing_apply(X)
    assert np.max(np.abs(image.t1)) < 1e-13
    assert np.max(np.abs(image.t2)) < 1e-13


def test_integrate_constant_gives_sphere_area(grid8):
    f = ScalarField.constant(grid8, 1.0)
    assert grid8.integrate(f.values) == pytest.approx(4.0 * np.pi)
