"""Field containers: dual representations, projections, and frame algebra."""

import numpy as np
import pytest

from statvac.spherical.fields import ScalarField, SymTensorField, TangentField


def pullback_components(grid, A):
    """Frame components of the tangential restriction of a constant matrix."""
    c11 = np.einsum("na,ab,nb->n", grid.e_theta, A, grid.e_theta)
    c12 = np.einsum("na,ab,nb->n", grid.e_theta, A, grid.e_phi)
    c22 = np.einsum("na,ab,nb->n", grid.e_phi, A, grid.e_phi)
    return c11, c12, c22


def test_scalar_field_arithmetic(grid8, rng):
    f = ScalarField.from_coeffs(grid8, rng.normal(size=grid8.nmodes))
    g = ScalarField.from_coeffs(grid8, rng.normal(size=grid8.nmodes))
    h = 2.0 * f - g + f * 0.5
    np.testing.assert_allclose(h.values, 2.5 * f.values - g.values, atol=1e-13)
    np.testing.assert_allclose(h.coeffs, 2.5 * f.coeffs - g.coeffs, atol=1e-13)
    np.testing.assert_allclose((-f).values, -f.values, atol=0.0)


def test_scalar_truncation_flags_band_growth(grid8):
    x = grid8.nodes[:, 0]
    low = ScalarField.from_values(grid8, x ** 4)
    assert low.truncation < 1e-13
    # a zonal profile would alias invisibly (nlat modes interpolate nlat
    # nodes), so probe with azimuthal content beyond the band
    f = ScalarField.from_values(grid8, np.exp(x))
    assert f.truncation > 1e-9


def test_pointwise_product_reanalyzes(grid8):
    z = ScalarField.from_values(grid8, grid8.nodes[:, 2])
    z2 = z.pointwise(z)
    np.testing.assert_allclose(z2.values, grid8.nodes[:, 2] ** 2, atol=1e-14)
    assert z2.truncation < 1e-13


def test_gradient_components_against_linear_function(grid8):
    """grad of v.x restricted to the sphere is the tangential part of v."""
    v = np.array([0.3, -1.1, 0.7])
    f = ScalarField.from_values(grid8, grid8.nodes @ v)
    g1, g2 = f.gradient_components()
    expect1 = grid8.e_theta @ v
    expect2 = grid8.e_phi @ v
    np.testing.assert_allclose(g1, expect1, atol=1e-12)
    np.testing.assert_allclose(g2, expect2, atol=1e-12)


def test_tangent_from_components_roundtrip(grid8, rng):
    a = rng.normal(size=grid8.nmodes) / (1.0 + grid8.lam)
    b = rng.normal(size=grid8.nmodes) / (1.0 + grid8.lam)
    a[grid8.ls == 0] = 0.0
    b[grid8.ls == 0] = 0.0
    X = TangentField(grid8, a, b)
    Y, resid = TangentField.from_components(grid8, X.comp1, X.comp2)
    assert resid < 1e-12
    np.testing.assert_allclose(Y.a_coeffs, a, atol=1e-12)
    np.testing.assert_allclose(Y.b_coeffs, b, atol=1e-12)


def test_tangent_from_components_constant_vector(grid8):
    """The tangential part of a constant vector is grad(v.x), a pure
    gradient field with an l = 1 potential."""
    v = np.array([0.5, 0.2, -0.9])
    comp1 = grid8.e_theta @ v
    comp2 = grid8.e_phi @ v
    X, resid = TangentField.from_components(grid8, comp1, comp2)
    assert resid < 1e-12
    assert np.max(np.abs(X.b_coeffs)) < 1e-12
    assert np.max(np.abs(X.a_coeffs[grid8.ls != 1])) < 1e-12


def test_tangent_divergence_is_laplacian_of_potential(grid8, rng):
    a = rng.normal(size=grid8.nmodes)
    a[grid8.ls == 0] = 0.0
    X = TangentField(grid8, a, np.zeros(grid8.nmodes))
    div = X.divergence()
    np.testing.assert_allclose(div.coeffs, -grid8.lam * a, atol=1e-12)
    Y = TangentField(grid8, np.zeros(grid8.nmodes), a)
    assert np.max(np.abs(Y.divergence().values)) < 1e-12


def test_ambient_components_are_tangential(grid8, rng):
    a = rng.normal(size=grid8.nmodes)
    b = rng.normal(size=grid8.nmodes)
    X = TangentField(grid8, a, b)
    amb = X.ambient_components()
    radial = np.sum(amb * grid8.nodes, axis=1)
    assert np.max(np.abs(radial)) < 1e-12
    np.testing.assert_allclose(np.sum(amb ** 2, axis=1), X.norm_sq_values(),
                               atol=1e-12)


def test_covariant_matrix_trace_and_antisymmetry(grid8, rng):
    """trace(cov X) = div X, and the antisymmetric part of the covariant
    derivative of grad(a) vanishes while J grad(b) contributes curl."""
    a = rng.normal(size=grid8.nmodes) / (1.0 + grid8.lam)
    a[grid8.ls == 0] = 0.0
    X = TangentField(grid8, a, np.zeros(grid8.nmodes))
    cov = X.covariant_matrix()
    np.testing.assert_allclose(cov[:, 0, 0] + cov[:, 1, 1],
                               X.divergence().values, atol=1e-11)
    np.testing.assert_allclose(cov[:, 0, 1], cov[:, 1, 0], atol=1e-11)


def test_sym_tensor_from_components_is_exact_on_pullbacks(grid8, rng):
    """Restrictions of constant symmetric matrices decompose exactly into
    trace plus trace-free Hessian potentials at band two."""
    A = rng.normal(size=(3, 3))
    A = A + A.T
    c11, c12, c22 = pullback_components(grid8, A)
    T = SymTensorField.from_components(grid8, c11, c12, c22)
    assert T.tracefree_truncation < 1e-12
    assert T.trace.truncation < 1e-12
    r11, r12, r22 = T.components()
    np.testing.assert_allclose(r11, c11, atol=1e-13)
    np.testing.assert_allclose(r12, c12, atol=1e-13)
    np.testing.assert_allclose(r22, c22, atol=1e-13)
    # a constant matrix pulls back to a pure gradient-type tensor
    assert np.max(np.abs(T.q_coeffs)) < 1e-12
    assert np.max(np.abs(T.p_coeffs[grid8.ls != 2])) < 1e-12


def test_sym_tensor_potential_roundtrip(grid8, rng):
    p = rng.normal(size=grid8.nmodes)
    q = rng.normal(size=grid8.nmodes)
    p[grid8.ls < 2] = 0.0
    q[grid8.ls < 2] = 0.0
    trace = ScalarField.from_coeffs(grid8, rng.normal(size=grid8.nmodes))
    T = SymTensorField(grid8, trace, p, q)
    c11, c12, c22 = T.components()
    back = SymTensorField.from_components(grid8, c11, c12, c22)
    assert back.tracefree_truncation < 1e-10
    np.testing.assert_allclose(back.p_coeffs, p, atol=1e-10)
    np.testing.assert_allclose(back.q_coeffs, q, atol=1e-10)
    np.testing.assert_allclose(back.trace.coeffs, trace.coeffs, atol=1e-10)


def test_tracefree_norm_and_invariance_under_rotation_part(grid8, rng):
    p = rng.normal(size=grid8.nmodes)
    p[grid8.ls < 2] = 0.0
    T = SymTensorField(grid8, ScalarField.zeros(grid8), p, np.zeros(grid8.nmodes))
    S = SymTensorField(grid8, ScalarField.zeros(grid8), np.zeros(grid8.nmodes), p)
    np.testing.assert_allclose(T.tracefree_norm_sq_values(),
                               S.tracefree_norm_sq_values(), atol=1e-12)
    np.testing.assert_allclose(T.tracefree_norm_sq_values(),
                               2.0 * (T.t1 ** 2 + T.t2 ** 2), atol=0.0)


def test_tracefree_shares_the_field_without_resynthesis(grid8, rng, monkeypatch):
    c11, c12, c22 = rng.normal(size=(3, grid8.nnodes))
    T = SymTensorField.from_components(grid8, c11, c12, c22)
    assert T.tracefree_truncation > 0.0
    rebuilt = SymTensorField(grid8, ScalarField.zeros(grid8), T.p_coeffs,
                             T.q_coeffs, t1=T.t1, t2=T.t2)
    calls = []
    monkeypatch.setattr(type(grid8), "tfhess_synth",
                        lambda *args: calls.append(1))
    F = T.tracefree()
    assert calls == []
    assert np.all(F.trace.values == 0.0) and np.all(F.trace.coeffs == 0.0)
    for name in ("p_coeffs", "q_coeffs", "t1", "t2"):
        assert getattr(F, name) is getattr(T, name)
    assert F.tracefree_truncation == rebuilt.tracefree_truncation
    np.testing.assert_array_equal(T.trace.values, c11 + c22)


def test_round_metric_components(grid8):
    g = SymTensorField.round_metric(grid8)
    c11, c12, c22 = g.components()
    np.testing.assert_allclose(c11, 1.0, atol=1e-13)
    np.testing.assert_allclose(c22, 1.0, atol=1e-13)
    assert np.max(np.abs(c12)) < 1e-13


def test_scaled_and_shifted(grid8, rng):
    p = rng.normal(size=grid8.nmodes)
    p[grid8.ls < 2] = 0.0
    T = SymTensorField(grid8, ScalarField.constant(grid8, 0.5), p,
                       np.zeros(grid8.nmodes))
    S = T.scaled(-2.0).shifted(T)
    c11, c12, c22 = S.components()
    t11, t12, t22 = T.components()
    np.testing.assert_allclose(c11, -t11, atol=1e-13)
    np.testing.assert_allclose(c22, -t22, atol=1e-13)


def test_grid_mismatch_raises(grid8, grid16):
    f = ScalarField.zeros(grid8)
    g = ScalarField.zeros(grid16)
    with pytest.raises(ValueError):
        f + g
    with pytest.raises(ValueError):
        SymTensorField.zeros(grid8).shifted(SymTensorField.zeros(grid16))
