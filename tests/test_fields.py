"""Field containers: dual representations, projections, and frame algebra."""

import numpy as np
import pytest

from statvac import mass
from statvac.oracles.suites import random_data
from statvac.spherical.fields import ScalarField, SymTensorField, TangentField
from statvac.spherical.grid import SphereGrid, build_grid


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
    rebuilt_truncation = rebuilt.tracefree_truncation
    calls = []
    monkeypatch.setattr(type(grid8), "tfhess_synth",
                        lambda *args: calls.append(1))
    F = T.tracefree()
    assert calls == []
    assert np.all(F.trace.values == 0.0) and np.all(F.trace.coeffs == 0.0)
    for name in ("p_coeffs", "q_coeffs", "t1", "t2"):
        assert getattr(F, name) is getattr(T, name)
    assert F.tracefree_truncation == rebuilt_truncation
    np.testing.assert_array_equal(T.trace.values, c11 + c22)


@pytest.fixture
def synth_calls(monkeypatch):
    """Counts SphereGrid.synth calls, the one route to node values."""
    calls = []
    original = SphereGrid.synth

    def counted(self, table, coeffs):
        calls.append(table)
        return original(self, table, coeffs)

    monkeypatch.setattr(SphereGrid, "synth", counted)
    return calls


def test_fields_synthesize_only_what_is_read(grid8, rng, synth_calls):
    f = ScalarField.from_coeffs(grid8, rng.normal(size=grid8.nmodes))
    g = 2.0 * f - ScalarField.from_coeffs(grid8, rng.normal(size=grid8.nmodes))
    X = TangentField(grid8, *rng.normal(size=(2, grid8.nmodes)))
    T = SymTensorField(grid8, g, *rng.normal(size=(2, grid8.nmodes)))
    F = T.tracefree()
    for field in (f, g):
        assert field.coeffs.shape == (grid8.nmodes,) and field.truncation == 0.0
    assert X.divergence().coeffs.shape == T.p_coeffs.shape == F.q_coeffs.shape
    assert synth_calls == []
    f.values, f.values
    assert synth_calls == ["Y"]
    X.comp1, X.comp2
    T.t1, F.t2, F.t1
    assert synth_calls == ["Y", "dYdtheta", "G2", "E1", "E2"]


def test_lazy_values_equal_the_eager_synthesis(grid8, rng):
    a, b, p, q = rng.normal(size=(4, grid8.nmodes))
    p[grid8.ls < 2] = q[grid8.ls < 2] = 0.0
    f = ScalarField.from_coeffs(grid8, a)
    g = ScalarField.from_values(grid8, np.exp(grid8.nodes[:, 0]))
    h = 0.25 * f - 0.5 * g + f
    X = TangentField(grid8, a, b)
    T = SymTensorField(grid8, f, p, q)
    S = SymTensorField(grid8, f, p, q, t1=0.5 * T.t1 + 1e-3, t2=T.t2)
    (a1, b1), (a2, b2) = grid8.grad_synth(np.stack([X.a_coeffs, X.b_coeffs]))
    (p1, q1), (p2, q2) = grid8.tfhess_synth(np.stack([p, q]))
    g_trunc = np.max(np.abs(g.values - grid8.synthesize(g.coeffs)))
    expected = {
        "f": (f.values, grid8.synthesize(f.coeffs)),
        "h": (h.values, 0.25 * f.values - 0.5 * g.values + f.values),
        "X1": (X.comp1, a1 - b2), "X2": (X.comp2, a2 + b1),
        "T1": (T.t1, p1 - q2), "T2": (T.t2, p2 + q1),
        "g_trunc": (g.truncation, g_trunc),
        "h_trunc": (h.truncation, 0.5 * g_trunc),
        "S_trunc": (S.tracefree_truncation,
                    max(np.max(np.abs(p1 - q2 - S.t1)), np.max(np.abs(p2 + q1 - S.t2)))),
    }
    for name, (lazy, eager) in expected.items():
        assert np.asarray(lazy).tobytes() == np.asarray(eager).tobytes(), name
    for arr in (f.values, h.values, X.comp1, X.comp2, T.t1, T.t2, S.t1):
        assert not arr.flags.writeable
    assert f.values is f.values and X.comp1 is X.comp1 and T.t1 is T.tracefree().t1


def test_one_estimate_at_lmax_48_synthesizes_eight_times(rng, synth_calls):
    """Data built from coefficients, as io and small_sphere_data build it.
    The solve's radial trace of v is the field m1's flux check reads, so it
    is synthesized once."""
    data = random_data(build_grid(48), rng)
    report = mass.estimate(data)
    assert report.diagnostics["residuals"]["c"] < 1e-12
    assert sorted(synth_calls) == ["E1", "E2"] + ["Y"] * 6


def test_scaled(grid8, rng):
    p = rng.normal(size=grid8.nmodes)
    p[grid8.ls < 2] = 0.0
    T = SymTensorField(grid8, ScalarField.constant(grid8, 0.5), p,
                       np.zeros(grid8.nmodes))
    S = T.scaled(-2.0)
    c11, c12, c22 = S.components()
    t11, t12, t22 = T.components()
    np.testing.assert_allclose(c11, -2.0 * t11, atol=1e-13)
    np.testing.assert_allclose(c22, -2.0 * t22, atol=1e-13)


def test_grid_mismatch_raises(grid8, grid16):
    f = ScalarField.zeros(grid8)
    g = ScalarField.zeros(grid16)
    with pytest.raises(ValueError):
        f + g
