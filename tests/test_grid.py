"""Grid construction, quadrature exactness, and spectral tables."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from statvac.spherical import harmonics
from statvac.spherical.grid import SphereGrid, build_grid


def double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def test_weights_sum_to_sphere_area(grid8):
    assert abs(np.sum(grid8.weights) - 4.0 * np.pi) < 1e-13


def test_nodes_and_frame_are_orthonormal(grid8):
    g = grid8
    assert np.max(np.abs(np.sum(g.nodes ** 2, axis=1) - 1.0)) < 1e-14
    assert np.max(np.abs(np.sum(g.e_theta ** 2, axis=1) - 1.0)) < 1e-14
    assert np.max(np.abs(np.sum(g.e_phi ** 2, axis=1) - 1.0)) < 1e-14
    assert np.max(np.abs(np.sum(g.nodes * g.e_theta, axis=1))) < 1e-14
    assert np.max(np.abs(np.sum(g.nodes * g.e_phi, axis=1))) < 1e-14
    assert np.max(np.abs(np.sum(g.e_theta * g.e_phi, axis=1))) < 1e-14


def test_monomial_moments_match_closed_form(grid8):
    """int x^a y^b z^c dA = 4 pi prod (p_i - 1)!! / (deg + 1)!! for even powers."""
    g = grid8
    x, y, z = g.nodes[:, 0], g.nodes[:, 1], g.nodes[:, 2]
    for a in range(0, 5):
        for b in range(0, 5 - a):
            for c in range(0, 5 - a - b):
                val = g.integrate(x ** a * y ** b * z ** c)
                if a % 2 or b % 2 or c % 2:
                    expect = 0.0
                else:
                    deg = a + b + c
                    expect = (4.0 * np.pi
                              * double_factorial(a - 1)
                              * double_factorial(b - 1)
                              * double_factorial(c - 1)
                              / double_factorial(deg + 1))
                assert abs(val - expect) < 1e-13, (a, b, c)


def test_basis_is_orthonormal_under_quadrature(grid8):
    g = grid8
    gram = (g.Y * g.weights[None, :]) @ g.Y.T
    assert np.max(np.abs(gram - np.eye(g.nmodes))) < 1e-12


def test_analyze_synthesize_roundtrip(grid8, rng):
    coeffs = rng.normal(size=grid8.nmodes)
    values = grid8.synthesize(coeffs)
    back = grid8.analyze(values)
    np.testing.assert_allclose(back, coeffs, atol=1e-12)


def test_dphi_coeffs_matches_table(grid8, rng):
    g = grid8
    coeffs = rng.normal(size=g.nmodes)
    via_coeffs = g.synthesize(g.dphi_coeffs(coeffs))
    via_table = coeffs @ g.dYdphi
    np.testing.assert_allclose(via_coeffs, via_table, atol=1e-11)


def test_theta_tables_match_finite_differences(grid8):
    g = grid8
    h = 1e-5
    Yp, dYp = harmonics.harmonic_tables(g.lmax, g.theta + h, g.phi)
    Ym, dYm = harmonics.harmonic_tables(g.lmax, g.theta - h, g.phi)
    fd_first = (Yp - Ym) / (2.0 * h)
    fd_second = (dYp - dYm) / (2.0 * h)
    assert np.max(np.abs(fd_first - g.dYdtheta)) < 1e-6
    assert np.max(np.abs(fd_second - g.d2Ydtheta2)) < 1e-5


def test_mixed_table_matches_finite_differences(grid8):
    g = grid8
    h = 1e-5
    _, dYp = harmonics.harmonic_tables(g.lmax, g.theta, g.phi + h)
    _, dYm = harmonics.harmonic_tables(g.lmax, g.theta, g.phi - h)
    fd_mixed = (dYp - dYm) / (2.0 * h)
    assert np.max(np.abs(fd_mixed - g.d2Ydthetadphi)) < 1e-6


def test_angles_from_directions_ignores_radius(rng):
    points = rng.normal(size=(40, 3))
    theta1, phi1 = harmonics.angles_from_directions(points)
    theta2, phi2 = harmonics.angles_from_directions(3.7 * points)
    np.testing.assert_allclose(theta1, theta2, atol=1e-14)
    np.testing.assert_allclose(phi1, phi2, atol=1e-14)


def test_grid_validation_errors():
    with pytest.raises(ValueError):
        SphereGrid(-1)
    with pytest.raises(ValueError):
        build_grid(4).analyze(np.zeros(7))
    with pytest.raises(ValueError):
        build_grid(4).synthesize(np.zeros(7))


def test_wide_grid_same_integrals(grid8):
    wide = build_grid(14)
    assert not wide.same_layout(grid8)
    vals = grid8.nodes[:, 2] ** 4
    wide_vals = wide.nodes[:, 2] ** 4
    assert abs(grid8.integrate(vals) - wide.integrate(wide_vals)) < 1e-13


def separable_pairs(g):
    """(name, dense table, synthesis c -> c @ T, projection v -> T @ v) for each table."""
    G1, G2 = g.grad_tables
    E1, E2 = g.tfhess_tables
    return (
        ("Y", g.Y, g.synthesize, lambda v: g.analyze(v / g.weights)),
        ("G1 = dYdtheta", G1, lambda c: g.grad_synth(c)[0],
         lambda v: g.grad_project(v)[0]),
        ("G2", G2, lambda c: g.grad_synth(c)[1], lambda v: g.grad_project(v)[1]),
        ("E1", E1, lambda c: g.tfhess_synth(c)[0], lambda v: g.tfhess_project(v)[0]),
        ("E2", E2, lambda c: g.tfhess_synth(c)[1], lambda v: g.tfhess_project(v)[1]),
    )


def check_separable_against_dense(g, rng):
    """Each separable product matches the dense table to 1e-13 relative.

    Inputs carry a batch axis of 2, so batching is checked too.  The scale
    has a floor of 1 because the trace-free Hessian tables vanish
    identically at lmax <= 1, where only roundoff is left to compare.
    """
    coeffs = rng.normal(size=(2, g.nmodes))
    values = rng.normal(size=(2, g.nnodes))
    for name, table, synth, project in separable_pairs(g):
        for got, want in ((synth(coeffs), coeffs @ table),
                          (project(values), values @ table.T)):
            assert got.shape == want.shape, name
            scale = max(np.max(np.abs(want)), 1.0)
            assert np.max(np.abs(got - want)) <= 1e-13 * scale, (name, g)


@pytest.mark.parametrize("args", [(0,), (1,), (4,), (8,), (16,)])
def test_separable_transforms_match_dense_tables(args, rng):
    check_separable_against_dense(build_grid(*args), rng)


@settings(max_examples=12, deadline=None)
@given(lmax=st.integers(0, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_separable_transforms_match_dense_on_drawn_grids(lmax, seed):
    check_separable_against_dense(build_grid(lmax), np.random.default_rng(seed))


def reference_legendre(lmax, theta):
    """The scalar recurrences, one (l, m) entry at a time."""
    ct = np.cos(theta)
    st_ = np.sin(theta)
    N = np.zeros((lmax + 1, lmax + 1, theta.size))
    N[0, 0] = np.sqrt(1.0 / (4.0 * np.pi))
    for m in range(1, lmax + 1):
        N[m, m] = np.sqrt((2.0 * m + 1.0) / (2.0 * m)) * st_ * N[m - 1, m - 1]
    for m in range(0, lmax):
        N[m + 1, m] = np.sqrt(2.0 * m + 3.0) * ct * N[m, m]
    for m in range(0, lmax + 1):
        for l in range(m + 2, lmax + 1):
            a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            N[l, m] = a * (ct * N[l - 1, m] - b * N[l - 2, m])
    dN = np.zeros_like(N)
    safe_st = np.where(np.abs(st_) < 1e-300, 1.0, st_)
    for m in range(0, lmax + 1):
        for l in range(max(m, 1), lmax + 1):
            c = np.sqrt((2.0 * l + 1.0) / (2.0 * l - 1.0) * (l * l - m * m))
            prev = N[l - 1, m] if l - 1 >= m else 0.0
            dN[l, m] = (l * ct * N[l, m] - c * prev) / safe_st
    return N, dN


def assert_bitwise_equal(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


colatitudes = st.one_of(
    st.floats(1e-12, np.pi - 1e-12),
    st.sampled_from((0.0, np.pi)),
    st.floats(1e-12, 1e-6),
    st.floats(1e-12, 1e-6).map(lambda eps: np.pi - eps),
)


@settings(max_examples=40, deadline=None)
@given(lmax=st.integers(0, 40),
       angles=st.lists(st.tuples(colatitudes, st.floats(-10.0, 10.0)),
                       min_size=1, max_size=12))
@example(lmax=12, angles=[(0.0, 0.3), (np.pi, -1.0), (1.0, 2.0)])
def test_harmonic_tables_match_the_per_mode_loop(lmax, angles):
    """The tables equal the scalar recurrences and a loop over (l, m) bit for
    bit, and the value-only call gives the same Y."""
    theta, phi = np.array(angles).T
    N, dN = harmonics._normalized_legendre(lmax, theta)
    N_ref, dN_ref = reference_legendre(lmax, theta)
    assert_bitwise_equal(N, N_ref)
    assert_bitwise_equal(dN, dN_ref)

    ls, ms = harmonics.mode_table(lmax)
    Y, dY = harmonics.harmonic_tables(lmax, theta, phi)
    assert_bitwise_equal(harmonics.harmonic_tables(lmax, theta, phi, derivative=False), Y)
    sqrt2 = np.sqrt(2.0)
    for l in range(lmax + 1):
        for m in range(-l, l + 1):
            k = harmonics.index_of(l, m)
            assert (ls[k], ms[k]) == (l, m)
            if m == 0:
                want, dwant = N[l, 0], dN[l, 0]
            else:
                trig = np.cos(m * phi) if m > 0 else np.sin(-m * phi)
                want = sqrt2 * N[l, abs(m)] * trig
                dwant = sqrt2 * dN[l, abs(m)] * trig
            assert_bitwise_equal(Y[k], want)
            assert_bitwise_equal(dY[k], dwant)


def test_dphi_coeffs_transpose_is_its_negative(grid8):
    D = grid8.dphi_coeffs(np.eye(grid8.nmodes))
    np.testing.assert_array_equal(D.T, -D)


def test_grids_of_one_layout_share_their_read_only_factors():
    """A second build of a layout reuses the Gauss-Legendre rule, the
    latitude factors and the trig rows of the first, and nothing shared can
    be written; each build is still a grid of its own."""
    first, second = build_grid(7), build_grid(7)
    assert first is not second
    assert build_grid(8)._factors is not first._factors
    assert first._theta_1d is second._theta_1d
    for name in ("_factors", "_trig"):
        mine, theirs = getattr(first, name), getattr(second, name)
        assert mine.keys() == theirs.keys()
        for key, arr in mine.items():
            assert arr is theirs[key]
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0
    for arr in (first._theta_1d, first._phi_1d, first.weights, first.nodes):
        assert not arr.flags.writeable
