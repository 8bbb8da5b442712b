"""Three-dimensional curvature algebra and small-sphere Taylor data."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from statvac import curvature
from statvac.curvature import (
    CurvatureJet,
    Riemann3,
    jet_from_arrays,
    quadratic_invariants,
    random_jet,
    reference_expansions,
    riemann_from_ricci,
    small_sphere_data,
)
from statvac.spherical.grid import build_grid


def dense_invariants(R):
    riem_sq = np.einsum("abcd,abcd->", R, R)
    cross = np.einsum("abcd,adcb->", R, R)
    return riem_sq, cross


def test_reconstruction_recovers_ricci(rng):
    for _ in range(20):
        ric = rng.normal(size=(3, 3))
        ric = ric + ric.T
        riem = riemann_from_ricci(ric)
        np.testing.assert_allclose(riem.ricci(), ric, atol=1e-12)


def test_dense_tensor_has_riemann_symmetries(rng):
    ric = rng.normal(size=(3, 3))
    ric = ric + ric.T
    R = riemann_from_ricci(ric).dense
    np.testing.assert_allclose(R, -np.swapaxes(R, 0, 1), atol=1e-13)
    np.testing.assert_allclose(R, -np.swapaxes(R, 2, 3), atol=1e-13)
    np.testing.assert_allclose(R, np.transpose(R, (2, 3, 0, 1)), atol=1e-13)
    first_bianchi = R + np.transpose(R, (0, 2, 3, 1)) + np.transpose(R, (0, 3, 1, 2))
    np.testing.assert_allclose(first_bianchi, 0.0, atol=1e-13)


def test_quadratic_invariants_match_dense_contractions(rng):
    for _ in range(50):
        ric = rng.normal(size=(3, 3))
        ric = ric + ric.T
        riem = riemann_from_ricci(ric)
        dense_sq, dense_cross = dense_invariants(riem.dense)
        closed_sq, closed_cross = quadratic_invariants(ric)
        assert abs(riem.riem_sq() - dense_sq) < 1e-11 * (1.0 + abs(dense_sq))
        assert abs(closed_sq - dense_sq) < 1e-11 * (1.0 + abs(dense_sq))
        assert abs(riem.cross_invariant() - dense_cross) < 1e-11 * (1.0 + abs(dense_cross))
        assert abs(closed_cross - dense_cross) < 1e-11 * (1.0 + abs(dense_cross))


def test_pair_roundtrip(rng):
    ric = rng.normal(size=(3, 3))
    ric = ric + ric.T
    riem = riemann_from_ricci(ric)
    back = Riemann3.from_dense(riem.dense)
    np.testing.assert_allclose(back.dense, riem.dense, atol=1e-13)


def test_dense_is_built_once_and_read_only(rng):
    ric = rng.normal(size=(3, 3))
    riem = riemann_from_ricci(ric + ric.T)
    assert riem.dense is riem.dense
    assert not riem.dense.flags.writeable


def test_a_point_keeps_float_results(rng):
    ric = rng.normal(size=(3, 3))
    riem = riemann_from_ricci(ric + ric.T)
    assert riem.pair_matrix.shape == (3, 3) and riem.dense.shape == (3, 3, 3, 3)
    for value in (riem.symmetry_residual, riem.riem_sq(), riem.cross_invariant(),
                  *quadratic_invariants(ric + ric.T)):
        assert type(value) is float


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 50), seed=st.integers(0, 2 ** 32 - 1),
       log_scale=st.floats(-3.0, 3.0))
def test_a_batch_matches_its_points(n, seed, log_scale):
    """Leading axes are a batch: the tensors are bitwise those of the
    points, and the contractions agree to roundoff."""
    ric = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, 3, 3)) * 10.0 ** log_scale
    ric = 0.5 * (ric + np.swapaxes(ric, 1, 2))
    batch = riemann_from_ricci(ric)
    points = [riemann_from_ricci(r) for r in ric]
    for name in ("pair_matrix", "dense", "symmetry_residual"):
        np.testing.assert_array_equal(getattr(batch, name),
                                      [getattr(p, name) for p in points])
    closed = quadratic_invariants(ric)
    pairs = [(batch.ricci(), [p.ricci() for p in points]),
             (batch.riem_sq(), [p.riem_sq() for p in points]),
             (batch.cross_invariant(), [p.cross_invariant() for p in points]),
             (closed[0], [quadratic_invariants(r)[0] for r in ric]),
             (closed[1], [quadratic_invariants(r)[1] for r in ric])]
    for got, want in pairs:
        want = np.asarray(want)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 4e-15 * (1.0 + np.abs(want)))


def test_jet_validation_rejects_bad_arrays():
    with pytest.raises(ValueError):
        CurvatureJet(np.zeros((3, 2)), np.zeros((3, 3, 3)), np.zeros((3, 3, 3, 3)))
    asym = np.zeros((3, 3))
    asym[0, 1] = 1.0
    with pytest.raises(ValueError):
        CurvatureJet(asym, np.zeros((3, 3, 3)), np.zeros((3, 3, 3, 3)))
    bad_dric = np.zeros((3, 3, 3))
    bad_dric[0, 1, 1] = 1.0  # violates div Ric = grad R / 2
    with pytest.raises(ValueError):
        CurvatureJet(np.zeros((3, 3)), bad_dric, np.zeros((3, 3, 3, 3)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("block", ["ric", "dric", "d2ric"])
def test_jet_validation_rejects_non_finite_entries(rng, block, value):
    """Comparisons with NaN are false, so without the finiteness check a
    NaN entry passed both identity checks, and an inf one passed with a
    RuntimeWarning."""
    jet = random_jet(rng)
    arrays = {name: np.array(getattr(jet, name)) for name in ("ric", "dric", "d2ric")}
    arrays[block][(0,) * arrays[block].ndim] = value
    with pytest.raises(ValueError, match="finite"):
        CurvatureJet(**arrays)


def test_random_jet_satisfies_identities(rng):
    for _ in range(10):
        jet = random_jet(rng)
        div_ric = np.einsum("bba->a", jet.dric)
        np.testing.assert_allclose(div_ric, 0.5 * np.einsum("cii->c", jet.dric), atol=1e-10)
        np.testing.assert_allclose(jet.dric, np.swapaxes(jet.dric, 1, 2), atol=1e-12)
        np.testing.assert_allclose(jet.d2ric, np.swapaxes(jet.d2ric, 0, 1), atol=1e-12)
    jet = random_jet(rng, require_lap=True)
    assert abs(jet.lap_scalar) > 0.1


def loop_dric_constraints():
    """Reference rows, one at a time: symmetry in (a, b), then Bianchi."""
    def idx(c, a, b):
        return (c * 3 + a) * 3 + b

    rows = []
    for c in range(3):
        for a in range(3):
            for b in range(a + 1, 3):
                r = np.zeros(27)
                r[idx(c, a, b)] = 1.0
                r[idx(c, b, a)] = -1.0
                rows.append(r)
    for a in range(3):
        r = np.zeros(27)
        for b in range(3):
            r[idx(b, b, a)] += 1.0
            r[idx(a, b, b)] -= 0.5
        rows.append(r)
    return np.array(rows)


def loop_d2ric_constraints():
    """Reference rows: symmetry in (a, b), in (d, c), then differentiated Bianchi."""
    def idx(d, c, a, b):
        return ((d * 3 + c) * 3 + a) * 3 + b

    rows = []
    for d in range(3):
        for c in range(3):
            for a in range(3):
                for b in range(a + 1, 3):
                    r = np.zeros(81)
                    r[idx(d, c, a, b)] = 1.0
                    r[idx(d, c, b, a)] = -1.0
                    rows.append(r)
    for d in range(3):
        for c in range(d + 1, 3):
            for a in range(3):
                for b in range(3):
                    r = np.zeros(81)
                    r[idx(d, c, a, b)] = 1.0
                    r[idx(c, d, a, b)] = -1.0
                    rows.append(r)
    for d in range(3):
        for b in range(3):
            r = np.zeros(81)
            for a in range(3):
                r[idx(d, a, a, b)] += 1.0
                r[idx(d, b, a, a)] -= 0.5
            rows.append(r)
    return np.array(rows)


def test_constraint_tables_are_the_loop_tables():
    for table, reference in ((curvature._DRIC_CONSTRAINTS, loop_dric_constraints()),
                             (curvature._D2RIC_CONSTRAINTS, loop_d2ric_constraints())):
        assert table.shape == reference.shape and table.dtype == reference.dtype
        assert table.tobytes() == reference.tobytes()
        assert table.flags.c_contiguous and not table.flags.writeable
    assert curvature._DRIC_CONSTRAINTS.shape == (12, 27)
    assert curvature._D2RIC_CONSTRAINTS.shape == (63, 81)


@pytest.mark.parametrize("seed", range(10))
def test_random_jet_is_a_projection_through_the_loop_tables(seed):
    jet = random_jet(np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    ric = rng.uniform(-1.0, 1.0, size=(3, 3))
    project = curvature._project_constraints
    dric = project(rng.uniform(-1.0, 1.0, size=27), loop_dric_constraints())
    d2 = project(rng.uniform(-1.0, 1.0, size=81), loop_d2ric_constraints())
    assert jet.ric.tobytes() == (0.5 * (ric + ric.T)).tobytes()
    assert jet.dric.tobytes() == dric.tobytes()
    assert jet.d2ric.tobytes() == d2.tobytes()


def test_random_jets_satisfy_both_tables():
    """Worst measured: 1.4e-14 * scale over 2000 draws per scale."""
    rng = np.random.default_rng(3)
    for scale in (0.1, 1.0, 10.0):
        for _ in range(20):
            jet = random_jet(rng, scale=scale)
            for table, block in ((curvature._DRIC_CONSTRAINTS, jet.dric),
                                 (curvature._D2RIC_CONSTRAINTS, jet.d2ric)):
                assert np.max(np.abs(table @ block.ravel())) <= 1e-12 * scale


def test_random_jet_is_seed_deterministic():
    a = random_jet(np.random.default_rng(5))
    b = random_jet(np.random.default_rng(5))
    np.testing.assert_array_equal(a.ric, b.ric)
    np.testing.assert_array_equal(a.d2ric, b.d2ric)


def test_jet_from_arrays_symmetrizes(rng):
    ric = rng.normal(size=(3, 3))
    dric = np.zeros((3, 3, 3))
    d2 = rng.normal(size=(3, 3, 3, 3)) * 1e-3
    jet = jet_from_arrays(ric, dric, d2)
    np.testing.assert_allclose(jet.ric, jet.ric.T, atol=0.0)
    np.testing.assert_allclose(jet.d2ric, np.swapaxes(jet.d2ric, 2, 3), atol=1e-15)


def test_small_sphere_data_scaling(grid8, rng):
    jet = random_jet(rng)
    d1 = small_sphere_data(jet, 0.01, 2, grid8)
    d2 = small_sphere_data(jet, 0.02, 2, grid8)
    np.testing.assert_allclose(d2.H1.values, 4.0 * d1.H1.values, atol=1e-15)
    np.testing.assert_allclose(d2.gamma1.t1, 4.0 * d1.gamma1.t1, atol=1e-15)
    with pytest.raises(ValueError):
        small_sphere_data(jet, 0.01, 5, grid8)


def test_small_sphere_data_needs_band_four(rng):
    """The Taylor blocks are band-4, so a smaller grid cannot hold them."""
    jet = random_jet(rng)
    with pytest.raises(ValueError, match="band limit at least 4"):
        small_sphere_data(jet, 0.01, 2, build_grid(3))


def test_taylor_blocks_are_computed_once_per_jet(grid8, rng, monkeypatch):
    jet = random_jet(rng)
    fresh = curvature._taylor_blocks(jet)
    calls = []
    original = curvature._taylor_blocks

    def counted(j):
        calls.append(j)
        return original(j)

    monkeypatch.setattr(curvature, "_taylor_blocks", counted)
    first = small_sphere_data(jet, 0.01, 4, grid8)
    for tau in (0.01, 0.3):
        for order in (2, 3, 4):
            data = small_sphere_data(jet, tau, order, build_grid(16))
    assert len(calls) == 1 and calls[0] is jet
    # the cached blocks are the fresh ones, and read-only
    assert jet._blocks.tobytes() == fresh.tobytes()
    assert not jet._blocks.flags.writeable
    assert (small_sphere_data(jet, 0.01, 4, grid8).H1.coeffs.tobytes()
            == first.H1.coeffs.tobytes())
    assert data.H1.coeffs[:25].tobytes() == sum(
        0.3 ** k * fresh[k - 2, 3] for k in (2, 3, 4)).tobytes()
    small_sphere_data(random_jet(rng), 0.01, 2, grid8)
    assert len(calls) == 2


def test_small_sphere_data_closed_forms(grid8, rng):
    """Order-2 offsets are quadratics in the direction: the mean curvature
    offset is (tau^2/3) Ric(n, n) and the metric offset is built from the
    radial Riemann block, so its trace is also explicit."""
    ric = rng.normal(size=(3, 3))
    ric = ric + ric.T
    jet = CurvatureJet.from_ricci(ric)
    tau = 0.05
    data = small_sphere_data(jet, tau, 2, grid8)
    n = grid8.nodes
    ric_nn = np.einsum("na,ab,nb->n", n, ric, n)
    np.testing.assert_allclose(data.H1.values, (tau ** 2 / 3.0) * ric_nn,
                               atol=1e-14)
    # the tangential trace of the radial Riemann block is -Ric(n,n), by the
    # pair antisymmetry of the curvature and the trace defining Ricci
    np.testing.assert_allclose(data.gamma1.trace.values,
                               -(tau ** 2 / 3.0) * ric_nn, atol=1e-13)
    assert data.gamma1.tracefree_truncation < 1e-14


def test_small_sphere_data_is_band_limited(grid8, rng):
    jet = random_jet(rng)
    data = small_sphere_data(jet, 0.01, 4, grid8)
    assert data.gamma1.tracefree_truncation < 1e-14
    assert data.H1.truncation < 1e-14
    assert data.gamma1.trace.truncation < 1e-14


def test_reference_expansions_closed_values():
    jet = CurvatureJet.from_ricci(np.diag([1.0, 0.0, 0.0]))
    ref = reference_expansions(jet)
    assert abs(ref.static_c3 - 1.0 / 12.0) < 1e-15
    assert abs(ref.static_c5 - 1.0 / 432.0) < 1e-15
    assert abs(ref.hawking_c5 + 5.0 / 720.0) < 1e-15
    assert abs(ref.brown_york_c5 - 11.0 / 1440.0) < 1e-15


def test_space_forms_have_equal_hawking_and_static_quintics():
    """On constant-curvature spaces the static and Hawking expansions agree
    through fifth order; both quintics are -k^2/4."""
    for k in (0.3, -0.8):
        jet = CurvatureJet.from_ricci(2.0 * k * np.eye(3))
        ref = reference_expansions(jet)
        assert abs(ref.static_minus_hawking_c5) < 1e-14
        assert abs(ref.static_c5 + k ** 2 / 4.0) < 1e-14
        assert abs(ref.brown_york_c5 + k ** 2 / 8.0) < 1e-14
