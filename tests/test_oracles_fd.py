"""Finite-difference curvature oracles and the ambient metric wrappers."""

import importlib
import itertools
import pkgutil

import numpy as np
import pytest

import statvac
from statvac.curvature import Riemann3
from statvac.oracles import (
    MetricField,
    conformal_ricci,
    fd_jet,
    fd_laplacian,
    fd_linearized_ricci,
    fd_ricci,
    jet_from_metric,
    linearized_ricci,
    mass_variation_identity,
    random_polynomial_metric,
    richardson,
    run_suite,
)
from statvac.oracles.curvature_fd import _fd_riemann_dense
from statvac.oracles.metricfield import _inverse3
from statvac.spherical.grid import build_grid


def space_form_dense(k, rho):
    """R_abcd = k (g_ad g_bc - g_ac g_bd) with g = rho * delta."""
    g = rho * np.eye(3)
    return k * (np.einsum("ad,bc->abcd", g, g) - np.einsum("ac,bd->abcd", g, g))


def test_euclidean_is_flat():
    metric = MetricField.polynomial()
    pts = np.array([[0.0, 0.0, 0.0], [0.3, -0.2, 0.5]])
    assert np.max(np.abs(metric.christoffel(pts))) < 1e-12
    riem = Riemann3.from_dense(_fd_riemann_dense(metric, pts[1:], 1e-3)[0][0])
    assert np.max(np.abs(riem.dense)) < 1e-10


def test_polynomial_gradient_matches_finite_differences(rng):
    """The attached analytic gradient must agree with direct differences of
    the callable, including the cubic block."""
    metric = random_polynomial_metric(rng, amplitude=0.4)
    pts = rng.uniform(-0.3, 0.3, size=(6, 3))
    analytic = metric.gradient(pts)
    fd = fd_jet(metric, pts, 1e-3)[1]
    assert np.max(np.abs(analytic - fd)) < 1e-9


def test_conformal_gradient_matches_finite_differences():
    k = 0.8
    metric = MetricField.space_form(k)
    pts = np.array([[0.1, -0.4, 0.2], [0.0, 0.3, -0.1]])
    analytic = metric.gradient(pts)
    fd = fd_jet(metric, pts, 1e-3)[1]
    assert np.max(np.abs(analytic - fd)) < 1e-10


def symmetric_polynomial_coefficients(rng):
    """lin, quad, cubic blocks, all nonzero and already symmetric."""
    lin = rng.uniform(-0.3, 0.3, size=(3, 3, 3))
    quad = rng.uniform(-0.3, 0.3, size=(3, 3, 3, 3))
    cubic = rng.uniform(-0.3, 0.3, size=(3, 3, 3, 3, 3))
    lin = lin + lin.transpose(1, 0, 2)
    quad = quad + quad.transpose(1, 0, 2, 3)
    quad = quad + quad.transpose(0, 1, 3, 2)
    cubic = cubic + cubic.transpose(1, 0, 2, 3, 4)
    cubic = sum(cubic.transpose(0, 1, *p) for p in itertools.permutations((2, 3, 4)))
    return lin, quad, cubic


def relative_gap(a, ref):
    return np.max(np.abs(a - ref)) / np.max(np.abs(ref))


def test_polynomial_metric_matches_the_explicit_contractions(rng):
    lin, quad, cubic = symmetric_polynomial_coefficients(rng)
    metric = MetricField.polynomial(lin, quad, cubic)
    pts = rng.uniform(-0.4, 0.4, size=(7, 3))
    g_ref = (np.eye(3) + np.einsum("abi,ni->nab", lin, pts)
             + np.einsum("abij,ni,nj->nab", quad, pts, pts)
             + np.einsum("abijk,ni,nj,nk->nab", cubic, pts, pts, pts))
    dg_ref = (np.einsum("abc->cab", lin)[None]
              + 2.0 * np.einsum("abcj,nj->ncab", quad, pts)
              + 3.0 * np.einsum("abcjk,nj,nk->ncab", cubic, pts, pts))
    assert relative_gap(metric(pts), g_ref) <= 1e-14
    assert relative_gap(metric.gradient(pts), dg_ref) <= 1e-14


def test_christoffel_matches_the_inverse_formula(rng):
    metric = MetricField.polynomial(*symmetric_polynomial_coefficients(rng))
    pts = rng.uniform(-0.3, 0.3, size=(9, 3))
    g = metric(pts)
    dg = metric.gradient(pts)
    bracket = (np.einsum("nadb->nabd", dg) + np.einsum("nbda->nabd", dg)
               - np.einsum("ndab->nabd", dg))
    ref = 0.5 * np.einsum("ncd,nabd->ncab", np.linalg.inv(g), bracket)
    assert relative_gap(metric.christoffel(pts), ref) <= 1e-13


def rho_test(pts):
    return 1.0 + 0.3 * pts[:, 0] + 0.2 * np.sum(pts * pts, axis=1)


def conformal_test_metric():
    return MetricField.conformal(rho_test, lambda pts: 0.4 * pts + np.array([0.3, 0.0, 0.0]))


def test_geodesic_acceleration_matches_the_christoffel_contraction(rng):
    metrics = (
        MetricField.polynomial(*symmetric_polynomial_coefficients(rng)),
        conformal_test_metric(),
        MetricField.space_form(0.7),
        MetricField.space_form(-0.9),
        MetricField.conformal(rho_test),  # no exact gradient: the FD path
    )
    pts = rng.uniform(-0.3, 0.3, size=(9, 3))
    vel = rng.standard_normal((9, 3))
    for i, metric in enumerate(metrics):
        ref = -np.einsum("ncab,na,nb->nc", metric.christoffel(pts), vel, vel)
        acc = metric.geodesic_acceleration(pts, vel)
        assert acc.shape == (9, 3)
        assert relative_gap(acc, ref) <= 1e-13, i


def reference_polynomial(lin, quad, cubic):
    """g and dg of MetricField.polynomial by per-term loops over all nine
    (a, b) rows, with the plan rebuilt on every call; returns (fun, grad)."""
    lin = 0.5 * (lin + lin.transpose(1, 0, 2))
    quad = 0.5 * (quad + quad.transpose(1, 0, 2, 3))
    quad = 0.5 * (quad + quad.transpose(0, 1, 3, 2))
    cubic = 0.5 * (cubic + cubic.transpose(1, 0, 2, 3, 4))
    cubic = sum(cubic.transpose(0, 1, *p)
                for p in itertools.permutations((2, 3, 4))) / 6.0
    blocks = (None, lin, quad, cubic)
    terms = [idx for d in (1, 2, 3)
             for idx in itertools.combinations_with_replacement(range(3), d)]
    coeffs = [len(set(itertools.permutations(idx)))
              * blocks[len(idx)][(Ellipsis, *idx)].reshape(9, 1) for idx in terms]

    def monomials(pts):
        x = np.ascontiguousarray(pts.T)
        mono = {(): np.ones(pts.shape[0])}
        for idx in terms:
            mono[idx] = mono[idx[:-1]] * x[idx[-1]]
        return mono

    def fun(pts):
        mono = monomials(pts)
        g = np.repeat(np.eye(3).reshape(9, 1), pts.shape[0], axis=1)
        for idx, coeff in zip(terms, coeffs):
            g += coeff * mono[idx]
        return g.T.reshape(-1, 3, 3)

    def grad(pts):
        mono = monomials(pts)
        dg = np.zeros((3, 9, pts.shape[0]))
        for idx, coeff in zip(terms, coeffs):
            for c in sorted(set(idx)):
                rest = list(idx)
                rest.remove(c)
                dg[c] += idx.count(c) * coeff * mono[tuple(rest)]
        return dg.reshape(27, -1).T.reshape(-1, 3, 3, 3)

    return fun, grad


def reference_acceleration(metric, points, velocities):
    """geodesic_acceleration as three einsum contractions."""
    v = np.asarray(velocities, dtype=float).reshape(-1, 3).T
    g = metric(points).transpose(1, 2, 0)
    dg = metric.gradient(points).transpose(1, 2, 3, 0)
    u = np.einsum("cabn,bn->can", dg, v)
    w = np.einsum("an,adn->dn", v, u) - 0.5 * np.einsum("dan,an->dn", u, v)
    return -np.einsum("cdn,dn->nc", _inverse3(g), w)


def polynomial_coefficient_draws(rng):
    """Unsymmetrized blocks, symmetric blocks, and a random metric's."""
    raw = (rng.uniform(-0.3, 0.3, size=(3, 3, 3)),
           rng.uniform(-0.3, 0.3, size=(3, 3, 3, 3)),
           rng.uniform(-0.3, 0.3, size=(3, 3, 3, 3, 3)))
    no_lin = (np.zeros((3, 3, 3)), rng.uniform(-0.5, 0.5, size=(3, 3, 3, 3)),
              rng.uniform(-0.5, 0.5, size=(3, 3, 3, 3, 3)))
    return raw, symmetric_polynomial_coefficients(rng), no_lin


def test_polynomial_metric_is_bitwise_the_nine_row_loops(rng):
    pts = rng.uniform(-0.4, 0.4, size=(257, 3))
    pts[0] = 0.0
    for blocks in polynomial_coefficient_draws(rng):
        metric = MetricField.polynomial(*blocks)
        fun, grad = reference_polynomial(*blocks)
        assert metric(pts).tobytes() == fun(pts).tobytes()
        assert metric.gradient(pts).tobytes() == grad(pts).tobytes()


def test_polynomial_metric_point_values_do_not_depend_on_the_batch(rng):
    pts = rng.uniform(-0.4, 0.4, size=(257, 3))
    for blocks in polynomial_coefficient_draws(rng):
        metric = MetricField.polynomial(*blocks)
        g, dg = metric(pts), metric.gradient(pts)
        for i in (0, 1, 128, 256):
            assert metric(pts[i:i + 1]).tobytes() == g[i:i + 1].tobytes()
            assert metric.gradient(pts[i:i + 1]).tobytes() == dg[i:i + 1].tobytes()


def test_polynomial_jet_is_bitwise_the_nine_row_loops(rng):
    pts = rng.uniform(-0.4, 0.4, size=(257, 3))
    pts[0] = 0.0
    for blocks in polynomial_coefficient_draws(rng):
        g, dg = MetricField.polynomial(*blocks).jet(pts)
        fun, grad = reference_polynomial(*blocks)
        assert g.flags.c_contiguous and dg.flags.c_contiguous
        assert np.moveaxis(g, -1, 0).tobytes() == fun(pts).tobytes()
        assert np.moveaxis(dg, -1, 0).tobytes() == grad(pts).tobytes()


def test_polynomial_jet_point_values_do_not_depend_on_the_batch(rng):
    """Each point's jet has the bits of its own evaluation, which the
    curvature stencils rely on."""
    pts = rng.uniform(-0.4, 0.4, size=(257, 3))
    for blocks in polynomial_coefficient_draws(rng):
        metric = MetricField.polynomial(*blocks)
        g, dg = metric.jet(pts)
        for i in (0, 1, 128, 256):
            g1, dg1 = metric.jet(pts[i])
            assert g1.tobytes() == g[..., i:i + 1].tobytes()
            assert dg1.tobytes() == dg[..., i:i + 1].tobytes()


def test_geodesic_acceleration_is_bitwise_the_einsum_form(rng):
    pts = rng.uniform(-0.4, 0.4, size=(257, 3))
    pts[:3] = 0.0  # the probes' start, where dg vanishes without a linear part
    vel = rng.standard_normal((257, 3))
    vel[1, 1] = vel[2] = 0.0
    metrics = [MetricField.polynomial(*blocks)
               for blocks in polynomial_coefficient_draws(rng)]
    metrics += [MetricField.space_form(0.7), MetricField.space_form(-0.55),
                conformal_test_metric()]
    for metric in metrics + [random_polynomial_metric(rng)]:
        acc = metric.geodesic_acceleration(pts, vel)
        assert acc.tobytes() == reference_acceleration(metric, pts, vel).tobytes()


def test_geodesic_acceleration_does_not_depend_on_the_layout(rng):
    """A C-ordered (npts, 3, 3) metric and the component-major views that
    polynomial metrics return give the same bits."""
    pts = rng.uniform(-0.4, 0.4, size=(257, 3))
    vel = rng.standard_normal((257, 3))
    poly = MetricField.polynomial(*symmetric_polynomial_coefficients(rng))
    dense = MetricField(lambda p: np.ascontiguousarray(poly(p)),
                        lambda p: np.ascontiguousarray(poly.gradient(p)))
    assert not poly(pts).flags.c_contiguous and dense(pts).flags.c_contiguous
    assert (dense.geodesic_acceleration(pts, vel).tobytes()
            == poly.geodesic_acceleration(pts, vel).tobytes())


def cross_inverse3(g):
    """The adjugate-over-determinant inverse written with np.cross."""
    adj = np.stack([np.cross(g[1], g[2], axis=0), np.cross(g[2], g[0], axis=0),
                    np.cross(g[0], g[1], axis=0)], axis=1)
    return adj / np.einsum("an,an->n", g[0], adj[:, 0])


def test_inverse3_is_bitwise_the_cross_product_form(rng):
    pts = rng.uniform(-0.4, 0.4, size=(257, 3))
    metrics = (MetricField.polynomial(*symmetric_polynomial_coefficients(rng)),
               random_polynomial_metric(rng),
               MetricField.space_form(0.7),
               MetricField.space_form(-0.9))
    # component-major batches, as christoffel and geodesic_acceleration pass
    batches = [rng.standard_normal((3, 3, 257))]
    batches += [metric(pts).transpose(1, 2, 0) for metric in metrics]
    for g in batches:
        inv = _inverse3(g)
        assert inv.tobytes() == cross_inverse3(g).tobytes()
        assert np.allclose(np.einsum("abn,bcn->nac", g, inv), np.eye(3))


@pytest.mark.parametrize("g", [
    np.zeros((3, 3)),
    np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    np.full((3, 3), np.nan),
])
def test_christoffel_rejects_singular_metrics(g):
    metric = MetricField(lambda pts: np.broadcast_to(g, (pts.shape[0], 3, 3)),
                         lambda pts: np.zeros((pts.shape[0], 3, 3, 3)))
    pts = np.array([[0.1, 0.2, 0.3], [0.0, 0.0, 0.0]])
    with pytest.raises(np.linalg.LinAlgError):
        metric.christoffel(pts)


def test_fd_ricci_evaluates_the_metric_at_its_points_once(rng, monkeypatch):
    """The metric that lowers the Riemann tensor also raises it for Ricci:
    one call for the Christoffel stencils with their centres, one for the
    base points."""
    widths = []
    original = MetricField.__call__

    def counted(self, points):
        widths.append(np.atleast_2d(points).shape[0])
        return original(self, points)

    metric = random_polynomial_metric(rng, amplitude=0.4)
    pts = rng.uniform(-0.3, 0.3, size=(5, 3))
    monkeypatch.setattr(MetricField, "__call__", counted)
    fd_ricci(metric, pts)
    assert widths == [845, 5]


def test_fd_ricci_batch_matches_single_points(rng):
    def rho(pts):
        return 1.0 + 0.3 * pts[:, 0] + np.sum(pts * pts, axis=1) * 0.2

    pts = rng.uniform(-0.3, 0.3, size=(5, 3))
    for metric in (random_polynomial_metric(rng, amplitude=0.4), MetricField.conformal(rho)):
        batch = fd_ricci(metric, pts)
        single = np.stack([fd_ricci(metric, p) for p in pts])
        assert batch.shape == (5, 3, 3)
        assert relative_gap(batch, single) <= 1e-12


def test_christoffel_is_symmetric_in_lower_indices(rng):
    metric = random_polynomial_metric(rng, amplitude=0.4)
    pts = rng.uniform(-0.3, 0.3, size=(4, 3))
    gam = metric.christoffel(pts)
    np.testing.assert_allclose(gam, np.swapaxes(gam, 2, 3), atol=1e-11)


def test_space_form_riemann_at_center():
    for k in (0.6, -0.9):
        riem = Riemann3.from_dense(
            _fd_riemann_dense(MetricField.space_form(k), np.zeros((1, 3)), 1e-3)[0][0])
        expect = space_form_dense(k, 1.0)
        assert np.max(np.abs(riem.dense - expect)) < 1e-7
        assert riem.symmetry_residual < 1e-7


def test_space_form_ricci_off_center():
    """Away from the chart center the metric is rho * delta, and the
    coordinate Ricci must be 2 k rho delta; the contraction with the
    inverse metric is what makes this come out right."""
    k = 0.7
    metric = MetricField.space_form(k)
    point = np.array([0.25, -0.1, 0.3])
    rho = (1.0 + 0.25 * k * float(point @ point)) ** (-2.0)
    ric = fd_ricci(metric, point)
    assert np.max(np.abs(ric - 2.0 * k * rho * np.eye(3))) < 1e-7


def test_conformal_ricci_closed_form_against_fd(rng):
    """Quadratic conformal factors: the closed form from the 2-jet of rho
    must match the stencil-only Ricci of the same metric."""
    for _ in range(5):
        A = rng.normal(size=(3, 3)) * 0.2
        A = A + A.T
        b = rng.normal(size=3) * 0.2

        def rho_fun(pts):
            return 1.0 + pts @ b + np.einsum("ni,ij,nj->n", pts, A, pts)

        metric = MetricField.conformal(rho_fun)
        point = rng.uniform(-0.2, 0.2, size=3)
        rho = float(rho_fun(point[None])[0])
        grad = b + 2.0 * A @ point
        hess = 2.0 * A
        closed = conformal_ricci(rho, grad, hess)
        fd = fd_ricci(metric, point)
        assert np.max(np.abs(closed - fd)) < 1e-6


def test_linearized_ricci_against_fd(rng):
    A = rng.normal(size=(3, 3, 3, 3)) * 0.3
    A = A + np.swapaxes(A, 0, 1)
    A = A + np.swapaxes(A, 2, 3)

    def h_fun(pts):
        return np.einsum("abij,ni,nj->nab", A, pts, pts)

    point = np.array([0.15, -0.2, 0.1])
    d2h = 2.0 * np.einsum("abcd->cdab", A)
    closed = linearized_ricci(d2h)
    coarse = fd_linearized_ricci(h_fun, point, t_step=2e-3)
    fine = fd_linearized_ricci(h_fun, point, t_step=1e-3)
    fd = (4.0 * fine - coarse) / 3.0
    assert np.max(np.abs(closed - fd)) < 1e-6


def test_fd_gradient_on_cubic():
    """The 4th-order stencils are exact on cubics up to roundoff, for a
    batch of points and a value with a trailing axis."""
    def cubic(p):
        x, y, z = p.T
        return x ** 3 + 2.0 * y * z + x * y * z + x * y * y

    def fun(pts):
        return np.stack([cubic(pts), -3.0 * cubic(pts)], axis=1)

    pts = np.array([[0.3, -0.5, 0.2], [-0.1, 0.4, 0.7]])
    x, y, z = pts.T
    grad = np.stack([3.0 * x ** 2 + y * z + y * y,
                     2.0 * z + x * z + 2.0 * x * y,
                     2.0 * y + x * y], axis=1)
    hess = np.array([[[6.0 * xi, zi + 2.0 * yi, yi],
                      [zi + 2.0 * yi, 2.0 * xi, 2.0 + xi],
                      [yi, 2.0 + xi, 0.0]] for xi, yi, zi in pts])
    scale = np.array([1.0, -3.0])

    value1, grad1 = fd_jet(fun, pts, 1e-3)
    value2, grad2, hess2 = fd_jet(fun, pts, 1e-3, order=2)
    np.testing.assert_allclose(value1, cubic(pts)[:, None] * scale, rtol=0, atol=1e-15)
    np.testing.assert_allclose(grad1, grad[..., None] * scale, rtol=0, atol=1e-10)
    np.testing.assert_allclose(hess2, hess[..., None] * scale, rtol=0, atol=1e-7)
    assert hess2.shape == (2, 3, 3, 2)
    # the order-2 call evaluates a superset of the points, pointwise
    assert value2.tobytes() == value1.tobytes() and grad2.tobytes() == grad1.tobytes()


def conformal_family(rng, nfam):
    """A family of quadratic conformal factors, member i on pts[i], and
    the same members one at a time."""
    lin = rng.uniform(-0.2, 0.2, size=(nfam, 3))
    quad = rng.uniform(-0.2, 0.2, size=(nfam, 3, 3))
    quad = quad + quad.transpose(0, 2, 1)

    def family(pts):
        return (1.0 + (pts @ lin[:, :, None])[..., 0]
                + np.einsum("sna,sab,snb->sn", pts, quad, pts))

    def member(i):
        return lambda pts: (1.0 + pts @ lin[i]
                            + np.einsum("na,ab,nb->n", pts, quad[i], pts))

    return family, [member(i) for i in range(nfam)]


def test_family_axis_gives_each_member_its_own_bits(rng):
    """One call over a family axis equals a call per member, bit for bit,
    for the stencils, the Christoffel symbols and fd_ricci."""
    family, members = conformal_family(rng, 4)
    pts = rng.uniform(-0.3, 0.3, size=(4, 2, 3))
    metric = MetricField.conformal(family)
    singles = [MetricField.conformal(m) for m in members]
    per_member = [fd_jet(m, p, 1e-3, order=2) for m, p in zip(members, pts)]
    for part, ref in zip(fd_jet(family, pts, 1e-3, order=2), zip(*per_member)):
        assert part.tobytes() == np.stack(ref).tobytes()
    gam = metric.christoffel(pts, force_fd=True)
    assert gam.shape == (4, 2, 3, 3, 3)
    assert gam.tobytes() == np.stack([m.christoffel(p, force_fd=True)
                                      for m, p in zip(singles, pts)]).tobytes()
    ric = fd_ricci(metric, pts)
    assert ric.shape == (4, 2, 3, 3)
    assert ric.tobytes() == np.stack([fd_ricci(m, p) for m, p in zip(singles, pts)]).tobytes()


def test_fd_laplacian_is_the_trace_of_the_jet_hessian(rng):
    """Bit for bit at each step, from one call on the axial points only."""
    widths = []

    def fun(pts):
        widths.append(pts.shape[0])
        x, y, z = pts.T
        return np.stack([np.sin(x) * np.exp(y) * z, x * x * y - np.cos(z)], axis=1)

    pts = rng.uniform(-0.5, 0.5, size=(5, 3))
    steps = (0.02, 0.01)
    lap = fd_laplacian(fun, pts, steps)
    assert widths == [5 * 25] and lap.shape == (2, 5, 2)
    for h, got in zip(steps, lap):
        hess = fd_jet(fun, pts, h, order=2)[2]
        assert got.tobytes() == np.trace(hess, axis1=1, axis2=2).tobytes()


def test_linearized_ricci_takes_every_step_in_one_call(rng):
    """An array of t steps gives the steps' results in front, each equal to
    its own call; h is evaluated once for every t, on the Christoffel
    stencils and then at the point itself."""
    A = rng.normal(size=(3, 3, 3, 3)) * 0.3
    A = A + np.swapaxes(A, 0, 1)
    A = A + np.swapaxes(A, 2, 3)
    widths = []

    def h_fun(pts):
        widths.append(pts.shape)
        return np.einsum("abij,ni,nj->nab", A, pts, pts)

    point = np.array([0.15, -0.2, 0.1])
    both = fd_linearized_ricci(h_fun, point, t_step=np.array([2e-3, 1e-3]))
    assert both.shape == (2, 3, 3) and widths == [(169, 3), (1, 3)]
    for got, t in zip(both, (2e-3, 1e-3)):
        assert got.tobytes() == fd_linearized_ricci(h_fun, point, t_step=t).tobytes()


def test_richardson_cancels_the_leading_error():
    """With D(h) = d + c h^p, the pair (h, h/2) gives d exactly."""
    for order in (2, 4):
        coarse, fine = 1.5 + 0.3 * 0.2 ** order, 1.5 + 0.3 * 0.1 ** order
        assert abs(richardson(coarse, fine, order) - 1.5) < 1e-15


def test_every_oracle_derivative_goes_through_fd_jet(rng, monkeypatch):
    """One stencil routine: each oracle that differentiates in space
    reaches fd_jet, through whichever module imports it."""
    calls = []
    for info in pkgutil.walk_packages(statvac.__path__, "statvac."):
        module = importlib.import_module(info.name)
        original = getattr(module, "fd_jet", None)
        if original is None:
            continue

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, "fd_jet", counted)

    def reaches(run):
        calls.clear()
        run()
        return len(calls) > 0

    metric = random_polynomial_metric(rng, amplitude=0.4)
    pts = rng.uniform(-0.3, 0.3, size=(2, 3))
    grid = build_grid(6)
    assert reaches(lambda: jet_from_metric(metric, np.zeros(3)))
    assert reaches(lambda: fd_ricci(metric, pts))
    assert reaches(lambda: metric.christoffel(pts, force_fd=True))
    assert reaches(lambda: mass_variation_identity(
        lambda p: np.eye(3) + p[:, :, None] * p[:, None, :], grid))
    assert reaches(lambda: run_suite("multipliers", seed=0, lmax=8))


def test_metric_callable_shape_validation():
    bad = MetricField(lambda pts: np.zeros((pts.shape[0], 2, 2)))
    with pytest.raises(ValueError):
        bad(np.zeros((1, 3)))
    # a gradient callable that returns the value's shape, (npts, 3, 3)
    bad_grad = MetricField(lambda p: np.broadcast_to(np.eye(3), p.shape[:-1] + (3, 3)),
                           lambda p: np.zeros(p.shape[:-1] + (3, 3)))
    pts = np.zeros((5, 3))
    for call in (bad_grad.gradient, bad_grad.jet, bad_grad.christoffel,
                 lambda p: bad_grad.geodesic_acceleration(p, np.ones((5, 3)))):
        with pytest.raises(ValueError, match=r"\(\.\.\., npts, 3, 3, 3\)"):
            call(pts)
    with pytest.raises(ValueError):
        fd_ricci(MetricField.polynomial(), np.zeros(3), step=1.0)
