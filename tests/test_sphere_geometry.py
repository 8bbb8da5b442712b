"""The embedded-sphere geometry routine: closed forms, and its three callers."""

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from statvac.oracles import (
    MetricField,
    deformed_sphere_geometry,
    embedded_sphere_geometry,
    geodesic,
    geodesic_sphere,
    mass_variation_identity,
    random_deformation,
    space_form_reference,
    sphere_variation,
)

def test_rotated_shifted_flat_sphere(grid12):
    """A flat sphere of radius r has induced metric r^2 round, H = -2/r and
    the rotated radial direction as its normal, wherever it sits."""
    rng = np.random.default_rng(3)
    n = grid12.nnodes
    g = np.broadcast_to(np.eye(3)[:, :, None], (3, 3, n))
    dg = np.zeros((3, 3, 3, n))
    for r in (0.5, 2.0):
        rot = Rotation.random(random_state=rng).as_matrix()
        radial = grid12.nodes @ rot.T
        y = rng.uniform(-1.0, 1.0, size=3) + r * radial
        (c11, c12, c22), h, det, nu = embedded_sphere_geometry(
            grid12, grid12.analyze(y.T), g, dg)
        scaled = np.stack([c11, c12, c22]) / r ** 2
        assert np.max(np.abs(scaled - [[1.0], [0.0], [1.0]])) < 2e-12
        assert np.max(np.abs(h * r + 2.0)) < 8e-12
        np.testing.assert_allclose(det, r ** 4 * grid12.sin_theta ** 2, rtol=2e-12)
        assert np.max(np.abs(nu - radial)) < 2e-12


@pytest.mark.parametrize("k", (0.7, -0.55))
def test_coordinate_spheres_of_a_space_form(grid12, k):
    """|x| = r in the conformally flat chart is the geodesic sphere of radius
    tau, the integral of rho^(1/2) = 1 / (1 + k x^2 / 4) from 0 to r."""
    metric = MetricField.space_form(k)
    root = np.sqrt(abs(k))
    for r in (0.05, 0.1, 0.3):
        arc = np.arctan if k > 0.0 else np.arctanh
        tau = 2.0 / root * arc(root * r / 2.0)
        y = r * grid12.nodes
        (c11, c12, c22), h, _, _ = embedded_sphere_geometry(
            grid12, grid12.analyze(y.T), *metric.jet(y))
        factor, scaled_h = space_form_reference(k, tau)
        scaled = np.stack([c11, c12, c22]) / tau ** 2
        assert np.max(np.abs(scaled - [[factor], [0.0], [factor]])) < 3e-13
        assert np.max(np.abs(tau * h - scaled_h)) < 2.5e-12


def test_geometry_does_not_depend_on_the_coordinates(grid12):
    """The unit sphere in the metric pulled back by F(x) = x + B(x, x)/2 is
    the flat surface F(sphere).  Both readings must agree: the pulled-back
    metric is neither conformally flat nor diagonal, so every part of the
    Christoffel term enters, and the normals are related by dF."""
    rng = np.random.default_rng(7)
    b = rng.uniform(-0.3, 0.3, size=(3, 3, 3))
    b = 0.5 * (b + b.transpose(0, 2, 1))  # b[c, d, e], symmetric in (d, e)
    x = grid12.nodes
    n = grid12.nnodes
    image = x + 0.5 * np.einsum("cde,nd,ne->nc", b, x, x)
    jac = np.eye(3) + np.einsum("cad,nd->nca", b, x)  # d_a F^c
    g = np.einsum("nca,ncb->nab", jac, jac)
    dg = np.einsum("cae,ncb->neab", b, jac) + np.einsum("nca,cbe->neab", jac, b)
    flat = embedded_sphere_geometry(grid12, grid12.analyze(image.T),
                                    np.broadcast_to(np.eye(3)[:, :, None], (3, 3, n)),
                                    np.zeros((3, 3, 3, n)))
    pulled = embedded_sphere_geometry(grid12, grid12.analyze(x.T),
                                      np.moveaxis(g, 0, -1), np.moveaxis(dg, 0, -1))
    assert np.max(np.abs(np.stack(flat[0]) - np.stack(pulled[0]))) < 2e-13
    assert np.max(np.abs(flat[1] - pulled[1])) < 1e-12
    np.testing.assert_allclose(flat[2], pulled[2], rtol=2e-13)
    assert np.max(np.abs(flat[3] - np.einsum("nca,na->nc", jac, pulled[3]))) < 2e-13


def test_batched_spheres_keep_each_sphere_bits(grid12):
    """Leading batch axes, and one embedding read in several metrics, give
    each sphere the bits of its own call."""
    rng = np.random.default_rng(5)
    n = grid12.nnodes
    ys = 0.8 * grid12.nodes + rng.uniform(-0.05, 0.05, size=(3, n, 3))
    ycoef = grid12.analyze(np.moveaxis(ys, -1, 0))
    b = rng.uniform(-0.2, 0.2, size=(3, 3, 3, 3))
    b = b + b.transpose(0, 1, 3, 2)
    # component-major, (3, 3, sphere, node) and (3, 3, 3, sphere, node)
    dg = np.broadcast_to(np.moveaxis(b, 0, -1)[..., None], (3, 3, 3, 3, n))
    g = np.eye(3)[:, :, None, None] + np.einsum("scab,nc->absn", b, ys[0])
    batched = embedded_sphere_geometry(grid12, ycoef, g, dg)
    shared = embedded_sphere_geometry(grid12, ycoef[:, 0], g, dg)
    for i in range(3):
        one = embedded_sphere_geometry(grid12, ycoef[:, i], g[..., i, :], dg[..., i, :])
        same = embedded_sphere_geometry(grid12, ycoef[:, 0], g[..., i, :], dg[..., i, :])
        for got, want in ((batched, one), (shared, same)):
            assert np.stack(got[0])[:, i].tobytes() == np.stack(want[0]).tobytes()
            for part in (1, 2, 3):
                assert got[part][i].tobytes() == want[part].tobytes()


def test_deformed_spheres_at_several_times_match_one_at_a_time(grid8):
    params = random_deformation(grid8, np.random.default_rng(2))
    ts = (0.0, 0.01, -0.02)
    comps, h = deformed_sphere_geometry(params, ts)
    for i, t in enumerate(ts):
        one_comps, one_h = deformed_sphere_geometry(params, [t])
        assert one_h[0].tobytes() == h[i].tobytes()
        for got, want in zip(one_comps, comps):
            assert got[0].tobytes() == want[i].tobytes()


def test_each_sphere_oracle_reaches_the_one_routine(grid8, grid12, rng, monkeypatch):
    calls = []
    original = sphere_variation.embedded_sphere_geometry

    def counted(*args):
        calls.append(1)
        return original(*args)

    for module in (sphere_variation, geodesic):
        monkeypatch.setattr(module, "embedded_sphere_geometry", counted)
    reached = []
    geodesic_sphere(MetricField.space_form(0.6), (0.0, 0.0, 0.0), 0.1, grid8)
    reached.append(len(calls))
    deformed_sphere_geometry(random_deformation(grid8, rng), [0.01])
    reached.append(len(calls))
    mass_variation_identity(lambda pts: np.eye(3) + pts[:, :, None] * pts[:, None, :],
                            grid12)
    reached.append(len(calls))
    # one sphere each, and the flux identity's four values of t in one call
    assert reached == [1, 2, 3]
