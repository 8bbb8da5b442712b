"""Direct geodesic-sphere sampling of an analytic ambient metric.

Independent check on the small-sphere Taylor data.  The geodesic equation
is integrated from a center point along a batch of probe directions to
arc length tau; the induced metric of the resulting sphere is read off by
finite differences of the probe map in the angles, and the mean curvature
by the first variation of area under a unit-normal perturbation.  Nothing
here touches the curvature-jet pipeline, so agreement of the two data
sets to fifth order in tau is a meaningful regression target.

All probes (the grid nodes plus their angular stencil neighbors at two
step sizes) are integrated as a single system with scipy's DOP853, the
8th-order Dormand-Prince pair (Hairer, Norsett & Wanner, Solving ODEs I,
II.10).  The adaptive integrator then uses one shared step sequence, which
makes the integration error a smooth function of the probe angle; angular
differences cancel it instead of amplifying it by the inverse stencil
step.  The right-hand side is ``MetricField.geodesic_acceleration``, which
contracts the metric derivatives with the velocities and never forms the
Christoffel symbols.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

from ..boundary import BartnikPerturbation
from ..curvature import CurvatureJet, jet_from_arrays
from ..spherical.fields import ScalarField, SymTensorField
from ..spherical.grid import SphereGrid
from .curvature_fd import fd_ricci
from .metricfield import MetricField

__all__ = [
    "NumericalFailure",
    "geodesic_sphere",
    "jet_from_metric",
    "space_form_reference",
]

_OFFS = np.array([-2.0, -1.0, 1.0, 2.0])
_W1 = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0


class NumericalFailure(RuntimeError):
    """An oracle integration failed to reach its accuracy target."""


def space_form_reference(k: float, tau: float):
    """Closed-form geodesic-sphere data of the curvature-k space form.

    Returns (factor, scaled_h): the scaled induced metric is factor times
    the round metric, and scaled_h is tau times the mean curvature, which
    tends to -2 as tau goes to zero.
    """
    tau = float(tau)
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    x = np.sqrt(abs(k)) * tau
    if k > 0.0:
        if x >= np.pi:
            raise ValueError("radius beyond the conjugate point")
        return (np.sin(x) / x) ** 2, -2.0 * x / np.tan(x)
    if k < 0.0:
        return (np.sinh(x) / x) ** 2, -2.0 * x / np.tanh(x)
    return 1.0, -2.0


def _probe_angles(grid: SphereGrid, steps) -> tuple[np.ndarray, np.ndarray]:
    """Angles of all probes: base nodes first, then 16 stencil blocks."""
    theta = [grid.theta]
    phi = [grid.phi]
    for h in steps:
        for off in _OFFS:
            theta.append(grid.theta + off * h)
            phi.append(grid.phi)
        for off in _OFFS:
            theta.append(grid.theta)
            phi.append(grid.phi + off * h)
    return np.concatenate(theta), np.concatenate(phi)


def geodesic_sphere(metric: MetricField, center, tau: float, grid: SphereGrid,
                    *, steps=(0.018, 0.009), rtol: float = 1e-12,
                    atol: float = 1e-14, diagnostics: dict | None = None
                    ) -> BartnikPerturbation:
    """Sample the geodesic sphere of radius tau and return its data offsets.

    Parameters
    ----------
    metric : MetricField
        Ambient metric, positive definite along the probes.
    center : array_like, shape (3,)
        Center point of the sphere.
    tau : float
        Geodesic radius; must stay below the first conjugate point.
    grid : SphereGrid
        Output grid.  Initial directions are the grid nodes mapped through
        the inverse metric square root at the center, so every probe
        starts with unit speed and tau is the arc length.
    steps : pair of floats
        Angular stencil steps; the coarse one must keep the five-point
        stencil away from the poles.  The two derivative estimates are
        Richardson extrapolated.
    rtol, atol : float
        Integrator tolerances.
    diagnostics : dict, optional
        If given, filled with accuracy indicators (speed_drift,
        richardson_gap, min_det) and integrator effort (num_steps, nfev).

    Returns
    -------
    BartnikPerturbation
        Offsets of the scaled induced metric from the round metric and of
        the scaled mean curvature from -2, in the same layout as the
        Taylor data.
    """
    center = np.asarray(center, dtype=float).reshape(3)
    tau = float(tau)
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    h1, h2 = float(steps[0]), float(steps[1])
    if not h1 > h2 > 0.0:
        raise ValueError("steps must be decreasing and positive")
    margin = np.min(np.minimum(grid.theta, np.pi - grid.theta))
    if margin <= 2.0 * h1:
        raise ValueError("angular stencil crosses a pole; reduce the step")

    thetas, phis = _probe_angles(grid, (h1, h2))
    st, ct = np.sin(thetas), np.cos(thetas)
    dirs = np.stack([st * np.cos(phis), st * np.sin(phis), ct], axis=1)

    g0 = metric(center[None])[0]
    evals, evecs = np.linalg.eigh(g0)
    if np.min(evals) <= 0.0:
        raise NumericalFailure("metric is not positive definite at the center")
    root_inv = (evecs * evals ** -0.5) @ evecs.T
    vel0 = dirs @ root_inv.T
    pos0 = np.broadcast_to(center, dirs.shape)

    nprobe = dirs.shape[0]
    state0 = np.concatenate([pos0.ravel(), vel0.ravel()])

    def rhs(_t, state):
        pos = state[: 3 * nprobe].reshape(nprobe, 3)
        vel = state[3 * nprobe:].reshape(nprobe, 3)
        acc = metric.geodesic_acceleration(pos, vel)
        return np.concatenate([vel.ravel(), acc.ravel()])

    sol = solve_ivp(rhs, (0.0, tau), state0, method="DOP853",
                    rtol=rtol, atol=atol)
    if not sol.success:
        raise NumericalFailure("geodesic integration failed: " + sol.message)
    pos = sol.y[: 3 * nprobe, -1].reshape(nprobe, 3)
    vel = sol.y[3 * nprobe:, -1].reshape(nprobe, 3)

    n = grid.nnodes
    y0 = pos[:n]
    v_end = vel[:n]
    blocks = pos[n:].reshape(4, 4, n, 3)  # [h-level x axis, offset, node, xyz]

    def stencil_derivative(block, h):
        return np.einsum("o,onb->nb", _W1, block) / h

    dth = [stencil_derivative(blocks[2 * j], h) for j, h in enumerate((h1, h2))]
    dph = [stencil_derivative(blocks[2 * j + 1], h) for j, h in enumerate((h1, h2))]
    ratio4 = (h1 / h2) ** 4
    y_th_fd = (ratio4 * dth[1] - dth[0]) / (ratio4 - 1.0)
    y_ph_fd = (ratio4 * dph[1] - dph[0]) / (ratio4 - 1.0)

    gy = metric(y0)

    def pair(u, w):
        return np.einsum("na,nab,nb->n", u, gy, w)

    scale = tau ** 2
    c11 = pair(y_th_fd, y_th_fd) / scale - 1.0
    c12 = pair(y_th_fd, y_ph_fd) / scale / grid.sin_theta
    c22 = pair(y_ph_fd, y_ph_fd) / scale / grid.sin_theta ** 2 - 1.0

    # spectral tangents of the probe map, for the curvature quotient
    ycoef = np.stack([grid.analyze(y0[:, c]) for c in range(3)])
    y_th = np.stack([ycoef[c] @ grid.dYdtheta for c in range(3)], axis=1)
    y_ph = np.stack([ycoef[c] @ grid.dYdphi for c in range(3)], axis=1)

    n_cov = np.cross(y_th, y_ph)
    ginv = np.linalg.inv(gy)
    n_up = np.einsum("nab,nb->na", ginv, n_cov)
    norm = np.einsum("na,na->n", n_cov, n_up)
    if np.any(norm <= 0.0):
        raise NumericalFailure("degenerate surface normal")
    nu = n_up / np.sqrt(norm)[:, None]
    orient = np.sign(pair(nu, v_end))
    if np.any(orient == 0.0):
        raise NumericalFailure("surface normal orthogonal to the probe")
    nu = nu * orient[:, None]

    nucoef = np.stack([grid.analyze(nu[:, c]) for c in range(3)])
    nu_th = np.stack([nucoef[c] @ grid.dYdtheta for c in range(3)], axis=1)
    nu_ph = np.stack([nucoef[c] @ grid.dYdphi for c in range(3)], axis=1)

    dg_nu = np.einsum("ncab,nc->nab", metric.gradient(y0), nu)

    def warp(u, w):
        return np.einsum("nab,na,nb->n", dg_nu, u, w)

    area_tt = 2.0 * pair(nu_th, y_th) + warp(y_th, y_th)
    area_tp = pair(nu_th, y_ph) + pair(nu_ph, y_th) + warp(y_th, y_ph)
    area_pp = 2.0 * pair(nu_ph, y_ph) + warp(y_ph, y_ph)

    s_tt = pair(y_th, y_th)
    s_tp = pair(y_th, y_ph)
    s_pp = pair(y_ph, y_ph)
    det = s_tt * s_pp - s_tp ** 2
    if np.any(det <= 0.0):
        raise NumericalFailure("degenerate induced metric")
    expansion = 0.5 * (s_pp * area_tt - 2.0 * s_tp * area_tp
                       + s_tt * area_pp) / det
    h_offset = 2.0 - tau * expansion

    if diagnostics is not None:
        diagnostics["speed_drift"] = float(np.max(np.abs(
            np.einsum("na,nab,nb->n", vel, metric(pos), vel) - 1.0)))
        diagnostics["richardson_gap"] = float(max(
            np.max(np.abs(dth[0] - dth[1])), np.max(np.abs(dph[0] - dph[1]))))
        diagnostics["min_det"] = float(np.min(det))
        diagnostics["num_steps"] = int(sol.t.size)
        diagnostics["nfev"] = int(sol.nfev)

    gamma1 = SymTensorField.from_components(grid, c11, c12, c22)
    h_field = ScalarField.from_values(grid, h_offset)
    return BartnikPerturbation(gamma1=gamma1, H1=h_field)


def jet_from_metric(metric: MetricField, center, *, step: float = 0.025,
                    curv_step: float = 1e-3) -> CurvatureJet:
    """Curvature jet at a point by nested finite differences of Ricci.

    The center must be a point where the first derivatives of the metric
    vanish (checked through the Christoffel symbols); partial derivatives
    of the Ricci components then agree with covariant ones at first order,
    and at second order differ only by first-derivative-of-Christoffel
    terms, which are corrected explicitly.

    The default outer step balances fourth-order truncation against the
    noise floor of the inner curvature differences divided by step
    squared; both sit near 1e-6 on unit-scale metrics.
    """
    center = np.asarray(center, dtype=float).reshape(3)
    gam0 = metric.christoffel(center[None])[0]
    if np.max(np.abs(gam0)) > 1e-8:
        raise ValueError("jet extraction needs a center where the metric "
                         "first derivatives vanish")

    # every stencil offset, in units of step, evaluated in one batch
    eye = np.eye(3)
    w_pure = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
    o_pure = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    axis_offsets = [off * eye[c] for c in range(3) for off in o_pure]
    pairs = [(c, d) for c in range(3) for d in range(c + 1, 3)]
    mixed_offsets = [oi * eye[c] + oj * eye[d] for c, d in pairs
                     for oi in _OFFS for oj in _OFFS]
    index = {}
    for off in axis_offsets + mixed_offsets:
        index.setdefault(tuple(off), len(index))
    ric_all = fd_ricci(metric, center + step * np.array(list(index)), step=curv_step)

    def ric_at(off):
        return ric_all[index[tuple(off)]]

    ric0 = ric_at(np.zeros(3))

    dric = np.zeros((3, 3, 3))
    for c in range(3):
        dric[c] = sum(w * ric_at(off * eye[c]) for w, off in zip(_W1, _OFFS)) / step

    d2 = np.zeros((3, 3, 3, 3))
    for c in range(3):
        d2[c, c] = sum(w * ric_at(off * eye[c])
                       for w, off in zip(w_pure, o_pure)) / step ** 2
    for c, d in pairs:
        acc = sum(wi * wj * ric_at(oi * eye[c] + oj * eye[d])
                  for wi, oi in zip(_W1, _OFFS) for wj, oj in zip(_W1, _OFFS))
        d2[c, d] = d2[d, c] = acc / step ** 2

    # partial -> covariant correction at second order: with vanishing
    # Christoffel symbols at the center only their first derivatives enter.
    axis_points = center + step * (_OFFS[None, :, None] * eye[:, None, :])
    gam = metric.christoffel(axis_points.reshape(-1, 3)).reshape(3, 4, 3, 3, 3)
    dgam = np.zeros((3, 3, 3, 3))
    for dax in range(3):
        dgam[dax] = sum(w * gam[dax, k] for k, w in enumerate(_W1)) / step
    d2 -= np.einsum("deca,eb->dcab", dgam, ric0)
    d2 -= np.einsum("decb,ae->dcab", dgam, ric0)

    return jet_from_arrays(ric0, dric, d2)
