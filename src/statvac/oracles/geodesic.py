"""Direct geodesic-sphere sampling of an analytic ambient metric.

Independent check on the small-sphere Taylor data.  The geodesic equation
is integrated from a center point along one direction per grid node to
arc length tau.  The endpoints are expanded in spherical harmonics on the
same grid; the angular derivatives of that expansion are the tangents of
the sphere, which give its induced metric, and the mean curvature is the
first variation of area under a unit-normal perturbation, whose angular
derivatives come from the same expansion.  Nothing here touches the
curvature-jet pipeline, so agreement of the two data sets to fifth order
in tau is a meaningful regression target.

All geodesics are integrated as a single system with scipy's DOP853, the
8th-order Dormand-Prince pair (Hairer, Norsett & Wanner, Solving ODEs I,
II.10).  The adaptive integrator then uses one shared step sequence, which
makes the integration error a smooth function of the initial direction;
the spectral derivatives in angle need that smoothness, since an error
that jumped from node to node would leak into every band.  The first trial
step is the whole radius: the embedded error estimate accepts or rejects
it like any other step (ibid. II.4), and on small spheres one step passes,
which saves the evaluations of scipy's initial-step heuristic and of the
short steps it proposes.  The right-hand
side is ``MetricField.geodesic_acceleration``, which contracts the metric
derivatives with the velocities as component products summed in a fixed
order, never forming the Christoffel symbols; its bits do not depend on
the memory layout of the metric callable's output.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import DOP853

from ..boundary import BartnikPerturbation
from ..curvature import CurvatureJet, jet_from_arrays
from ..spherical.fields import ScalarField, SymTensorField
from ..spherical.grid import SphereGrid
from .curvature_fd import fd_ricci
from .metricfield import _D1_OFFSETS, _D1_WEIGHTS, _D2_OFFSETS, _D2_WEIGHTS, MetricField

__all__ = [
    "NumericalFailure",
    "geodesic_sphere",
    "jet_from_metric",
    "space_form_reference",
]


class NumericalFailure(RuntimeError):
    """An oracle integration failed to reach its accuracy target."""


def space_form_reference(k: float, tau: float):
    """Closed-form geodesic-sphere data of the curvature-k space form.

    Returns (factor, scaled_h): the scaled induced metric is factor times
    the round metric, and scaled_h is tau times the mean curvature, which
    tends to -2 as tau goes to zero.
    """
    k, tau = float(k), float(tau)
    if not np.isfinite(k):
        raise ValueError("k must be finite")
    if not 0.0 < tau < np.inf:
        raise ValueError("tau must be positive and finite")
    x = np.sqrt(abs(k)) * tau
    if k > 0.0:
        if x >= np.pi:
            raise ValueError("radius beyond the conjugate point")
        return (np.sin(x) / x) ** 2, -2.0 * x / np.tan(x)
    if k < 0.0:
        return (np.sinh(x) / x) ** 2, -2.0 * x / np.tanh(x)
    return 1.0, -2.0


def geodesic_sphere(metric: MetricField, center, tau: float, grid: SphereGrid,
                    *, rtol: float = 1e-12, atol: float = 1e-14,
                    diagnostics: dict | None = None) -> BartnikPerturbation:
    """Sample the geodesic sphere of radius tau and return its data offsets.

    One geodesic per grid node is integrated to arc length tau.  The
    endpoints are expanded in spherical harmonics; the tangents of that
    expansion give the induced metric and, with the spectral derivatives
    of the unit normal, the mean curvature.

    Parameters
    ----------
    metric : MetricField
        Ambient metric, positive definite along the geodesics.
    center : array_like, shape (3,)
        Center point of the sphere.
    tau : float
        Geodesic radius; must stay below the first conjugate point, and
        its square must be a finite float.
    grid : SphereGrid
        Output grid.  Initial directions are the grid nodes mapped through
        the inverse metric square root at the center, so every geodesic
        starts with unit speed and tau is the arc length.  The sphere must
        be resolved by the grid's band limit; ``spectral_tail`` shows how
        far it is from that.
    rtol, atol : float
        Integrator tolerances.
    diagnostics : dict, optional
        If given, filled with accuracy indicators (speed_drift,
        spectral_tail, min_det) and integrator effort (num_steps, nfev).
        spectral_tail is the Euclidean norm of the top band (l = lmax) of
        the embedding's coefficients, in the units of the coordinates.

    Returns
    -------
    BartnikPerturbation
        Offsets of the scaled induced metric from the round metric and of
        the scaled mean curvature from -2, in the same layout as the
        Taylor data.
    """
    center = np.asarray(center, dtype=float).reshape(3)
    if not np.all(np.isfinite(center)):
        raise ValueError("center must be finite")
    tau = float(tau)
    if not (tau > 0.0 and np.isfinite(tau * tau)):
        raise ValueError("tau must be positive, with a finite square")

    g0 = metric(center[None])[0]
    evals, evecs = np.linalg.eigh(g0)
    if np.min(evals) <= 0.0:
        raise NumericalFailure("metric is not positive definite at the center")
    root_inv = (evecs * evals ** -0.5) @ evecs.T
    vel0 = grid.nodes @ root_inv.T
    pos0 = np.broadcast_to(center, vel0.shape)

    n = grid.nnodes
    state0 = np.concatenate([pos0.ravel(), vel0.ravel()])

    def rhs(_t, state):
        pos = state[: 3 * n].reshape(n, 3)
        vel = state[3 * n:].reshape(n, 3)
        acc = metric.geodesic_acceleration(pos, vel)
        return np.concatenate([vel.ravel(), acc.ravel()])

    # solve_ivp's stepping loop, keeping only the final state
    solver = None
    try:
        solver = DOP853(rhs, 0.0, state0, tau, rtol=rtol, atol=atol, first_step=tau)
        num_steps = 1  # accepted steps plus the initial point
        while solver.status == "running":
            message = solver.step()
            if solver.status == "failed":
                raise NumericalFailure("geodesic integration failed: " + message)
            num_steps += 1
        state, nfev = solver.y, solver.nfev
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"geodesic integration failed: {exc}") from exc
    finally:
        # the solver's counting wrapper of rhs closes over the solver; this
        # reference cycle would keep its step arrays alive until a full
        # collection, so empty the solver to free them now
        if solver is not None:
            vars(solver).clear()
    y0 = state[: 3 * n].reshape(n, 3)
    v_end = state[3 * n:].reshape(n, 3)

    gy = metric(y0)

    def pair(u, w):
        return np.einsum("na,nab,nb->n", u, gy, w)

    # spectral tangents of the embedding
    ycoef = grid.analyze(y0.T)
    y_th = grid.synth("dYdtheta", ycoef).T
    y_ph = grid.synth("dYdphi", ycoef).T

    n_cov = np.cross(y_th, y_ph)
    ginv = np.linalg.inv(gy)
    n_up = np.einsum("nab,nb->na", ginv, n_cov)
    norm = np.einsum("na,na->n", n_cov, n_up)
    if np.any(norm <= 0.0):
        raise NumericalFailure("degenerate surface normal")
    nu = n_up / np.sqrt(norm)[:, None]
    orient = np.sign(pair(nu, v_end))
    if np.any(orient == 0.0):
        raise NumericalFailure("surface normal orthogonal to the geodesic")
    nu = nu * orient[:, None]

    nucoef = grid.analyze(nu.T)
    nu_th = grid.synth("dYdtheta", nucoef).T
    nu_ph = grid.synth("dYdphi", nucoef).T

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

    scale = tau ** 2
    c11 = s_tt / scale - 1.0
    c12 = s_tp / scale / grid.sin_theta
    c22 = s_pp / scale / grid.sin_theta ** 2 - 1.0

    if diagnostics is not None:
        diagnostics["speed_drift"] = float(np.max(np.abs(pair(v_end, v_end) - 1.0)))
        diagnostics["spectral_tail"] = float(np.linalg.norm(
            ycoef[:, grid.ls == grid.lmax]))
        diagnostics["min_det"] = float(np.min(det))
        diagnostics["num_steps"] = num_steps
        diagnostics["nfev"] = nfev

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
    axis_offsets = [off * eye[c] for c in range(3) for off in _D2_OFFSETS]
    pairs = [(c, d) for c in range(3) for d in range(c + 1, 3)]
    mixed_offsets = [oi * eye[c] + oj * eye[d] for c, d in pairs
                     for oi in _D1_OFFSETS for oj in _D1_OFFSETS]
    index = {}
    for off in axis_offsets + mixed_offsets:
        index.setdefault(tuple(off), len(index))
    ric_all = fd_ricci(metric, center + step * np.array(list(index)), step=curv_step)

    def ric_at(off):
        return ric_all[index[tuple(off)]]

    ric0 = ric_at(np.zeros(3))

    d1 = tuple(zip(_D1_WEIGHTS, _D1_OFFSETS))
    dric = np.zeros((3, 3, 3))
    for c in range(3):
        dric[c] = sum(w * ric_at(off * eye[c]) for w, off in d1) / step

    d2 = np.zeros((3, 3, 3, 3))
    for c in range(3):
        d2[c, c] = sum(w * ric_at(off * eye[c])
                       for w, off in zip(_D2_WEIGHTS, _D2_OFFSETS)) / step ** 2
    for c, d in pairs:
        acc = sum(wi * wj * ric_at(oi * eye[c] + oj * eye[d])
                  for wi, oi in d1 for wj, oj in d1)
        d2[c, d] = d2[d, c] = acc / step ** 2

    # partial -> covariant correction at second order: with vanishing
    # Christoffel symbols at the center only their first derivatives enter.
    axis_points = center + step * (_D1_OFFSETS[None, :, None] * eye[:, None, :])
    gam = metric.christoffel(axis_points.reshape(-1, 3)).reshape(3, 4, 3, 3, 3)
    dgam = np.zeros((3, 3, 3, 3))
    for dax in range(3):
        dgam[dax] = sum(w * gam[dax, k] for k, w in enumerate(_D1_WEIGHTS)) / step
    d2 -= np.einsum("deca,eb->dcab", dgam, ric0)
    d2 -= np.einsum("decb,ae->dcab", dgam, ric0)

    return jet_from_arrays(ric0, dric, d2)
