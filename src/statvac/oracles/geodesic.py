"""Direct geodesic-sphere sampling of an analytic ambient metric.

Independent check on the small-sphere Taylor data.  The geodesic equation
is integrated from a center point along one direction per grid node to
arc length tau.  The endpoints are expanded in spherical harmonics on the
same grid, and ``embedded_sphere_geometry`` reads the induced metric and
the mean curvature from that expansion, with the metric and its gradient
at the endpoints: the angular derivatives of the expansion are the
tangents, and its second derivatives enter the second fundamental form.
Nothing here touches the curvature-jet pipeline, so agreement of the two
data sets to fifth order in tau is a meaningful regression target.

All geodesics are integrated as a single system with the 8th-order
Dormand-Prince pair of ``dop853`` (Hairer, Norsett & Wanner, Solving ODEs
I, II.10).  The adaptive integrator then uses one shared step sequence,
which makes the integration error a smooth function of the initial
direction; the spectral derivatives in angle need that smoothness, since
an error that jumped from node to node would leak into every band.  The
first trial step is the whole radius: the embedded error estimate accepts
or rejects it like any other step (ibid. II.4), and on small spheres one
step passes, which saves the evaluations of an initial-step heuristic and
of the short steps it would propose.  The right-hand
side is ``MetricField.geodesic_acceleration``: one ``MetricField.jet`` of
the metric and its gradient at every node, contracted with the velocities
by three ``np.einsum`` sums, never forming the Christoffel symbols.  The
jet is C-contiguous with the nodes last, so each sum adds its terms in
index order and its bits do not depend on the memory layout of the metric
callable's output.  One more jet gives the end points' metric and
gradient, in the layout ``embedded_sphere_geometry`` takes.
"""

from __future__ import annotations

import numpy as np

from ..boundary import BartnikPerturbation
from ..curvature import CurvatureJet, jet_from_arrays
from ..errors import NumericalFailure
from ..spherical.fields import ScalarField, SymTensorField
from ..spherical.grid import SphereGrid
from .curvature_fd import fd_ricci
from .dop853 import integrate
from .metricfield import MetricField, fd_jet
from .sphere_variation import embedded_sphere_geometry

__all__ = [
    "NumericalFailure",
    "geodesic_sphere",
    "jet_from_metric",
    "space_form_reference",
]


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
    endpoints are expanded in spherical harmonics, and
    ``embedded_sphere_geometry`` reads the induced metric and the mean
    curvature from that expansion.  A node whose normal does not point
    along its geodesic, g(nu, v) <= 0, raises NumericalFailure; below the
    conjugate radius none does.

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
    if not np.all(np.isfinite(g0)):
        raise NumericalFailure("metric is not finite at the center")
    evals, evecs = np.linalg.eigh(g0)
    if np.min(evals) <= 0.0:
        raise NumericalFailure("metric is not positive definite at the center")
    root_inv = (evecs * evals ** -0.5) @ evecs.T
    vel0 = grid.nodes @ root_inv.T
    pos0 = np.broadcast_to(center, vel0.shape)

    n = grid.nnodes
    state0 = np.concatenate([pos0.ravel(), vel0.ravel()])

    def rhs(state):
        pos = state[: 3 * n].reshape(n, 3)
        vel = state[3 * n:].reshape(n, 3)
        acc = metric.geodesic_acceleration(pos, vel)
        return np.concatenate([vel.ravel(), acc.ravel()])

    try:
        state, nfev, nstep = integrate(rhs, state0, tau, rtol=rtol, atol=atol)
    except (NumericalFailure, np.linalg.LinAlgError) as exc:
        raise NumericalFailure(f"geodesic integration failed: {exc}") from exc
    y0 = state[: 3 * n].reshape(n, 3)
    v_end = state[3 * n:].reshape(n, 3)

    gy, dgy = metric.jet(y0)
    ycoef = grid.analyze(y0.T)
    (s11, s12, s22), h, det, nu = embedded_sphere_geometry(grid, ycoef, gy, dgy)
    if not np.all(np.einsum("na,abn,nb->n", nu, gy, v_end) > 0.0):
        raise NumericalFailure("surface normal orthogonal to the geodesic")

    scale = tau ** 2
    c11 = s11 / scale - 1.0
    c12 = s12 / scale
    c22 = s22 / scale - 1.0
    h_offset = 2.0 + tau * h

    if diagnostics is not None:
        speed_sq = np.einsum("na,abn,nb->n", v_end, gy, v_end)
        diagnostics["speed_drift"] = float(np.max(np.abs(speed_sq - 1.0)))
        diagnostics["spectral_tail"] = float(np.linalg.norm(
            ycoef[:, grid.ls == grid.lmax]))
        diagnostics["min_det"] = float(np.min(det))
        diagnostics["num_steps"] = nstep + 1  # accepted steps plus the initial point
        diagnostics["nfev"] = nfev

    gamma1 = SymTensorField.from_components(grid, c11, c12, c22)
    h_field = ScalarField.from_values(grid, h_offset)
    return BartnikPerturbation(gamma1=gamma1, H1=h_field)


def jet_from_metric(metric: MetricField, center) -> CurvatureJet:
    """Curvature jet at a point by nested finite differences of Ricci.

    The center must be a point where the first derivatives of the metric
    vanish (checked through the Christoffel symbols); partial derivatives
    of the Ricci components then agree with covariant ones at first order,
    and at second order differ only by first-derivative-of-Christoffel
    terms, which are corrected explicitly.

    The outer step, 0.025, balances fourth-order truncation against the
    noise floor of the inner curvature differences (step 1e-3) divided by
    the outer step squared; both sit near 1e-6 on unit-scale metrics.
    """
    step = 0.025
    center = np.asarray(center, dtype=float).reshape(3)
    gam0, dgam = fd_jet(metric.christoffel, center, step)
    if np.max(np.abs(gam0)) > 1e-8:
        raise ValueError("jet extraction needs a center where the metric "
                         "first derivatives vanish")

    ric0, dric, d2 = fd_jet(lambda pts: fd_ricci(metric, pts, step=1e-3),
                            center, step, order=2)
    ric0, dric, d2, dgam = ric0[0], dric[0], d2[0], dgam[0]

    # partial -> covariant correction at second order: with vanishing
    # Christoffel symbols at the center only their first derivatives enter.
    d2 -= np.einsum("deca,eb->dcab", dgam, ric0)
    d2 -= np.einsum("decb,ae->dcab", dgam, ric0)

    return jet_from_arrays(ric0, dric, d2)
