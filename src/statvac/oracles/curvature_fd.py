"""Curvature by finite differences, plus two closed-form cross-checks.

fd_riemann differentiates Christoffel symbols of a MetricField with
4th-order central differences and assembles the curvature tensor in the
sign convention used throughout the package: the (0,4) tensor is

    R_abcd = (d_a Gamma^e_bc - d_b Gamma^e_ac
              + Gamma^e_af Gamma^f_bc - Gamma^e_bf Gamma^f_ac) g_ed,

whose trace over the outer slots gives a Ricci tensor that is positive
on round spheres.  Everything here is an oracle: no spectral machinery,
no reconstruction formulas, only stencils and the definitions.

fd_riemann and fd_ricci take one point, shape (3,), or a batch, shape
(npts, 3); a batch gathers the stencils of all its points into a single
Christoffel evaluation, so the metric callable must accept any (npts, 3)
batch.  A single point is the batch of one.
"""

from __future__ import annotations

import numpy as np

from ..curvature import Riemann3
from .metricfield import MetricField, _D1_OFFSETS, _D1_WEIGHTS

__all__ = [
    "fd_riemann",
    "fd_ricci",
    "conformal_ricci",
    "linearized_ricci",
    "fd_linearized_ricci",
]

_STEP_RANGE = (1e-4, 1e-2)


def _check_step(step: float) -> None:
    if not (_STEP_RANGE[0] <= step <= _STEP_RANGE[1]):
        raise ValueError(f"finite-difference step {step} outside {_STEP_RANGE}")


def _as_batch(points) -> np.ndarray:
    """Points of shape (3,) or (npts, 3) as an (npts, 3) array."""
    points = np.asarray(points, dtype=float)
    if points.ndim not in (1, 2) or points.shape[-1] != 3:
        raise ValueError("points must have shape (3,) or (npts, 3)")
    return points.reshape(-1, 3)


def _fd_riemann_dense(metric: MetricField, base: np.ndarray, step: float):
    """Raw (npts, 3, 3, 3, 3) difference Riemann tensors at an (npts, 3)
    batch, and the metric there, which lowered their last slot."""
    _check_step(step)
    npts = base.shape[0]
    shifted = np.broadcast_to(base, (3, 4, npts, 3)).copy()  # [axis, offset]
    for a in range(3):
        shifted[a, :, :, a] += _D1_OFFSETS[:, None] * step
    gam = metric.christoffel(np.concatenate([base, shifted.reshape(-1, 3)]),
                             step=step, force_fd=True)
    gam0 = gam[:npts]
    gam_shifted = gam[npts:].reshape(3, 4, npts, 3, 3, 3)
    dgam = np.zeros((npts, 3, 3, 3, 3))  # [n, a, c, b, d] = d_a Gamma^c_bd
    for a in range(3):
        dgam[:, a] = sum(wgt * gam_shifted[a, k]
                         for k, wgt in enumerate(_D1_WEIGHTS)) / step

    # R_ab c^e then lower the last slot with g.
    upper = (np.einsum("naebc->nabce", dgam) - np.einsum("nbeac->nabce", dgam)
             + np.einsum("neaf,nfbc->nabce", gam0, gam0)
             - np.einsum("nebf,nfac->nabce", gam0, gam0))
    g = metric(base)
    return np.einsum("nabce,ned->nabcd", upper, g), g


def fd_riemann(metric: MetricField, points, step: float = 1e-3):
    """Riemann tensor of an ambient metric by differences.

    Christoffel symbols are themselves computed from finite differences
    of the metric callable, so the result never touches an analytic
    gradient that closed-form code might share.  Returns a Riemann3 for a
    point of shape (3,) and a list of them for points of shape (npts, 3).
    """
    dense, _ = _fd_riemann_dense(metric, _as_batch(points), step)
    if np.ndim(points) == 1:
        return Riemann3.from_dense(dense[0])
    return [Riemann3.from_dense(d) for d in dense]


def fd_ricci(metric: MetricField, points, step: float = 1e-3) -> np.ndarray:
    """Coordinate Ricci components from the finite-difference Riemann tensor.

    The contraction uses the inverse metric at each point; the plain
    ``Riemann3.ricci`` helper assumes an orthonormal frame and would be
    wrong wherever g differs from the identity.  Returns shape (3, 3) for
    a point of shape (3,) and (npts, 3, 3) for points of shape (npts, 3).
    """
    dense, g = _fd_riemann_dense(metric, _as_batch(points), step)
    dense = Riemann3.from_dense(dense).dense
    ric = np.einsum("ndc,ncabd->nab", np.linalg.inv(g), dense)
    return ric[0] if np.ndim(points) == 1 else ric


def conformal_ricci(rho: float, grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """Ricci tensor of g = rho * delta from the 2-jet of rho at a point.

    Closed form for three dimensions:

        Ric = (3/4) rho^-2 drho x drho - (1/2) rho^-1 Hess rho
              - (1/2) rho^-1 (Lap rho) delta + (1/4) rho^-2 |drho|^2 delta
    """
    grad = np.asarray(grad, dtype=float).reshape(3)
    hess = np.asarray(hess, dtype=float).reshape(3, 3)
    lap = np.trace(hess)
    grad_sq = float(grad @ grad)
    eye = np.eye(3)
    return (0.75 / rho**2 * np.outer(grad, grad)
            - 0.5 / rho * hess
            - 0.5 / rho * lap * eye
            + 0.25 / rho**2 * grad_sq * eye)


def linearized_ricci(d2h: np.ndarray) -> np.ndarray:
    """Linearization of Ricci at the flat metric from second derivatives.

    Parameters
    ----------
    d2h : ndarray, shape (3, 3, 3, 3)
        d2h[c, d, a, b] = d_c d_d h_ab for the symmetric perturbation h.

    Returns
    -------
    ndarray, shape (3, 3)
        (1/2)(h_a^c_,cb + h_b^c_,ca - (tr h)_,ab - Lap h_ab).
    """
    d2h = np.asarray(d2h, dtype=float)
    t1 = np.einsum("bcac->ab", d2h)
    t2 = np.einsum("acbc->ab", d2h)
    t3 = np.einsum("abcc->ab", d2h)
    t4 = np.einsum("ccab->ab", d2h)
    return 0.5 * (t1 + t2 - t3 - t4)


def fd_linearized_ricci(h_fun, point, t_step: float = 1e-4,
                        x_step: float = 1e-3) -> np.ndarray:
    """d/dt Ric(delta + t h) at t = 0 by central differences in t.

    h_fun maps (npts, 3) points to (npts, 3, 3) symmetric perturbations.
    Used to check linearized_ricci without sharing any formula with it.
    """
    point = np.asarray(point, dtype=float).reshape(3)

    def ric_at(t):
        def fun(pts):
            return np.broadcast_to(np.eye(3), (pts.shape[0], 3, 3)) + t * np.asarray(h_fun(pts))
        return fd_ricci(MetricField(fun), point, step=x_step)

    return (ric_at(t_step) - ric_at(-t_step)) / (2.0 * t_step)
