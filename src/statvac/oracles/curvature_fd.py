"""Curvature by finite differences, plus two closed-form cross-checks.

fd_ricci differentiates Christoffel symbols of a MetricField with
4th-order central differences and assembles the curvature tensor in the
sign convention used throughout the package: the (0,4) tensor is

    R_abcd = (d_a Gamma^e_bc - d_b Gamma^e_ac
              + Gamma^e_af Gamma^f_bc - Gamma^e_bf Gamma^f_ac) g_ed,

whose trace over the outer slots gives a Ricci tensor that is positive
on round spheres.  Everything here is an oracle: no spectral machinery,
no reconstruction formulas, only stencils and the definitions.

fd_ricci takes one point, shape (3,), or a batch, shape (npts, 3); a
batch gathers the stencils of all its points into a single Christoffel
evaluation, so the metric callable must accept any (npts, 3) batch.  A
single point is the batch of one.  fd_ricci and fd_linearized_ricci
also take leading family axes, (..., npts, 3), for a metric callable
that broadcasts one parameter set per family entry (see metricfield): a
suite's samples then share one set of stencil calls.
"""

from __future__ import annotations

import numpy as np

from ..curvature import Riemann3
from .metricfield import MetricField, fd_jet

__all__ = [
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
    """Points of shape (3,) or (..., npts, 3) as an (..., npts, 3) array."""
    points = np.asarray(points, dtype=float)
    if points.ndim == 0 or points.shape[-1] != 3:
        raise ValueError("points must have shape (3,) or (..., npts, 3)")
    return points.reshape(-1, 3) if points.ndim == 1 else points


def _fd_riemann_dense(metric: MetricField, base: np.ndarray, step: float):
    """Raw (n, 3, 3, 3, 3) difference Riemann tensors at a (..., npts, 3)
    batch, and the (n, 3, 3) metric there, which lowered their last slot,
    with every point in one flat axis of n."""
    _check_step(step)
    # dgam[..., n, a, c, b, d] = d_a Gamma^c_bd
    gam0, dgam = fd_jet(lambda pts: metric.christoffel(pts, step=step, force_fd=True),
                        base, step)
    gam0 = gam0.reshape(-1, 3, 3, 3)
    dgam = dgam.reshape(-1, 3, 3, 3, 3)

    # R_ab c^e then lower the last slot with g.
    upper = (np.einsum("naebc->nabce", dgam) - np.einsum("nbeac->nabce", dgam)
             + np.einsum("neaf,nfbc->nabce", gam0, gam0)
             - np.einsum("nebf,nfac->nabce", gam0, gam0))
    g = metric(base).reshape(-1, 3, 3)
    return np.einsum("nabce,ned->nabcd", upper, g), g


def fd_ricci(metric: MetricField, points, step: float = 1e-3) -> np.ndarray:
    """Coordinate Ricci components from the finite-difference Riemann tensor.

    Christoffel symbols are themselves computed from finite differences
    of the metric callable, so the result never touches an analytic
    gradient that closed-form code might share.  The contraction uses the
    inverse metric at each point; the plain ``Riemann3.ricci`` helper
    assumes an orthonormal frame and would be wrong wherever g differs
    from the identity.  Returns shape (3, 3) for a point of shape (3,)
    and (..., npts, 3, 3) for points of shape (..., npts, 3).
    """
    base = _as_batch(points)
    dense, g = _fd_riemann_dense(metric, base, step)
    dense = Riemann3.from_dense(dense).dense
    ric = np.einsum("ndc,ncabd->nab", np.linalg.inv(g), dense)
    return ric[0] if np.ndim(points) == 1 else ric.reshape(base.shape[:-1] + (3, 3))


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


def fd_linearized_ricci(h_fun, points, t_step=1e-4) -> np.ndarray:
    """d/dt Ric(delta + t h) at t = 0 by central differences in t.

    Points are (3,), with a (3, 3) result, or (..., npts, 3), with
    (..., npts, 3, 3); h_fun maps (..., n, 3) points with the same leading
    axes to (..., n, 3, 3) symmetric perturbations, one parameter set per
    family entry if there are leading axes.  ``t_step`` may be an array
    of steps: every +-t of all of them goes through one ``fd_ricci`` call,
    with h_fun evaluated once, since the stencil points are the same for
    every t, and the result has the steps' axes in front.

    The inner Ricci stencil's roundoff, divided by t, sets a noise floor
    that falls as the square of its spatial step, fixed here at 4e-3: the
    ``linearized`` suite's seed-0 residual, from the Richardson pair of t
    steps (2e-3, 1e-3), reads 1.1e-7, 2.7e-8, 8.4e-9 and 2.4e-9 at spatial
    steps 1e-3, 2e-3, 4e-3 and 8e-3.  Used to check linearized_ricci
    without sharing any formula with it.
    """
    base = _as_batch(points)
    t_step = np.asarray(t_step, dtype=float)
    ts = np.stack([t_step, -t_step])
    t_col = ts.reshape(ts.shape + (1,) * (base.ndim + 1))

    def fun(pts):  # the t axes in front repeat the same points
        return np.eye(3) + t_col * np.asarray(h_fun(pts[(0,) * ts.ndim]))

    ric = fd_ricci(MetricField(fun), np.broadcast_to(base, ts.shape + base.shape), step=4e-3)
    out = (ric[0] - ric[1]) / (2.0 * t_col[0])
    return out[..., 0, :, :] if np.ndim(points) == 1 else out
