"""Analytic ambient metrics with finite-difference jets.

A MetricField wraps a vectorized callable x -> g(x) on R^3.  Derivatives
are taken by 4th-order central differences of the callable; constructors
for polynomial and conformally flat metrics also carry exact first
derivatives, which the geodesic integrator may use, but every curvature
oracle differentiates the callable directly so that it stays independent
of the closed forms it is checking.

Points are batched: every difference stencil is gathered into one call of
the callable, so a metric callable must accept any (npts, 3) batch and
return (npts, 3, 3), with each point's value independent of the others.
A family of metrics is one callable over (nfam, npts, 3) points that
broadcasts one parameter set per entry of the leading axis; the stencils
and the Christoffel symbols keep such leading axes, so one call serves
every member of the family.
Polynomial metrics evaluate g and its exact gradient as fixed-order sums
over monomials of the coordinates, on the six rows a <= b of the symmetric
(a, b) pair, gathered to nine at the end.  The coefficients and the
gradient's term plan are built once, at construction.  The sums stay
elementwise rather than one BLAS product, which would be faster but rounds
differently with the batch size: the curvature stencils need each point's
value to be the same in any batch.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = [
    "MetricField",
    "fd_jet",
    "fd_laplacian",
    "random_polynomial_metric",
    "richardson",
]

# 4th-order central difference weights at offsets (-2, -1, 1, 2) * h
_D1_OFFSETS = np.array([-2.0, -1.0, 1.0, 2.0])
_D1_WEIGHTS = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
# 4th-order central second-difference weights at offsets (-2, ..., 2) * h
_D2_WEIGHTS = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
# the stencils' unit offsets: _D1_OFFSETS along each axis in turn, and
# along each pair of axes jointly, pairs (0, 1), (0, 2), (1, 2)
_EYE = np.eye(3)
_PAIRS = ((0, 1), (0, 2), (1, 2))
_AXIAL = np.array([oi * _EYE[c] for c in range(3) for oi in _D1_OFFSETS])
_MIXED = np.array([oi * _EYE[c] + oj * _EYE[d] for c, d in _PAIRS
                   for oi in _D1_OFFSETS for oj in _D1_OFFSETS])

# flat rows a*3 + b with a <= b of a symmetric 3x3 index pair, and the
# gather that expands those six rows back to all nine
_SYM_ROWS = np.array([0, 1, 2, 4, 5, 8])
_SYM_GATHER = np.array([0, 1, 2, 1, 3, 4, 2, 4, 5])


def _on_stencil(fun, points: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """fun at every point plus every offset, from one call.

    Points are (..., npts, 3) and offsets (noff, 3); ``fun`` sees the
    leading axes unchanged and the stencil flattened offset-major,
    (..., noff * npts, 3).  Returns (noff, ..., npts, ...).
    """
    lead = points.shape[:-2]
    stencil = points[..., None, :, :] + offsets[:, None, :]
    vals = np.asarray(fun(stencil.reshape(lead + (-1, 3))))
    vals = vals.reshape(lead + stencil.shape[-3:-1] + vals.shape[len(lead) + 1:])
    return np.moveaxis(vals, len(lead), 0)


def _second(axial, value, step):
    """D2 along one axis from its four axial values and the shared centre."""
    line = (axial[0], axial[1], value, axial[2], axial[3])
    return sum(w * f for w, f in zip(_D2_WEIGHTS, line)) / step ** 2


def fd_jet(fun, points: np.ndarray, step: float, order: int = 1):
    """Value and 4th-order central-difference derivatives of a pointwise callable.

    Points are (npts, 3), or (3,) for one point, with any leading axes in
    front: a family axis, say, over which ``fun`` broadcasts one parameter
    set per entry.  ``fun`` maps (..., n, 3) points to (..., n, ...) values,
    each point's value independent of the batch, and is called once: on
    the points, their copies at (-2, -1, 1, 2) * step along each axis and,
    for ``order`` 2 (the other value is 1), at those offsets along each
    pair of axes jointly; 13 evaluations per point, or 61 for order 2.
    Returns (value, gradient) or (value, gradient, hessian), shaped
    (..., npts, ...), (..., npts, 3, ...) and (..., npts, 3, 3, ...).  The
    weights are Fornberg's (Math. Comp. 51, 1988): D1 for the gradient, D2
    with the shared centre on the Hessian diagonal and D1 x D1 off it.
    """
    points = np.asarray(points, dtype=float)
    points = points[None] if points.ndim == 1 else points
    offsets = [np.zeros((1, 3)), _AXIAL] + ([_MIXED] if order == 2 else [])
    vals = _on_stencil(fun, points, step * np.concatenate(offsets))
    value, axial = vals[0], vals[1:13].reshape((3, 4) + vals.shape[1:])
    axis = points.ndim - 1  # derivative slots follow the point axis
    grad = np.stack([sum(w * axial[c, k] for k, w in enumerate(_D1_WEIGHTS)) / step
                     for c in range(3)], axis=axis)
    if order == 1:
        return value, grad
    hess = [[None] * 3 for _ in range(3)]
    for c in range(3):
        hess[c][c] = _second(axial[c], value, step)
    mixed = vals[13:].reshape((3, 4, 4) + vals.shape[1:])
    for (c, d), block in zip(_PAIRS, mixed):
        hess[c][d] = hess[d][c] = sum(
            wi * wj * block[i, j] for i, wi in enumerate(_D1_WEIGHTS)
            for j, wj in enumerate(_D1_WEIGHTS)) / step ** 2
    return value, grad, np.stack([np.stack(row, axis=axis) for row in hess], axis=axis)


def fd_laplacian(fun, points: np.ndarray, steps) -> np.ndarray:
    """Euclidean Laplacian of a pointwise callable at each of several steps.

    The trace of ``fd_jet``'s order-2 Hessian, which reads only the axial
    points: ``fun`` is called once, on the points and their 12 axial
    copies per step, 1 + 12 * len(steps) evaluations per point, with the
    same conventions as ``fd_jet``.  Returns (len(steps), ..., npts, ...).
    """
    points = np.asarray(points, dtype=float)
    points = points[None] if points.ndim == 1 else points
    steps = [float(h) for h in steps]
    vals = _on_stencil(fun, points,
                       np.concatenate([np.zeros((1, 3))] + [h * _AXIAL for h in steps]))
    value, axial = vals[0], vals[1:].reshape((len(steps), 3, 4) + vals.shape[1:])
    return np.stack([sum(_second(axial[s, c], value, h) for c in range(3))
                     for s, h in enumerate(steps)])


def richardson(coarse, fine, order: int):
    """Differences of error order ``order`` with steps h (coarse) and h/2
    (fine), extrapolated to step zero."""
    return (2.0 ** order * fine - coarse) / (2.0 ** order - 1.0)


def _inverse3(g: np.ndarray) -> np.ndarray:
    """Closed-form inverse of 3x3 matrices stored component-major, (3, 3, ...).

    Column i of the inverse is row i+1 cross row i+2 over the determinant.
    Raises LinAlgError on a singular or non-finite matrix.
    """
    adj = np.empty(g.shape)
    for i in range(3):  # the products and order of np.cross(a, b, axis=0)
        a, b = g[(i + 1) % 3], g[(i + 2) % 3]
        adj[0, i] = a[1] * b[2] - a[2] * b[1]
        adj[1, i] = a[2] * b[0] - a[0] * b[2]
        adj[2, i] = a[0] * b[1] - a[1] * b[0]
    det = np.einsum("a...,a...->...", g[0], adj[:, 0])
    if not np.all(np.isfinite(g)) or np.any(det == 0.0):
        raise np.linalg.LinAlgError("singular or non-finite metric")
    return adj / det


class MetricField:
    """Vectorized ambient metric x -> g(x) with optional exact gradient."""

    def __init__(self, fun, grad=None):
        self._fun = fun
        self._grad = grad

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        g = np.asarray(self._fun(points), dtype=float)
        if g.shape != points.shape[:-1] + (3, 3):
            raise ValueError("metric callable must return (..., npts, 3, 3)")
        return g

    def gradient(self, points: np.ndarray) -> np.ndarray:
        """dg[n, c, a, b] = d g_ab / d x^c, exact if available, else FD with step 1e-3."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self._grad is not None:
            return np.asarray(self._grad(points), dtype=float)
        return fd_jet(self, points, 1e-3)[1]

    def christoffel(self, points: np.ndarray, step: float = 1e-3,
                    force_fd: bool = False) -> np.ndarray:
        """Christoffel symbols Gamma^c_ab at (..., npts, 3) points, (..., npts, 3, 3, 3)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if force_fd or self._grad is None:
            g, dg = fd_jet(self, points, step)
        else:
            g, dg = self(points), self.gradient(points)
        shape = g.shape[:-2]
        # pointwise from here on, so any leading axes join the points; then
        # component-major, points last, so that every product runs over
        # contiguous points (polynomial metrics return views of such arrays)
        g = g.reshape(-1, 3, 3).transpose(1, 2, 0)
        dg = dg.reshape(-1, 3, 3, 3).transpose(1, 2, 3, 0)
        # Gamma^c_ab = (1/2) g^{cd} bracket[d, a, b] with
        # bracket[d, a, b] = dg[a, d, b] + dg[b, d, a] - dg[d, a, b]
        bracket = dg.transpose(1, 0, 2, 3) + dg.transpose(1, 2, 0, 3) - dg
        gam = np.matmul(_inverse3(g).transpose(2, 0, 1),
                        bracket.reshape(3, 9, -1).transpose(2, 0, 1))
        return 0.5 * gam.reshape(shape + (3, 3, 3))

    def geodesic_acceleration(self, points: np.ndarray,
                              velocities: np.ndarray) -> np.ndarray:
        """-Gamma^c_ab v^a v^b at the given points, without forming Gamma.

        Points, velocities and the result are (npts, 3).  With
        u[c, d] = d_c g_db v^b, the lowered contraction
        w_d = (d_a g_db - 1/2 d_d g_ab) v^a v^b is v^a u[a, d] - 1/2 u[d, a] v^a,
        and the acceleration is -g^{cd} w_d.  Every contraction is written
        out as component products summed in index order, so the rounding
        does not depend on the memory layout the metric callable returns.
        """
        # component-major with points last, as in christoffel
        v = np.ascontiguousarray(np.asarray(velocities, dtype=float).reshape(-1, 3).T)
        g = self(points).transpose(1, 2, 0)
        dg = self.gradient(points).transpose(1, 2, 3, 0)
        u = dg[:, :, 0] * v[0] + dg[:, :, 1] * v[1] + dg[:, :, 2] * v[2]  # [c, a]
        w = (v[0] * u[0] + v[1] * u[1] + v[2] * u[2]
             - 0.5 * (u[:, 0] * v[0] + u[:, 1] * v[1] + u[:, 2] * v[2]))
        ginv = _inverse3(g)
        return -(ginv[:, 0] * w[0] + ginv[:, 1] * w[1] + ginv[:, 2] * w[2]).T

    # -- constructors ----------------------------------------------------

    @classmethod
    def conformal(cls, rho, drho=None) -> "MetricField":
        """g = rho(x) * delta for a positive scalar callable rho."""

        def fun(pts):
            vals = np.asarray(rho(pts), dtype=float)
            return vals[..., None, None] * np.eye(3)

        grad = None
        if drho is not None:
            def grad(pts):
                dv = np.asarray(drho(pts), dtype=float)
                return dv[..., None, None] * np.eye(3)

        return cls(fun, grad)

    @classmethod
    def space_form(cls, k: float) -> "MetricField":
        """Constant sectional curvature k in its conformally flat chart."""

        def rho(pts):
            r2 = np.sum(pts * pts, axis=1)
            return (1.0 + 0.25 * k * r2) ** (-2.0)

        def drho(pts):
            r2 = np.sum(pts * pts, axis=1)
            base = (1.0 + 0.25 * k * r2) ** (-3.0)
            return -k * base[:, None] * pts

        return cls.conformal(rho, drho)

    @classmethod
    def polynomial(cls, lin=None, quad=None, cubic=None) -> "MetricField":
        """g_ab = delta_ab + lin[a,b,i] x_i + quad[a,b,i,j] x_i x_j + cubic[...].

        Coefficient arrays are symmetrized in (a, b) and in the monomial
        indices.  The exact gradient is attached.
        """
        lin = np.zeros((3, 3, 3)) if lin is None else np.asarray(lin, dtype=float)
        quad = np.zeros((3, 3, 3, 3)) if quad is None else np.asarray(quad, dtype=float)
        cubic = np.zeros((3, 3, 3, 3, 3)) if cubic is None else np.asarray(cubic, dtype=float)
        lin = 0.5 * (lin + lin.transpose(1, 0, 2))
        quad = 0.5 * (quad + quad.transpose(1, 0, 2, 3))
        quad = 0.5 * (quad + quad.transpose(0, 1, 3, 2))
        cubic = 0.5 * (cubic + cubic.transpose(1, 0, 2, 3, 4))
        # full symmetrization over the three monomial slots; the gradient
        # formula below is the derivative only of a symmetric array
        cubic = sum(cubic.transpose(0, 1, *p)
                    for p in itertools.permutations((2, 3, 4))) / 6.0

        # Contracted once per distinct monomial x^idx, idx = (i <= j <= ..):
        # the block entry times the number of distinct orderings of idx, on
        # the six rows a <= b only, since the blocks are exactly symmetric
        # in (a, b).  g and dg are fixed-order sums over these monomials,
        # component-major (points last), gathered to nine rows at the end.
        # Unlike one BLAS product, whose rounding depends on the batch size,
        # this gives each point the same value in any batch, which the
        # curvature stencils need: they amplify the last bit.
        blocks = (None, lin, quad, cubic)
        terms = [idx for d in (1, 2, 3)
                 for idx in itertools.combinations_with_replacement(range(3), d)]
        coeffs = [len(set(itertools.permutations(idx)))
                  * blocks[len(idx)][(Ellipsis, *idx)].reshape(9)[_SYM_ROWS, None]
                  for idx in terms]
        # d x^idx / d x_c = (times c occurs in idx) * x^(idx less one c), as
        # (c, scaled coefficient, rest monomial) in the order of the sums
        grad_plan = []
        for idx, coeff in zip(terms, coeffs):
            for c in sorted(set(idx)):
                rest = list(idx)
                rest.remove(c)
                grad_plan.append((c, idx.count(c) * coeff, tuple(rest)))

        def monomials(pts):
            x = np.ascontiguousarray(pts.T)
            mono = {(): np.ones(pts.shape[0])}
            for idx in terms:
                mono[idx] = mono[idx[:-1]] * x[idx[-1]]
            return mono

        def fun(pts):
            mono = monomials(pts)
            g = np.repeat(np.eye(3).reshape(9)[_SYM_ROWS, None], pts.shape[0], axis=1)
            for idx, coeff in zip(terms, coeffs):
                g += coeff * mono[idx]
            return g[_SYM_GATHER].T.reshape(-1, 3, 3)

        def grad(pts):
            mono = monomials(pts)
            dg = np.zeros((3, 6, pts.shape[0]))
            for c, coeff, rest in grad_plan:
                dg[c] += coeff * mono[rest]
            return dg[:, _SYM_GATHER].reshape(27, -1).T.reshape(-1, 3, 3, 3)

        return cls(fun, grad)


def random_polynomial_metric(rng: np.random.Generator, amplitude: float = 0.5) -> MetricField:
    """Random polynomial metric equal to delta at the origin.

    The linear part is omitted so that the Cartesian frame at the origin
    is orthonormal with vanishing first metric derivatives; amplitudes
    are kept small enough for positivity on the unit ball.
    """
    quad = rng.uniform(-amplitude, amplitude, size=(3, 3, 3, 3))
    cubic = rng.uniform(-amplitude, amplitude, size=(3, 3, 3, 3, 3))
    return MetricField.polynomial(quad=quad, cubic=cubic)
