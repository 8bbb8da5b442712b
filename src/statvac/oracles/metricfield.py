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

``MetricField.jet`` gives g and its first derivatives from one
evaluation, component-major and C-contiguous with the points last; the
geodesic right-hand side and the exact Christoffel symbols read it.  A
polynomial metric builds the 20 monomials of degree <= 3 of its points
once, as one (20, npts) array, and forms g and its exact gradient as two
``np.einsum`` sums over that monomial axis; its value and gradient
callables return views of the same jet.  einsum keeps the bits of each
point where one BLAS product would not: with the points on the
contiguous last axis of the monomials and of the result, its
sum-of-products loops run along the points and add the terms in index
order, without blocking, so a point's value does not depend on the batch
it is evaluated in.  The
curvature stencils need that, since they amplify the last bit.
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
# The adjugate of a 3x3 matrix, indices mod 3: adj[j, i] =
# g[i+1, j+1] g[i+2, j+2] - g[i+1, j+2] g[i+2, j+1].  Flat rows 3a + b of
# g for the left and right factors of the first products, then the second.
_ADJ_LEFT = np.array([3 * ((i + 1) % 3) + (j + d) % 3
                      for d in (1, 2) for j in range(3) for i in range(3)])
_ADJ_RIGHT = np.array([3 * ((i + 2) % 3) + (j + 3 - d) % 3
                       for d in (1, 2) for j in range(3) for i in range(3)])


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

    Column i of the inverse is row i+1 cross row i+2 over the determinant,
    with the products and order of np.cross(a, b, axis=0).
    Raises LinAlgError on a singular or non-finite matrix.
    """
    rows = g.reshape((9,) + g.shape[2:])
    prod = np.take(rows, _ADJ_LEFT, axis=0) * np.take(rows, _ADJ_RIGHT, axis=0)
    adj = (prod[:9] - prod[9:]).reshape(g.shape)
    det = np.einsum("a...,a...->...", g[0], adj[:, 0])
    if not np.all(np.isfinite(g)) or np.any(det == 0.0):
        raise np.linalg.LinAlgError("singular or non-finite metric")
    return adj / det


def _point_major(arr: np.ndarray, points: np.ndarray) -> np.ndarray:
    """A component-major jet array, points last, as (..., npts, components)
    for the (..., npts, 3) points it was evaluated at; a view for (npts, 3)."""
    return np.moveaxis(arr, -1, 0).reshape(points.shape[:-1] + arr.shape[:-1])


class MetricField:
    """Vectorized ambient metric x -> g(x) with optional exact gradient."""

    def __init__(self, fun, grad=None):
        self._fun = fun
        self._grad = grad
        self._exact_jet = None

    @classmethod
    def _from_jet(cls, jet) -> "MetricField":
        """Metric whose value and exact gradient are views of one jet.

        ``jet(pts, order)`` maps (n, 3) points to (g, dg), g (3, 3, n) and
        dg (3, 3, 3, n) component-major, or to (g, None) for order 0.
        """
        metric = cls(lambda pts: _point_major(jet(pts.reshape(-1, 3), 0)[0], pts),
                     lambda pts: _point_major(jet(pts.reshape(-1, 3), 1)[1], pts))
        metric._exact_jet = jet
        return metric

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        g = np.asarray(self._fun(points), dtype=float)
        if g.shape != points.shape[:-1] + (3, 3):
            raise ValueError("metric callable must return (..., npts, 3, 3)")
        return g

    def gradient(self, points: np.ndarray) -> np.ndarray:
        """dg[n, c, a, b] = d g_ab / d x^c, exact if available, else FD with step 1e-3."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self._grad is None:
            return fd_jet(self, points, 1e-3)[1]
        dg = np.asarray(self._grad(points), dtype=float)
        if dg.shape != points.shape[:-1] + (3, 3, 3):
            raise ValueError("metric gradient callable must return (..., npts, 3, 3, 3)")
        return dg

    def jet(self, points: np.ndarray):
        """g[a, b, n] and dg[c, a, b, n] = d_c g_ab at (..., npts, 3) points.

        Component-major and C-contiguous, with every point on the last
        axis, leading axes flattened into it.  The closed-form
        constructors evaluate both in one pass.  Otherwise the callables
        are called once each, or, without a gradient callable, the value
        callable once on the points and the stencil of ``gradient``.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self._exact_jet is not None:
            return self._exact_jet(points.reshape(-1, 3), 1)
        if self._grad is None:
            g, dg = fd_jet(self, points, 1e-3)
        else:
            g, dg = self(points), self.gradient(points)
        return (np.ascontiguousarray(np.moveaxis(g.reshape(-1, 3, 3), 0, -1)),
                np.ascontiguousarray(np.moveaxis(dg.reshape(-1, 3, 3, 3), 0, -1)))

    def christoffel(self, points: np.ndarray, step: float = 1e-3,
                    force_fd: bool = False) -> np.ndarray:
        """Christoffel symbols Gamma^c_ab at (..., npts, 3) points, (..., npts, 3, 3, 3)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if force_fd or self._grad is None:
            g, dg = fd_jet(self, points, step)
            # pointwise from here on, so any leading axes join the points,
            # component-major as in the jet
            g = g.reshape(-1, 3, 3).transpose(1, 2, 0)
            dg = dg.reshape(-1, 3, 3, 3).transpose(1, 2, 3, 0)
        else:
            g, dg = self.jet(points)
        # Gamma^c_ab = (1/2) g^{cd} bracket[d, a, b] with
        # bracket[d, a, b] = dg[a, d, b] + dg[b, d, a] - dg[d, a, b]
        bracket = dg.transpose(1, 0, 2, 3) + dg.transpose(1, 2, 0, 3) - dg
        gam = np.matmul(_inverse3(g).transpose(2, 0, 1),
                        bracket.reshape(3, 9, -1).transpose(2, 0, 1))
        return 0.5 * gam.reshape(points.shape[:-1] + (3, 3, 3))

    def geodesic_acceleration(self, points: np.ndarray,
                              velocities: np.ndarray) -> np.ndarray:
        """-Gamma^c_ab v^a v^b at the given points, without forming Gamma.

        Points, velocities and the result are (npts, 3).  With
        u[c, d] = d_c g_db v^b, the lowered contraction
        w_d = (d_a g_db - 1/2 d_d g_ab) v^a v^b is v^a u[a, d] - 1/2 u[d, a] v^a,
        and the acceleration is -g^{cd} w_d: one jet, three einsum
        contractions over its contiguous points.
        """
        v = np.ascontiguousarray(np.asarray(velocities, dtype=float).reshape(-1, 3).T)
        g, dg = self.jet(points)
        u = np.einsum("cabn,bn->can", dg, v)
        w = np.einsum("an,adn->dn", v, u) - 0.5 * np.einsum("dan,an->dn", u, v)
        return -np.einsum("cdn,dn->nc", _inverse3(g), w)

    # -- constructors ----------------------------------------------------

    @classmethod
    def conformal(cls, rho, drho=None) -> "MetricField":
        """g = rho(x) * delta for a positive scalar callable rho."""

        def fun(pts):
            vals = np.asarray(rho(pts), dtype=float)
            return vals[..., None, None] * np.eye(3)

        if drho is None:
            return cls(fun)

        def jet(pts, order):  # (rho delta, drho x delta)
            g = _EYE[:, :, None] * np.asarray(rho(pts), dtype=float)
            if order == 0:
                return g, None
            dv = np.ascontiguousarray(np.asarray(drho(pts), dtype=float).T)
            return g, _EYE[:, :, None] * dv[:, None, None]

        return cls._from_jet(jet)

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

        # The 20 distinct monomials x^idx, idx = (i <= j <= ..), by degree
        # and then lexicographically: the children idx + (i,), i >= idx[-1],
        # of each monomial of degree 1 or 2 are consecutive, one product
        # of it with the coordinates x[idx[-1]:]
        terms = [idx for d in range(4)
                 for idx in itertools.combinations_with_replacement(range(3), d)]
        index = {idx: t for t, idx in enumerate(terms)}
        children = [(index[idx], index[idx + idx[-1:]], idx[-1]) for idx in terms[1:10]]
        # value[t, ab]: the block entry of monomial t times its number of
        # distinct orderings, delta for the constant monomial
        blocks = (np.eye(3), lin, quad, cubic)
        value = np.stack([len(set(itertools.permutations(idx)))
                          * blocks[len(idx)][(Ellipsis, *idx)].reshape(9)
                          for idx in terms])
        # d x^idx / d x_c = (times c occurs in idx) * x^(idx less one c):
        # slope[s, c * 9 + ab] scales monomial s of degree <= 2, idx = s + (c,)
        slope = np.concatenate([[idx.count(c) * value[index[idx]]
                                 for idx in (tuple(sorted(s + (c,))) for s in terms[:10])]
                                for c in range(3)], axis=1)

        def jet(pts, order):
            mono = np.empty((len(terms), pts.shape[0]))
            mono[0] = 1.0
            mono[1:4] = pts.T
            for t, first, i in children:
                np.multiply(mono[t], mono[1 + i:4], out=mono[first:first + 3 - i])
            # fixed-order sums over the monomial axis, component-major
            g = np.einsum("tk,tn->kn", value, mono).reshape(3, 3, -1)
            if order == 0:
                return g, None
            return g, np.einsum("sk,sn->kn", slope, mono[:10]).reshape(3, 3, 3, -1)

        return cls._from_jet(jet)


def random_polynomial_metric(rng: np.random.Generator, amplitude: float = 0.5) -> MetricField:
    """Random polynomial metric equal to delta at the origin.

    The linear part is omitted so that the Cartesian frame at the origin
    is orthonormal with vanishing first metric derivatives; amplitudes
    are kept small enough for positivity on the unit ball.
    """
    quad = rng.uniform(-amplitude, amplitude, size=(3, 3, 3, 3))
    cubic = rng.uniform(-amplitude, amplitude, size=(3, 3, 3, 3, 3))
    return MetricField.polynomial(quad=quad, cubic=cubic)
