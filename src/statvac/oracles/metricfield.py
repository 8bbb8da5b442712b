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
Polynomial metrics evaluate g and its exact gradient as fixed-order sums
over monomials of the coordinates, with coefficients contracted once at
construction.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = [
    "MetricField",
    "fd_gradient",
    "random_polynomial_metric",
]

# 4th-order central difference weights at offsets (-2, -1, 1, 2) * h
_D1_OFFSETS = np.array([-2.0, -1.0, 1.0, 2.0])
_D1_WEIGHTS = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0


def fd_gradient(fun, points: np.ndarray, step: float) -> np.ndarray:
    """4th-order partial derivatives of a pointwise array-valued callable.

    All twelve shifted copies of the points go to ``fun`` in one call.

    Parameters
    ----------
    fun : callable
        Maps (npts, 3) points to (npts, ...) values.
    points : ndarray, shape (npts, 3)
    step : float

    Returns
    -------
    ndarray, shape (npts, 3, ...)
        Derivative along each coordinate axis.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    npts = points.shape[0]
    shifted = np.broadcast_to(points, (3, 4, npts, 3)).copy()  # [axis, offset]
    for c in range(3):
        shifted[c, :, :, c] += _D1_OFFSETS[:, None] * step
    vals = np.asarray(fun(shifted.reshape(-1, 3)))
    vals = vals.reshape((3, 4, npts) + vals.shape[1:])
    out = np.zeros((npts, 3) + vals.shape[3:])
    for c in range(3):
        out[:, c] = sum(wgt * vals[c, k] for k, wgt in enumerate(_D1_WEIGHTS)) / step
    return out


def _inverse3(g: np.ndarray) -> np.ndarray:
    """Closed-form inverse of 3x3 matrices stored component-major, (3, 3, npts).

    Column i of the inverse is row i+1 cross row i+2 over the determinant.
    Raises LinAlgError on a singular or non-finite matrix.
    """
    adj = np.stack([np.cross(g[1], g[2], axis=0), np.cross(g[2], g[0], axis=0),
                    np.cross(g[0], g[1], axis=0)], axis=1)
    det = np.einsum("an,an->n", g[0], adj[:, 0])
    if not np.all(np.isfinite(g)) or np.any(det == 0.0):
        raise np.linalg.LinAlgError("singular or non-finite metric")
    return adj / det


class MetricField:
    """Vectorized ambient metric x -> g(x) with optional exact gradient."""

    def __init__(self, fun, grad=None, label: str = "metric"):
        self._fun = fun
        self._grad = grad
        self.label = label

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        g = np.asarray(self._fun(points), dtype=float)
        if g.shape != (points.shape[0], 3, 3):
            raise ValueError("metric callable must return (npts, 3, 3)")
        return g

    def gradient(self, points: np.ndarray, step: float = 1e-3) -> np.ndarray:
        """dg[n, c, a, b] = d g_ab / d x^c, exact if available, else FD."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self._grad is not None:
            return np.asarray(self._grad(points), dtype=float)
        return fd_gradient(self.__call__, points, step)

    def fd_gradient(self, points: np.ndarray, step: float = 1e-3) -> np.ndarray:
        """Finite-difference gradient regardless of any analytic one."""
        return fd_gradient(self.__call__, points, step)

    def christoffel(self, points: np.ndarray, step: float = 1e-3,
                    force_fd: bool = False) -> np.ndarray:
        """Christoffel symbols Gamma^c_ab at the given points."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        dg = self.fd_gradient(points, step) if force_fd else self.gradient(points, step)
        # component-major, points last, so that every product runs over
        # contiguous points (polynomial metrics return views of such arrays)
        g = self(points).transpose(1, 2, 0)
        dg = dg.transpose(1, 2, 3, 0)
        # Gamma^c_ab = (1/2) g^{cd} bracket[d, a, b] with
        # bracket[d, a, b] = dg[a, d, b] + dg[b, d, a] - dg[d, a, b]
        bracket = dg.transpose(1, 0, 2, 3) + dg.transpose(1, 2, 0, 3) - dg
        gam = np.matmul(_inverse3(g).transpose(2, 0, 1),
                        bracket.reshape(3, 9, -1).transpose(2, 0, 1))
        return 0.5 * gam.reshape(-1, 3, 3, 3)

    def geodesic_acceleration(self, points: np.ndarray,
                              velocities: np.ndarray) -> np.ndarray:
        """-Gamma^c_ab v^a v^b at the given points, without forming Gamma.

        Points, velocities and the result are (npts, 3).  With
        u[c, d] = d_c g_db v^b, the lowered contraction
        w_d = (d_a g_db - 1/2 d_d g_ab) v^a v^b is v^a u[a, d] - 1/2 u[d, a] v^a,
        and the acceleration is -g^{cd} w_d.
        """
        # component-major with points last, as in christoffel
        v = np.asarray(velocities, dtype=float).reshape(-1, 3).T
        g = self(points).transpose(1, 2, 0)
        dg = self.gradient(points).transpose(1, 2, 3, 0)
        u = np.einsum("cabn,bn->can", dg, v)
        w = np.einsum("an,adn->dn", v, u) - 0.5 * np.einsum("dan,an->dn", u, v)
        return -np.einsum("cdn,dn->nc", _inverse3(g), w)

    # -- constructors ----------------------------------------------------

    @classmethod
    def euclidean(cls) -> "MetricField":
        def fun(pts):
            return np.broadcast_to(np.eye(3), (pts.shape[0], 3, 3)).copy()

        def grad(pts):
            return np.zeros((pts.shape[0], 3, 3, 3))

        return cls(fun, grad, label="euclidean")

    @classmethod
    def conformal(cls, rho, drho=None, label: str = "conformal") -> "MetricField":
        """g = rho(x) * delta for a positive scalar callable rho."""

        def fun(pts):
            vals = np.asarray(rho(pts), dtype=float)
            return vals[:, None, None] * np.eye(3)

        grad = None
        if drho is not None:
            def grad(pts):
                dv = np.asarray(drho(pts), dtype=float)
                return dv[:, :, None, None] * np.eye(3)

        return cls(fun, grad, label=label)

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

        return cls.conformal(rho, drho, label=f"space_form(k={k})")

    @classmethod
    def polynomial(cls, lin=None, quad=None, cubic=None,
                   label: str = "polynomial") -> "MetricField":
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
        # the block entry times the number of distinct orderings of idx.
        # g and dg are fixed-order sums over these monomials, component-major
        # (points last).  Unlike one BLAS product, whose rounding depends on
        # the batch size, this gives each point the same value in any batch,
        # which the curvature stencils need: they amplify the last bit.
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
            # d x^idx / d x_c = (times c occurs in idx) * x^(idx less one c)
            mono = monomials(pts)
            dg = np.zeros((3, 9, pts.shape[0]))
            for idx, coeff in zip(terms, coeffs):
                for c in sorted(set(idx)):
                    rest = list(idx)
                    rest.remove(c)
                    dg[c] += idx.count(c) * coeff * mono[tuple(rest)]
            return dg.reshape(27, -1).T.reshape(-1, 3, 3, 3)

        return cls(fun, grad, label=label)


def random_polynomial_metric(rng: np.random.Generator, amplitude: float = 0.5,
                             degree: int = 3) -> MetricField:
    """Random polynomial metric equal to delta at the origin.

    The linear part is omitted so that the Cartesian frame at the origin
    is orthonormal with vanishing first metric derivatives; amplitudes
    are kept small enough for positivity on the unit ball.
    """
    quad = rng.uniform(-amplitude, amplitude, size=(3, 3, 3, 3))
    cubic = rng.uniform(-amplitude, amplitude, size=(3, 3, 3, 3, 3)) if degree >= 3 else None
    return MetricField.polynomial(quad=quad, cubic=cubic, label="random_polynomial")
