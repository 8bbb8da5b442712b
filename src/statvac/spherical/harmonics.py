"""Real orthonormal spherical harmonics.

The basis is indexed by (l, m) with l = 0..lmax and m = -l..l, flattened as
k = l*l + l + m.  For m > 0 the basis function is sqrt(2)*N_l^m(theta)*cos(m*phi),
for m < 0 it is sqrt(2)*N_l^|m|(theta)*sin(|m|*phi), and for m = 0 it is
N_l^0(theta), where N_l^m is the associated Legendre function carrying the
full orthonormalization factor sqrt((2l+1)/(4pi) * (l-m)!/(l+m)!) and no
Condon-Shortley phase.  All tables are computed with stable three-term
recurrences, so no factorials appear explicitly; they step over l and are
vector over m and the points, with each entry's arithmetic unchanged.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "mode_table",
    "index_of",
    "num_modes",
    "harmonic_tables",
    "angles_from_directions",
]


def num_modes(lmax: int) -> int:
    """Number of basis functions through band limit lmax."""
    return (lmax + 1) * (lmax + 1)


def index_of(l: int, m: int) -> int:
    """Flat index of the (l, m) basis function."""
    return l * l + l + m


def mode_table(lmax: int):
    """Arrays (ls, ms) giving the degree and order of each flat index."""
    k = np.arange(num_modes(lmax))
    ls = np.sqrt(k).astype(int)
    return ls, k - ls * ls - ls


def _normalized_legendre(lmax: int, theta: np.ndarray, *, derivative: bool = True):
    """Orthonormalized associated Legendre tables N and dN/dtheta.

    Parameters
    ----------
    lmax : int
        Band limit.
    theta : ndarray, shape (npts,)
        Colatitudes, strictly inside (0, pi) for the derivative table.
    derivative : bool
        If false, dN is not computed and None is returned in its place.

    Returns
    -------
    N, dN : ndarray, shape (lmax+1, lmax+1, npts)
        N[l, m] and its theta derivative, for 0 <= m <= l.  Unused entries
        (m > l) are zero.
    """
    theta = np.asarray(theta, dtype=float)
    ct = np.cos(theta)
    st = np.sin(theta)
    npts = theta.size
    N = np.zeros((lmax + 1, lmax + 1, npts))
    N[0, 0] = np.sqrt(1.0 / (4.0 * np.pi))
    for m in range(1, lmax + 1):
        N[m, m] = np.sqrt((2.0 * m + 1.0) / (2.0 * m)) * st * N[m - 1, m - 1]
    for m in range(0, lmax):
        N[m + 1, m] = np.sqrt(2.0 * m + 3.0) * ct * N[m, m]
    # three-term recurrence in l, vector over every order m <= l - 2
    for l in range(2, lmax + 1):
        m = np.arange(l - 1)[:, None]
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
        N[l, : l - 1] = a * (ct * N[l - 1, : l - 1] - b * N[l - 2, : l - 1])
    if not derivative:
        return N, None

    # dN_l^m/dtheta = (l*cos(theta)*N_l^m - c_lm*N_{l-1}^m) / sin(theta),
    # c_lm = sqrt((2l+1)/(2l-1) * (l^2 - m^2)); at m = l both c_lm and the
    # unused entry N_{l-1}^l vanish.
    dN = np.zeros_like(N)
    safe_st = np.where(np.abs(st) < 1e-300, 1.0, st)
    for l in range(1, lmax + 1):
        m = np.arange(l + 1)[:, None]
        c = np.sqrt((2.0 * l + 1.0) / (2.0 * l - 1.0) * (l * l - m * m))
        dN[l, : l + 1] = (l * ct * N[l, : l + 1] - c * N[l - 1, : l + 1]) / safe_st
    return N, dN


def harmonic_tables(lmax: int, theta: np.ndarray, phi: np.ndarray, *,
                    derivative: bool = True):
    """Value and theta-derivative tables of the real basis at given angles.

    Parameters
    ----------
    lmax : int
        Band limit.
    theta, phi : ndarray, shape (npts,)
        Paired colatitudes and longitudes.
    derivative : bool
        If false, only Y is computed and returned.

    Returns
    -------
    Y, dYdtheta : ndarray, shape ((lmax+1)**2, npts)
        Rows follow the flat (l, m) layout of :func:`index_of`.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    if theta.shape != phi.shape:
        raise ValueError("theta and phi must have matching shapes")
    N, dN = _normalized_legendre(lmax, theta, derivative=derivative)
    ls, ms = mode_table(lmax)
    am = np.abs(ms)
    scale = np.where(ms == 0, 1.0, np.sqrt(2.0))[:, None]
    # cos(m phi) and sin(m phi) once per order, stacked; m < 0 reads the sines
    mphi = np.arange(lmax + 1)[:, None] * phi
    trig = np.concatenate([np.cos(mphi), np.sin(mphi)])[np.where(ms < 0, lmax + 1 + am, am)]
    Y = scale * N[ls, am] * trig
    if not derivative:
        return Y
    return Y, scale * dN[ls, am] * trig


def angles_from_directions(points: np.ndarray):
    """Colatitude/longitude of unit-sphere directions.

    Accepts an (npts, 3) array of nonzero vectors; they are normalized
    internally, so off-sphere points give the angles of their ray.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    r = np.linalg.norm(points, axis=1)
    if np.any(r == 0.0):
        raise ValueError("cannot take the direction of a zero vector")
    unit = points / r[:, None]
    ct = np.clip(unit[:, 2], -1.0, 1.0)
    theta = np.arccos(ct)
    phi = np.arctan2(unit[:, 1], unit[:, 0])
    return theta, phi
