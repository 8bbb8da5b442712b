"""Quadrature grid on the unit sphere.

The grid is a tensor product of lmax+1 Gauss-Legendre nodes in cos(theta)
and 2*lmax+1 equally spaced longitudes, the smallest grid whose quadrature
integrates every spherical polynomial of degree <= 2*lmax exactly, which
makes the analysis projections of band-limited fields exact as well.  The
poles are never grid nodes, so the orthonormal frame (e_theta, e_phi) is
defined at every node; all vector and tensor components in this package
refer to that frame.

Transforms are separable.  Every table the fields use has entries
L_lm(theta) * T_m(phi): a latitude factor L (the normalized Legendre
function, its theta derivative, or a theta factor of the gradient or of the
trace-free Hessian) times trig rows T (cos/sin(m phi) or their phi
derivative).  Synthesis sums over l for each signed m and then over m with
the trig rows; projection runs the same steps transposed.  The cost is
O(lmax^3) per transform instead of the O(lmax^4) of a dense
(nmodes x nnodes) product, and the dense tables are built only when asked
for, as references.

The Gauss-Legendre rule, the latitude factors and the trig rows depend
only on lmax.  They are computed once per lmax and shared, read-only, by
every grid of that band limit; a few recent band limits are kept.  Each
grid is still its own object, with its own dense tables.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import harmonics

__all__ = ["SphereGrid", "build_grid"]

# table -> (latitude factor, dphi): dphi picks the phi derivative of the trig
# rows.  Together with the latitude factors of _layout this is
# the one place where the derivative formulas live; dense tables, synthesis
# and projection all read them from here.
_TABLES = {
    "Y": ("N", False),
    "dYdtheta": ("dN", False),
    "d2Ydtheta2": ("d2N", False),
    "dYdphi": ("N", True),
    "d2Ydthetadphi": ("dN", True),
    # frame gradient (G1, G2) = (d/dtheta, (1/sin) d/dphi); G1 is dYdtheta
    "G2": ("N/sin", True),
    # trace-free Hessian (E1, E2) = (H11 + lam/2 Y, H12)
    "E1": ("E1", False),
    "E2": ("E2", True),
}


# band limits whose shared parts stay cached; at lmax 128 the latitude factors
# alone take about 100 MB
_LAYOUTS_KEPT = 8


@lru_cache(maxsize=_LAYOUTS_KEPT)
def _layout(lmax: int):
    """The read-only parts of a grid fixed by its band limit.

    Returns the colatitudes and weights of the Gauss-Legendre rule, the
    longitudes, the latitude factors as (lmax+1, lmax+1, nlat) blocks
    indexed [|m|, l, lat] and the trig rows (lmax+1, 2, nlon), [m, 0] =
    cos(m phi) and [m, 1] = sin(m phi), with their phi derivatives under
    the key True.  The sqrt(2) of the m != 0 basis functions is folded
    into the factors; entries with l < |m| are zero.
    """
    nlon = 2 * lmax + 1
    mu, wgl = leggauss(lmax + 1)
    theta = np.arccos(mu)
    phi = 2.0 * np.pi * np.arange(nlon) / nlon

    st = np.sin(theta)
    cot = np.cos(theta) / st
    N, dN = harmonics._normalized_legendre(lmax, theta)
    deg = np.arange(lmax + 1)
    scale = np.where(deg == 0, 1.0, np.sqrt(2.0))[:, None, None]
    N = scale * N.transpose(1, 0, 2)
    dN = scale * dN.transpose(1, 0, 2)
    msq = (deg.astype(float) ** 2)[:, None, None]
    lam = (deg * (deg + 1)).astype(float)[None, :, None]
    # associated Legendre equation: N'' = -cot N' + (m^2/sin^2 - l(l+1)) N
    d2N = -cot * dN + (msq / st ** 2 - lam) * N
    factors = {"N": N, "dN": dN, "d2N": d2N, "N/sin": N / st,
               "E1": d2N + 0.5 * lam * N,
               # H12 = (d2Y/dtheta dphi - cot dY/dphi) / sin
               "E2": (dN - cot * N) / st}

    m = deg[:, None]
    cos, sin = np.cos(m * phi), np.sin(m * phi)
    trig = {False: np.stack([cos, sin], axis=1),
            True: np.stack([-m * sin, m * cos], axis=1)}
    for arr in (theta, wgl, phi, *factors.values(), *trig.values()):
        arr.setflags(write=False)
    return theta, wgl, phi, factors, trig


class SphereGrid:
    """Immutable spherical quadrature grid with separable transforms.

    Parameters
    ----------
    lmax : int
        Band limit of the basis attached to the grid.  The grid has
        nlat = lmax+1 latitude and nlon = 2*lmax+1 longitude nodes.
    """

    def __init__(self, lmax: int):
        if lmax < 0:
            raise ValueError("lmax must be nonnegative")
        self.lmax = int(lmax)
        self.nlat = self.lmax + 1
        self.nlon = 2 * self.lmax + 1

        # shared with every grid of this band limit: see _layout
        self._theta_1d, wgl, self._phi_1d, self._factors, self._trig = _layout(self.lmax)
        self.theta = np.repeat(self._theta_1d, self.nlon)
        self.phi = np.tile(self._phi_1d, self.nlat)
        self.weights = np.repeat(wgl * (2.0 * np.pi / self.nlon), self.nlon)

        st, ct = np.sin(self.theta), np.cos(self.theta)
        sp, cp = np.sin(self.phi), np.cos(self.phi)
        self.nodes = np.stack([st * cp, st * sp, ct], axis=1)
        self.e_theta = np.stack([ct * cp, ct * sp, -st], axis=1)
        self.e_phi = np.stack([-sp, cp, np.zeros_like(sp)], axis=1)
        self.sin_theta = st
        self.cos_theta = ct

        self.ls, self.ms = harmonics.mode_table(self.lmax)
        self.lam = (self.ls * (self.ls + 1)).astype(float)
        self.nmodes = harmonics.num_modes(self.lmax)
        self.nnodes = self.theta.size
        # slot of each mode in the (|m|, cos/sin, l) blocks of the transforms,
        # and the flat index of its partner (l, -m)
        self._am = np.abs(self.ms)
        self._side = (self.ms < 0).astype(int)
        self._partner = self.ls * self.ls + self.ls - self.ms

        for arr in (self.theta, self.phi, self.weights, self.nodes,
                    self.e_theta, self.e_phi, self.sin_theta, self.cos_theta,
                    self.ls, self.ms, self.lam):
            arr.setflags(write=False)

    def synth(self, table: str, coeffs: np.ndarray) -> np.ndarray:
        """coeffs @ table over leading batch axes, without building the table.

        ``table`` names one of the dense tables ("Y", "dYdtheta",
        "d2Ydtheta2", "dYdphi", "d2Ydthetadphi", "G2", "E1", "E2").
        """
        factor, dphi = _TABLES[table]
        if dphi:
            coeffs = self.dphi_coeffs(coeffs)
        batch = coeffs.shape[:-1]
        L = self.lmax
        blocks = np.zeros(batch + (L + 1, 2, L + 1))
        blocks[..., self._am, self._side, self.ls] = coeffs
        per_m = (blocks @ self._factors[factor]).reshape(batch + (2 * (L + 1), self.nlat))
        values = np.swapaxes(per_m, -1, -2) @ self._trig[False].reshape(2 * (L + 1), self.nlon)
        return values.reshape(batch + (self.nnodes,))

    def _project(self, table: str, values: np.ndarray) -> np.ndarray:
        """table @ values over leading batch axes, without building the table.

        A phi derivative moves to the coefficients as dphi_coeffs transposed,
        which is minus dphi_coeffs.
        """
        factor, dphi = _TABLES[table]
        batch = values.shape[:-1]
        L = self.lmax
        trig = self._trig[False].reshape(2 * (L + 1), self.nlon)
        per_m = values.reshape(batch + (self.nlat, self.nlon)) @ trig.T
        per_m = np.swapaxes(per_m, -1, -2).reshape(batch + (L + 1, 2, self.nlat))
        blocks = per_m @ np.swapaxes(self._factors[factor], 1, 2)
        coeffs = blocks[..., self._am, self._side, self.ls]
        return -self.dphi_coeffs(coeffs) if dphi else coeffs

    def _dense(self, table: str) -> np.ndarray:
        """The (nmodes, nnodes) table itself, as outer products per mode."""
        factor, dphi = _TABLES[table]
        lat = self._factors[factor][self._am, self.ls]
        trig = self._trig[dphi][self._am, self._side]
        out = (lat[:, :, None] * trig[:, None, :]).reshape(self.nmodes, self.nnodes)
        out.setflags(write=False)
        return out

    # ------------------------------------------------------------------
    # dense reference tables (built lazily, all shaped (nmodes, nnodes))
    # ------------------------------------------------------------------

    @cached_property
    def _tables(self):
        return self._dense("Y"), self._dense("dYdtheta")

    @property
    def Y(self) -> np.ndarray:
        """Basis values at the nodes."""
        return self._tables[0]

    @property
    def dYdtheta(self) -> np.ndarray:
        return self._tables[1]

    @cached_property
    def d2Ydtheta2(self) -> np.ndarray:
        return self._dense("d2Ydtheta2")

    @cached_property
    def dYdphi(self) -> np.ndarray:
        return self._dense("dYdphi")

    @cached_property
    def d2Ydthetadphi(self) -> np.ndarray:
        return self._dense("d2Ydthetadphi")

    @cached_property
    def grad_tables(self):
        """Frame components of grad Y_lm: (G1, G2) = (d/dtheta, (1/sin)d/dphi)."""
        return self.dYdtheta, self._dense("G2")

    @cached_property
    def tfhess_tables(self):
        """Frame components (E1, E2) of the trace-free Hessian of Y_lm.

        E1 is the (theta,theta) component minus half the Laplacian, E2 the
        (theta,phi) frame component.  The (phi,phi) component is -E1.
        """
        return self._dense("E1"), self._dense("E2")

    # ------------------------------------------------------------------
    # transforms; every one takes leading batch axes
    # ------------------------------------------------------------------

    def dphi_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficients of the longitude derivative of a field.

        cos(m phi) rows exchange with sin(m phi) rows under d/dphi, so the
        operation is a signed permutation in coefficient space.
        """
        return self.ms * coeffs[..., self._partner]

    def analyze(self, values: np.ndarray) -> np.ndarray:
        """Project node values onto the basis by quadrature."""
        values = np.asarray(values, dtype=float)
        if values.shape[-1:] != (self.nnodes,):
            raise ValueError("values must be a flat array over the grid nodes")
        return self._project("Y", self.weights * values)

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Evaluate a coefficient vector at the grid nodes."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape[-1:] != (self.nmodes,):
            raise ValueError("coefficient vector has the wrong length")
        return self.synth("Y", coeffs)

    def grad_synth(self, coeffs: np.ndarray):
        """(coeffs @ G1, coeffs @ G2): frame gradient components at the nodes."""
        return self.synth("dYdtheta", coeffs), self.synth("G2", coeffs)

    def grad_project(self, values: np.ndarray):
        """(G1 @ values, G2 @ values); quadrature weights are the caller's."""
        return self._project("dYdtheta", values), self._project("G2", values)

    def tfhess_synth(self, coeffs: np.ndarray):
        """(coeffs @ E1, coeffs @ E2): trace-free Hessian components at the nodes."""
        return self.synth("E1", coeffs), self.synth("E2", coeffs)

    def tfhess_project(self, values: np.ndarray):
        """(E1 @ values, E2 @ values); quadrature weights are the caller's."""
        return self._project("E1", values), self._project("E2", values)

    def integrate(self, values: np.ndarray) -> float:
        """Quadrature integral of node values over the sphere."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.nnodes,):
            raise ValueError("values must be a flat array over the grid nodes")
        return float(np.dot(self.weights, values))

    def same_layout(self, other: "SphereGrid") -> bool:
        return self.lmax == other.lmax

    def __repr__(self):
        return f"SphereGrid(lmax={self.lmax})"


def build_grid(lmax: int) -> SphereGrid:
    """Construct a deterministic Gauss-Legendre by equispaced grid."""
    return SphereGrid(lmax)
