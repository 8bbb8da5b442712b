"""Pointwise curvature algebra in three dimensions.

Conventions: the Riemann tensor is fixed by the commutator rule
X^d_{|ba} - X^d_{|ab} = X^c R_{abc}{}^d and Ricci by R_ab = R_{cab}{}^c,
which is positive on round spheres.  In 3D the Riemann tensor is a
pointwise algebraic function of Ricci,

  R_abcd = R_ad g_bc + R_bc g_ad - R_ac g_bd - R_bd g_ac
           + (R/2)(g_ac g_bd - g_ad g_bc),

and the quadratic invariants collapse to |Riem|^2 = 4|Ric|^2 - R^2 and
R_abcd R^adcb = 2|Ric|^2 - R^2/2.  A curvature jet (Ricci with two
derivative orders at a point) generates the fourth-order Taylor data of
geodesic spheres: the scaled induced metric and mean curvature offsets
from (round, -2).

The jet identities are two constant tables of constraint rows, on dric and
d2ric; ``random_jet`` projects both blocks onto them, ``jet_from_arrays``
only dric.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .boundary import BartnikPerturbation
from .spherical.fields import ScalarField, SymTensorField
from .spherical.grid import SphereGrid, build_grid

__all__ = [
    "Riemann3",
    "riemann_from_ricci",
    "quadratic_invariants",
    "CurvatureJet",
    "random_jet",
    "jet_from_arrays",
    "small_sphere_data",
    "ExpansionReport",
    "reference_expansions",
]

# the Levi-Civita symbol: _EPS3[i, j] = e_i x e_j
_EPS3 = np.cross(np.eye(3)[:, None], np.eye(3))
_EPS3.setflags(write=False)

# Flat (81-entry) index tables of the pair basis.  Entry abcd of a dense
# tensor is sign * K[source] of its flattened 3x3 pair matrix K, with
# sign = eps_abx eps_cdy in {0, +1, -1}; _SWAPS[k] permutes a flat tensor
# by the k-th algebraic symmetry, which holds when the tensor equals
# _SWAP_SIGNS[k] times its permutation.
_PAIR_TERMS = np.einsum("abx,cdy->abcdxy", _EPS3, _EPS3).reshape(81, 9)
_DENSE_SOURCE = np.argmax(np.abs(_PAIR_TERMS), axis=1)
_DENSE_SIGN = _PAIR_TERMS[np.arange(81), _DENSE_SOURCE]
_FLAT = np.arange(81).reshape(3, 3, 3, 3)
_SWAPS = np.stack([np.swapaxes(_FLAT, 0, 1), np.swapaxes(_FLAT, 2, 3),
                   np.transpose(_FLAT, (2, 3, 0, 1))]).reshape(3, 81)
_SWAP_SIGNS = np.array([[1.0], [1.0], [-1.0]])
_PAIRS = ((1, 2), (2, 0), (0, 1))
_PAIR_INDEX = np.array([[_FLAT[a, b, c, d] for c, d in _PAIRS] for a, b in _PAIRS])

# the grid that holds the band-4 Taylor blocks of small-sphere data exactly
_BAND4 = build_grid(4)


class Riemann3:
    """Riemann tensor at a point, stored through antisymmetric index pairs.

    The pair basis is ((1,2), (2,0), (0,1)), dual to the coordinate axes
    through the Levi-Civita symbol, so the tensor is a symmetric 3x3
    matrix over that basis and all the algebraic symmetries hold exactly
    by construction.  ``symmetry_residual`` records how far the raw input
    of ``from_dense`` was from satisfying them.

    Leading axes are a batch of points: a pair matrix of shape (..., 3, 3)
    holds one tensor per batch entry, the residual and the invariants then
    have the batch shape, and every entry's arithmetic is the one of its
    own point.  A single point keeps Python floats.
    """

    def __init__(self, pair_matrix: np.ndarray, symmetry_residual: float | np.ndarray = 0.0):
        K = np.asarray(pair_matrix, dtype=float)
        if K.shape[-2:] != (3, 3):
            raise ValueError("pair matrix must be 3x3")
        self.pair_matrix = 0.5 * (K + np.swapaxes(K, -1, -2))
        self.pair_matrix.setflags(write=False)
        self.symmetry_residual = _batch_scalar(
            np.broadcast_to(np.asarray(symmetry_residual, dtype=float), K.shape[:-2]))

    @classmethod
    def from_dense(cls, R: np.ndarray) -> "Riemann3":
        R = np.asarray(R, dtype=float)
        if R.shape[-4:] != (3, 3, 3, 3):
            raise ValueError("dense Riemann must be 3x3x3x3")
        flat = R.reshape(R.shape[:-4] + (81,))
        scale = 1.0 + np.max(np.abs(flat), axis=-1)
        defects = flat[..., None, :] + _SWAP_SIGNS * flat[..., _SWAPS]
        res = np.max(np.abs(defects), axis=(-2, -1)) / scale
        return cls(flat[..., _PAIR_INDEX], symmetry_residual=res)

    @cached_property
    def dense(self) -> np.ndarray:
        """The full (..., 3, 3, 3, 3) tensor, built once and read-only."""
        K = self.pair_matrix.reshape(self.pair_matrix.shape[:-2] + (9,))
        # + 0.0 makes the zero entries +0.0, as a sum over the pair basis does
        R = (K[..., _DENSE_SOURCE] * _DENSE_SIGN + 0.0).reshape(K.shape[:-1] + (3, 3, 3, 3))
        R.setflags(write=False)
        return R

    def ricci(self) -> np.ndarray:
        """Contraction R_ab = R_{cab}{}^c with the flat metric."""
        return np.einsum("...cabc->...ab", self.dense)

    def riem_sq(self):
        R = self.dense
        return _batch_scalar(np.einsum("...abcd,...abcd->...", R, R))

    def cross_invariant(self):
        R = self.dense
        return _batch_scalar(np.einsum("...abcd,...adcb->...", R, R))


def _batch_scalar(value: np.ndarray):
    """A float for a single point, the array for a batch."""
    return float(value) if np.ndim(value) == 0 else value


def riemann_from_ricci(ric: np.ndarray) -> Riemann3:
    """Reconstruct the 3D Riemann tensor from Ricci (metric = delta).

    ``ric`` has shape (..., 3, 3); leading axes are a batch of points.
    """
    ric = np.asarray(ric, dtype=float)
    if ric.shape[-2:] != (3, 3):
        raise ValueError("ric must be a 3x3 matrix")
    return Riemann3.from_dense(_riemann_dense(ric))


def _riemann_dense(ric: np.ndarray) -> np.ndarray:
    """Dense Riemann of Ricci matrices of shape (..., 3, 3), entry by entry."""
    g = np.eye(3)
    scal = np.trace(ric, axis1=-2, axis2=-1)[..., None, None, None, None]
    R = (np.einsum("...ad,bc->...abcd", ric, g) + np.einsum("...bc,ad->...abcd", ric, g)
         - np.einsum("...ac,bd->...abcd", ric, g) - np.einsum("...bd,ac->...abcd", ric, g))
    R += 0.5 * scal * (np.einsum("ac,bd->abcd", g, g) - np.einsum("ad,bc->abcd", g, g))
    return R


def quadratic_invariants(ric: np.ndarray):
    """Closed-form invariants (|Riem|^2, R_abcd R^adcb) from Ricci alone.

    Floats for one (3, 3) matrix, arrays of the batch shape for (..., 3, 3).
    """
    ric = np.asarray(ric, dtype=float)
    ric2 = np.sum(ric * ric, axis=(-2, -1))
    scal = np.trace(ric, axis1=-2, axis2=-1)
    return (_batch_scalar(4.0 * ric2 - scal ** 2),
            _batch_scalar(2.0 * ric2 - 0.5 * scal ** 2))


@dataclass(frozen=True)
class CurvatureJet:
    """Ricci curvature with two derivative orders at a point.

    dric[c, a, b] is the first covariant derivative of R_ab in direction c
    and d2ric[d, c, a, b] the second, stored symmetric in (d, c); the
    commutator ambiguity of the mixed part is quadratic in curvature and
    only affects orders beyond the fourth.  Construction rejects
    non-finite entries and validates the symmetries and the contracted
    differential identity div Ric = (1/2) grad R.
    """

    ric: np.ndarray
    dric: np.ndarray
    d2ric: np.ndarray

    def __post_init__(self):
        ric = np.asarray(self.ric, dtype=float)
        dric = np.asarray(self.dric, dtype=float)
        d2ric = np.asarray(self.d2ric, dtype=float)
        if ric.shape != (3, 3) or dric.shape != (3, 3, 3) or d2ric.shape != (3, 3, 3, 3):
            raise ValueError("jet arrays must have shapes (3,3), (3,3,3), (3,3,3,3)")
        # a NaN would pass both checks below, since comparisons with it are false
        if not all(np.all(np.isfinite(a)) for a in (ric, dric, d2ric)):
            raise ValueError("jet arrays must be finite")
        scale = 1.0 + max(np.max(np.abs(ric)), np.max(np.abs(dric)), np.max(np.abs(d2ric)))
        sym_err = max(
            np.max(np.abs(ric - ric.T)),
            np.max(np.abs(dric - np.swapaxes(dric, 1, 2))),
            np.max(np.abs(d2ric - np.swapaxes(d2ric, 2, 3))),
            np.max(np.abs(d2ric - np.swapaxes(d2ric, 0, 1))),
        )
        if sym_err > 1e-10 * scale:
            raise ValueError(f"jet symmetry violation: {sym_err:.3e}")
        div_ric = np.einsum("bba->a", dric)
        grad_r = np.einsum("aii->a", dric)
        bianchi = np.max(np.abs(div_ric - 0.5 * grad_r))
        if bianchi > 1e-10 * scale:
            raise ValueError(f"contracted Bianchi violation: {bianchi:.3e}")
        object.__setattr__(self, "ric", _frozen(ric))
        object.__setattr__(self, "dric", _frozen(dric))
        object.__setattr__(self, "d2ric", _frozen(d2ric))

    @classmethod
    def from_ricci(cls, ric: np.ndarray) -> "CurvatureJet":
        return cls(np.asarray(ric, dtype=float), np.zeros((3, 3, 3)), np.zeros((3, 3, 3, 3)))

    @property
    def scalar(self) -> float:
        return float(np.trace(self.ric))

    @property
    def ric_sq(self) -> float:
        return float(np.sum(self.ric * self.ric))

    @property
    def lap_scalar(self) -> float:
        return float(np.einsum("ddii->", self.d2ric))

    @cached_property
    def _blocks(self) -> np.ndarray:
        """Read-only :func:`_taylor_blocks` of this jet, computed on first use."""
        return _frozen(_taylor_blocks(self))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


# Constraint rows on the flattened jet blocks: _E3[c, a, b] is the unit row of
# dric entry (c, a, b), _E4 that of d2ric.  Index-symmetry rows come first, then
# the contracted Bianchi identity div Ric = (1/2) grad R and its derivative.
_A, _B = np.triu_indices(3, 1)
_E3 = np.eye(27).reshape(3, 3, 3, 27)
_DRIC_CONSTRAINTS = _frozen(np.concatenate([
    (_E3[:, _A, _B] - _E3[:, _B, _A]).reshape(9, 27),
    np.einsum("bbak->ak", _E3) - 0.5 * np.einsum("abbk->ak", _E3),
]))
_E4 = np.eye(81).reshape(3, 3, 3, 3, 81)
_D2RIC_CONSTRAINTS = _frozen(np.concatenate([
    (_E4[:, :, _A, _B] - _E4[:, :, _B, _A]).reshape(27, 81),
    (_E4[_A, _B] - _E4[_B, _A]).reshape(27, 81),
    (np.einsum("daabk->dbk", _E4)
     - 0.5 * np.einsum("dbaak->dbk", _E4)).reshape(9, 81),
]))


def _project_constraints(x: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Nearest point with A x = 0 (minimum-norm least-squares correction)."""
    correction, *_ = np.linalg.lstsq(A, A @ x, rcond=None)
    return x - correction


def random_jet(rng: np.random.Generator, scale: float = 1.0,
               require_lap: bool = False) -> CurvatureJet:
    """Random curvature jet satisfying the differential identities.

    Entries are uniform in [-scale, scale]; dric and d2ric are then
    projected onto their constraint tables.  With ``require_lap`` the
    sample is redrawn until the scalar curvature Laplacian is bounded away
    from zero.
    """
    while True:
        ric = rng.uniform(-scale, scale, size=(3, 3))
        ric = 0.5 * (ric + ric.T)
        dric = rng.uniform(-scale, scale, size=27)
        dric = _project_constraints(dric, _DRIC_CONSTRAINTS).reshape(3, 3, 3)
        d2 = rng.uniform(-scale, scale, size=81)
        d2 = _project_constraints(d2, _D2RIC_CONSTRAINTS).reshape(3, 3, 3, 3)
        jet = CurvatureJet(ric, dric, d2)
        if not require_lap or abs(jet.lap_scalar) > 0.1 * scale:
            return jet


def jet_from_arrays(ric: np.ndarray, dric: np.ndarray,
                    d2ric: np.ndarray) -> CurvatureJet:
    """Assemble a jet from raw derivative arrays, e.g. finite differences.

    Each block is symmetrized in the index pairs that must commute, and the
    first-derivative block is projected onto its constraint table, which
    adds the contracted differential identity.  For arrays produced by a
    consistent discretization the projection only removes truncation
    drift; it keeps the jet inside the validation tolerance of
    :class:`CurvatureJet`.
    """
    ric = 0.5 * (np.asarray(ric, dtype=float) + np.asarray(ric, dtype=float).T)
    dric = np.asarray(dric, dtype=float)
    dric = 0.5 * (dric + np.swapaxes(dric, 1, 2))
    dric = _project_constraints(dric.ravel(), _DRIC_CONSTRAINTS).reshape(3, 3, 3)
    d2 = np.asarray(d2ric, dtype=float)
    d2 = 0.5 * (d2 + np.swapaxes(d2, 2, 3))
    d2 = 0.5 * (d2 + np.swapaxes(d2, 0, 1))
    return CurvatureJet(ric, dric, d2)


def _taylor_blocks(jet: CurvatureJet) -> np.ndarray:
    """(trace, p, q, H1) coefficients of the blocks A_2, A_3, A_4, shape (3, 4, 25).

    Small-sphere data is exactly tau^2 A_2 + tau^3 A_3 + tau^4 A_4, and the
    node values of A_k are degree-k polynomials of the direction, so the
    45 nodes of the lmax-4 grid determine each block.
    """
    x = _BAND4.nodes
    frame = np.stack([_BAND4.e_theta, _BAND4.e_phi], axis=1)
    # Q_ik = R_{i r k r} with r the radial direction at each node
    Q = np.einsum("ijkl,nj,nl->nik", _riemann_dense(jet.ric), x, x)
    dRm = _riemann_dense(jet.dric)
    d2Rm = _riemann_dense(jet.d2ric)
    pairs = (
        (Q / 3.0, np.einsum("ij,ni,nj->n", jet.ric, x, x) / 3.0),
        (np.einsum("eijkl,ne,nj,nl->nik", dRm, x, x, x) / 6.0,
         np.einsum("cab,nc,na,nb->n", jet.dric, x, x, x) / 4.0),
        (np.einsum("efijkl,ne,nf,nj,nl->nik", d2Rm, x, x, x, x) / 20.0
         + 2.0 * np.einsum("nic,nck->nik", Q, Q) / 45.0,
         np.einsum("dcab,nd,nc,na,nb->n", jet.d2ric, x, x, x, x) / 10.0
         + np.einsum("nik,nik->n", Q, Q) / 45.0),
    )
    blocks = np.empty((3, 4, _BAND4.nmodes))
    for k, (T, H) in enumerate(pairs):
        c = np.einsum("nai,nik,nbk->nab", frame, T, frame)
        gamma = SymTensorField.from_components(_BAND4, c[:, 0, 0], c[:, 0, 1], c[:, 1, 1])
        blocks[k] = (gamma.trace.coeffs, gamma.p_coeffs, gamma.q_coeffs, _BAND4.analyze(H))
    return blocks


def small_sphere_data(jet: CurvatureJet, tau: float, order: int,
                      grid: SphereGrid) -> BartnikPerturbation:
    """Taylor data of the geodesic sphere of radius tau, scaled to the unit sphere.

    The data is the sum of tau^k A_k over k = 2..order of the band-4 Taylor
    blocks of the jet, zero-padded to the grid's band limit and synthesized
    from coefficients, so its truncation diagnostics are zero.

    Parameters
    ----------
    jet : CurvatureJet
        Curvature of the ambient space at the center, in an orthonormal frame.
    tau : float
        Geodesic radius.  Its powers are Python floats, so a tau whose
        powers leave the float range raises ``OverflowError``.
    order : int
        Highest Taylor order kept (2, 3 or 4).
    grid : SphereGrid
        Target grid, of band limit at least 4 (``ValueError`` otherwise).

    Returns
    -------
    BartnikPerturbation
        Offsets (gamma1, H1) of the scaled induced metric from the round
        metric and of the scaled mean curvature from -2.
    """
    if order not in (2, 3, 4):
        raise ValueError("order must be 2, 3 or 4")
    if grid.lmax < 4:
        raise ValueError("small-sphere data needs a grid of band limit at least 4")
    tau = float(tau)
    blocks = jet._blocks
    coeffs = np.zeros((4, grid.nmodes))
    # the flat (l, m) layout of band 4 is a prefix of every larger band
    coeffs[:, :blocks.shape[-1]] = sum(tau ** k * blocks[k - 2]
                                       for k in range(2, order + 1))
    trace, p, q, h = coeffs
    gamma1 = SymTensorField(grid, ScalarField.from_coeffs(grid, trace), p, q)
    return BartnikPerturbation(gamma1=gamma1, H1=ScalarField.from_coeffs(grid, h))


@dataclass(frozen=True)
class ExpansionReport:
    """Cubic and quintic coefficients of the small-sphere mass expansions."""

    hawking_c3: float
    hawking_c5: float
    brown_york_c3: float
    brown_york_c5: float
    static_c3: float
    static_c5: float

    @property
    def static_minus_hawking_c5(self) -> float:
        return self.static_c5 - self.hawking_c5

    @property
    def brown_york_minus_static_c5(self) -> float:
        return self.brown_york_c5 - self.static_c5

    def to_dict(self) -> dict:
        return {
            "hawking_c3": self.hawking_c3,
            "hawking_c5": self.hawking_c5,
            "brown_york_c3": self.brown_york_c3,
            "brown_york_c5": self.brown_york_c5,
            "static_c3": self.static_c3,
            "static_c5": self.static_c5,
            "static_minus_hawking_c5": self.static_minus_hawking_c5,
            "brown_york_minus_static_c5": self.brown_york_minus_static_c5,
        }


def reference_expansions(jet: CurvatureJet) -> ExpansionReport:
    """Known small-sphere expansions of the quasilocal mass functionals."""
    R = jet.scalar
    ric2 = jet.ric_sq
    lap = jet.lap_scalar
    return ExpansionReport(
        hawking_c3=R / 12.0,
        hawking_c5=(6.0 * lap - 5.0 * R ** 2) / 720.0,
        brown_york_c3=R / 12.0,
        brown_york_c5=(24.0 * ric2 - 13.0 * R ** 2 + 12.0 * lap) / 1440.0,
        static_c3=R / 12.0,
        static_c5=(30.0 * ric2 - 25.0 * R ** 2 + 18.0 * lap) / 2160.0,
    )
