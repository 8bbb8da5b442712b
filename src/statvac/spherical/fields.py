"""Field containers on the sphere grid.

Scalar fields keep both node values and spectral coefficients.  Tangent
vector fields are stored through two scalar potentials (gradient part and
rotated-gradient part), and symmetric 2-tensors through a trace scalar
plus two trace-free potentials.  On the round sphere this potential
representation is complete: a trace-free divergence-free symmetric tensor
vanishes, so two potentials capture every trace-free field.

Node data that a field derives from its coefficients or potentials is
synthesized on first read and then kept, read-only, so a field that is
only used spectrally never runs a grid transform.

Frame conventions: components labelled 1 and 2 refer to the orthonormal
frame (e_theta, e_phi).  The pointwise rotation J maps (u1, u2) to
(-u2, u1); on trace-free symmetric tensors with components (t1, t2) =
(T_11, T_12) it acts as (t1, t2) -> (-t2, t1).
"""

from __future__ import annotations

import copy

import numpy as np

from .grid import SphereGrid

__all__ = ["ScalarField", "TangentField", "SymTensorField"]


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(np.asarray(arr, dtype=float))
    arr.setflags(write=False)
    return arr


class _Once:
    """A value computed by ``fn`` on the first call and kept.

    Fields hold derived node data through these, so shallow copies of a
    field (see ``SymTensorField.tracefree``) share one synthesis.
    """

    __slots__ = ("_fn", "_value")

    def __init__(self, fn=None, *, value=None):
        self._fn = fn
        self._value = value

    def __call__(self):
        if self._fn is not None:
            self._value = self._fn()
            self._fn = None
        return self._value


class ScalarField:
    """Scalar function on a sphere grid with dual representation.

    Node values are authoritative for quadrature; coefficients are used by
    the spectral operators.  ``truncation`` records the max-norm mismatch
    between the stored values and the synthesis of the stored coefficients,
    which is nonzero only when the field is not band-limited at the grid's
    lmax.  Values of a field built from coefficients, and the truncation of
    one built from values, are computed on first read.
    """

    def __init__(self, grid: SphereGrid, values: np.ndarray, coeffs: np.ndarray,
                 truncation: float = 0.0):
        values = _readonly(values)
        if values.shape != (grid.nnodes,):
            raise ValueError("values array does not match the grid")
        self._attach(grid, coeffs, _Once(value=values), _Once(value=float(truncation)))

    def _attach(self, grid, coeffs, values: _Once, truncation: _Once):
        self.grid = grid
        self.coeffs = _readonly(coeffs)
        if self.coeffs.shape != (grid.nmodes,):
            raise ValueError("coefficient array does not match the grid")
        self._values = values
        self._truncation = truncation

    @classmethod
    def _lazy(cls, grid, coeffs, values, truncation=None) -> "ScalarField":
        """A field whose values, and truncation if given (else 0), are
        computed by zero-argument callables on first read."""
        out = cls.__new__(cls)
        out._attach(grid, coeffs, _Once(lambda: _readonly(values())),
                    _Once(lambda: float(truncation())) if truncation else _Once(value=0.0))
        return out

    @property
    def values(self) -> np.ndarray:
        return self._values()

    @property
    def truncation(self) -> float:
        return self._truncation()

    @classmethod
    def from_values(cls, grid: SphereGrid, values: np.ndarray) -> "ScalarField":
        values = _readonly(values)
        coeffs = grid.analyze(values)
        field = cls(grid, values, coeffs)
        field._truncation = _Once(lambda: float(
            np.max(np.abs(values - grid.synthesize(coeffs)), initial=0.0)))
        return field

    @classmethod
    def from_coeffs(cls, grid: SphereGrid, coeffs: np.ndarray) -> "ScalarField":
        coeffs = _readonly(coeffs)
        return cls._lazy(grid, coeffs, lambda: grid.synthesize(coeffs))

    @classmethod
    def zeros(cls, grid: SphereGrid) -> "ScalarField":
        return cls(grid, np.zeros(grid.nnodes), np.zeros(grid.nmodes))

    @classmethod
    def constant(cls, grid: SphereGrid, value: float) -> "ScalarField":
        return cls.from_values(grid, np.full(grid.nnodes, float(value)))

    # -- arithmetic: node values are the operands' node values combined --

    def __add__(self, other):
        self._check(other)
        return ScalarField._lazy(self.grid, self.coeffs + other.coeffs,
                                 lambda: self.values + other.values,
                                 lambda: self.truncation + other.truncation)

    def __sub__(self, other):
        self._check(other)
        return ScalarField._lazy(self.grid, self.coeffs - other.coeffs,
                                 lambda: self.values - other.values,
                                 lambda: self.truncation + other.truncation)

    def __mul__(self, scalar: float):
        s = float(scalar)
        return ScalarField._lazy(self.grid, s * self.coeffs, lambda: s * self.values,
                                 lambda: abs(s) * self.truncation)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def _check(self, other):
        if not isinstance(other, ScalarField) or other.grid is not self.grid:
            if isinstance(other, ScalarField) and other.grid.same_layout(self.grid):
                return
            raise ValueError("fields live on different grids")

    # -- calculus -------------------------------------------------------

    def gradient_components(self):
        """Frame components (d/dtheta, (1/sin)d/dphi) at the nodes."""
        return self.grid.grad_synth(self.coeffs)


class TangentField:
    """Tangent vector field X = grad(a) + J grad(b).

    The potentials a and b are coefficient vectors supported on l >= 1.
    Components at the nodes, in the orthonormal frame, are synthesized on
    first read.
    """

    def __init__(self, grid: SphereGrid, a_coeffs: np.ndarray, b_coeffs: np.ndarray):
        self.grid = grid
        a = np.asarray(a_coeffs, dtype=float).copy()
        b = np.asarray(b_coeffs, dtype=float).copy()
        if a.shape != (grid.nmodes,) or b.shape != (grid.nmodes,):
            raise ValueError("potential vectors do not match the grid")
        a[grid.ls == 0] = 0.0
        b[grid.ls == 0] = 0.0
        self.a_coeffs = _readonly(a)
        self.b_coeffs = _readonly(b)

        def synth():
            (a1, b1), (a2, b2) = grid.grad_synth(np.stack([a, b]))
            return _readonly(a1 - b2), _readonly(a2 + b1)
        self._components = _Once(synth)

    @property
    def comp1(self) -> np.ndarray:
        return self._components()[0]

    @property
    def comp2(self) -> np.ndarray:
        return self._components()[1]

    @classmethod
    def zeros(cls, grid: SphereGrid) -> "TangentField":
        z = np.zeros(grid.nmodes)
        return cls(grid, z, z)

    @classmethod
    def from_components(cls, grid: SphereGrid, comp1: np.ndarray, comp2: np.ndarray):
        """Project node components onto the potential representation.

        Exact for band-limited fields; the residual against the input
        components is returned alongside the field.
        """
        comp1 = np.asarray(comp1, dtype=float)
        comp2 = np.asarray(comp2, dtype=float)
        (g1w1, g1w2), (g2w1, g2w2) = grid.grad_project(
            grid.weights * np.stack([comp1, comp2]))
        lam = grid.lam.copy()
        lam[lam == 0.0] = np.inf
        a = (g1w1 + g2w2) / lam
        b = (-g2w1 + g1w2) / lam
        field = cls(grid, a, b)
        resid = max(np.max(np.abs(field.comp1 - comp1), initial=0.0),
                    np.max(np.abs(field.comp2 - comp2), initial=0.0))
        return field, float(resid)

    def divergence(self) -> ScalarField:
        """div X = Laplace(a); the rotated-gradient part is divergence free."""
        return ScalarField.from_coeffs(self.grid, -self.grid.lam * self.a_coeffs)

    def ambient_components(self) -> np.ndarray:
        """Cartesian components of X at the nodes, shape (nnodes, 3)."""
        g = self.grid
        return self.comp1[:, None] * g.e_theta + self.comp2[:, None] * g.e_phi

    def norm_sq_values(self) -> np.ndarray:
        return self.comp1 ** 2 + self.comp2 ** 2

    def covariant_matrix(self) -> np.ndarray:
        """Covariant derivative X_{alpha:beta} in the frame, shape (n, 2, 2).

        For X = grad(a) + J grad(b) this is Hess(a) + J Hess(b) with J
        rotating the first index.
        """
        g = self.grid
        ab = np.stack([self.a_coeffs, self.b_coeffs])
        # Hessian of a scalar from its trace-free part and Laplacian:
        # H11 = E1 - lam/2 * Y, H22 = -E1 - lam/2 * Y, H12 = E2 (frame).
        lamY_a, lamY_b = g.synthesize(-g.lam * ab)
        (a1, b1), (a2, b2) = g.tfhess_synth(ab)
        Ha = np.empty((g.nnodes, 2, 2))
        Ha[:, 0, 0] = a1 + 0.5 * lamY_a
        Ha[:, 1, 1] = -a1 + 0.5 * lamY_a
        Ha[:, 0, 1] = Ha[:, 1, 0] = a2
        Hb11 = b1 + 0.5 * lamY_b
        Hb22 = -b1 + 0.5 * lamY_b
        # (J Hess b)_{1,beta} = -Hess(b)_{2,beta}, (J Hess b)_{2,beta} = Hess(b)_{1,beta}
        out = Ha.copy()
        out[:, 0, 0] -= b2
        out[:, 0, 1] -= Hb22
        out[:, 1, 0] += Hb11
        out[:, 1, 1] += b2
        return out


class SymTensorField:
    """Symmetric 2-tensor split into trace and trace-free potentials.

    The full tensor is gamma = (trace/2) * g + tracefree, with the
    trace-free part tfHess(p) + J tfHess(q) for potentials supported on
    l >= 2.  Node components (t1, t2) = (tracefree_11, tracefree_12) are
    kept exactly as given at construction, so quadrature against the
    tensor does not suffer from potential truncation; the mismatch is
    recorded in ``tracefree_truncation``.  Without given components, t1
    and t2 are synthesized from the potentials on first read; with them,
    the same one synthesis gives ``tracefree_truncation`` on first read.
    """

    def __init__(self, grid: SphereGrid, trace: ScalarField,
                 p_coeffs: np.ndarray, q_coeffs: np.ndarray,
                 t1: np.ndarray | None = None, t2: np.ndarray | None = None):
        self.grid = grid
        self.trace = trace
        p = np.asarray(p_coeffs, dtype=float).copy()
        q = np.asarray(q_coeffs, dtype=float).copy()
        if p.shape != (grid.nmodes,) or q.shape != (grid.nmodes,):
            raise ValueError("potential vectors do not match the grid")
        p[grid.ls < 2] = 0.0
        q[grid.ls < 2] = 0.0
        self.p_coeffs = _readonly(p)
        self.q_coeffs = _readonly(q)

        def synth():
            (p1, q1), (p2, q2) = grid.tfhess_synth(np.stack([p, q]))
            return _readonly(p1 - q2), _readonly(p2 + q1)
        synthesized = _Once(synth)
        if t1 is None:
            self._components = synthesized
            self._truncation = _Once(value=0.0)
        else:
            given = _readonly(t1), _readonly(t2)
            self._components = _Once(value=given)
            self._truncation = _Once(lambda: float(max(
                np.max(np.abs(synthesized()[0] - given[0]), initial=0.0),
                np.max(np.abs(synthesized()[1] - given[1]), initial=0.0))))

    @property
    def t1(self) -> np.ndarray:
        return self._components()[0]

    @property
    def t2(self) -> np.ndarray:
        return self._components()[1]

    @property
    def tracefree_truncation(self) -> float:
        return self._truncation()

    @classmethod
    def zeros(cls, grid: SphereGrid) -> "SymTensorField":
        z = np.zeros(grid.nmodes)
        return cls(grid, ScalarField.zeros(grid), z, z)

    @classmethod
    def from_components(cls, grid: SphereGrid, c11: np.ndarray, c12: np.ndarray,
                        c22: np.ndarray) -> "SymTensorField":
        """Build from frame components; trace-free potentials by projection.

        The projection inverts the diagonal multiplier l(l+1)(l(l+1)-2)/2 of
        the double-divergence composed with the trace-free Hessian.
        """
        c11 = np.asarray(c11, dtype=float)
        c12 = np.asarray(c12, dtype=float)
        c22 = np.asarray(c22, dtype=float)
        trace = ScalarField.from_values(grid, c11 + c22)
        t1 = 0.5 * (c11 - c22)
        t2 = c12
        (e1w1, e1w2), (e2w1, e2w2) = grid.tfhess_project(
            grid.weights * np.stack([t1, t2]))
        # inner product of trace-free tensors carries a pointwise factor 2,
        # <T,S> = 2 (t1 s1 + t2 s2), and the basis tensors have squared norm
        # lam (lam - 2) / 2, so the coefficient is 2 <T, basis> / norm.
        norm = 0.5 * grid.lam * (grid.lam - 2.0)
        norm[norm <= 0.0] = np.inf
        p = 2.0 * (e1w1 + e2w2) / norm
        q = 2.0 * (-e2w1 + e1w2) / norm
        return cls(grid, trace, p, q, t1=t1, t2=t2)

    def tracefree(self) -> "SymTensorField":
        """The trace-free part as a field of its own.

        It shares the read-only potentials, node components and
        ``tracefree_truncation`` of this field, synthesized or not yet;
        only the trace is zero.
        """
        out = copy.copy(self)
        out.trace = ScalarField.zeros(self.grid)
        return out

    def components(self):
        """Full frame components (c11, c12, c22) at the nodes."""
        half = 0.5 * self.trace.values
        return half + self.t1, self.t2, half - self.t1

    def tracefree_norm_sq_values(self) -> np.ndarray:
        """Pointwise squared norm of the trace-free part, 2*(t1^2 + t2^2)."""
        return 2.0 * (self.t1 ** 2 + self.t2 ** 2)

    def max_component(self) -> float:
        c11, c12, c22 = self.components()
        return float(max(np.max(np.abs(c11), initial=0.0),
                         np.max(np.abs(c12), initial=0.0),
                         np.max(np.abs(c22), initial=0.0)))

    def scaled(self, s: float) -> "SymTensorField":
        s = float(s)
        return SymTensorField(self.grid, self.trace * s,
                              s * self.p_coeffs, s * self.q_coeffs,
                              t1=s * self.t1, t2=s * self.t2)
