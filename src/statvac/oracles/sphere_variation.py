"""Embedded-sphere geometry, the deformed-sphere oracle and variation checks.

``embedded_sphere_geometry`` is the one routine that reads the induced
metric and mean curvature of a sphere in an ambient 3-metric; the geodesic
spheres, the deformed spheres below and the flux identity all use it.

The deformation family couples a shape change with a conformal change of
the ambient metric.  For parameters (f, X, v),

    y_t(x) = (1 + t f(x)) x + t X(x)

embeds the unit sphere into R^3, and the ambient metric is rho_t * delta
with the conformal factor carried along the flow of the deformation, so
that its value on the deformed surface is 1 + t v(x) with v the boundary
trace of the decaying harmonic function, and its gradient there is the
gradient of v pulled through the inverse flow.
``deformed_sphere_geometry(params, ts)`` returns the induced metric and
mean curvature of y_t in that metric at every t of ``ts`` from one
geometry call.  They are differentiated in t by Richardson-extrapolated
central differences, and the closed-form first and second t-derivatives
that the mass expansion relies on are compared against those differences.

Sign convention: the round unit sphere has mean curvature -2, and the
normal points toward the unbounded component.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..boundary import HarmonicExterior
from ..errors import NumericalFailure
from ..spherical import operators
from ..spherical.fields import ScalarField, TangentField
from ..spherical.grid import SphereGrid, build_grid
from .metricfield import _inverse3, fd_jet, richardson

__all__ = [
    "NumericalFailure",
    "embedded_sphere_geometry",
    "DeformationParams",
    "random_deformation",
    "deformed_sphere_geometry",
    "first_variation",
    "second_variation",
    "variation_check",
    "conformal_probe_check",
    "mass_variation_identity",
]


def embedded_sphere_geometry(grid: SphereGrid, ycoef: np.ndarray,
                             g: np.ndarray, dg: np.ndarray):
    """Induced metric and mean curvature of an embedded sphere.

    ycoef (3, nmodes) holds the harmonic coefficients of the embedding's
    Cartesian components y^c, whose tangents and second derivatives are
    taken spectrally on ``grid``; g (3, 3, nnodes) is the ambient metric at
    the embedded nodes and dg (3, 3, 3, nnodes) its gradient,
    dg[c, a, b, n] = d_c g_ab, component-major with the nodes last as
    ``MetricField.jet`` returns them.  Any of them may carry batch axes
    before the nodes, ycoef as (3, ..., nmodes) and the metric as
    (3, 3, ..., nnodes), which broadcast against each other: several
    spheres in one call, or one embedding, whose spectral derivatives are
    then taken once, in several metrics.

    Returns ((c11, c12, c22), h, det, nu): the induced metric in the
    orthonormal frame of the round sphere, the mean curvature, the induced
    metric's determinant in (theta, phi), each (..., nnodes), and the unit
    normal (..., nnodes, 3).
    nu is y_theta x y_phi raised by g and normalized, outward on an
    embedding that keeps the unit sphere's orientation.  h is the trace of
    the second fundamental form nu_c (d_a d_b y^c + Gamma^c_de d_a y^d d_b y^e),
    whose Christoffel term is contracted from dg without forming the
    symbols; it is -2 on the round unit sphere.  A degenerate induced
    metric or normal raises NumericalFailure.
    """
    # batch axes sit between the components and the nodes, the
    # embedding's padded to as many as the metric's
    pad = g.ndim - 3 - (ycoef.ndim - 2)
    ycoef = ycoef.reshape(ycoef.shape[:1] + (1,) * pad + ycoef.shape[1:])
    d_th, d_ph, d_thth, d_thph = (
        grid.synth(table, ycoef)
        for table in ("dYdtheta", "dYdphi", "d2Ydtheta2", "d2Ydthetadphi"))
    d_phph = grid.synthesize(grid.dphi_coeffs(grid.dphi_coeffs(ycoef)))
    g, dg = np.ascontiguousarray(g), np.ascontiguousarray(dg)

    def lower(mat, w):  # mat[a, b] w^b
        return mat[:, 0] * w[0] + mat[:, 1] * w[1] + mat[:, 2] * w[2]

    def dot(u, w):
        return u[0] * w[0] + u[1] * w[1] + u[2] * w[2]

    g_th, g_ph = lower(g, d_th), lower(g, d_ph)
    s_tt, s_tp, s_pp = dot(d_th, g_th), dot(d_th, g_ph), dot(d_ph, g_ph)
    det = s_tt * s_pp - s_tp * s_tp
    if not np.all(det > 0.0):
        raise NumericalFailure("degenerate induced metric")

    # the cross product annihilates both tangents: a conormal
    n_cov = np.cross(d_th, d_ph, axis=0)
    n_up = lower(_inverse3(g), n_cov)
    norm = dot(n_cov, n_up)
    if not np.all(norm > 0.0):
        raise NumericalFailure("degenerate surface normal")
    root = np.sqrt(norm)
    nu, nu_cov = n_up / root, n_cov / root

    # nu_c Gamma^c_de u^d w^e = u^T s w with s = (q + q^T - r) / 2,
    # q[c, b] = d_c g_bf nu^f and r[a, b] = nu^f d_f g_ab
    q = lower(dg, nu)
    r = nu[0] * dg[0] + nu[1] * dg[1] + nu[2] * dg[2]
    s = 0.5 * (q + q.swapaxes(0, 1) - r)
    a_tt = dot(nu_cov, d_thth) + dot(d_th, lower(s, d_th))
    a_tp = dot(nu_cov, d_thph) + dot(d_th, lower(s, d_ph))
    a_pp = dot(nu_cov, d_phph) + dot(d_ph, lower(s, d_ph))
    h = (s_pp * a_tt - 2.0 * s_tp * a_tp + s_tt * a_pp) / det

    st = grid.sin_theta
    return (s_tt, s_tp / st, s_pp / (st * st)), h, det, np.moveaxis(nu, 0, -1)


@dataclass(frozen=True)
class DeformationParams:
    """Deformation directions: scalar f, tangent X, harmonic exterior v."""

    f: ScalarField
    X: TangentField
    vperp: HarmonicExterior

    @property
    def grid(self) -> SphereGrid:
        return self.f.grid

    @cached_property
    def grad_v(self) -> np.ndarray:
        """Ambient gradient of vperp at the grid nodes; the same for every t."""
        return self.vperp.gradient()

    @cached_property
    def x_ambient(self) -> np.ndarray:
        """Cartesian components of X at the grid nodes, (nnodes, 3)."""
        return self.X.ambient_components()

    @cached_property
    def v_trace(self) -> np.ndarray:
        """Boundary trace of vperp at the grid nodes."""
        return self.vperp.trace().values

    @cached_property
    def flow_du(self) -> np.ndarray:
        """Derivative du of the flow x -> x + t u(x) at the grid nodes, (nnodes, 3, 3).

        The displacement u = f(x/|x|) x/|x| + X(x/|x|) is extended
        homogeneous of degree zero, so its radial derivative vanishes and
        the derivative of each Cartesian component of X is its surface
        gradient.
        """
        grid, f = self.grid, self.f
        x = grid.nodes
        f1, f2 = f.gradient_components()
        gradf = f1[:, None] * grid.e_theta + f2[:, None] * grid.e_phi
        dX1, dX2 = grid.grad_synth(grid.analyze(self.x_ambient.T))
        return (f.values[:, None, None] * (np.eye(3) - x[:, :, None] * x[:, None, :])
                + x[:, :, None] * gradf[:, None, :]
                + dX1.T[:, :, None] * grid.e_theta[:, None, :]
                + dX2.T[:, :, None] * grid.e_phi[:, None, :])

    def widened(self, wgrid: SphereGrid) -> "DeformationParams":
        """Re-express the same parameters on a larger grid."""
        if wgrid.lmax < self.grid.lmax:
            raise ValueError("target grid must not shrink the band")

        def pad(coeffs):
            out = np.zeros(wgrid.nmodes)
            out[: coeffs.size] = coeffs
            return out

        f = ScalarField.from_coeffs(wgrid, pad(self.f.coeffs))
        X = TangentField(wgrid, pad(self.X.a_coeffs), pad(self.X.b_coeffs))
        v = HarmonicExterior(wgrid, pad(self.vperp.coeffs))
        return DeformationParams(f=f, X=X, vperp=v)


def random_deformation(grid: SphereGrid, rng: np.random.Generator,
                       amplitude: float = 0.1) -> DeformationParams:
    """Random smooth parameters with coefficients decaying in l."""
    decay = 1.0 / (1.0 + grid.ls.astype(float)) ** 2
    f = ScalarField.from_coeffs(grid, amplitude * decay * rng.standard_normal(grid.nmodes))
    X = TangentField(grid,
                     amplitude * decay * rng.standard_normal(grid.nmodes),
                     amplitude * decay * rng.standard_normal(grid.nmodes))
    v = HarmonicExterior(grid, amplitude * decay * rng.standard_normal(grid.nmodes))
    return DeformationParams(f=f, X=X, vperp=v)


def deformed_sphere_geometry(params: DeformationParams, ts):
    """Induced metric and mean curvature of the deformed spheres at each t of ``ts``.

    Returns ((c11, c12, c22), h): the frame components of the induced
    metric and the mean curvature, each a (len(ts), nnodes) array of node
    values on the parameter grid, all from one geometry call.  The grid's
    band limit must comfortably exceed the band of the parameters,
    because the embedding components are differentiated spectrally.
    """
    grid = params.grid
    t = np.asarray(ts, dtype=float).reshape(-1, 1)  # against the nodes
    y = (1.0 + t * params.f.values)[..., None] * grid.nodes + t[..., None] * params.x_ambient
    rho = 1.0 + t * params.v_trace
    if not np.all(rho > 0.0):
        raise ValueError("conformal factor is not positive at this t")
    eye = np.eye(3)[:, :, None, None]
    try:
        # the flowed conformal factor's gradient is t (D flow)^-T grad v; a
        # surface that collapses makes the flow Jacobian singular as well
        jac_inv = _inverse3(eye + t * params.flow_du.transpose(1, 2, 0)[:, :, None])
        grad_v = params.grad_v.T
        drho = t * (jac_inv[0] * grad_v[0] + jac_inv[1] * grad_v[1]
                    + jac_inv[2] * grad_v[2])
        # component-major, (3, 3, t, nodes), as the geometry takes them
        (c11, c12, c22), h, _, _ = embedded_sphere_geometry(
            grid, grid.analyze(np.moveaxis(y, -1, 0)), rho * eye, drho[:, None, None] * eye)
    except (NumericalFailure, np.linalg.LinAlgError) as exc:
        raise ValueError("deformed surface is degenerate at this t") from exc
    return (c11, c12, c22), h


def first_variation(params: DeformationParams):
    """Closed-form t-derivative of (tr gamma, H) at t = 0."""
    f, X, v = params.f, params.X, params.vperp
    trdot = 4.0 * f + 2.0 * X.divergence() + 2.0 * v.trace()
    hdot = operators.laplace(f) + 2.0 * f + v.trace() - v.radial_trace()
    return trdot, hdot


def second_variation(params: DeformationParams):
    """Closed-form second t-derivative of (tr gamma, H) at t = 0.

    Returned as node-value arrays on the parameter grid.
    """
    f, X, v = params.f, params.X, params.vperp
    grid = params.grid

    fv = f.values
    f1, f2 = f.gradient_components()
    divx = X.divergence().values
    dxmat = X.covariant_matrix()
    dx_sq = np.einsum("nab,nab->n", dxmat, dxmat)
    x_sq = X.norm_sq_values()
    xf = X.comp1 * f1 + X.comp2 * f2

    vtr = v.trace()
    vr = v.radial_trace().values
    vvals = vtr.values
    v1, v2 = vtr.gradient_components()

    tr_second = (8.0 * vvals * fv + 4.0 * vvals * divx + 2.0 * dx_sq
                 + 4.0 * fv * fv + 2.0 * (f1 * f1 + f2 * f2)
                 + 2.0 * x_sq - 4.0 * xf + 4.0 * fv * divx)

    x2_field = ScalarField.from_values(grid, x_sq)
    lap_x2 = operators.laplace(x2_field).values
    lap_f = operators.laplace(f).values
    hess_f = TangentField(grid, f.coeffs, np.zeros(grid.nmodes)).covariant_matrix()
    xv = X.comp1 * v1 + X.comp2 * v2

    w1 = dxmat[:, 0, 0] * f1 + dxmat[:, 1, 0] * f2
    w2 = dxmat[:, 0, 1] * f1 + dxmat[:, 1, 1] * f2
    wfield, _ = TangentField.from_components(grid, w1, w2)
    div_w = wfield.divergence().values

    h_second = (lap_x2 + 2.0 * x_sq
                - 4.0 * fv * (lap_f + fv)
                - vvals * (lap_f + 2.0 * fv)
                - 2.0 * (xf + xv)
                + 3.0 * vvals * vr
                - 1.5 * vvals * vvals
                + 2.0 * (f1 * v1 + f2 * v2)
                - 2.0 * np.einsum("nab,nab->n", dxmat, hess_f)
                - 2.0 * div_w)
    return tr_second, h_second


def variation_check(params: DeformationParams) -> dict:
    """Compare closed-form variations against Richardson differences.

    The parameters are re-expanded on a working grid with twice the band
    plus margin so that all spectral differentiations of the embedding are
    exact, then tr(gamma_t) and H_t are differenced in t.  The Richardson
    pair of steps (8e-3, 4e-3) sits where the t^4 truncation is still
    negligible but the sphere transform roundoff, amplified by 1/step^2 in
    the second difference, has dropped well below the closed-form target
    accuracy.
    """
    wgrid = build_grid(2 * params.grid.lmax + 4)
    wide = params.widened(wgrid)
    h1, h2 = 8e-3, 4e-3

    # (tr gamma, H) at each t; c11 + c22 are the node values of gamma's trace
    (c11, _, c22), h = deformed_sphere_geometry(wide, (0.0, h1, -h1, h2, -h2))
    base, plus1, minus1, plus2, minus2 = zip(c11 + c22, h)

    def richardson_first(i):
        return richardson((plus1[i] - minus1[i]) / (2.0 * h1),
                          (plus2[i] - minus2[i]) / (2.0 * h2), 2)

    def richardson_second(i):
        return richardson((plus1[i] - 2.0 * base[i] + minus1[i]) / h1 ** 2,
                          (plus2[i] - 2.0 * base[i] + minus2[i]) / h2 ** 2, 2)

    trdot, hdot = first_variation(wide)
    tr2, h2nd = second_variation(wide)

    report = {
        "trace_first": float(np.max(np.abs(richardson_first(0) - trdot.values))),
        "h_first": float(np.max(np.abs(richardson_first(1) - hdot.values))),
        "trace_second": float(np.max(np.abs(richardson_second(0) - tr2))),
        "h_second": float(np.max(np.abs(richardson_second(1) - h2nd))),
    }
    report["max_discrepancy"] = float(np.max(list(report.values())))
    return report


def conformal_probe_check() -> dict:
    """Pure conformal deformation with v = 1/r, on the lmax-8 grid.

    The geometry oracle must reproduce H(t) = -2 (1+t)^{-1/2} + t (1+t)^{-3/2}
    exactly in t, whose second derivative at zero is -9/2.  Roundoff in H
    over step^2 and the step^4 truncation of the Richardson pair balance
    near the steps used, (4e-3, 2e-3): the residual reads 3.3e-9 at
    (2e-3, 1e-3), 9.3e-10 at (4e-3, 2e-3) and 6.6e-9 at (8e-3, 4e-3).
    """
    grid = build_grid(8)
    coeffs = np.zeros(grid.nmodes)
    coeffs[0] = np.sqrt(4.0 * np.pi)
    params = DeformationParams(f=ScalarField.zeros(grid),
                               X=TangentField.zeros(grid),
                               vperp=HarmonicExterior(grid, coeffs))

    h1, h2 = 4e-3, 2e-3
    ts = (0.0, h1, -h1, h2, -h2)
    h_at = dict(zip(ts, deformed_sphere_geometry(params, ts)[1]))

    def closed(t):
        return -2.0 / np.sqrt(1.0 + t) + t * (1.0 + t) ** (-1.5)

    closed_err = float(np.max([np.max(np.abs(h - closed(t))) for t, h in h_at.items()]))
    second = richardson((h_at[h1] - 2.0 * h_at[0.0] + h_at[-h1]) / h1 ** 2,
                        (h_at[h2] - 2.0 * h_at[0.0] + h_at[-h2]) / h2 ** 2, 2)
    return {
        "h_curve_error": closed_err,
        "second_derivative": float(np.max(second)),
        "second_derivative_error": float(np.max(np.abs(second + 4.5))),
    }


def mass_variation_identity(gdot_fun, grid: SphereGrid) -> dict:
    """Flux identity for linear metric perturbations of flat space.

    For g_t = delta + t * gdot, the integral of (2 Hdot + A^{ab} gdot_ab)
    over the unit sphere equals the flux of div(gdot) - d(tr gdot) through
    the sphere.  The left side is computed by differencing the mean
    curvature of the unit sphere in the metric g_t; the right side by
    finite differences of gdot.  Both sides use the outward normal.  Both
    difference steps, in t and in x, are 1e-3.
    """
    t_step = x_step = 1e-3
    grid_x = grid.nodes
    # gdot, its gradient and the embedding's coefficients do not depend on t
    gdot, dgdot = fd_jet(gdot_fun, grid_x, x_step)
    ycoef = grid.analyze(grid_x.T)

    # H at t = +-t_step and +-t_step/2, one embedding in four (3, 3, t, nodes) metrics
    t = np.array([t_step, -t_step, 0.5 * t_step, -0.5 * t_step])[:, None]
    g1, dg1 = np.moveaxis(gdot, 0, -1)[..., None, :], np.moveaxis(dgdot, 0, -1)[..., None, :]
    h = embedded_sphere_geometry(grid, ycoef, np.eye(3)[:, :, None, None] + t * g1, t * dg1)[1]
    hdot = richardson((h[0] - h[1]) / (2.0 * t_step), (h[2] - h[3]) / t_step, 2)

    e1, e2 = grid.e_theta, grid.e_phi
    tangential_trace = (np.einsum("nab,na,nb->n", gdot, e1, e1)
                        + np.einsum("nab,na,nb->n", gdot, e2, e2))
    lhs = grid.integrate(2.0 * hdot - tangential_trace)

    div_part = np.einsum("ncca->na", dgdot)
    dtr_part = np.einsum("nacc->na", dgdot)
    rhs = grid.integrate(np.einsum("na,na->n", div_part - dtr_part, grid_x))
    return {"lhs": lhs, "rhs": rhs, "difference": abs(lhs - rhs)}
