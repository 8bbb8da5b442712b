"""Deformed-sphere geometry oracle and variation checks.

The deformation family couples a shape change with a conformal change of
the ambient metric.  For parameters (f, X, v),

    y_t(x) = (1 + t f(x)) x + t X(x)

embeds the unit sphere into R^3, and the ambient metric is rho_t * delta
with the conformal factor carried along the flow of the deformation, so
that its value on the deformed surface is 1 + t v(x) with v the boundary
trace of the decaying harmonic function.  The induced metric and mean
curvature are computed from first principles (spectral derivatives of the
embedding, cross-product normal, second fundamental form, and the
conformal rescaling rule for mean curvature of a surface in a 3-manifold)
and differentiated in t by Richardson-extrapolated central differences.
The closed-form first and second t-derivatives that the mass expansion
relies on are compared against those differences.

Sign convention: the round unit sphere has mean curvature -2, and the
normal points toward the unbounded component.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..boundary import HarmonicExterior
from ..spherical import operators
from ..spherical.fields import ScalarField, SymTensorField, TangentField
from ..spherical.grid import SphereGrid, build_grid
from .metricfield import fd_gradient

__all__ = [
    "DeformationParams",
    "random_deformation",
    "deformed_sphere_geometry",
    "first_variation",
    "second_variation",
    "variation_check",
    "conformal_probe_check",
    "mass_variation_identity",
]


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


def deformed_sphere_geometry(params: DeformationParams, t: float):
    """Induced metric and mean curvature of the deformed sphere at time t.

    Returns (gamma, H) on the parameter grid: gamma as a SymTensorField in
    the orthonormal frame and H as a ScalarField.  The grid's band limit
    must comfortably exceed the band of the parameters, because the
    embedding components are differentiated spectrally.
    """
    grid = params.grid
    x = grid.nodes
    y = (1.0 + t * params.f.values)[:, None] * x + t * params.x_ambient
    ycoef = grid.analyze(y.T)

    d_th, d_ph, d_thth, d_thph = (
        grid.synth(table, ycoef).T
        for table in ("dYdtheta", "dYdphi", "d2Ydtheta2", "d2Ydthetadphi"))
    d_phph = grid.synthesize(grid.dphi_coeffs(grid.dphi_coeffs(ycoef))).T

    gtt = np.sum(d_th * d_th, axis=1)
    gtp = np.sum(d_th * d_ph, axis=1)
    gpp = np.sum(d_ph * d_ph, axis=1)
    det = gtt * gpp - gtp * gtp
    if np.min(det) <= 0.0:
        raise ValueError("deformed surface is degenerate at this t")

    normal = np.cross(d_th, d_ph)
    jac = np.linalg.norm(normal, axis=1)
    nu = normal / jac[:, None]

    a_tt = np.sum(nu * d_thth, axis=1)
    a_tp = np.sum(nu * d_thph, axis=1)
    a_pp = np.sum(nu * d_phph, axis=1)
    h_flat = (gpp * a_tt - 2.0 * gtp * a_tp + gtt * a_pp) / det

    # conformal factor on the surface and its flowed ambient gradient
    rho = 1.0 + t * params.v_trace
    if np.min(rho) <= 0.0:
        raise ValueError("conformal factor is not positive at this t")

    # Jacobian of the ambient flow x -> x + t u(x) at the sphere
    flow_jac = np.eye(3) + t * params.flow_du
    pulled_nu = np.linalg.solve(flow_jac, nu[:, :, None])[:, :, 0]
    h_total = (rho ** (-0.5) * h_flat
               - t * rho ** (-1.5) * np.sum(pulled_nu * params.grad_v, axis=1))

    st = grid.sin_theta
    c11 = rho * gtt
    c12 = rho * gtp / st
    c22 = rho * gpp / (st * st)
    gamma = SymTensorField.from_components(grid, c11, c12, c22)
    return gamma, ScalarField.from_values(grid, h_total)


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


def variation_check(params: DeformationParams, steps=(8e-3, 4e-3)) -> dict:
    """Compare closed-form variations against Richardson differences.

    The parameters are re-expanded on a working grid with twice the band
    plus margin so that all spectral differentiations of the embedding are
    exact, then tr(gamma_t) and H_t are differenced in t.  The default
    steps sit where the t^4 truncation is still negligible but the sphere
    transform roundoff, amplified by 1/step^2 in the second difference,
    has dropped well below the closed-form target accuracy.
    """
    wgrid = build_grid(2 * params.grid.lmax + 4)
    wide = params.widened(wgrid)

    def sample(t):
        gamma, h = deformed_sphere_geometry(wide, t)
        return gamma.trace.values, h.values

    h1, h2 = steps
    if not np.isclose(h1, 2.0 * h2):
        raise ValueError("Richardson steps must have ratio 2")

    base = sample(0.0)
    plus1, minus1 = sample(h1), sample(-h1)
    plus2, minus2 = sample(h2), sample(-h2)

    def richardson_first(i):
        d_h1 = (plus1[i] - minus1[i]) / (2.0 * h1)
        d_h2 = (plus2[i] - minus2[i]) / (2.0 * h2)
        return (4.0 * d_h2 - d_h1) / 3.0

    def richardson_second(i):
        d_h1 = (plus1[i] - 2.0 * base[i] + minus1[i]) / h1 ** 2
        d_h2 = (plus2[i] - 2.0 * base[i] + minus2[i]) / h2 ** 2
        return (4.0 * d_h2 - d_h1) / 3.0

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


def conformal_probe_check(lmax: int = 8, steps=(2e-3, 1e-3)) -> dict:
    """Pure conformal deformation with v = 1/r.

    The geometry oracle must reproduce H(t) = -2 (1+t)^{-1/2} + t (1+t)^{-3/2}
    exactly in t, whose second derivative at zero is -9/2.
    """
    grid = build_grid(lmax)
    coeffs = np.zeros(grid.nmodes)
    coeffs[0] = np.sqrt(4.0 * np.pi)
    params = DeformationParams(f=ScalarField.zeros(grid),
                               X=TangentField.zeros(grid),
                               vperp=HarmonicExterior(grid, coeffs))

    h1, h2 = steps
    h_at = {t: deformed_sphere_geometry(params, t)[1].values
            for t in (0.0, h1, -h1, h2, -h2)}

    def closed(t):
        return -2.0 / np.sqrt(1.0 + t) + t * (1.0 + t) ** (-1.5)

    closed_err = float(np.max([np.max(np.abs(h - closed(t))) for t, h in h_at.items()]))
    d_h1 = (h_at[h1] - 2.0 * h_at[0.0] + h_at[-h1]) / h1 ** 2
    d_h2 = (h_at[h2] - 2.0 * h_at[0.0] + h_at[-h2]) / h2 ** 2
    second = (4.0 * d_h2 - d_h1) / 3.0
    return {
        "h_curve_error": closed_err,
        "second_derivative": float(np.max(second)),
        "second_derivative_error": float(np.max(np.abs(second + 4.5))),
    }


def mass_variation_identity(gdot_fun, grid: SphereGrid, t_step: float = 1e-3,
                            x_step: float = 1e-3) -> dict:
    """Flux identity for linear metric perturbations of flat space.

    For g_t = delta + t * gdot, the integral of (2 Hdot + A^{ab} gdot_ab)
    over the unit sphere equals the flux of div(gdot) - d(tr gdot) through
    the sphere.  The left side is computed by differencing the mean
    curvature of the unit sphere in the metric g_t; the right side by
    finite differences of gdot.  Both sides use the outward normal.
    """
    grid_x = grid.nodes
    # gdot and its gradient do not depend on t
    gdot = np.asarray(gdot_fun(grid_x))
    dgdot = fd_gradient(gdot_fun, grid_x, x_step)

    def h_values(t):
        g = np.eye(3) + t * gdot
        ginv = np.linalg.inv(g)
        dg = t * dgdot
        bracket = (np.einsum("nadb->nabd", dg) + np.einsum("nbda->nabd", dg)
                   - np.einsum("ndab->nabd", dg))
        gam = 0.5 * np.einsum("ncd,nabd->ncab", ginv, bracket)

        e1, e2, x = grid.e_theta, grid.e_phi, grid_x
        st, ct = grid.sin_theta, grid.cos_theta
        # coordinate tangents and second derivatives of the round embedding
        d_th = e1
        d_ph = st[:, None] * e2
        dd_tt = -x
        dd_tp = ct[:, None] * e2
        dd_pp = -st[:, None] * (st[:, None] * x + ct[:, None] * e1)

        # unit conormal: the covector x_a annihilates both tangents
        nraise = np.einsum("nab,nb->na", ginv, x)
        nu_norm = np.sqrt(np.einsum("na,na->n", x, nraise))
        nu_cov = x / nu_norm[:, None]

        def second_form(dd, ta, tb):
            christ = np.einsum("ncab,na,nb->nc", gam, ta, tb)
            return np.einsum("nc,nc->n", dd + christ, nu_cov)

        a_tt = second_form(dd_tt, d_th, d_th)
        a_tp = second_form(dd_tp, d_th, d_ph)
        a_pp = second_form(dd_pp, d_ph, d_ph)

        gtt = np.einsum("nab,na,nb->n", g, d_th, d_th)
        gtp = np.einsum("nab,na,nb->n", g, d_th, d_ph)
        gpp = np.einsum("nab,na,nb->n", g, d_ph, d_ph)
        det = gtt * gpp - gtp * gtp
        return (gpp * a_tt - 2.0 * gtp * a_tp + gtt * a_pp) / det

    d_h1 = (h_values(t_step) - h_values(-t_step)) / (2.0 * t_step)
    d_h2 = (h_values(0.5 * t_step) - h_values(-0.5 * t_step)) / t_step
    hdot = (4.0 * d_h2 - d_h1) / 3.0

    e1, e2 = grid.e_theta, grid.e_phi
    tangential_trace = (np.einsum("nab,na,nb->n", gdot, e1, e1)
                        + np.einsum("nab,na,nb->n", gdot, e2, e2))
    lhs = grid.integrate(2.0 * hdot - tangential_trace)

    div_part = np.einsum("ncca->na", dgdot)
    dtr_part = np.einsum("nacc->na", dgdot)
    rhs = grid.integrate(np.einsum("na,na->n", div_part - dtr_part, grid_x))
    return {"lhs": lhs, "rhs": rhs, "difference": abs(lhs - rhs)}
