"""Public API surface: every exported name resolves, and removed names stay gone."""

import importlib
import inspect
import pkgutil

import pytest

import statvac

MODULES = ["statvac"] + sorted(
    name for _, name, _ in pkgutil.walk_packages(statvac.__path__, "statvac."))

# (module, dotted attribute) pairs that were removed as unused or duplicated
REMOVED = [
    ("statvac.curvature", "SymMat3"),
    ("statvac.curvature", "sym3_to_vec"),
    ("statvac.curvature", "vec_to_sym3"),
    ("statvac.curvature", "TRI6"),
    ("statvac.curvature", "_derivative_riemann"),
    ("statvac.spherical.fields", "SymTensorField.from_parts"),
    ("statvac.spherical.fields", "ScalarField.mean_l2"),
    ("statvac.spherical.fields", "ScalarField.l_slice_norm"),
    ("statvac.spherical.fields", "TangentField.l1_norm_of_potentials"),
    ("statvac.spherical.operators", "transform"),
    ("statvac.spherical.operators", "integrate"),
    ("statvac.spherical", "transform"),
    ("statvac.spherical", "integrate"),
    ("statvac.boundary", "dirichlet_energy"),
    ("statvac", "dirichlet_energy"),
    ("statvac.boundary", "HarmonicExterior.second_radial_trace"),
    ("statvac.oracles.geodesic", "_probe_angles"),
    ("statvac.curvature", "CurvatureJet.grad_scalar"),
    ("statvac.spherical.fields", "SymTensorField.round_metric"),
    ("statvac.oracles.metricfield", "fd_gradient"),
    ("statvac.oracles", "fd_gradient"),
    ("statvac.oracles.metricfield", "MetricField.fd_gradient"),
    ("statvac.oracles.suites", "_stencil_values"),
    ("statvac.oracles.suites", "_ambient_laplacian"),
    ("statvac.boundary", "HarmonicExterior._axis_tangential"),
    ("statvac.spherical.fields", "ScalarField.pointwise"),
    ("statvac.spherical.fields", "SymTensorField.shifted"),
    ("statvac.boundary", "HarmonicExterior.zeros"),
    ("statvac.oracles.sphere_variation", "_deformed_geometry"),
    ("statvac.oracles.curvature_fd", "fd_riemann"),
    ("statvac.oracles", "fd_riemann"),
    ("statvac.oracles.metricfield", "MetricField.euclidean"),
]

# (module, dotted callable, keyword) triples of options removed because
# every production caller passed one value, or none passed them at all
REMOVED_OPTIONS = [
    ("statvac.spherical.grid", "SphereGrid", "nlat"),
    ("statvac.spherical.grid", "SphereGrid", "nlon"),
    ("statvac.spherical.grid", "build_grid", "nlat"),
    ("statvac.spherical.grid", "build_grid", "nlon"),
    ("statvac.oracles.metricfield", "MetricField", "label"),
    ("statvac.oracles.metricfield", "MetricField.conformal", "label"),
    ("statvac.oracles.metricfield", "MetricField.polynomial", "label"),
    ("statvac.oracles.metricfield", "MetricField.gradient", "step"),
    ("statvac.oracles.metricfield", "random_polynomial_metric", "degree"),
    ("statvac.oracles.sphere_variation", "variation_check", "steps"),
    ("statvac.oracles.sphere_variation", "conformal_probe_check", "lmax"),
    ("statvac.oracles.sphere_variation", "conformal_probe_check", "steps"),
    ("statvac.oracles.sphere_variation", "mass_variation_identity", "t_step"),
    ("statvac.oracles.sphere_variation", "mass_variation_identity", "x_step"),
    ("statvac.oracles.geodesic", "jet_from_metric", "step"),
    ("statvac.oracles.geodesic", "jet_from_metric", "curv_step"),
    ("statvac.oracles.curvature_fd", "fd_linearized_ricci", "x_step"),
    ("statvac.spherical.operators", "conformal_killing_solve", "trace_tol"),
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate export"
    assert [n for n in exported if not hasattr(module, n)] == []


def _resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    *path, member = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, member


@pytest.mark.parametrize("module_name, attr", REMOVED)
def test_removed_names_are_gone(module_name, attr):
    owner, member = _resolve(module_name, attr)
    assert not hasattr(owner, member)


@pytest.mark.parametrize("module_name, attr, option", REMOVED_OPTIONS)
def test_removed_options_are_gone(module_name, attr, option):
    owner, member = _resolve(module_name, attr)
    assert option not in inspect.signature(getattr(owner, member)).parameters
