"""Public API surface: every exported name resolves, and removed names stay gone."""

import importlib
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
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate export"
    assert [n for n in exported if not hasattr(module, n)] == []


@pytest.mark.parametrize("module_name, attr", REMOVED)
def test_removed_names_are_gone(module_name, attr):
    owner = importlib.import_module(module_name)
    *path, member = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert not hasattr(owner, member)
