"""Second-order mass estimates for near-round sphere data.

The library solves the linearized static-vacuum boundary system for a
perturbation (gamma1, H1) of the round unit sphere, evaluates the first
and second order terms of the exterior mass, and generates the boundary
data of small geodesic spheres from a pointwise curvature jet.  The
``oracles`` subpackage re-derives every frozen formula by an independent
numerical route, and the ``statvac`` command line drives batch runs and
the verification suites.
"""

from .boundary import (
    BartnikPerturbation,
    BoundarySolution,
    HarmonicExterior,
    harmonic_from_vrr,
    solve_boundary_system,
)
from .curvature import (
    CurvatureJet,
    ExpansionReport,
    Riemann3,
    jet_from_arrays,
    quadratic_invariants,
    random_jet,
    reference_expansions,
    riemann_from_ricci,
    small_sphere_data,
)
from .mass import (
    MassReport,
    compute_m1,
    compute_m2,
    estimate,
    hawking_mass,
    small_sphere_quintic,
    small_sphere_report,
)
from .spherical import (
    ScalarField,
    SphereGrid,
    SymTensorField,
    TangentField,
    build_grid,
)

__version__ = "0.1.0"

__all__ = [
    "SphereGrid",
    "build_grid",
    "ScalarField",
    "TangentField",
    "SymTensorField",
    "HarmonicExterior",
    "BartnikPerturbation",
    "BoundarySolution",
    "solve_boundary_system",
    "harmonic_from_vrr",
    "Riemann3",
    "riemann_from_ricci",
    "quadratic_invariants",
    "CurvatureJet",
    "random_jet",
    "jet_from_arrays",
    "small_sphere_data",
    "ExpansionReport",
    "reference_expansions",
    "MassReport",
    "compute_m1",
    "compute_m2",
    "hawking_mass",
    "estimate",
    "small_sphere_report",
    "small_sphere_quintic",
    "__version__",
]
