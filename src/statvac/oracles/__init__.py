"""Independent numerical oracles for the mass pipeline.

Everything in this subpackage checks the library from the outside:
finite differences of analytic metrics, geodesic integration, Richardson
differences of first-principles surface geometry, and the named
verification suites that the command line exposes.  Oracle code never
reuses the closed forms it is checking.
"""

from .curvature_fd import (
    conformal_ricci,
    fd_linearized_ricci,
    fd_ricci,
    fd_riemann,
    linearized_ricci,
)
from .geodesic import (
    NumericalFailure,
    geodesic_sphere,
    jet_from_metric,
    space_form_reference,
)
from .metricfield import MetricField, fd_gradient, random_polynomial_metric
from .sphere_variation import (
    DeformationParams,
    conformal_probe_check,
    deformed_sphere_geometry,
    embedded_sphere_geometry,
    first_variation,
    mass_variation_identity,
    random_deformation,
    second_variation,
    variation_check,
)
from .suites import SUITE_NAMES, random_data, run_all, run_suite

__all__ = [
    "MetricField",
    "fd_gradient",
    "random_polynomial_metric",
    "fd_riemann",
    "fd_ricci",
    "conformal_ricci",
    "linearized_ricci",
    "fd_linearized_ricci",
    "DeformationParams",
    "random_deformation",
    "deformed_sphere_geometry",
    "embedded_sphere_geometry",
    "first_variation",
    "second_variation",
    "variation_check",
    "conformal_probe_check",
    "mass_variation_identity",
    "NumericalFailure",
    "geodesic_sphere",
    "jet_from_metric",
    "space_form_reference",
    "SUITE_NAMES",
    "run_suite",
    "run_all",
    "random_data",
]
