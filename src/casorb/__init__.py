"""Zeta-regularized Casimir energy of compact hyperbolic 2-orbifolds.

The energy splits into an area (identity) term, a cone-point (elliptic)
term, and a geodesic (hyperbolic) term.  This package evaluates all three
from geometric data with rigorous truncation bounds, certifies a lower
bound for the (2,3,7) triangle-group orbifold, and ships both a library
API and the ``casorb`` command-line tool.
"""

from .contributions import (
    AssumptionReport,
    EnergyBreakdown,
    LengthSpectrum,
    OrbifoldSignature,
    SeriesEvaluation,
    assumption_check,
    casimir_energy,
    elliptic_contribution,
    elliptic_kernel_series,
    elliptic_small_angle_lower_bound,
    growth_inequality_check,
    hyperbolic_contribution,
    hyperbolic_term,
    identity_interval,
    identity_series,
    read_spectrum_file,
    tail_b1_bound,
    tail_direct_sum,
    tail_far_bound,
    tail_higher_windings_bound,
)
from .quadrature import (
    QuadResult,
    adaptive_quadrature,
    elliptic_kernel_integral,
    identity_integral,
    integrate_decaying,
)
from .specfun import (
    FnEval,
    csch_k1,
    struve_k,
    upper_incomplete_gamma_half,
)
from .triangle import (
    GeodesicClass,
    class_count,
    enumerate_classes,
    generators_237,
    table_corpus,
    to_spectrum,
    triangle_area,
    triangle_signature,
    word_length,
    word_to_matrix,
)

__version__ = "1.0.0"

__all__ = [
    "AssumptionReport",
    "EnergyBreakdown",
    "FnEval",
    "GeodesicClass",
    "LengthSpectrum",
    "OrbifoldSignature",
    "QuadResult",
    "SeriesEvaluation",
    "adaptive_quadrature",
    "assumption_check",
    "casimir_energy",
    "class_count",
    "csch_k1",
    "elliptic_contribution",
    "elliptic_kernel_integral",
    "elliptic_kernel_series",
    "elliptic_small_angle_lower_bound",
    "enumerate_classes",
    "generators_237",
    "growth_inequality_check",
    "hyperbolic_contribution",
    "hyperbolic_term",
    "identity_integral",
    "identity_interval",
    "identity_series",
    "integrate_decaying",
    "read_spectrum_file",
    "struve_k",
    "table_corpus",
    "tail_b1_bound",
    "tail_direct_sum",
    "tail_far_bound",
    "tail_higher_windings_bound",
    "to_spectrum",
    "triangle_area",
    "triangle_signature",
    "upper_incomplete_gamma_half",
    "word_length",
    "word_to_matrix",
    "__version__",
]
