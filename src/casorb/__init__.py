"""Zeta-regularized Casimir energy of compact hyperbolic 2-orbifolds.

The energy splits into an area (identity) term, a cone-point (elliptic)
term, and a geodesic (hyperbolic) term.  This package evaluates all three
from geometric data with rigorous truncation bounds, certifies a lower
bound for the (2,3,7) triangle-group orbifold, and ships both a library
API and the ``casorb`` command-line tool.

The top level re-exports the names needed to run that certificate; the
pieces stay in their modules: ``casorb.contributions`` (series, tail
bounds, assembly), ``casorb.specfun`` (kernels), ``casorb.quadrature``
(Gauss-Kronrod, also behind Struve K) and ``casorb.triangle`` (word calculus).
"""

from .contributions import (
    EnergyBreakdown,
    LengthSpectrum,
    OrbifoldSignature,
    casimir_energy,
    read_spectrum_file,
)
from .triangle import (
    enumerate_classes,
    table_corpus,
    to_spectrum,
    triangle_signature,
)

__version__ = "1.0.0"

__all__ = [
    "EnergyBreakdown",
    "LengthSpectrum",
    "OrbifoldSignature",
    "casimir_energy",
    "enumerate_classes",
    "read_spectrum_file",
    "table_corpus",
    "to_spectrum",
    "triangle_signature",
    "__version__",
]
