"""Spectra of partially transposed Wishart matrices.

Seeded Monte Carlo ensembles, bipartite dense linear algebra, closed-form
limit laws, exact non-crossing-partition moment combinatorics, and a
command-line experiment harness.  The package namespace holds what the
README tour and the demos use; everything else is imported from its module.
"""

from .ensembles import SampleStream, WishartParams, sample_pure_state, sample_wishart
from .errors import NumericError, ParameterError, ShapeError
from .laws import MarchenkoPastur, ProductSemicircle, Semicircle, quadrature_moment
from .linalg import BipartiteShape, hermitian_eigenvalues, partial_transpose
from .partitions import (
    Partition,
    catalan,
    count_admissible_classes,
    induced_partition,
    is_noncrossing,
    kreweras_complement,
    mp_moment_via_noncrossing,
    set_partitions,
    triple_admissibility,
    wishart_admissible_couples,
    wishart_matching_stats,
)
from .spectra import (
    SpectralSample,
    empirical_moment,
    ks_distance,
    pt_spectrum_from_schmidt,
    schmidt_coefficients,
)

__version__ = "0.1.0"

__all__ = [
    "BipartiteShape",
    "MarchenkoPastur",
    "NumericError",
    "ParameterError",
    "Partition",
    "ProductSemicircle",
    "SampleStream",
    "Semicircle",
    "ShapeError",
    "SpectralSample",
    "WishartParams",
    "catalan",
    "count_admissible_classes",
    "empirical_moment",
    "hermitian_eigenvalues",
    "induced_partition",
    "is_noncrossing",
    "kreweras_complement",
    "ks_distance",
    "mp_moment_via_noncrossing",
    "partial_transpose",
    "pt_spectrum_from_schmidt",
    "quadrature_moment",
    "sample_pure_state",
    "sample_wishart",
    "schmidt_coefficients",
    "set_partitions",
    "triple_admissibility",
    "wishart_admissible_couples",
    "wishart_matching_stats",
]
