"""Spectra of partially transposed Wishart matrices.

Seeded Monte Carlo ensembles, bipartite dense linear algebra, closed-form
limit laws, exact non-crossing-partition moment combinatorics, and a
command-line experiment harness.
"""

from .ensembles import (
    SampleStream,
    WishartParams,
    sample_induced_state,
    sample_mixture_state,
    sample_pure_state,
    sample_wishart,
)
from .errors import NumericError, ParameterError, ShapeError
from .laws import MarchenkoPastur, ProductSemicircle, Semicircle, quadrature_moment
from .linalg import (
    BipartiteShape,
    block_entry,
    hermitian_eigenvalues,
    is_hermitian,
    partial_trace,
    partial_transpose,
    remove_diagonal,
)
from .partitions import (
    Partition,
    admissible_triples,
    catalan,
    chordings,
    count_admissible_classes,
    induced_partition,
    interleaved_union,
    is_noncrossing,
    kreweras_complement,
    mp_moment_via_noncrossing,
    noncrossing_partitions,
    set_partitions,
    triple_admissibility,
    wishart_admissible_couples,
    wishart_matching_stats,
)
from .spectra import (
    Histogram,
    PPTResult,
    SpectralSample,
    diag_deviation,
    empirical_moment,
    esd_fraction,
    extremes,
    histogram,
    ks_distance,
    ppt_gauge,
    pt_spectrum_from_schmidt,
    schmidt_coefficients,
)

__version__ = "0.1.0"

__all__ = [
    "BipartiteShape",
    "Histogram",
    "MarchenkoPastur",
    "NumericError",
    "PPTResult",
    "ParameterError",
    "Partition",
    "ProductSemicircle",
    "SampleStream",
    "Semicircle",
    "ShapeError",
    "SpectralSample",
    "WishartParams",
    "admissible_triples",
    "block_entry",
    "catalan",
    "chordings",
    "count_admissible_classes",
    "diag_deviation",
    "empirical_moment",
    "esd_fraction",
    "extremes",
    "hermitian_eigenvalues",
    "histogram",
    "induced_partition",
    "interleaved_union",
    "is_hermitian",
    "is_noncrossing",
    "kreweras_complement",
    "ks_distance",
    "mp_moment_via_noncrossing",
    "noncrossing_partitions",
    "partial_trace",
    "partial_transpose",
    "ppt_gauge",
    "pt_spectrum_from_schmidt",
    "quadrature_moment",
    "remove_diagonal",
    "sample_induced_state",
    "sample_mixture_state",
    "sample_pure_state",
    "sample_wishart",
    "schmidt_coefficients",
    "set_partitions",
    "triple_admissibility",
    "wishart_admissible_couples",
    "wishart_matching_stats",
]
