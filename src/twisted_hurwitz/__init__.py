"""Cross-validating computation of twisted covering counts of an elliptic curve.

Four independent pipelines compute the same family of counts and are
checked against one another:

- ``count_twisted`` — direct factorization counting in the symmetric
  group (connected or disconnected), as a dynamic program over
  transposition products summed over hyperoctahedral orbits;
- ``count_tropical`` — enumeration of tropical quotient covers with
  per-lift multiplicities (connected, genus >= 2);
- ``generating_series_coefficient`` — graph-sum assembly from exact
  propagator series (connected, genus > 2);
- ``elliptic_disconnected`` — matrix elements of a vertex operator on a
  bosonic Fock space (disconnected).

All arithmetic is exact (integers, ``fractions.Fraction``, square roots
of integers that must cancel); nothing is floated.
"""

from .factorizations import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    HurwitzResult,
    KERNEL_BACKEND,
    count_classical,
    count_twisted,
    enumerate_twisted_tuples,
)
from .feynman import (
    CalibrationError,
    NonRationalIntegral,
    calibrate_normalization,
    direct_cover_sum,
    feynman_integral,
    generating_series_coefficient,
    generating_series_export,
    normalization_reading,
    propagator,
    propagator_coefficient,
)
from .fock import (
    ParityViolation,
    apply_alpha,
    apply_m,
    b,
    elliptic_disconnected,
    elliptic_from_doubles,
    inner_product,
    matrix_element,
    twisted_double_disconnected,
)
from .graphs import FeynmanGraph, GraphClass, enumerate_graphs
from .radicals import RadicalScalar
from .series import TruncatedSeries
from .tropical import (
    CoverMultiplicity,
    QuotientCover,
    count_tropical,
    cover_multiplicity,
    enumerate_quotient_covers,
    verify_preimage_formula,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "CalibrationError",
    "CoverMultiplicity",
    "DEFAULT_BUDGET",
    "FeynmanGraph",
    "GraphClass",
    "HurwitzResult",
    "KERNEL_BACKEND",
    "NonRationalIntegral",
    "ParityViolation",
    "QuotientCover",
    "RadicalScalar",
    "TruncatedSeries",
    "apply_alpha",
    "apply_m",
    "b",
    "calibrate_normalization",
    "count_classical",
    "count_tropical",
    "count_twisted",
    "cover_multiplicity",
    "direct_cover_sum",
    "elliptic_disconnected",
    "elliptic_from_doubles",
    "enumerate_graphs",
    "enumerate_quotient_covers",
    "enumerate_twisted_tuples",
    "feynman_integral",
    "generating_series_coefficient",
    "generating_series_export",
    "inner_product",
    "matrix_element",
    "normalization_reading",
    "propagator",
    "propagator_coefficient",
    "twisted_double_disconnected",
    "verify_preimage_formula",
    "__version__",
]
