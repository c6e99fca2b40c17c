"""Exact workbench for iterated Tor algebras and higher Hochschild
homology over prime fields.

Four layers, each usable on its own:

- ``fplinear``: exact sparse linear algebra over F_p (ranks, kernels,
  homology dimensions).
- ``words``: admissible word families, their bidegrees, and the search
  for degree-adjacent word pairs.
- ``bar``: the reduced bar construction with shuffle product, explicit
  small models with their comparison maps, and the iterated Tor rewrite.
- ``series``: closed-form Poincare series for polynomial, truncated,
  Laurent, and group-algebra coefficients.

Everything is computed with exact integer arithmetic; there is no
floating point anywhere in the homological core.
"""

from .fplinear import (
    CompositionError,
    SparseFpMatrix,
    homology_dim,
)
from .words import (
    EPS,
    MU,
    X,
    Bidegree,
    DifferentialCandidate,
    PowerwordReport,
    WordFamily,
    bidegree,
    canonical_key,
    classify,
    diff_candidates,
    enumerate_shapes,
    enumerate_words,
    exponent_bound,
    family_b,
    family_bdoubleprime,
    family_bprime,
    is_admissible,
    phi,
    render_human,
    render_key,
    rho,
    total_degree,
    verify_powerwords,
)
from .bar import (
    AlgebraPresentation,
    BarChain,
    BarComplex,
    BigradedDims,
    Generator,
    QuasiIsoReport,
    bar_homology,
    exterior,
    iterated_tor,
    iterated_tor_presentation,
    polynomial,
    presentation_dims,
    tor_presentation,
    truncated,
    verify_quasi_iso,
)
from .series import (
    GroupSpec,
    PoincareSeries,
    etale_finite,
    family_series,
    hh_group_algebra,
    hh_laurent,
    hh_poly_gens,
    hh_polynomial,
    hh_truncated,
    hh_truncated_words,
    thh_fp,
    thh_group_algebra,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraPresentation",
    "BarChain",
    "BarComplex",
    "Bidegree",
    "BigradedDims",
    "CompositionError",
    "DifferentialCandidate",
    "EPS",
    "Generator",
    "GroupSpec",
    "MU",
    "PoincareSeries",
    "PowerwordReport",
    "QuasiIsoReport",
    "SparseFpMatrix",
    "WordFamily",
    "X",
    "bar_homology",
    "bidegree",
    "canonical_key",
    "classify",
    "diff_candidates",
    "enumerate_shapes",
    "enumerate_words",
    "etale_finite",
    "exponent_bound",
    "exterior",
    "family_b",
    "family_bdoubleprime",
    "family_bprime",
    "family_series",
    "hh_group_algebra",
    "hh_laurent",
    "hh_poly_gens",
    "hh_polynomial",
    "hh_truncated",
    "hh_truncated_words",
    "homology_dim",
    "is_admissible",
    "iterated_tor",
    "iterated_tor_presentation",
    "phi",
    "polynomial",
    "presentation_dims",
    "render_human",
    "render_key",
    "rho",
    "thh_fp",
    "thh_group_algebra",
    "tor_presentation",
    "total_degree",
    "truncated",
    "verify_powerwords",
    "verify_quasi_iso",
]
