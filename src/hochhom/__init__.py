"""Exact workbench for iterated Tor algebras and higher Hochschild
homology over prime fields.

Four layers, each usable on its own:

- ``fplinear``: exact sparse linear algebra over F_p (ranks and
  homology dimensions) for the unreduced ``bar.BarComplex``.
- ``words``: admissible word families, their bidegrees, and the search
  for degree-adjacent word pairs.
- ``bar``: the reduced bar construction with shuffle product, explicit
  small models with their comparison maps, and the iterated Tor rewrite.
- ``series``: closed-form Poincare series for polynomial, truncated,
  Laurent, and group-algebra coefficients.

Everything is computed with exact integer arithmetic; there is no
floating point anywhere in the homological core.
"""

from types import ModuleType as _ModuleType

from .fplinear import CompositionError
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

# every public name imported above, so the list cannot go stale
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, _ModuleType))
