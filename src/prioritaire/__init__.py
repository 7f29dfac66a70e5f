"""Exact arithmetic for sheaves on the projective plane.

The package computes, over the rationals and quadratic surds only:

* the exceptional bundles, their slopes and intervals, and the dyadic
  parametrization of their lattice;
* the semistability frontier ``delta`` and the rigidity frontier
  ``delta_prime``, with the region classification of integral
  invariants (rank, c1, c2);
* the triangle tiling of the slope strip by triads of exceptional
  bundles, with the orthogonal series attached to each bundle;
* the explicit direct-sum splitting of the generic prioritary sheaf
  and the presentation of the generic semistable sheaf on the
  frontier.

See the command line tool ``prioritaire`` for a quick tour.
"""

from .chern import (
    ChernCharacter,
    ChernData,
    character_pairing,
    dual,
    euler_char,
    euler_pairing,
    hirzebruch_p,
    normalize,
    twist,
)
from .decompose import (
    Decomposition,
    PresentationReport,
    Summand,
    generic_prioritary,
    stable_presentation,
)
from .errors import (
    DepthExhaustedError,
    InternalInconsistencyError,
    NoPrioritarySheafError,
    NotCoveredError,
    ParseError,
    PrioritaireError,
)
from .exceptional import (
    Dyadic,
    ExceptionalBundle,
    compose,
    dyadic_of,
    from_dyadic,
    from_slope,
    locate_exceptional,
    locate_many,
    max_depth_default,
    parse_dyadic,
)
from .frontier import (
    Region,
    RegionTag,
    classify,
    delta,
    delta_many,
    delta_prime,
    prioritary_exists,
    semistable_exists,
)
from .helix import (
    ExtDims,
    Triad,
    TriState,
    children,
    enumerate_to_level,
    ext_dims,
    is_prioritary_sum,
    iterate_triads,
    left_series,
    locate_triangle,
    right_series,
    root,
)
from .render import tile_csv, tile_svg
from .selfcheck import CheckResult, run_selfcheck
from .surd import QuadSurd, compare_sqrt_sum, decimal_str

__version__ = "0.1.0"

__all__ = [
    "ChernCharacter",
    "ChernData",
    "CheckResult",
    "Decomposition",
    "DepthExhaustedError",
    "Dyadic",
    "ExceptionalBundle",
    "ExtDims",
    "InternalInconsistencyError",
    "NoPrioritarySheafError",
    "NotCoveredError",
    "ParseError",
    "PresentationReport",
    "PrioritaireError",
    "QuadSurd",
    "Region",
    "RegionTag",
    "Summand",
    "TriState",
    "Triad",
    "character_pairing",
    "children",
    "classify",
    "compare_sqrt_sum",
    "compose",
    "decimal_str",
    "delta",
    "delta_many",
    "delta_prime",
    "dual",
    "dyadic_of",
    "enumerate_to_level",
    "euler_char",
    "euler_pairing",
    "ext_dims",
    "from_dyadic",
    "from_slope",
    "generic_prioritary",
    "hirzebruch_p",
    "is_prioritary_sum",
    "iterate_triads",
    "left_series",
    "locate_exceptional",
    "locate_many",
    "locate_triangle",
    "max_depth_default",
    "normalize",
    "parse_dyadic",
    "prioritary_exists",
    "right_series",
    "root",
    "run_selfcheck",
    "semistable_exists",
    "stable_presentation",
    "tile_csv",
    "tile_svg",
    "twist",
    "__version__",
]
