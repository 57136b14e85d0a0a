"""Distribution of quadrant marked mesh pattern matches over S_n(132).

For a pattern of quadrant bounds (a, b, c, d), the polynomial

    Q_n(x) = sum over sigma in S_n(132) of x^(number of matching positions)

is computed three independent ways: brute-force enumeration, a memoized
structural recursion on the position of the maximal value, and closed
generating-function formulas.  All arithmetic is exact.
"""

from .perm_core import (
    DEFAULT_ENUM_CAP,
    ResourceLimitError,
    avoids_132,
    catalan,
    contains_classical,
    gen_avoiders,
    inverse,
    parse_perm,
    format_perm,
    reduce_word,
)
from .mmp_stat import (
    EMPTY,
    make_pattern,
    parse_pattern,
    format_pattern,
    matches_at,
    mmp_count,
    quadrant_counts,
    swap_b_d,
)
from .poly_series import (
    TSeries,
    XPoly,
    catalan_series,
    catalan_xt_series,
    solve_q00k0,
)
from .dist_engine import (
    q_poly_bruteforce,
    q_poly_recursive,
    q_series_recursive,
)
from .gf_formulas import Route, choose_route, dispatch, q_poly_gf
from .analysis import (
    avoidance_sequence,
    check_closed_forms,
    classical_equivalence_check,
    cross_validate,
    default_registry,
    export_sequence,
    top_coeff_report,
)

__all__ = [
    "DEFAULT_ENUM_CAP",
    "ResourceLimitError",
    "avoids_132",
    "catalan",
    "contains_classical",
    "gen_avoiders",
    "inverse",
    "parse_perm",
    "format_perm",
    "reduce_word",
    "EMPTY",
    "make_pattern",
    "parse_pattern",
    "format_pattern",
    "matches_at",
    "mmp_count",
    "swap_b_d",
    "quadrant_counts",
    "TSeries",
    "XPoly",
    "catalan_series",
    "catalan_xt_series",
    "solve_q00k0",
    "q_poly_bruteforce",
    "q_poly_recursive",
    "q_series_recursive",
    "Route",
    "choose_route",
    "dispatch",
    "q_poly_gf",
    "avoidance_sequence",
    "check_closed_forms",
    "classical_equivalence_check",
    "cross_validate",
    "default_registry",
    "export_sequence",
    "top_coeff_report",
]
