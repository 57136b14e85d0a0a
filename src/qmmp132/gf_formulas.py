"""Closed-form generating functions for match-count distributions.

Every function here produces the truncated series

    sum_{n >= 0} Q_n(x) t^n,

where Q_n(x) is the distribution polynomial of the quadrant-pattern
statistic over 132-avoiding permutations of length n, for an
all-natural pattern (a, b, c, d).  The bounds are named by the
quadrants they bound:

    q1 = a  (points above-right),   q2 = b  (points above-left),
    q3 = c  (points below-left),    q4 = d  (points below-right).

All of them come from one identity, the block decomposition that also
powers the structural recursion: writing an avoider as A n B (A above
B, both avoiders), the position of the maximum falls into a head
regime where A is too short to reach the b bound, a tail regime where
B is too short to reach the d bound, and a middle regime where the
series splits into two independent factors.  Each regime is a product
of series for sub-patterns; Catalan partial sums appear wherever a
regime forces a block to be unconstrained.  `block_series` evaluates
the identity for any pattern.  At most one of its sub-patterns is the
pattern itself, and its coefficient is moved to the left side, so the
identity solves for the pattern's own series; which sub-pattern that is
depends only on which bounds are zero.  Apart from the one product and
the one division, the identity is sums of shifted, scaled series and
Catalan partial sums: each such sum, the numerator above all, is one
`linear_combination`, packed in one pass at one width.  At a = b = 0
the maximum can match, and (0, 0, c, 0) bottoms out at the x-marked
Catalan series or, for c >= 1, at the quadratic fixed point of
`solve_q00k0`.

The single-quadrant shapes are no exception: (0, b, 0, 0) has its own
identity, and (0, 0, 0, d) is computed as its reflection, so no series
here comes from the structural recursion.

`dispatch` clamps every bound to the order, reflects (a, b, c, d) ->
(a, d, c, b) when the zero-shape has no `Route` of its own or when
0 < d < b (reflection corresponds to inverting the permutation, which
swaps quadrants II and IV and preserves the distribution), and hands
the pattern to `block_series`.  Bounds that sum to the order or more
leave no match up to it, and get the Catalan series without it.  There
is one cache, at `dispatch`: each series is stored under (reflected
pattern, order), and a reflected request's own key points at the same
series.  Before it is stored, each t^n coefficient is checked to sum to
C_n (`TSeries.distribution`), which also sets the series' carried
bounds to those counts.  `block_series` fetches its sub-series through
`dispatch`.

Everything is exact integer arithmetic; results agree coefficient by
coefficient with the enumeration and recursion engines and are
cross-checked against them in the test suite.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

# not called here; the benchmark's self-tests check that this name is bound
from .dist_engine import q_series_recursive
from .mmp_stat import natural_pattern, swap_b_d
from .perm_core import catalans
from .poly_series import (
    TSeries,
    XPoly,
    catalan_series,
    catalan_xt_series,
    linear_combination,
    solve_q00k0,
)

__all__ = [
    "GfRequest",
    "Route",
    "choose_route",
    "clear_gf_cache",
    "dispatch",
    "block_series",
    "q_poly_gf",
]


class Route(Enum):
    """Which zero-shape a pattern has, and so how `dispatch` serves it."""

    Q1 = "q1"  # (a, 0, 0, 0)
    Q3 = "q3"  # (0, 0, c, 0)
    Q13 = "q13"  # (a, 0, c, 0)
    Q14 = "q14"  # (a, 0, 0, d)
    Q23 = "q23"  # (0, b, c, 0)
    Q24 = "q24"  # (0, b, 0, d)
    Q123 = "q123"  # (a, b, c, 0)
    Q234 = "q234"  # (0, b, c, d)
    Q124 = "q124"  # (a, b, 0, d)
    Q1234 = "q1234"  # all four nonzero
    ENGINE = "engine"  # (0, b, 0, 0); the benchmark tracer reads it


class GfRequest(NamedTuple):
    """A routed request: which series to build, how, and to what order.

    ``pattern`` is the canonical pattern: the request clamped to the
    order, then reflected when its shape has no route or 0 < d < b (see
    `choose_route`), which is also the key `dispatch` caches under and
    what `block_series` is given.  ``args`` holds the nonzero bounds of
    ``pattern`` (the full four-tuple for ``Route.ENGINE``); the package
    does not read it, and it stays because the benchmark's span tracer
    labels requests by it.

    A named tuple, so defining it imports nothing beyond ``typing``, which
    the package loads anyway: it is immutable, and it equals the plain
    tuple of its fields.
    """

    pattern: tuple[int, int, int, int]
    order: int
    route: Route
    args: tuple[int, ...]


# nonzero coordinates of (a, b, c, d) -> (route, coordinates in args);
# the four shapes missing here are served by their reflection
_SHAPES: dict[tuple[int, ...], tuple[Route, tuple[int, ...]]] = {
    (): (Route.Q1, (0,)),
    (0,): (Route.Q1, (0,)),
    (2,): (Route.Q3, (2,)),
    (0, 2): (Route.Q13, (0, 2)),
    (0, 3): (Route.Q14, (0, 3)),
    (1, 2): (Route.Q23, (1, 2)),
    (1, 3): (Route.Q24, (1, 3)),
    (0, 1, 2): (Route.Q123, (0, 1, 2)),
    (1, 2, 3): (Route.Q234, (1, 2, 3)),
    (0, 1, 3): (Route.Q124, (0, 1, 3)),
    (0, 1, 2, 3): (Route.Q1234, (0, 1, 2, 3)),
    (1,): (Route.ENGINE, (0, 1, 2, 3)),
}

_cache: dict[tuple[tuple[int, int, int, int], int], TSeries] = {}


def clear_gf_cache() -> None:
    """Drop all cached series (mainly for timing measurements)."""
    _cache.clear()


def choose_route(pattern, order: int) -> GfRequest:
    """Classify a pattern by its zero-shape and pick the route for it.

    Bounds are clamped to the order first, as in `dispatch`.  Reflection
    (a, b, c, d) -> (a, d, c, b) is then applied exactly when the shape
    has no route but the reflected one does, or when 0 < d < b; so
    b <= d whenever both are nonzero, and a distribution and its
    reflection share one key.
    """
    return _route(natural_pattern(pattern, order), order)


def _route(pat, order: int) -> GfRequest:
    """`choose_route` for a pattern already checked and clamped."""
    shape = tuple(i for i, v in enumerate(pat) if v)
    if shape not in _SHAPES or 0 < pat[3] < pat[1]:
        pat = swap_b_d(pat)
        shape = tuple(i for i, v in enumerate(pat) if v)
    route, coords = _SHAPES[shape]
    return GfRequest(pat, order, route, tuple(pat[i] for i in coords))


def dispatch(pattern, order: int) -> TSeries:
    """Series of the given order for any all-natural pattern.

    Every shape goes to `block_series`, reflected first where
    `choose_route` canonicalises it.  Bounds are first clamped to
    the order: every bound of N or more is equally unsatisfiable up to
    t^N.  A match needs a + b + c + d other points, one set per quadrant,
    so a length-n position has at most n - 1 of them; when the clamped
    bounds sum to N or more no length up to N has a match, and the series
    stored is the Catalan series C(t), built without `block_series`.  The
    formula route's only cache lives here.  Each series is computed once,
    under (reflected pattern, order); a reflected request also keeps its
    own key, pointing at that same series, so a repeat skips the routing.
    The pattern and order are checked once, here: the bodies of
    `choose_route` and `block_series` that this calls check nothing again.
    """
    asked = (natural_pattern(pattern, order), order)
    out = _cache.get(asked)
    if out is not None:
        return out
    req = _route(asked[0], order)
    key = (req.pattern, order)
    out = _cache.get(key)
    if out is None:
        if sum(req.pattern) >= order:  # no position of length <= order matches
            out = catalan_series(order)
        else:
            out = _block_series(req.pattern, order)
        # the coefficients of Q_n are counts summing to C_n: checked, and
        # from here on they bound the series' norms
        out = out.distribution()
        _cache[key] = out
    _cache[asked] = out
    return out


def q_poly_gf(n: int, pattern) -> XPoly:
    """Distribution polynomial for length n via the formula route.

    >>> print(q_poly_gf(6, (1, 1, 1, 1)))
    99+29x+4x^2
    >>> choose_route((1, 0, 1, 1), 6).route.value  # reflected to (1,1,1,0)
    'q123'
    """
    return dispatch(pattern, n).coeff(n)


def block_series(pattern, order: int) -> TSeries:
    """Series for any all-natural pattern, from the block identity.

    Write an avoider as A n B with i = |A| and m = |B|.  A point of A has
    n above-right and B below-right, a point of B has n and A above-left,
    so A is matched against (a', b, c, d - m) and B against
    (a, b - i - 1, c, d), where a' = max(a - 1, 0) and a negative bound
    counts as 0.  With S_j the Catalan partial sum through t^j (zero for
    j < 0) and a + b >= 1, so that n itself never matches:

        Q = 1 + t (H + T + M),
        H = sum_{k <= b-2} C_k t^k Q(a, b-k-1, c, d),
        T = sum_{r <= d-1} C_r t^r (Q(a', b, c, d-r) - S_{b-2}),
        M = (Q(a', b, c, 0) - S_{b-2}) (Q(a, 0, c, d) - S_{d-1}).

    H covers every i <= b - 2, where A is too short to match; T and M
    cover the rest, T where B is too short to match.  At most one
    sub-pattern is the pattern itself: (a', b, c, d) at r = 0 when a = 0,
    (a', b, c, 0) when a = d = 0, or (a, 0, c, d) when b = 0.  Its term
    is lam (Q - S), with S = S_{b-2}, S_{b-2} or S_{d-1} respectively;
    with K the other terms, Q = (1 + t K - t lam S) / (1 - t lam), which
    costs one series division.

    The numerator 1 + t K - t lam S is built in one packed pass, by
    `linear_combination`: each head and tail series, the partial sums
    the tails subtract, the product M and each S_j t^(j+1) lam are terms
    c t^k u.
    Their norm bounds are summed first, into one bound list, and fix the
    width L = max(W_N, width(largest bound), every term's width); each
    sub-series from `dispatch` is at W_N, so L is W_N unless the bounds
    or M need more.  Each term is then read once at L and added, scaled
    and shifted, into one coefficient list.  The left and right factors
    of M and the denominator 1 - t lam are built the same way.

    The product M and the division take count bounds that the identity
    proves, so neither runs a second O(N^2) pass on norm bounds (a
    convolution for M, a majorant for the quotient) only to pick a width:

    * a match needs a + b + c + d other points, so Q(a, b, c, d)_j = C_j,
      x-free, for every j <= b and every j <= d.  S_{b-2} and S_{d-1}
      therefore remove exactly these coefficients, and each of
      Q(a', b, c, 0) - S_{b-2} and Q(a, 0, c, d) - S_{d-1} has, at t^j,
      either 0 or Q_j, whose coefficients are counts summing to C_j:
      nonnegative, with 1-norm at most C_j;
    * so |M_n|_1 <= sum_i C_i C_{n-i} = C_{n+1}, and the quotient Q has
      |Q_n|_1 = C_n, the sum that `distribution` checks.

    Both are below C_{N+2}, so the width stays W_N.  The packed arithmetic
    is exact at any width, so the bounds only decide the read-back, and
    `dispatch` checks every result's sums (`TSeries.distribution`).

    At a = b = 0, (0, 0, c, 0) is the x-marked Catalan series when c = 0,
    else the quadratic fixed point of `solve_q00k0`; (0, 0, c, d) with
    d >= 1 is computed as its reflection (0, d, c, 0).  The pattern is
    clamped to the order and reflected first, as in `dispatch`.

    The identity proves Q(1, 0, c, e-1) = Q(0, 0, c, e) for every e >= 1.
    Let B = Q(0, 0, c, 0) and K = sum_{r <= e-2} C_r t^r Q(0, 0, c, e-1-r).
    For P1 = (0, e, c, 0), T is empty, M = (Q(P1) - S_{e-2}) B, and H is K
    once each Q(0, j, c, 0) is reflected to Q(0, 0, c, j).  For
    P2 = (1, 0, c, e-1), H is empty, T is K and M = B (Q(P2) - S_{e-2}).
    So both solve X = 1 + t (K + B (X - S_{e-2})), whose one solution is
    (1 + t K - t B S_{e-2}) / (1 - t B), and Q(P2) = Q(P1) = Q(0, 0, c, e)
    at every length.  The recursion's memo shares rows by this equality
    (see `dist_engine`); `dispatch` and brute force do not use it, so each
    stays an independent check of it.

    >>> print(block_series((1, 0, 1, 0), 4).coeff(4))
    8+5x+x^2
    >>> print(block_series((2, 0, 0, 1), 5).coeff(5))
    23+13x+6x^2
    """
    return _block_series(_route(natural_pattern(pattern, order), order).pattern, order)


def _block_series(pat, order: int) -> TSeries:
    """`block_series` for a pattern already checked, clamped and reflected."""
    a, b, c, d = pat
    if a + b == 0:
        return solve_q00k0(c, order) if c else catalan_xt_series(order)
    a1 = max(a - 1, 0)
    cats = catalans(order + 1)  # C_0 .. C_{N+1}, every Catalan number read here
    s_b = cats[: max(b - 1, 0)]  # S_{b-2}
    s_d = cats[:d]  # S_{d-1}
    # the numerator 1 + t K - t lam S, or 1 + t (H + T + M) when nothing
    # divides, as terms (c, k, u), each c t^k u
    num = [(1, 0, (1,))]
    for k in range(b - 1):
        num.append((cats[k], k + 1, dispatch((a, b - k - 1, c, d), order)))
    lam = None
    for r in range(d):
        if a == r == 0:  # Q(a', b, c, d) is the pattern: lam = 1, - t S stays
            lam = (1,)
        else:
            num.append((cats[r], r + 1, dispatch((a1, b, c, d - r), order)))
        num.append((-cats[r], r + 1, s_b))
    if a == d == 0 or b == 0:  # a factor of M is the pattern: M = lam (Q - S)
        lam = dispatch((a1, 0, c, 0), order)  # the other factor; a1 = 0 if a = 0
        s = s_d if b == 0 else s_b
        num += [(-sj, j + 1, lam) for j, sj in enumerate(s)]
    else:
        left = dispatch((a1, b, c, 0), order)
        left = linear_combination(order, [(1, 0, left), (-1, 0, s_b)])
        right = dispatch((a, 0, c, d), order)
        right = linear_combination(order, [(1, 0, right), (-1, 0, s_d)])
        # the proven bound |M_n|_1 <= C_{n+1} (see block_series)
        num.append((1, 1, left.__mul__(right, cats[1:])))
    if lam is None:
        return linear_combination(order, num)
    den = linear_combination(order, [(1, 0, (1,)), (-1, 1, lam)])
    # the proven bound |Q_n|_1 = C_n (see block_series)
    return den.reciprocal(linear_combination(order, num), cats[:-1])
