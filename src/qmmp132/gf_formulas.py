"""Closed-form generating functions for match-count distributions.

Every function here produces the truncated series

    sum_{n >= 0} Q_n(x) t^n,

where Q_n(x) is the distribution polynomial of the quadrant-pattern
statistic over 132-avoiding permutations of length n, for one *shape*
of all-natural pattern.  A shape is the set of coordinates of
(a, b, c, d) that are allowed to be nonzero, named by the quadrants
they bound:

    q1 = a  (points above-right),   q2 = b  (points above-left),
    q3 = c  (points below-left),    q4 = d  (points below-right).

Each shape has its own functional identity expressing the series in
terms of series for strictly smaller patterns, bottoming out at Catalan
series, at the quadratic fixed point for (0, 0, c, 0), or at the
structural recursion for the two single-quadrant shapes (0, b, 0, 0)
and (0, 0, 0, d), which have no closed form of their own.

The identities come from the same block decomposition that powers the
structural recursion: writing an avoider as A n B (A above B, both
avoiders), classifying the position i of the maximum by which bounds
saturate, and translating each regime into a product of smaller series.
Short runs of Catalan partial sums appear whenever a regime forces the
leading block to be unconstrained.

`dispatch` routes an arbitrary all-natural pattern to the right shape
function, first reflecting (a, b, c, d) -> (a, d, c, b) when that maps
the shape onto an implemented one (reflection corresponds to inverting
the permutation, which swaps quadrants II and IV and preserves the
distribution), and falling back to the structural recursion for the two
shapes without formulas.  There is one cache, at `dispatch`: each series
is stored under (reflected pattern, order), and a reflected request's own
key points at the same series.  The shape functions are plain formulas
that fetch their sub-series through `dispatch`.

Everything is exact integer arithmetic; results agree coefficient by
coefficient with the enumeration and recursion engines and are
cross-checked against them in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .dist_engine import q_series_recursive
from .mmp_stat import natural_pattern, swap_b_d
from .perm_core import catalan
from .poly_series import (
    TSeries,
    XPoly,
    catalan_partial_sum,
    catalan_xt_series,
    solve_q00k0,
)

__all__ = [
    "GfRequest",
    "Route",
    "choose_route",
    "clear_gf_cache",
    "dispatch",
    "q_poly_gf",
    "series_q1",
    "series_q3",
    "series_q13",
    "series_q14",
    "series_q23",
    "series_q24",
    "series_q123",
    "series_q234",
    "series_q124",
    "series_q1234",
]


class Route(Enum):
    """Which formula (or fallback) computes a given pattern shape."""

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
    ENGINE = "engine"  # (0, b, 0, 0) / (0, 0, 0, d): structural recursion


@dataclass(frozen=True)
class GfRequest:
    """A routed request: which series to build, how, and to what order.

    ``pattern`` is the canonical pattern: the request reflected when its
    own shape has no formula, which is also the key `dispatch` caches
    under.  ``args`` are the positional arguments for the shape function
    (the nonzero bounds of ``pattern``); for ``Route.ENGINE`` it is the
    full four-tuple handed to the structural recursion.
    """

    pattern: tuple[int, int, int, int]
    order: int
    route: Route
    args: tuple[int, ...]

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be >= 0")


# nonzero coordinates of (a, b, c, d) -> (route, coordinates passed to it);
# the three shapes missing here are served by their reflection
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
    (3,): (Route.ENGINE, (0, 1, 2, 3)),
}

_cache: dict[tuple[tuple[int, int, int, int], int], TSeries] = {}


def clear_gf_cache() -> None:
    """Drop all cached series (mainly for timing measurements)."""
    _cache.clear()


def choose_route(pattern, order: int) -> GfRequest:
    """Classify a pattern by its zero-shape and pick the formula for it.

    Reflection (a, b, c, d) -> (a, d, c, b) is applied exactly when the
    original shape has no formula but the reflected one does.
    """
    pat = natural_pattern(pattern)
    shape = tuple(i for i, v in enumerate(pat) if v)
    if shape not in _SHAPES:
        pat = swap_b_d(pat)
        shape = tuple(i for i, v in enumerate(pat) if v)
    route, coords = _SHAPES[shape]
    return GfRequest(pat, order, route, tuple(pat[i] for i in coords))


def dispatch(pattern, order: int) -> TSeries:
    """Series of the given order for any all-natural pattern.

    Routing: single formula per shape, reflection where needed, and the
    structural recursion for (0, b, 0, 0) / (0, 0, 0, d).  The formula
    route's only cache lives here.  Each series is computed once, under
    (reflected pattern, order); a reflected request also keeps its own
    key, pointing at that same series, so a repeat skips the routing.
    """
    asked = (natural_pattern(pattern), order)
    out = _cache.get(asked)
    if out is not None:
        return out
    req = choose_route(asked[0], order)
    key = (req.pattern, order)
    out = _cache.get(key)
    if out is None:
        if req.route is Route.ENGINE:
            out = q_series_recursive(req.args, order)
        else:
            out = _ROUTE_FN[req.route](*req.args, order)
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
    if n < 0:
        raise ValueError("n must be >= 0")
    return dispatch(pattern, n).coeff(n)


def _require_positive(**bounds: int) -> None:
    for name, v in bounds.items():
        if isinstance(v, bool) or not isinstance(v, int) or v < 1:
            raise ValueError(f"{name} must be a positive int, got {v!r}")


def series_q1(k: int, order: int) -> TSeries:
    """Series for pattern (k, 0, 0, 0): at least k points above-right.

    k = 0 gives the x-marked Catalan series (every position matches);
    otherwise 1 / (1 - t * S_{k-1}) where S_{k-1} is the series one
    step down, reflecting that only the block left of the maximum can
    see the maximum in its first quadrant.
    """
    if isinstance(k, bool) or not isinstance(k, int) or k < 0:
        raise ValueError(f"k must be a non-negative int, got {k!r}")
    if k == 0:
        return catalan_xt_series(order)
    sub = dispatch((k - 1, 0, 0, 0), order)
    one = TSeries.one(order)
    return (one - sub.shift(1)).reciprocal()


def series_q3(k: int, order: int) -> TSeries:
    """Series for pattern (0, 0, k, 0): at least k points below-left.

    Unique solution with constant term 1 of the quadratic fixed point
    t*x*Q^2 - (1 + (t*x - t)*S)*Q + 1 = 0, S the Catalan partial sum
    through t^{k-1}.
    """
    _require_positive(k=k)
    return solve_q00k0(k, order)


def series_q13(k: int, m: int, order: int) -> TSeries:
    """Series for (k, 0, m, 0): bounds on both main-diagonal quadrants.

    Same continued-fraction step as the single-quadrant q1 case, taken
    over the (k-1, 0, m, 0) series and bottoming at (0, 0, m, 0).
    """
    _require_positive(k=k, m=m)
    sub = dispatch((k - 1, 0, m, 0), order)
    one = TSeries.one(order)
    return (one - sub.shift(1)).reciprocal()


def series_q14(k: int, m: int, order: int) -> TSeries:
    """Series for (k, 0, 0, m): bounds on both right-side quadrants.

    Positions right of the maximum lose one from the q1 bound; the tail
    regime where the q4 bound also decays produces the j-sum with
    Catalan partial-sum corrections.
    """
    _require_positive(k=k, m=m)
    one = TSeries.one(order)
    base = dispatch((k - 1, 0, 0, 0), order)
    denom = one - base.shift(1)
    num = TSeries.t_power(m, order, catalan(m))
    for j in range(m):
        tail = dispatch((k - 1, 0, 0, m - j), order)
        inner = denom + (tail - catalan_partial_sum(m - j - 1, order)).shift(1)
        num = num + inner.shift(j).scale(catalan(j))
    return num * denom.reciprocal()


def series_q23(k: int, m: int, order: int) -> TSeries:
    """Series for (0, k, m, 0): bounds on both left-side quadrants.

    Blocks left of the maximum keep the full pattern (they sit above
    everything to their right), so the identity divides out the
    self-referential part and sums over the head positions where the
    q2 bound is still decaying.
    """
    _require_positive(k=k, m=m)
    one = TSeries.one(order)
    qc = dispatch((0, 0, m, 0), order)
    denom = one - qc.shift(1)
    num = TSeries.t_power(k - 1, order, catalan(k - 1))
    for j in range(k - 1):
        head = dispatch((0, k - j - 1, m, 0), order)
        inner = denom + (head - catalan_partial_sum(k - j - 2, order)).shift(1)
        num = num + inner.shift(j).scale(catalan(j))
    return num * denom.reciprocal()


def series_q24(k: int, m: int, order: int) -> TSeries:
    """Series for (0, k, 0, m): bounds on both anti-diagonal quadrants.

    Three regimes for the position of the maximum: an initial run where
    the q2 bound decays (k-reducing sum), a middle regime splitting
    into independent (0, k, 0, 0) x (0, 0, 0, m) factors, and a final
    run where the q4 bound decays (m-reducing sum).  The middle regime
    references the pattern itself, which the 1/(1 - t) factor resolves.
    """
    _require_positive(k=k, m=m)
    one = TSeries.one(order)
    phi = catalan_partial_sum(k + m - 1, order) - catalan_partial_sum(
        k + m - 2, order
    ).shift(1)
    for j in range(k - 1):
        head = dispatch((0, k - 1 - j, 0, m), order)
        inner = head - catalan_partial_sum(k + m - j - 2, order)
        phi = phi + inner.shift(j + 1).scale(catalan(j))
    left = dispatch((0, k, 0, 0), order) - catalan_partial_sum(k - 2, order)
    right = dispatch((0, 0, 0, m), order) - catalan_partial_sum(m - 1, order)
    phi = phi + (left * right).shift(1)
    for j in range(1, m):
        tail = dispatch((0, k, 0, m - j), order)
        inner = tail - catalan_partial_sum(k + m - j - 2, order)
        phi = phi + inner.shift(j + 1).scale(catalan(j))
    t = TSeries.t_power(1, order)
    return phi * (one - t).reciprocal()


def series_q123(k: int, el: int, m: int, order: int) -> TSeries:
    """Series for (k, el, m, 0): everything but the below-right quadrant.

    The maximum splits the pattern into a (k, 0, m, 0) factor on its
    right and a q2-reduced copy on its left; the s-sum covers head
    positions where the q2 bound is still decaying.
    """
    _require_positive(k=k, el=el, m=m)
    one = TSeries.one(order)
    right = dispatch((k, 0, m, 0), order)
    out = TSeries.t_power(el - 1, order, catalan(el - 1))
    out = out + (right * dispatch((k - 1, el, m, 0), order)).shift(1)
    for s in range(el - 1):
        inner = (
            one
            + dispatch((k, el - 1 - s, m, 0), order).shift(1)
            - right.shift(1)
            - catalan_partial_sum(el - 2 - s, order).shift(1)
        )
        out = out + inner.shift(s).scale(catalan(s))
    return out


def series_q234(k: int, el: int, m: int, order: int) -> TSeries:
    """Series for (0, k, el, m): everything but the above-right quadrant.

    Same three regimes as the anti-diagonal case, carried out with the
    below-left bound el riding along unchanged; the self-reference in
    the middle regime is again resolved by the 1/(1 - t) factor.
    """
    _require_positive(k=k, el=el, m=m)
    one = TSeries.one(order)
    inv = (one - TSeries.t_power(1, order)).reciprocal()
    out = catalan_partial_sum(k + m - 2, order) + TSeries.t_power(
        k + m - 1, order, catalan(k + m - 1)
    ) * inv
    acc = TSeries.zero(order)
    for i in range(k - 1):
        head = dispatch((0, k - 1 - i, el, m), order)
        inner = head - catalan_partial_sum(k - i + m - 2, order)
        acc = acc + inner.shift(i).scale(catalan(i))
    left = dispatch((0, k, el, 0), order) - catalan_partial_sum(k - 2, order)
    right = dispatch((0, 0, el, m), order) - catalan_partial_sum(m - 1, order)
    acc = acc + left * right
    for j in range(1, m):
        tail = dispatch((0, k, el, m - j), order)
        inner = tail - catalan_partial_sum(k + m - j - 2, order)
        acc = acc + inner.shift(j).scale(catalan(j))
    return out + acc.shift(1) * inv


def series_q124(el: int, k: int, m: int, order: int) -> TSeries:
    """Series for (el, k, 0, m): everything but the below-left quadrant.

    Recurses on the above-right bound el (each regime sees the maximum,
    so el drops by one in the left factor), bottoming at the
    anti-diagonal shape; no self-reference, hence no 1/(1 - t).
    """
    _require_positive(el=el, k=k, m=m)
    out = catalan_partial_sum(k + m - 1, order)
    acc = TSeries.zero(order)
    for i in range(k - 1):
        head = dispatch((el, k - 1 - i, 0, m), order)
        inner = head - catalan_partial_sum(k - i + m - 2, order)
        acc = acc + inner.shift(i).scale(catalan(i))
    left = dispatch((el - 1, k, 0, 0), order) - catalan_partial_sum(k - 2, order)
    right = dispatch((el, 0, 0, m), order) - catalan_partial_sum(m - 1, order)
    acc = acc + left * right
    for j in range(m):
        tail = dispatch((el - 1, k, 0, m - j), order)
        inner = tail - catalan_partial_sum(k + m - j - 2, order)
        acc = acc + inner.shift(j).scale(catalan(j))
    return out + acc.shift(1)


def series_q1234(a: int, b: int, c: int, d: int, order: int) -> TSeries:
    """Series for (a, b, c, d) with all four bounds active.

    The most general identity: recurses on the above-right bound a and
    the above-left bound b, with the below-left bound c riding along,
    bottoming at the three-quadrant shapes.
    """
    _require_positive(a=a, b=b, c=c, d=d)
    out = catalan_partial_sum(b + d - 1, order)
    acc = TSeries.zero(order)
    for i in range(b - 1):
        head = dispatch((a, b - 1 - i, c, d), order)
        inner = head - catalan_partial_sum(b - i + d - 2, order)
        acc = acc + inner.shift(i).scale(catalan(i))
    left = dispatch((a - 1, b, c, 0), order) - catalan_partial_sum(b - 2, order)
    right = dispatch((a, 0, c, d), order) - catalan_partial_sum(d - 1, order)
    acc = acc + left * right
    for j in range(d):
        tail = dispatch((a - 1, b, c, d - j), order)
        inner = tail - catalan_partial_sum(b + d - j - 2, order)
        acc = acc + inner.shift(j).scale(catalan(j))
    return out + acc.shift(1)


# Route -> shape function, read by dispatch at call time
_ROUTE_FN = {
    Route.Q1: series_q1,
    Route.Q3: series_q3,
    Route.Q13: series_q13,
    Route.Q14: series_q14,
    Route.Q23: series_q23,
    Route.Q24: series_q24,
    Route.Q123: series_q123,
    Route.Q234: series_q234,
    Route.Q124: series_q124,
    Route.Q1234: series_q1234,
}
