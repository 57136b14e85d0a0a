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
B, both avoiders), the position i of the maximum falls into a head
regime where the b bound of the right factor is still decaying, a
middle regime where both truncations are spent and the series splits
into two independent factors, and a tail regime where the d bound of
the left factor is still decaying.  Each regime becomes a product of
series for strictly smaller patterns; short runs of Catalan partial
sums appear wherever a regime forces a block to be unconstrained.

Which regimes exist depends only on which bounds are zero, so the
identity takes four forms, one function each:

* `series_q13`, (a, 0, c, 0): routes Q1, Q3, Q13.  Only the left block
  sees the maximum, giving 1 / (1 - t Q(a-1, 0, c, 0)); at a = 0 it
  bottoms out at the x-marked Catalan series or, for c >= 1, at the
  quadratic fixed point of `solve_q00k0`.
* `series_q23`, (0, b, c, 0) with b >= 1: route Q23.  Blocks left of
  the maximum keep the whole pattern, which the identity divides out.
* `series_q234`, (0, b, c, d) with b, d >= 1: routes Q24 and Q234.  The
  middle regime refers to the pattern itself, resolved by 1 / (1 - t).
* `series_q1234`, (a, b, c, d) with a >= 1 and b + d >= 1: routes Q14,
  Q123, Q124 and Q1234.  Every regime sees the maximum, so a drops by
  one in the left factor and nothing refers back to the pattern.  With
  b = 0 the middle regime's right factor (a, 0, c, d) would be the
  pattern itself, so such a pattern is computed as its reflection
  (a, d, c, 0), which has the same series.

The two single-quadrant shapes (0, b, 0, 0) and (0, 0, 0, d) go to the
structural recursion (`Route.ENGINE`).

`dispatch` routes an arbitrary all-natural pattern to its family,
first reflecting (a, b, c, d) -> (a, d, c, b) when the shape has no
route of its own (reflection corresponds to inverting the permutation,
which swaps quadrants II and IV and preserves the distribution).  There
is one cache, at `dispatch`: each series is stored under (reflected
pattern, order), and a reflected request's own key points at the same
series.  The family functions are plain formulas that fetch their
sub-series through `dispatch`.

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
    "series_q13",
    "series_q23",
    "series_q234",
    "series_q1234",
]


class Route(Enum):
    """Which zero-shape a pattern has, and so which family serves it."""

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
    own shape has no route, which is also the key `dispatch` caches
    under and what the family function is given.  ``args`` holds the
    nonzero bounds of ``pattern`` (the full four-tuple for
    ``Route.ENGINE``); the package does not read it, and it stays because
    the benchmark's span tracer labels requests by it.
    """

    pattern: tuple[int, int, int, int]
    order: int
    route: Route
    args: tuple[int, ...]

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be >= 0")


# nonzero coordinates of (a, b, c, d) -> (route, coordinates in args);
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
    """Classify a pattern by its zero-shape and pick the route for it.

    Reflection (a, b, c, d) -> (a, d, c, b) is applied exactly when the
    original shape has no route but the reflected one does.
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

    Routing: the family of the pattern's zero-shape, reflection where
    needed, and the structural recursion for (0, b, 0, 0) / (0, 0, 0, d).
    The formula route's only cache lives here.  Each series is computed
    once, under (reflected pattern, order); a reflected request also
    keeps its own key, pointing at that same series, so a repeat skips
    the routing.
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
            out = q_series_recursive(req.pattern, order)
        else:
            out = _ROUTE_FN[req.route](req.pattern, order)
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


def _family(pattern, form: str) -> tuple[int, int, int, int]:
    """The pattern, checked against a family's form: per bound ``0``
    (must be zero), ``+`` (must be positive) or ``*`` (any)."""
    pat = natural_pattern(pattern)
    for f, v in zip(form, pat):
        if (f == "0" and v) or (f == "+" and not v):
            raise ValueError(f"pattern {pat!r} is not of the form ({','.join(form)})")
    return pat


def series_q13(pattern, order: int) -> TSeries:
    """Series for (a, 0, c, 0): bounds on the two main-diagonal quadrants.

    Only the block left of the maximum can see the maximum in its first
    quadrant, so a >= 1 gives 1 / (1 - t * Q(a-1, 0, c, 0)).  At a = 0
    the series is the x-marked Catalan series when c = 0 (every position
    matches), else the unique solution with constant term 1 of the
    quadratic t*x*Q^2 - (1 + (t*x - t)*S)*Q + 1 = 0, S the Catalan
    partial sum through t^{c-1}.

    >>> print(series_q13((1, 0, 1, 0), 4).coeff(4))
    8+5x+x^2
    """
    a, _, c, _ = _family(pattern, "*0*0")
    if a == 0:
        return solve_q00k0(c, order) if c else catalan_xt_series(order)
    sub = dispatch((a - 1, 0, c, 0), order)
    return (TSeries.one(order) - sub.shift(1)).reciprocal()


def series_q23(pattern, order: int) -> TSeries:
    """Series for (0, b, c, 0), b >= 1: bounds on both left-side quadrants.

    Blocks left of the maximum keep the full pattern (they sit above
    everything to their right), so the identity divides out the
    self-referential part and sums over the head positions where the
    q2 bound is still decaying.
    """
    _, b, c, _ = _family(pattern, "0+*0")
    one = TSeries.one(order)
    qc = dispatch((0, 0, c, 0), order)
    denom = one - qc.shift(1)
    num = TSeries.t_power(b - 1, order, catalan(b - 1))
    for j in range(b - 1):
        head = dispatch((0, b - j - 1, c, 0), order)
        inner = denom + (head - catalan_partial_sum(b - j - 2, order)).shift(1)
        num = num + inner.shift(j).scale(catalan(j))
    return num * denom.reciprocal()


def series_q234(pattern, order: int) -> TSeries:
    """Series for (0, b, c, d), b, d >= 1: no above-right bound.

    Three regimes for the position of the maximum, with c riding along
    unchanged: a head run where the q2 bound decays (b-reducing sum), a
    middle regime splitting into independent (0, b, c, 0) x (0, 0, c, d)
    factors, and a tail run where the q4 bound decays (d-reducing sum).
    The middle regime references the pattern itself, which the
    1/(1 - t) factor resolves.
    """
    _, b, c, d = _family(pattern, "0+*+")
    phi = catalan_partial_sum(b + d - 1, order) - catalan_partial_sum(
        b + d - 2, order
    ).shift(1)
    for j in range(b - 1):
        head = dispatch((0, b - 1 - j, c, d), order)
        inner = head - catalan_partial_sum(b + d - j - 2, order)
        phi = phi + inner.shift(j + 1).scale(catalan(j))
    left = dispatch((0, b, c, 0), order) - catalan_partial_sum(b - 2, order)
    right = dispatch((0, 0, c, d), order) - catalan_partial_sum(d - 1, order)
    phi = phi + (left * right).shift(1)
    for j in range(1, d):
        tail = dispatch((0, b, c, d - j), order)
        inner = tail - catalan_partial_sum(b + d - j - 2, order)
        phi = phi + inner.shift(j + 1).scale(catalan(j))
    t = TSeries.t_power(1, order)
    return phi * (TSeries.one(order) - t).reciprocal()


def series_q1234(pattern, order: int) -> TSeries:
    """Series for (a, b, c, d), a >= 1 and b + d >= 1.

    The most general form: every regime sees the maximum, so the left
    factor drops a by one; the head sum reduces b and the tail sum
    reduces d, with c riding along.  A pattern with b = 0 is computed as
    its reflection (a, d, c, 0).

    >>> print(series_q1234((2, 0, 0, 1), 5).coeff(5))
    23+13x+6x^2
    """
    pat = natural_pattern(pattern)
    a, b, c, d = _family(pat if pat[1] else swap_b_d(pat), "++**")
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


# Route -> family function, read by dispatch at call time
_ROUTE_FN = {
    Route.Q1: series_q13,
    Route.Q3: series_q13,
    Route.Q13: series_q13,
    Route.Q23: series_q23,
    Route.Q24: series_q234,
    Route.Q234: series_q234,
    Route.Q14: series_q1234,
    Route.Q123: series_q1234,
    Route.Q124: series_q1234,
    Route.Q1234: series_q1234,
}
