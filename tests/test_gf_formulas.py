"""Generating-function routes: classification, formulas, cross-validation."""

from __future__ import annotations

import time
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import natural_patterns
from qmmp132 import (
    EMPTY,
    Route,
    XPoly,
    catalan,
    choose_route,
    dispatch,
    q_poly_bruteforce,
    q_poly_gf,
    q_poly_recursive,
)
from qmmp132.dist_engine import clear_recursion_memo, q_series_recursive
from qmmp132 import dist_engine, gf_formulas, mmp_stat, perm_core, poly_series
from qmmp132.gf_formulas import block_series, clear_gf_cache
from qmmp132.mmp_stat import swap_b_d
from qmmp132.poly_series import TSeries, linear_combination, solve_q00k0


# ---------------------------------------------------------------------------
# routing


def test_choose_route_direct_shapes():
    cases = {
        (0, 0, 0, 0): (Route.Q1, (0,)),
        (2, 0, 0, 0): (Route.Q1, (2,)),
        (0, 0, 3, 0): (Route.Q3, (3,)),
        (2, 0, 3, 0): (Route.Q13, (2, 3)),
        (2, 0, 0, 1): (Route.Q14, (2, 1)),
        (0, 2, 3, 0): (Route.Q23, (2, 3)),
        (0, 2, 0, 1): (Route.Q24, (1, 2)),
        (2, 1, 3, 0): (Route.Q123, (2, 1, 3)),
        (0, 2, 3, 1): (Route.Q234, (1, 3, 2)),
        (2, 1, 0, 3): (Route.Q124, (2, 1, 3)),
        (1, 2, 3, 4): (Route.Q1234, (1, 2, 3, 4)),
        (0, 2, 0, 0): (Route.ENGINE, (0, 2, 0, 0)),
    }
    reflected = {(0, 2, 0, 1), (0, 2, 3, 1)}  # 0 < d < b: keyed with b <= d
    for pat, (route, args) in cases.items():
        req = choose_route(pat, 6)
        assert (req.route, req.args) == (route, args), pat
        assert req.pattern == (swap_b_d(pat) if pat in reflected else pat)
        assert req.order == 6
        clear_gf_cache()
        dispatch(swap_b_d(pat), 20)  # each cold request builds each series once
        _assert_one_series_per_canonical_pattern(lambda p: choose_route(p, 20).pattern)


def test_choose_route_reflected_shapes():
    # these shapes have no formula of their own; the mirrored shape does
    assert choose_route((2, 1, 0, 0), 6).route is Route.Q14
    assert choose_route((2, 1, 0, 0), 6).args == (2, 1)
    assert choose_route((2, 1, 0, 0), 6).pattern == (2, 0, 0, 1)  # canonical
    assert choose_route((0, 0, 3, 1), 6).route is Route.Q23
    assert choose_route((0, 0, 3, 1), 6).args == (1, 3)
    assert choose_route((1, 0, 1, 1), 6).route is Route.Q123
    assert choose_route((1, 0, 1, 1), 6).args == (1, 1, 1)
    assert choose_route((0, 0, 0, 2), 6).route is Route.ENGINE
    assert choose_route((0, 0, 0, 2), 6).pattern == (0, 2, 0, 0)


def test_choose_route_validation():
    with pytest.raises(ValueError):
        choose_route((1, 0, 0), 5)
    with pytest.raises(ValueError):
        choose_route([1, 0, 0, 0], 5)
    with pytest.raises(ValueError):
        choose_route((1, EMPTY, 0, 0), 5)
    with pytest.raises(ValueError):
        choose_route((1, -1, 0, 0), 5)
    with pytest.raises(ValueError, match="length"):
        choose_route((1, 0, 0, 0), -1)


# ---------------------------------------------------------------------------
# every route against the structural recursion


def test_dispatch_matches_recursion_on_grid():
    for pat in natural_patterns(3):
        series = dispatch(pat, 12)
        engine = q_series_recursive(pat, 12)
        assert series == engine, pat


def test_each_formula_matches_recursion():
    # block_series called directly, over every way a sub-pattern can be
    # the pattern itself: none (a, b >= 1), the tail at r = 0 (a = 0,
    # d >= 1), the middle's left factor (a = d = 0) and its right factor
    # (b = 0, Q14 included); plus the a = b = 0 bottom and its reflection
    N = 20
    patterns = [
        (0, 0, 0, 0),
        (2, 0, 0, 0),
        (0, 0, 2, 0),
        (1, 0, 1, 0),
        (3, 0, 2, 0),
        (0, 0, 1, 2),
        (0, 0, 0, 3),
        (0, 1, 1, 0),
        (0, 2, 1, 0),
        (0, 1, 2, 0),
        (0, 2, 2, 0),
        # (0, b, 0, 0) is served by the recursion in dispatch
        *((0, b, 0, 0) for b in range(1, 6)),
        (0, 1, 0, 1),
        (0, 3, 0, 2),
        (0, 1, 1, 1),
        (0, 2, 1, 1),
        (0, 2, 2, 2),
        (1, 1, 1, 1),
        (2, 1, 1, 1),
        (1, 2, 2, 1),
        (1, 1, 0, 2),
        (2, 1, 0, 1),
        (1, 1, 2, 0),
        (2, 2, 0, 0),
        # Q14, computed without a detour through its reflection
        (2, 0, 0, 1),
        (1, 0, 0, 2),
        (3, 0, 0, 3),
        (1, 0, 2, 1),
    ]
    for pat in patterns:
        assert block_series(pat, N) == q_series_recursive(pat, N), pat


@settings(max_examples=40, deadline=None)
@given(st.tuples(*[st.integers(0, 4)] * 4), st.integers(0, 12))
@example((0, 0, 3, 2), 9)  # a = b = 0 with d >= 1: computed as its reflection
@example((1, 9, 0, 1), 4)  # a bound above the order
def test_block_series_matches_recursion(pat, order):
    assert block_series(pat, order) == q_series_recursive(pat, order)


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[st.integers(0, 4)] * 4), st.integers(0, 30))
@example((4, 4, 4, 4), 30)
@example((0, 4, 4, 4), 30)  # a = 0: the tail at r = 0 is the pattern itself
@example((2, 0, 3, 4), 30)  # b = 0: the right factor is the pattern itself
def test_block_series_carries_sound_bounds(pat, order):
    """The norm bound a series carries decides its packing width: it must
    bound its coefficients, and the width must hold it.  Read at that
    width, every t^n coefficient is counts summing to C_n."""
    s = block_series(pat, order)
    for n, (p, n1) in enumerate(zip(s.coeffs, s.n1)):
        cs = p.coeffs
        assert max(map(abs, cs), default=0) <= sum(map(abs, cs)) <= n1, n
        assert poly_series._width(n1) <= s.L, n
        assert min(cs) >= 0 and sum(cs) == catalan(n), n


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[st.integers(0, 4)] * 4), st.integers(0, 30))
@example((4, 4, 4, 4), 30)
@example((0, 4, 4, 4), 30)  # a = 0, d >= 1: the tail at r = 0 is divided out
@example((0, 4, 4, 0), 30)  # a = d = 0: the left factor is divided out
@example((2, 0, 3, 4), 30)  # b = 0: the right factor is divided out
def test_the_block_identity_bounds_hold(pat, order):
    """The bounds `block_series` gives its product and its division, checked
    on the series themselves: the factors of M, rebuilt from `dispatch` and
    read back at a width of their own, and the quotient Q, read back at the
    bounds the division gave it, are nonnegative with |.|_1 <= C_n at t^n,
    so |M_n|_1 <= C_{n+1}."""
    a, b, c, d = choose_route(pat, order).pattern
    cats = perm_core.catalans(order + 1)

    def minus(q, s):  # Q - S as a generic difference, with its own bounds
        return linear_combination(order, [(1, 0, q), (-1, 0, s)])

    def norms(s):
        assert all(min(p.coeffs, default=0) >= 0 for p in s.coeffs)
        return [sum(p.coeffs) for p in s.coeffs]

    s_b, s_d = cats[: max(b - 1, 0)], cats[:d]
    left = minus(dispatch((max(a - 1, 0), b, c, 0), order), s_b)
    right = minus(dispatch((a, 0, c, d), order), s_d)
    assert all(m <= cats[n] for n, m in enumerate(norms(left)))
    assert all(m <= cats[n] for n, m in enumerate(norms(right)))
    assert all(m <= cats[n + 1] for n, m in enumerate(norms(left * right)))
    if a + b and (a == 0 or b == 0):  # block_series divides: Q is its quotient
        quotient = block_series((a, b, c, d), order)  # read at its carried bounds
        assert all(m <= cats[n] for n, m in enumerate(norms(quotient)))


def test_block_series_runs_at_one_width(monkeypatch):
    """No product, division or linear combination that `block_series` makes
    needs more than W_N, `solve_q00k0` included, so the formula route runs
    at one width.  The cache stays warm across each order, as in a run of
    requests."""
    seen = []

    def watch(fn):
        def run(*args):
            out = fn(*args)
            seen.append((out.order, out.L))
            return out

        return run

    monkeypatch.setattr(TSeries, "__mul__", watch(TSeries.__mul__))
    monkeypatch.setattr(TSeries, "reciprocal", watch(TSeries.reciprocal))
    lc = gf_formulas.linear_combination
    monkeypatch.setattr(gf_formulas, "linear_combination", watch(lc))
    monkeypatch.setattr(poly_series, "linear_combination", watch(lc))
    clear_gf_cache()
    try:
        for hi, order in ((8, 20), (4, 40), (3, 60)):
            for pat in product(range(hi + 1), repeat=4):
                dispatch(pat, order)
    finally:
        clear_gf_cache()
    assert len(seen) > 13000
    assert all(L == poly_series._floor(N) for N, L in seen)


def test_high_order_formulas_match_recursion():
    # the recursion's top order: the count bound of solve_q00k0 rests on this
    for k in range(1, 9):
        assert solve_q00k0(k, 64) == q_series_recursive((0, 0, k, 0), 64), k
    assert dispatch((1, 1, 1, 1), 60) == q_series_recursive((1, 1, 1, 1), 60)
    # one pattern per zero-shape: every Route, and the three shapes that
    # only reflection reaches
    for size in range(1, 5):
        for shape in combinations(range(4), size):
            pat = tuple(2 - i % 2 if i in shape else 0 for i in range(4))
            assert dispatch(pat, 50) == q_series_recursive(pat, 50), pat


def test_cold_order_60_formula_route_is_fast():
    # guards the O(N^2) solve of the (0,0,c,0) quadratic: 2 s is about 10x
    # its measured time, and an O(N^3) fixed-point solve took 12 s on the
    # same 2-core x86 host
    clear_gf_cache()
    clear_recursion_memo()
    t0 = time.perf_counter()
    dispatch((1, 1, 1, 1), 60)
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0, f"cold (1,1,1,1) to order 60 took {elapsed:.2f}s"


def test_reflection_symmetry_of_dispatch():
    for pat in natural_patterns(2):
        assert dispatch(pat, 8) == dispatch(swap_b_d(pat), 8), pat


def test_the_block_identity_holds_on_dispatch():
    # Q(1, 0, c, e-1) = Q(0, 0, c, e), proved in block_series's docstring:
    # the formula route computes the two sides by different routes
    for c in range(5):
        for e in range(1, 7):
            assert dispatch((1, 0, c, e - 1), 40) == dispatch((0, 0, c, e), 40), (c, e)


@st.composite
def lengths_and_bounds(draw):
    """n <= 10 with bounds up to n + 3: zero, saturating and unsatisfiable."""
    n = draw(st.integers(0, 10))
    return n, tuple(draw(st.integers(0, n + 3)) for _ in range(4))


@settings(max_examples=40, deadline=None)
@given(lengths_and_bounds())
@example((1, (0, 0, 1, 5)))  # a bound two above the order: shift past the end
@example((4, (0, 6, 0, 0)))  # served by reflection
def test_three_engines_agree_on_random_inputs(case):
    n, pat = case
    q = q_poly_bruteforce(n, pat)
    assert q == q_poly_recursive(n, pat) == dispatch(pat, n).coeff(n)
    assert q == q_poly_bruteforce(n, swap_b_d(pat))
    assert q.eval_at(1) == catalan(n)


def test_every_route_starts_at_one_and_sums_to_catalan():
    representatives = [
        (0, 0, 0, 0),
        (2, 0, 0, 0),
        (0, 0, 2, 0),
        (2, 0, 1, 0),
        (1, 0, 0, 2),
        (0, 1, 2, 0),
        (0, 2, 0, 1),
        (1, 1, 2, 0),
        (0, 1, 2, 1),
        (2, 1, 0, 1),
        (1, 1, 1, 1),
        (0, 2, 0, 0),
        (0, 0, 0, 2),
    ]
    for pat in representatives:
        s = dispatch(pat, 8)
        assert s.coeff(0) == XPoly((1,))
        assert [p.eval_at(1) for p in s.coeffs] == [catalan(n) for n in range(9)]


# ---------------------------------------------------------------------------
# frozen distribution values


def test_frozen_coefficients():
    assert str(block_series((1, 1, 1, 0), 5).coeff(5)) == "28+12x+2x^2"
    assert str(block_series((1, 2, 1, 0), 5).coeff(5)) == "37+5x"
    assert str(block_series((0, 1, 1, 1), 4).coeff(4)) == "13+x"
    assert str(block_series((0, 1, 2, 1), 6).coeff(6)) == "113+17x+2x^2"
    assert str(block_series((0, 2, 2, 2), 8).coeff(8)) == "1328+94x+8x^2"
    assert str(block_series((1, 1, 0, 1), 4).coeff(4)) == "10+4x"
    assert str(block_series((2, 1, 0, 1), 5).coeff(5)) == "33+9x"
    assert str(block_series((1, 1, 1, 1), 5).coeff(5)) == "38+4x"
    assert str(block_series((3, 1, 1, 1), 7).coeff(7)) == "413+16x"
    assert str(dispatch((2, 1, 0, 2), 6).coeff(6)) == "105+27x"


def test_all_zero_pattern_is_catalan_in_xt():
    s = dispatch((0, 0, 0, 0), 6)
    for n in range(7):
        assert s.coeff(n) == XPoly((0,) * n + (catalan(n),))


# ---------------------------------------------------------------------------
# x = 0 columns against closed rational forms
#
# Setting x = 0 counts the avoiders with no matching position at all;
# every row below was cross-checked against the structural recursion
# before being frozen here.


def _expand(*factors: tuple[int, ...]) -> list[int]:
    """The product of polynomials in t given as coefficient tuples."""
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


X0_RATIONAL_FORMS = [
    ((1, 0, 0, 0), [1], [1, -1]),
    ((0, 1, 0, 0), [1], [1, -1]),
    ((1, 0, 1, 0), [1, -1], [1, -2]),
    ((2, 0, 1, 0), [1, -2], [1, -3, 1]),
    ((3, 0, 1, 0), [1, -3, 1], [1, -4, 3]),
    ((1, 0, 2, 0), [1, -1, -1], [1, -2, -1]),
    ((2, 0, 2, 0), [1, -2, -1], [1, -3, 0, 1]),
    ((1, 0, 0, 1), [1, -1, 1], _expand((1, -1), (1, -1))),
    ((0, 1, 0, 1), [1, -2, 2], _expand(*[(1, -1)] * 3)),
    ((1, 1, 0, 1), [1, -2, 2, 1], _expand(*[(1, -1)] * 3)),
    ((1, 1, 1, 0), [1, -3, 2, 1], _expand((1, -2), (1, -2))),
    ((2, 1, 1, 0), [1, -4, 4, 0, 1], [1, -5, 7, -2]),
    ((3, 1, 1, 0), [1, -5, 7, -2, 0, 1], [1, -6, 11, -6]),
    ((1, 1, 2, 0), [1, -3, 0, 3, 3, 1], _expand(*[(1, -2, -1)] * 2)),
    (
        (2, 1, 2, 0),
        [1, -4, 2, 4, 1, 2, 1],
        _expand((1, -2, -1), (1, -3, 0, 1)),
    ),
    ((0, 1, 1, 1), [1, -4, 5, -1], _expand((1, -2), (1, -2), (1, -1))),
    (
        (1, 1, 1, 1),
        [1, -6, 13, -11, 3, -2, 1],
        _expand((1, -1), *[(1, -2)] * 3),
    ),
]


@pytest.mark.parametrize("pat,num,den", X0_RATIONAL_FORMS, ids=lambda v: str(v))
def test_x0_rational_forms(pat, num, den):
    N = 14
    rational = TSeries(N, den).reciprocal(TSeries(N, num))
    assert TSeries(N, [p.coeff(0) for p in dispatch(pat, N).coeffs]) == rational


def test_match_free_counts_for_late_saturating_patterns():
    # (1,0,0,1) at x = 0 counts 1, 1, 2, 3, 4, ... (arithmetic from n = 2)
    s = dispatch((1, 0, 0, 1), 8)
    assert [p.coeff(0) for p in s.coeffs] == [1, 1, 2, 3, 4, 5, 6, 7, 8]
    # (0,1,0,1) grows quadratically: 1 + (n-1)(n-2)... cross-checked above
    s = dispatch((0, 1, 0, 1), 8)
    assert [p.coeff(0) for p in s.coeffs] == [1, 1, 2, 4, 7, 11, 16, 22, 29]


# ---------------------------------------------------------------------------
# plumbing


def test_formula_argument_validation():
    malformed = [(-1, 0, 0, 0), [1, 0, 0, 0], (0, True, 1, 0), (0, 1, 1), (1, 1, EMPTY, 1)]
    for pat in malformed:
        for fn in (block_series, dispatch):
            with pytest.raises(ValueError):
                fn(pat, 5)
    with pytest.raises(ValueError, match="length"):
        dispatch((1, 1, 1, 1), -1)


def test_q_poly_gf():
    assert str(q_poly_gf(6, (1, 1, 1, 1))) == "99+29x+4x^2"
    assert q_poly_gf(0, (1, 1, 1, 1)) == XPoly((1,))
    with pytest.raises(ValueError):
        q_poly_gf(-1, (1, 1, 1, 1))


def test_dispatch_cache_round_trip():
    clear_gf_cache()
    first = dispatch((1, 1, 1, 0), 7)
    assert dispatch((1, 1, 1, 0), 7) is first  # cache hit returns same object
    clear_gf_cache()
    again = dispatch((1, 1, 1, 0), 7)
    assert again == first
    clear_gf_cache()
    # a pattern and its reflection share one cache entry
    assert dispatch((2, 1, 0, 0), 10) is dispatch((2, 0, 0, 1), 10)


def test_dispatch_clamps_bounds_to_the_order():
    # any bound of N or more is unsatisfiable up to t^N; unclamped, the
    # b-reducing head sum recursed once per unit of b
    clear_gf_cache()
    assert dispatch((1, 600, 0, 1), 3) is dispatch((1, 3, 0, 1), 3)
    assert dispatch((1, 600, 0, 1), 3) == q_series_recursive((1, 600, 0, 1), 3)
    assert dispatch((9, 11, 0, 6), 8) == q_series_recursive((8, 8, 0, 6), 8)


def test_bounds_summing_to_the_order_give_the_catalan_series():
    # a match needs a + b + c + d other points, so once the clamped bounds
    # sum to the order or more nothing matches and dispatch stores C(t);
    # otherwise (400, 0, 0, 0) at order 400 recurses once per unit of a
    for order in (3, 6, 9):
        for pat in product(range(5), repeat=4):
            assert dispatch(pat, order) == q_series_recursive(pat, order), (pat, order)
    clear_gf_cache()
    series = dispatch((400, 0, 0, 0), 400)
    assert series == TSeries(400, [catalan(n) for n in range(401)])


def _assert_one_series_per_canonical_pattern(canonical):
    """Cached keys with one canonical pattern share one series, and distinct
    series have distinct canonical patterns: nothing is built twice."""
    ids: dict[tuple, set[int]] = {}
    for (pat, order), series in gf_formulas._cache.items():
        ids.setdefault((canonical(pat), order), set()).add(id(series))
    assert all(len(s) == 1 for s in ids.values()), ids
    assert len(set().union(*ids.values())) == len(ids)


def test_q14_is_served_without_reflected_alias_keys():
    # cold requests (a, 0, 0, d) and (a, d, 0, 0) for a, d <= 3 at orders 20
    # and 30; a (0, 0, 0, d) tail is reflected to the (0, d, 0, 0) head it
    # shares, so dispatch((1, 0, 0, 2), 20) builds (0, 1, 0, 0) once
    for order in (20, 30):
        for a in range(1, 4):
            for d in range(1, 4):
                for pat in ((a, 0, 0, d), (a, d, 0, 0)):
                    clear_gf_cache()
                    dispatch(pat, order)
                    # no key here has both b and d nonzero, so a pattern
                    # and its reflection share one series
                    _assert_one_series_per_canonical_pattern(
                        lambda p: min(p, swap_b_d(p))
                    )


def test_a_distribution_and_its_reflection_share_one_series():
    # with b and d both nonzero the key has b <= d, so a cold (1, 4, 3, 2)
    # does not build (0, 1, 3, 2) and (0, 2, 3, 1) as two equal series
    for pat in [(1, 4, 3, 2), (0, 3, 0, 1), (2, 2, 0, 1), (0, 3, 1, 2), (3, 3, 3, 3)]:
        for order in (12, 20):
            clear_gf_cache()
            dispatch(pat, order)
            _assert_one_series_per_canonical_pattern(lambda p: min(p, swap_b_d(p)))
    clear_gf_cache()


def test_formula_route_needs_no_recursion(monkeypatch):
    # every shape, (0,b,0,0) and (0,0,0,d) included, comes from the block
    # identity: the formula route is independent of the structural recursion
    patterns = list(product(range(4), repeat=4))
    expected = {pat: q_series_recursive(pat, 14) for pat in patterns}

    def refuse(pat, N):
        raise AssertionError(f"the formula route called the recursion for {pat}")

    monkeypatch.setattr(dist_engine, "q_series_recursive", refuse)
    monkeypatch.setattr(gf_formulas, "q_series_recursive", refuse)
    clear_recursion_memo()
    clear_gf_cache()
    try:
        for pat in patterns:
            assert dispatch(pat, 14) == expected[pat], pat
        assert not dist_engine._memo
    finally:
        clear_gf_cache()


def test_a_corrupted_limb_trips_the_dispatch_sum_check(monkeypatch):
    # one more x in the top coefficient: that t^n no longer sums to C_n
    good = gf_formulas._block_series

    def corrupted(pattern, order):
        x_t_n = TSeries(order, (0,) * order + (XPoly((0, 1)),))
        return linear_combination(order, [(1, 0, good(pattern, order)), (1, 0, x_t_n)])

    clear_gf_cache()
    monkeypatch.setattr(gf_formulas, "_block_series", corrupted)
    try:
        with pytest.raises(ArithmeticError):
            dispatch((1, 1, 1, 1), 6)
    finally:
        clear_gf_cache()


def test_a_cold_dispatch_keeps_its_series_packed(monkeypatch):
    # the whole route, the (0,0,c,0) series included, runs at W_N: nothing
    # is unpacked until the result is read
    calls = []
    real = poly_series._unpack

    def counted(z, L):
        calls.append(L)
        return real(z, L)

    monkeypatch.setattr(poly_series, "_unpack", counted)
    monkeypatch.setattr(dist_engine, "_unpack", counted)
    clear_gf_cache()
    clear_recursion_memo()
    out = dispatch((3, 3, 3, 3), 30)
    assert calls == []
    clear_gf_cache()
    assert out == q_series_recursive((3, 3, 3, 3), 30)


def test_each_block_division_runs_one_substitution(monkeypatch):
    # the division takes its bound from the identity, so no majorant pass
    # runs beside the forward substitution
    calls = {"_inverse_terms": 0, "reciprocal": 0}

    def counted(owner, name):
        real = getattr(owner, name)

        def run(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, run)

    counted(poly_series, "_inverse_terms")
    counted(TSeries, "reciprocal")
    clear_gf_cache()
    try:
        dispatch((3, 3, 3, 3), 30)
    finally:
        clear_gf_cache()
    assert calls["reciprocal"] > 10
    assert calls["_inverse_terms"] == calls["reciprocal"]


def test_dispatch_checks_each_pattern_once(monkeypatch):
    # sub-series requests go through dispatch, and nothing below it checks
    # the pattern again
    calls = {"dispatch": 0, "_checked": 0}

    def counted(mod, name):
        real = getattr(mod, name)

        def run(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(mod, name, run)

    counted(gf_formulas, "dispatch")
    counted(mmp_stat, "_checked")
    clear_gf_cache()
    try:
        gf_formulas.dispatch((3, 3, 3, 3), 30)
    finally:
        clear_gf_cache()
    assert calls["dispatch"] > 50
    assert calls["_checked"] == calls["dispatch"]
