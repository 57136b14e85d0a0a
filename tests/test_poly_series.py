"""Exact polynomial and truncated-series arithmetic."""

from __future__ import annotations

import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmmp132 import TSeries, XPoly, catalan, catalan_series, catalan_xt_series
from qmmp132.perm_core import catalans
from qmmp132.poly_series import (
    OrderMismatchError,
    _floor,
    _pack,
    _unpack,
    _width,
    linear_combination,
    solve_q00k0,
)

coeff_lists = st.lists(st.integers(-50, 50), max_size=8)
xpolys = coeff_lists.map(XPoly)
eval_points = st.integers(-5, 5)


# ---------------------------------------------------------------------------
# XPoly


def test_xpoly_trims_trailing_zeros():
    assert XPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert XPoly((0, 0)) == XPoly()
    assert XPoly(()).degree == -1
    assert XPoly((1, 2)).degree == 1


def test_xpoly_is_immutable_and_hashable():
    p = XPoly((1, 2))
    with pytest.raises(AttributeError):
        p.coeffs = (3,)
    assert {p: 1}[XPoly((1, 2))] == 1


def test_xpoly_coeff_and_leading():
    p = XPoly((3, 0, 7))
    assert (p.coeff(0), p.coeff(1), p.coeff(2), p.coeff(5)) == (3, 0, 7, 0)
    assert p.leading() == 7
    assert XPoly().leading() == 0
    with pytest.raises(ValueError):
        p.coeff(-1)


def test_xpoly_known_arithmetic():
    p = XPoly((1, 1))  # 1 + x
    q = XPoly((-1, 1))  # -1 + x
    assert p + q == XPoly((0, 2))
    assert XPoly((1, 2, 3)) + XPoly((0, 0, -3)) == XPoly((1, 2))  # top limbs cancel


def test_xpoly_str_formats():
    assert str(XPoly()) == "0"
    assert str(XPoly((1,))) == "1"
    assert str(XPoly((0, 1))) == "x"
    assert str(XPoly((0, 0, 2))) == "2x^2"
    assert str(XPoly((12, 2))) == "12+2x"
    assert str(XPoly((99, 29, 4))) == "99+29x+4x^2"
    assert str(XPoly((1, -2, 0, 1))) == "1-2x+x^3"
    assert str(XPoly((-1, 1))) == "-1+x"


def test_xpoly_eval_at():
    p = XPoly((1, -2, 0, 1))
    assert p.eval_at(0) == 1
    assert p.eval_at(1) == 0
    assert p.eval_at(2) == 5
    assert p.eval_at(-1) == 2


@settings(max_examples=200)
@given(xpolys, xpolys, xpolys, eval_points)
def test_xpoly_ring_axioms(p, q, r, v):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p + XPoly() == p
    assert not (p + q).coeffs or (p + q).coeffs[-1] != 0
    # evaluation is additive
    assert (p + q).eval_at(v) == p.eval_at(v) + q.eval_at(v)


@settings(max_examples=200)
@given(xpolys)
def test_xpoly_adding_the_negation_cancels_to_zero(p):
    assert (p + XPoly(-c for c in p.coeffs)).coeffs == ()
    short, long_ = XPoly((5, 1)), XPoly((5, 1, 0, 2))
    assert long_ + XPoly((-5, -1)) == XPoly((0, 0, 0, 2))
    assert short + XPoly((-5, -1, 0, -2)) == XPoly((0, 0, 0, -2))


# ---------------------------------------------------------------------------
# TSeries


def series_strategy(order: int, elements=xpolys):
    return st.lists(elements, min_size=0, max_size=order + 1).map(
        lambda cs: TSeries(order, cs)
    )


def test_tseries_construction_and_coeff():
    s = TSeries(3, [1, XPoly((0, 1))])
    assert s.order == 3
    assert s.coeff(0) == XPoly((1,))
    assert s.coeff(1) == XPoly((0, 1))
    assert s.coeff(3) == XPoly()
    with pytest.raises(ValueError):
        s.coeff(4)
    with pytest.raises(ValueError):
        TSeries(1, [1, 2, 3])  # more coefficients than order allows
    with pytest.raises(ValueError):
        TSeries(-1)
    with pytest.raises(AttributeError):
        s.order = 5


def test_tseries_str_format():
    s = TSeries(2, [1, XPoly((0, 1)), XPoly((2, 3))])
    assert str(s) == "t^0: 1\nt^1: x\nt^2: 2+3x"


def test_tseries_order_mismatch():
    with pytest.raises(OrderMismatchError):
        linear_combination(3, [(1, 0, TSeries(3, [1])), (1, 0, TSeries(4, [1]))])
    with pytest.raises(OrderMismatchError):
        TSeries(3, [1]) * TSeries(4, [1])


def test_a_shift_beyond_the_order_falls_off():
    assert linear_combination(4, [(7, 2, (1,))]) == TSeries(4, [0, 0, 7])
    assert linear_combination(3, [(7, 5, (1,))]) == TSeries(3)


def test_tseries_known_product():
    # (1 + t)(1 - t) = 1 - t^2 truncated at order 3
    u = TSeries(3, [1, 1])
    v = TSeries(3, [1, -1])
    assert u * v == TSeries(3, [1, 0, -1])


def test_tseries_reciprocal_known():
    # 1/(1 - t) = 1 + t + t^2 + ...
    geo = TSeries(5, [1, -1]).reciprocal(TSeries(5, [1]))
    assert geo == TSeries(5, [1] * 6)
    # the constant term must be exactly 1, so -1 is refused as well
    for den in ([2], [0, 1], [-1, 1]):
        with pytest.raises(ValueError):
            TSeries(3, den).reciprocal(TSeries(3, [1]))


@settings(max_examples=100)
@given(series_strategy(5), series_strategy(5), series_strategy(5))
def test_tseries_ring_axioms(u, v, w):
    def add(a, b):
        return linear_combination(5, [(1, 0, a), (1, 0, b)])

    assert add(u, v) == add(v, u)
    assert u * v == v * u
    assert (u * v) * w == u * (v * w)
    assert u * add(v, w) == add(u * v, u * w)
    assert add(u, TSeries(5)) == u
    assert u * TSeries(5, [1]) == u


@settings(max_examples=100)
@given(series_strategy(5))
def test_tseries_reciprocal_is_exact_inverse(u):
    # force an invertible constant term
    v = TSeries(5, (XPoly((1,)),) + u.coeffs[1:])
    one = TSeries(5, [1])
    assert v * v.reciprocal(one) == one


# ---------------------------------------------------------------------------
# the packed kernel against a schoolbook reference


def schoolbook_mul(u: TSeries, v: TSeries) -> TSeries:
    N = u.order
    out = [[] for _ in range(N + 1)]
    vs = v.coeffs
    for i, a in enumerate(u.coeffs):
        for j, b in enumerate(vs[: N + 1 - i]):
            acc = out[i + j]
            for r, ca in enumerate(a.coeffs):
                for s, cb in enumerate(b.coeffs):
                    acc.extend([0] * (r + s + 1 - len(acc)))
                    acc[r + s] += ca * cb
    return TSeries(N, [XPoly(c) for c in out])


def schoolbook_reciprocal(u: TSeries) -> TSeries:
    """1/u for u_0 = 1."""
    cs = u.coeffs
    inv = [[1]]
    for n in range(1, u.order + 1):
        acc: list[int] = []
        for k in range(1, n + 1):
            for r, ca in enumerate(cs[k].coeffs):
                for s, cb in enumerate(inv[n - k]):
                    acc.extend([0] * (r + s + 1 - len(acc)))
                    acc[r + s] -= ca * cb
        inv.append(acc)
    return TSeries(u.order, [XPoly(c) for c in inv])


big_coeffs = st.one_of(st.integers(-3, 3), st.integers(-(2**200), 2**200))
# the zero polynomial is drawn often, so sparse and all-zero series occur
big_xpolys = st.one_of(st.just(XPoly()), st.lists(big_coeffs, max_size=6).map(XPoly))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_packed_mul_and_reciprocal_match_schoolbook(data):
    order = data.draw(st.integers(0, 12))
    u = data.draw(series_strategy(order, big_xpolys))
    v = data.draw(series_strategy(order, big_xpolys))
    assert u * v == schoolbook_mul(u, v)
    w = TSeries(order, (1,) + u.coeffs[1:])
    assert w.reciprocal(TSeries(order, [1])) == schoolbook_reciprocal(w)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_packed_division_matches_schoolbook(data):
    order = data.draw(st.integers(0, 12))
    num = data.draw(series_strategy(order, big_xpolys))
    u = data.draw(series_strategy(order, big_xpolys))
    den = TSeries(order, (1,) + u.coeffs[1:])
    assert den.reciprocal(num) == schoolbook_mul(num, schoolbook_reciprocal(den))


def test_division_at_a_power_of_two_majorant():
    # num = v x^2, den = 1 + c t with |v| = 2^190 and |c| = 2: the majorant
    # r_n = 2^(190+n) is a power of two, and every |w_n| meets it
    N = 12
    for c in (2, -2):
        for v in (2**190, -(2**190)):
            den, num = TSeries(N, [1, c]), TSeries(N, [XPoly((0, 0, v))])
            w = den.reciprocal(num)
            assert w.n1 == tuple(2 ** (190 + n) for n in range(N + 1))
            assert w.L == _width(2 ** (190 + N))
            expected = (XPoly((0, 0, v * (-c) ** n)) for n in range(N + 1))
            assert w.coeffs == tuple(expected)
            assert w == schoolbook_mul(num, schoolbook_reciprocal(den))
    with pytest.raises(OrderMismatchError):
        TSeries(3, [1, 1]).reciprocal(TSeries(4, [1]))


def test_pack_unpack_round_trip_at_limb_edge():
    for L in (2, 3, 8, 64, 127, 128, 129):
        edge = 2 ** (L - 1) - 1  # and -edge - 1 = -2^(L-1) still fits
        for coeffs in (
            [edge],
            [-edge],
            [-edge - 1],
            [edge, -edge, edge],
            [-edge, 0, 0, -edge - 1],
            [0, 0, -1],
            [],
        ):
            assert _unpack(_pack(coeffs, L), L) == XPoly(coeffs), (L, coeffs)


def test_unpack_rejects_a_width_below_two():
    # at L = 1 every nonzero limb borrows and the loop never ends; the alarm
    # bounds this test should the guard go missing
    def expire(signum, frame):
        raise TimeoutError("_unpack did not return")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        for L in (1, 0):
            with pytest.raises(ValueError):
                _unpack(5, L)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


# ---------------------------------------------------------------------------
# the packed ring against the same operations on XPoly lists


def _apply(op, u, v, c, k):
    """One step on a (TSeries, XPoly list) pair; the list side is the reference."""
    (s, a), (t, b) = u, v
    N = s.order
    if op == "add":
        ref = [p + q for p, q in zip(a, b)]
        return linear_combination(N, [(1, 0, s), (1, 0, t)]), ref
    if op == "sub":
        ref = [p + XPoly(-e for e in q.coeffs) for p, q in zip(a, b)]
        return linear_combination(N, [(1, 0, s), (-1, 0, t)]), ref
    if op == "neg":
        ref = [XPoly(-e for e in p.coeffs) for p in a]
        return linear_combination(N, [(-1, 0, s)]), ref
    if op == "shift":
        return linear_combination(N, [(1, k, s)]), ([XPoly()] * k + a)[: N + 1]
    if op == "scale":
        ref = [XPoly(c * e for e in p.coeffs) for p in a]
        return linear_combination(N, [(c, 0, s)]), ref
    if op == "mul":
        return s * t, list(schoolbook_mul(TSeries(N, a), TSeries(N, b)).coeffs)
    if op == "comb":
        # c t^k u + v - t (1, 2, ..., N + 1): a series, shifted and scaled,
        # plus one unshifted and an x-free int sequence
        ints = list(range(1, N + 2))
        ref = [XPoly()] * k + [XPoly(c * e for e in p.coeffs) for p in a]
        ref = [p + q + XPoly((-m,)) for p, q, m in zip(ref, b, [0] + ints)]
        return linear_combination(N, [(c, k, s), (1, 0, t), (-1, 1, ints)]), ref
    w = [XPoly((1,))] + a[:N]  # 1 + t*u: an invertible constant term
    inv = schoolbook_reciprocal(TSeries(N, w)).coeffs
    den = linear_combination(N, [(1, 0, (1,)), (1, 1, s)])
    return den.reciprocal(TSeries(N, [1])), list(inv)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_packed_ring_matches_xpoly_reference_on_random_chains(data):
    """Random chains over series of different widths, with scale factors
    large enough to force a widen: every result equals the reference, its
    carried bounds hold and fit its width, and it equals (and hashes as) a
    fresh series at the common starting width."""
    N = data.draw(st.integers(0, 7))
    pool = []
    for _ in range(3):
        s = data.draw(series_strategy(N, big_xpolys))
        pool.append((s, list(s.coeffs)))
    ops = st.sampled_from(
        ("add", "sub", "neg", "shift", "scale", "mul", "recip", "comb")
    )
    factors = st.one_of(st.integers(-3, 3), st.sampled_from((2**90, -(2**150))))
    for _ in range(data.draw(st.integers(1, 6))):
        op = data.draw(ops)
        u, v = data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(pool))
        c, k = data.draw(factors), data.draw(st.integers(0, N + 2))
        s, ref = _apply(op, u, v, c, k)
        assert s.coeffs == tuple(ref), op
        for p, n1 in zip(ref, s.n1):
            assert max(map(abs, p.coeffs), default=0) <= sum(map(abs, p.coeffs)) <= n1
            assert _width(n1) <= s.L
        fresh = TSeries(N, ref)
        assert s == fresh and hash(s) == hash(fresh)
        pool.append((s, ref))


def test_linear_combination_packs_its_terms_at_one_width():
    N = 4
    u = TSeries(N, [XPoly((1, 2)), XPoly((0, 0, 3))])
    out = linear_combination(N, [(2, 1, u), (-1, 0, (5, 6)), (7, 9, u)])
    assert out == TSeries(N, [-5, XPoly((-4, 4)), XPoly((0, 0, 6))])
    assert out.n1 == (5, 12, 6, 0, 0)
    assert out.L == u.L  # W_N holds every bound here
    assert linear_combination(N, []) == TSeries(N)
    with pytest.raises(OrderMismatchError):
        linear_combination(N + 1, [(1, 0, u)])
    with pytest.raises(ValueError):
        linear_combination(N, [(1, -1, u)])


# ---------------------------------------------------------------------------
# named series


def test_catalan_series_values():
    assert catalan_series(6) == TSeries(6, [1, 1, 2, 5, 14, 42, 132])


def test_catalan_xt_series_values():
    s = catalan_xt_series(4)
    for n in range(5):
        assert s.coeff(n) == XPoly((0,) * n + (catalan(n),))


def test_catalan_xt_satisfies_quadratic():
    # C(xt) = 1 + xt * C(xt)^2
    N = 8
    s = catalan_xt_series(N)
    xt = TSeries(N, (0, XPoly((0, 1))))
    assert linear_combination(N, [(1, 0, (1,)), (1, 0, xt * s * s)]) == s


def test_catalan_partial_sums_as_int_terms():
    # S_j, the partial sums block_series subtracts, are x-free int terms:
    # slices of one Catalan tuple, empty for j < 0
    def s(j, N):
        return linear_combination(N, [(1, 0, catalans(9)[: j + 1])])

    assert s(-1, 3) == TSeries(3)
    assert s(0, 3) == TSeries(3, [1])
    assert s(2, 4) == TSeries(4, [1, 1, 2])
    # j above the order just gives the full Catalan prefix
    assert s(9, 3) == TSeries(3, [1, 1, 2, 5])


def test_a_division_without_a_given_bound_derives_its_width():
    # 5^40 needs 95 bits, more than W_40 = 78: the majorant sets the width
    s = TSeries(40, [1, -5]).reciprocal(TSeries(40, [1]))
    assert _floor(40) == 78
    assert s.L == 95
    assert s == TSeries(40, [5**n for n in range(41)])


def test_rational_series_known_expansions():
    def expand(num, den, N):
        return TSeries(N, den).reciprocal(TSeries(N, num))

    assert expand([1], [1, -1], 5) == TSeries(5, [1] * 6)
    assert expand([1], [1, -2], 5) == TSeries(5, [1, 2, 4, 8, 16, 32])
    assert expand([1, 1], [1], 4) == TSeries(4, [1, 1])
    # 1/(1-t)^2 = sum (n+1) t^n
    assert expand([1], [1, -2, 1], 5) == TSeries(5, [1, 2, 3, 4, 5, 6])


def test_solve_q00k0_squares_with_the_convolved_bound():
    # the bound C_{n+1} given to Q^2 is the convolution of Q's bounds C_n
    # with themselves, so the product equals the one that derives it
    for N in (0, 1, 5, 20, 40):
        cats = catalans(N)
        conv = [sum(cats[i] * cats[n - i] for i in range(n + 1)) for n in range(N + 1)]
        assert tuple(conv) == catalans(N + 1)[1:]
        for k in (1, 2, 7):
            q = solve_q00k0(k, N)
            assert tuple(q.n1) == cats
            given_, derived = q.__mul__(q, catalans(N + 1)[1:]), q * q
            assert (given_.L, given_.z, tuple(given_.n1)) == (
                derived.L,
                derived.z,
                tuple(derived.n1),
            )


def test_solve_q00k0_satisfies_its_quadratic():
    N = 10
    tx = TSeries(N, (0, XPoly((0, 1))))
    tx_minus_t = TSeries(N, (0, XPoly((-1, 1))))
    for k in (1, 2, 3):
        q = solve_q00k0(k, N)
        s_k = TSeries(N, catalans(k - 1))
        b = linear_combination(N, [(1, 0, (1,)), (1, 0, tx_minus_t * s_k)])
        terms = [(1, 0, tx * q * q), (-1, 0, b * q), (1, 0, (1,))]
        residual = linear_combination(N, terms)
        assert residual == TSeries(N)
        # total count identity: x = 1 collapses to the Catalan series
        assert TSeries(N, [p.eval_at(1) for p in q.coeffs]) == catalan_series(N)


def test_solve_q00k0_small_distributions():
    # k = 1: lone lower-left bound; hand-enumerated for n = 2, 3
    q = solve_q00k0(1, 3)
    assert str(q.coeff(2)) == "1+x"
    assert str(q.coeff(3)) == "1+3x+x^2"


def test_solve_q00k0_rejects_zero():
    with pytest.raises(ValueError):
        solve_q00k0(0, 5)
