"""Exact polynomial and truncated-series arithmetic."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmmp132 import TSeries, XPoly, catalan, catalan_series, catalan_xt_series
from qmmp132.poly_series import (
    OrderMismatchError,
    _pack,
    _unpack,
    catalan_partial_sum,
    rational_series,
    solve_q00k0,
)

coeff_lists = st.lists(st.integers(-50, 50), max_size=8)
xpolys = coeff_lists.map(XPoly)
eval_points = st.integers(-5, 5)


# ---------------------------------------------------------------------------
# XPoly


def test_xpoly_trims_trailing_zeros():
    assert XPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert XPoly((0, 0)).is_zero()
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
    assert p * q == XPoly((-1, 0, 1))  # x^2 - 1
    assert p + q == XPoly((0, 2))
    assert p - p == XPoly()
    assert p.scale(3) == XPoly((3, 3))
    assert XPoly.x_power(2, 5) == XPoly((0, 0, 5))
    assert XPoly.const(4) == XPoly((4,))


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
@given(xpolys, xpolys)
def test_xpoly_subtraction(p, q):
    assert p - q == p + (-q)
    assert not (p - q).coeffs or (p - q).coeffs[-1] != 0
    assert (p - p).coeffs == ()
    short, long_ = XPoly((5, 1)), XPoly((5, 1, 0, 2))
    assert long_ - short == XPoly((0, 0, 0, 2))
    assert short - long_ == XPoly((0, 0, 0, -2))
    assert XPoly((1, 2, 3)) - XPoly((0, 0, 3)) == XPoly((1, 2))  # top limbs cancel


@settings(max_examples=200)
@given(xpolys, xpolys, xpolys, eval_points)
def test_xpoly_ring_axioms(p, q, r, v):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + XPoly() == p
    assert p * XPoly((1,)) == p
    assert p - p == XPoly()
    # evaluation is a ring homomorphism
    assert (p * q).eval_at(v) == p.eval_at(v) * q.eval_at(v)
    assert (p + q).eval_at(v) == p.eval_at(v) + q.eval_at(v)


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
    assert s.coeff(3).is_zero()
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
        TSeries.one(3) + TSeries.one(4)
    with pytest.raises(OrderMismatchError):
        TSeries.one(3) * TSeries.one(4)


def test_tseries_shift_scale_truncate():
    s = TSeries(3, [1, 2, 3, 4])
    assert s.shift(1).int_coeffs() == [0, 1, 2, 3]
    assert s.shift(0) == s
    assert s.shift(4) == s.shift(9) == TSeries.zero(3)  # every coefficient falls off
    assert s.scale(2).int_coeffs() == [2, 4, 6, 8]
    assert s.scale(XPoly((0, 1))).coeff(1) == XPoly((0, 2))
    assert s.truncate(2).int_coeffs() == [1, 2, 3]
    with pytest.raises(ValueError):
        s.truncate(4)
    with pytest.raises(ValueError):
        s.shift(-1)


def test_tseries_t_power():
    assert TSeries.t_power(2, 4, 7).int_coeffs() == [0, 0, 7, 0, 0]
    assert TSeries.t_power(5, 3).int_coeffs() == [0, 0, 0, 0]  # beyond order


def test_tseries_subs_x_and_int_coeffs():
    s = TSeries(2, [1, XPoly((1, 1)), XPoly((0, 0, 2))])
    assert s.subs_x(1).int_coeffs() == [1, 2, 2]
    assert s.subs_x(0).int_coeffs() == [1, 1, 0]
    with pytest.raises(ValueError):
        s.int_coeffs()  # not constant in x


def test_tseries_known_product():
    # (1 + t)(1 - t) = 1 - t^2 truncated at order 3
    u = TSeries(3, [1, 1])
    v = TSeries(3, [1, -1])
    assert (u * v).int_coeffs() == [1, 0, -1, 0]


def test_tseries_reciprocal_known():
    # 1/(1 - t) = 1 + t + t^2 + ...
    geo = TSeries(5, [1, -1]).reciprocal()
    assert geo.int_coeffs() == [1] * 6
    # constant term -1 is allowed
    neg = TSeries(3, [-1, 1]).reciprocal()
    assert (TSeries(3, [-1, 1]) * neg) == TSeries.one(3)
    with pytest.raises(ValueError):
        TSeries(3, [2]).reciprocal()
    with pytest.raises(ValueError):
        TSeries(3, [0, 1]).reciprocal()


@settings(max_examples=100)
@given(series_strategy(5), series_strategy(5), series_strategy(5))
def test_tseries_ring_axioms(u, v, w):
    assert u + v == v + u
    assert u * v == v * u
    assert (u * v) * w == u * (v * w)
    assert u * (v + w) == u * v + u * w
    assert u + TSeries.zero(5) == u
    assert u * TSeries.one(5) == u


@settings(max_examples=100)
@given(series_strategy(5))
def test_tseries_reciprocal_is_exact_inverse(u):
    # force an invertible constant term
    v = TSeries(5, (XPoly((1,)),) + u.coeffs[1:])
    assert v * v.reciprocal() == TSeries.one(5)


# ---------------------------------------------------------------------------
# the packed kernel against a schoolbook reference


def schoolbook_mul(u: TSeries, v: TSeries) -> TSeries:
    N = u.order
    out = [[] for _ in range(N + 1)]
    for i, a in enumerate(u.coeffs):
        for j, b in enumerate(v.coeffs[: N + 1 - i]):
            acc = out[i + j]
            for r, ca in enumerate(a.coeffs):
                for s, cb in enumerate(b.coeffs):
                    acc.extend([0] * (r + s + 1 - len(acc)))
                    acc[r + s] += ca * cb
    return TSeries(N, [XPoly(c) for c in out])


def schoolbook_reciprocal(u: TSeries) -> TSeries:
    u0 = u.coeffs[0].coeffs[0]
    inv = [[u0]]
    for n in range(1, u.order + 1):
        acc: list[int] = []
        for k in range(1, n + 1):
            for r, ca in enumerate(u.coeffs[k].coeffs):
                for s, cb in enumerate(inv[n - k]):
                    acc.extend([0] * (r + s + 1 - len(acc)))
                    acc[r + s] -= u0 * ca * cb
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
    p, q = data.draw(big_xpolys), data.draw(big_xpolys)
    assert p * q == schoolbook_mul(TSeries(0, [p]), TSeries(0, [q])).coeff(0)
    unit = XPoly((data.draw(st.sampled_from((1, -1))),))
    w = TSeries(order, (unit,) + u.coeffs[1:])
    assert w.reciprocal() == schoolbook_reciprocal(w)


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


# ---------------------------------------------------------------------------
# named series


def test_catalan_series_values():
    assert catalan_series(6).int_coeffs() == [1, 1, 2, 5, 14, 42, 132]


def test_catalan_xt_series_values():
    s = catalan_xt_series(4)
    for n in range(5):
        assert s.coeff(n) == XPoly.x_power(n, catalan(n))


def test_catalan_xt_satisfies_quadratic():
    # C(xt) = 1 + xt * C(xt)^2
    N = 8
    s = catalan_xt_series(N)
    xt = TSeries.t_power(1, N, XPoly((0, 1)))
    assert TSeries.one(N) + xt * s * s == s


def test_catalan_partial_sum():
    assert catalan_partial_sum(-1, 3).int_coeffs() == [0, 0, 0, 0]
    assert catalan_partial_sum(0, 3).int_coeffs() == [1, 0, 0, 0]
    assert catalan_partial_sum(2, 4).int_coeffs() == [1, 1, 2, 0, 0]
    # j_max above the order just gives the full Catalan prefix
    assert catalan_partial_sum(9, 3).int_coeffs() == [1, 1, 2, 5]


def test_rational_series_known_expansions():
    assert rational_series([1], [1, -1], 5).int_coeffs() == [1] * 6
    assert rational_series([1], [1, -2], 5).int_coeffs() == [1, 2, 4, 8, 16, 32]
    assert rational_series([1, 1], [1], 4).int_coeffs() == [1, 1, 0, 0, 0]
    # 1/(1-t)^2 = sum (n+1) t^n
    assert rational_series([1], [1, -2, 1], 5).int_coeffs() == [1, 2, 3, 4, 5, 6]


def test_solve_q00k0_satisfies_its_quadratic():
    N = 10
    one = TSeries.one(N)
    tx = TSeries.t_power(1, N, XPoly((0, 1)))
    tx_minus_t = TSeries.t_power(1, N, XPoly((-1, 1)))
    for k in (1, 2, 3):
        q = solve_q00k0(k, N)
        s_k = catalan_partial_sum(k - 1, N)
        residual = tx * q * q - (one + tx_minus_t * s_k) * q + one
        assert all(c.is_zero() for c in residual.coeffs)
        # total count identity: x = 1 collapses to the Catalan series
        assert q.subs_x(1).int_coeffs() == catalan_series(N).int_coeffs()


def test_solve_q00k0_small_distributions():
    # k = 1: lone lower-left bound; hand-enumerated for n = 2, 3
    q = solve_q00k0(1, 3)
    assert str(q.coeff(2)) == "1+x"
    assert str(q.coeff(3)) == "1+3x+x^2"


def test_solve_q00k0_rejects_zero():
    with pytest.raises(ValueError):
        solve_q00k0(0, 5)
