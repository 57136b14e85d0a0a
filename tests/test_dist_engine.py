"""The two ground-truth engines: brute-force enumeration and the recursion."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import natural_patterns, oracle_distribution, poly_to_hist
from qmmp132 import (
    DEFAULT_ENUM_CAP,
    ResourceLimitError,
    XPoly,
    catalan,
    q_poly_bruteforce,
    q_poly_recursive,
    q_series_recursive,
)
from qmmp132 import dist_engine
from qmmp132.dist_engine import (
    _LIMB,
    RECURSION_N_MAX,
    avoiders_array,
    clear_brute_cache,
    clear_recursion_memo,
)
from qmmp132.mmp_stat import EMPTY, natural_pattern, swap_b_d
from qmmp132.perm_core import gen_avoiders


def test_recursion_frozen_examples():
    assert str(q_poly_recursive(4, (1, 1, 1, 0))) == "12+2x"
    assert str(q_poly_recursive(5, (1, 1, 1, 1))) == "38+4x"
    assert str(q_poly_recursive(4, (0, 1, 1, 1))) == "13+x"
    assert str(q_poly_recursive(7, (0, 2, 2, 2))) == "421+8x"


def test_bruteforce_frozen_examples():
    assert str(q_poly_bruteforce(5, (0, 1, 1, 1))) == "33+8x+x^2"
    assert str(q_poly_bruteforce(2, (1, 1, 0, 1))) == "2"
    assert str(q_poly_bruteforce(6, (1, 1, 1, 1))) == "99+29x+4x^2"


def test_length_zero_is_one():
    assert q_poly_recursive(0, (1, 2, 3, 4)) == XPoly((1,))
    assert q_poly_bruteforce(0, (1, 2, 3, 4)) == XPoly((1,))


def test_both_engines_match_definitional_oracle():
    """Engines vs. the slow itertools oracle, all bounds <= 2, n <= 6."""
    for pat in natural_patterns(2):
        for n in range(7):
            want = oracle_distribution(n, pat)
            assert poly_to_hist(q_poly_recursive(n, pat)) == want, (n, pat)
            assert poly_to_hist(q_poly_bruteforce(n, pat)) == want, (n, pat)


def test_engines_agree_on_wider_grid():
    for pat in natural_patterns(3):
        for n in range(9):
            assert q_poly_bruteforce(n, pat) == q_poly_recursive(n, pat), (n, pat)


def test_saturation_below_total_bound():
    """No position can match while n <= a+b+c+d, so Q_n is the constant C_n."""
    for pat in natural_patterns(3):
        for n in range(min(sum(pat), 8) + 1):
            assert q_poly_recursive(n, pat) == XPoly((catalan(n),)), (n, pat)


def test_total_count_identity():
    for pat in natural_patterns(3):
        for n in range(11):
            assert q_poly_recursive(n, pat).eval_at(1) == catalan(n)


def test_reflection_symmetry():
    """Q is invariant under swapping the two off-diagonal bounds."""
    for pat in natural_patterns(3):
        mirrored = swap_b_d(pat)
        for n in range(11):
            assert q_poly_recursive(n, pat) == q_poly_recursive(n, mirrored)


def test_series_matches_polynomials():
    s = q_series_recursive((1, 1, 0, 1), 6)
    for n in range(7):
        assert s.coeff(n) == q_poly_recursive(n, (1, 1, 0, 1))
    assert str(s.coeff(4)) == "10+4x"


def test_series_all_zero_pattern_is_catalan_xt():
    s = q_series_recursive((0, 0, 0, 0), 5)
    for n in range(6):
        assert s.coeff(n) == XPoly.x_power(n, catalan(n))


def test_bound_clamping():
    assert q_poly_recursive(3, (50, 0, 0, 0)) == q_poly_recursive(3, (3, 0, 0, 0))
    assert q_poly_recursive(3, (0, 99, 0, 7)) == q_poly_recursive(3, (0, 3, 0, 3))
    assert q_poly_bruteforce(3, (50, 0, 0, 0)) == q_poly_bruteforce(3, (3, 0, 0, 0))


def test_validation_errors():
    with pytest.raises(ValueError):
        q_poly_recursive(-1, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        q_poly_bruteforce(-1, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        q_poly_recursive(3, (0, 0, 0))
    with pytest.raises(ValueError):
        q_poly_recursive(3, (0, EMPTY, 0, 0))  # engines take natural bounds only
    with pytest.raises(ValueError):
        q_poly_recursive(3, (0, -1, 0, 0))
    with pytest.raises(ValueError):
        q_poly_recursive(3, (0, True, 0, 0))  # bools are not bounds


def test_resource_limits():
    with pytest.raises(ResourceLimitError):
        q_poly_recursive(RECURSION_N_MAX + 1, (1, 1, 1, 1))
    with pytest.raises(ResourceLimitError):
        q_poly_bruteforce(DEFAULT_ENUM_CAP + 1, (1, 1, 1, 1))
    # a caller-supplied cap overrides the default
    with pytest.raises(ResourceLimitError):
        q_poly_bruteforce(6, (1, 1, 1, 1), cap=5)


def test_series_limits_fail_before_any_row_is_filled():
    clear_recursion_memo()
    with pytest.raises(ResourceLimitError):
        q_series_recursive((3, 3, 3, 3), 70)
    with pytest.raises(ValueError):
        q_series_recursive((3, 3, 3, 3), -1)
    assert dist_engine._memo == {}


def _reference_fill(memo, n, a, b, c, d):
    """The table fill as one triple loop over (m, a', b', d') and i."""
    for m in range(1, n + 1):
        for aa in range(a + 1):
            for bb in range(min(b, m) + 1):
                for dd in range(min(d, m) + 1):
                    key = (m, aa, bb, c, dd)
                    if key in memo:
                        continue
                    a_left = aa - 1 if aa else 0
                    acc = 0
                    for i in range(1, m + 1):
                        k, dl = i - 1, max(dd - (m - i), 0)
                        left = memo[(k, a_left, min(bb, k), c, min(dl, k))] if k else 1
                        k, br = m - i, max(bb - i, 0)
                        right = memo[(k, aa, min(br, k), c, min(dd, k))] if k else 1
                        term = left * right
                        if aa == 0 and bb == 0 and i - 1 >= c and m - i >= dd:
                            term <<= _LIMB
                        acc += term
                    memo[key] = acc


def _memo_after(*requests):
    """The recursion memo after cold requests in turn, and the reference's."""
    clear_recursion_memo()
    ref: dict = {}
    for n, pat in requests:
        q_poly_recursive(n, pat)
        _reference_fill(ref, n, *natural_pattern(pat, n))
    return dict(dist_engine._memo), ref


_ROWS_PER_CASE = 3000


@st.composite
def fill_requests(draw, c=None):
    """(n, pattern), n <= 24 and bounds up to n + 2, filling at most
    _ROWS_PER_CASE rows: c > n and b, d above the row length both occur."""
    n = draw(st.integers(0, 24))
    b, d = draw(st.integers(0, n + 2)), draw(st.integers(0, n + 2))
    if c is None:
        c = draw(st.integers(0, n + 2))
    per_a = sum((min(b, m) + 1) * (min(d, m) + 1) for m in range(1, n + 1))
    a_max = min(n + 2, _ROWS_PER_CASE // max(per_a, 1) - 1)
    a = draw(st.integers(0, max(a_max, 0)))
    return n, (a, b, c, d)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_fill_matches_the_reference_loop(data):
    first = data.draw(fill_requests())
    second = data.draw(fill_requests(c=first[1][2]))  # often reads warm rows
    new, ref = _memo_after(first)
    assert new.keys() == ref.keys() and new == ref
    new, ref = _memo_after(first, second)
    assert new.keys() == ref.keys() and new == ref


def test_fill_matches_the_reference_loop_on_a_large_box():
    new, ref = _memo_after((24, (8, 8, 8, 8)))
    assert len(new) == 14_220
    assert new == ref


def test_limb_width_holds_every_coefficient():
    # coefficients are at most C_n, and a balanced limb spends one bit on sign
    assert catalan(RECURSION_N_MAX).bit_length() + 1 < _LIMB
    q = q_poly_recursive(RECURSION_N_MAX, (0, 0, 0, 0))
    assert q == XPoly.x_power(RECURSION_N_MAX, catalan(RECURSION_N_MAX))


def test_recursion_reaches_large_lengths():
    q = q_poly_recursive(40, (1, 1, 1, 1))
    assert q.eval_at(1) == catalan(40)
    assert q.degree == 36  # saturation eats the top four match slots


def test_avoiders_array_matches_generator():
    for n in range(8):
        arr = avoiders_array(n)
        assert arr.shape == (catalan(n), n)
        assert arr.dtype == np.int8
        assert {tuple(int(v) for v in row) for row in arr} == set(gen_avoiders(n))


def test_avoiders_array_limits():
    with pytest.raises(ValueError):
        avoiders_array(-1)
    with pytest.raises(ResourceLimitError):
        avoiders_array(DEFAULT_ENUM_CAP + 1)


def test_cache_clearing_is_idempotent():
    before = q_poly_recursive(8, (1, 1, 1, 1))
    clear_recursion_memo()
    clear_brute_cache()
    assert q_poly_recursive(8, (1, 1, 1, 1)) == before
    assert q_poly_bruteforce(8, (1, 1, 1, 1)) == before
