"""The two ground-truth engines: brute-force enumeration and the recursion."""

from __future__ import annotations

import random
import sys
import tracemalloc

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
    RECURSION_N_MAX,
    avoiders_array,
    clear_brute_cache,
    clear_recursion_memo,
)
from qmmp132.mmp_stat import EMPTY, natural_pattern, quadrant_counts, swap_b_d
from qmmp132.perm_core import gen_avoiders
from qmmp132.poly_series import _width

OVER_LIMIT = r"^enumeration of S_15\(132\) exceeds cap 14$"  # the one error text


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
        assert s.coeff(n) == XPoly((0,) * n + (catalan(n),))


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
    with pytest.raises(ResourceLimitError, match=OVER_LIMIT):
        q_poly_bruteforce(DEFAULT_ENUM_CAP + 1, (1, 1, 1, 1))


def test_series_limits_fail_before_any_row_is_filled():
    clear_recursion_memo()
    width = dist_engine._limb
    with pytest.raises(ResourceLimitError):
        q_series_recursive((3, 3, 3, 3), 70)
    with pytest.raises(ResourceLimitError):
        q_poly_recursive(RECURSION_N_MAX + 1, (3, 3, 3, 3))
    with pytest.raises(ValueError):
        q_series_recursive((3, 3, 3, 3), -1)
    assert dist_engine._memo == {}
    assert dist_engine._limb == width


def _reference_fill(memo, limb, n, a, b, c, d):
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
                            term <<= limb
                        acc += term
                    memo[key] = acc


def _memo_after(*requests):
    """The recursion memo after cold requests in turn, the reference's at the
    width the memo ends with, and the requests' results."""
    clear_recursion_memo()
    results = [q_poly_recursive(n, pat) for n, pat in requests]
    ref: dict = {}
    for n, pat in requests:
        _reference_fill(ref, dist_engine._limb, n, *natural_pattern(pat, n))
    return dict(dist_engine._memo), ref, results


_ROWS_PER_CASE = 3000


@st.composite
def fill_requests(draw, c=None, n_min=0, n_max=24):
    """(n, pattern), n_min <= n <= n_max and bounds up to n + 2, filling at
    most _ROWS_PER_CASE rows: c > n and b, d above the row length both occur."""
    n = draw(st.integers(n_min, n_max))
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
    new, ref, _ = _memo_after(first)
    assert new.keys() == ref.keys() and new == ref
    new, ref, _ = _memo_after(first, second)
    assert new.keys() == ref.keys() and new == ref


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_a_longer_request_widens_the_warm_memo_once(data):
    first = data.draw(fill_requests(n_min=1, n_max=23))
    longer = data.draw(fill_requests(c=first[1][2], n_min=first[0] + 1))
    requests = [first, longer] + data.draw(st.lists(fill_requests(), max_size=1))
    new, ref, results = _memo_after(*requests)
    assert dist_engine._limb == _width(catalan(RECURSION_N_MAX))
    assert list(new) == list(ref) and new == ref  # repacked in place, in order
    for (n, pat), q in zip(requests, results):
        clear_recursion_memo()
        assert q == q_poly_recursive(n, pat), (n, pat)


def test_a_cleared_memo_is_sized_for_its_next_request():
    clear_recursion_memo()
    q_poly_recursive(10, (1, 0, 0, 1))
    assert dist_engine._limb == _width(catalan(10))
    q_poly_recursive(RECURSION_N_MAX, (1, 0, 0, 1))
    assert dist_engine._limb == _width(catalan(RECURSION_N_MAX))
    clear_recursion_memo()
    assert q_poly_recursive(40, (1, 1, 1, 1)).eval_at(1) == catalan(40)
    assert dist_engine._limb == _width(catalan(40))


def test_series_equals_the_per_n_reads_cold_and_warm():
    # c = 5 is above the first lengths, whose rows clamp c to n
    pat, N = (1, 0, 5, 2), 12
    expected = []
    for n in range(N + 1):
        clear_recursion_memo()
        expected.append(q_poly_recursive(n, pat))
    clear_recursion_memo()
    assert list(q_series_recursive(pat, N).coeffs) == expected  # cold
    assert list(q_series_recursive(pat, N).coeffs) == expected  # warm
    clear_recursion_memo()
    q_poly_recursive(3, pat)  # a warm memo sized for a shorter length
    assert list(q_series_recursive(pat, N).coeffs) == expected
    assert dist_engine._limb == _width(catalan(RECURSION_N_MAX))


def test_fill_matches_the_reference_loop_on_a_large_box():
    new, ref, _ = _memo_after((24, (8, 8, 8, 8)))
    assert len(new) == 14_220
    assert new == ref


def test_reflected_twin_rows_are_shared():
    # inversion swaps b and d and keeps Q_m: a row with b' > d' is the very
    # object of its twin, and the memo still equals the reference loop's
    new, ref, _ = _memo_after((30, (2, 5, 1, 5)))
    assert new.keys() == ref.keys() and new == ref
    twins = [(k, (k[0], k[1], k[4], k[3], k[2])) for k in new if k[2] > k[4]]
    assert len(twins) > 1000
    assert all(new[k] is new[t] for k, t in twins)


def test_limb_width_holds_every_coefficient():
    # (0,0,0,0) puts all C_n permutations in one coefficient: the top limb
    # holds the bound itself, so a limb one bit short of it fails here
    for n in range(1, RECURSION_N_MAX + 1):
        clear_recursion_memo()
        q = q_poly_recursive(n, (0, 0, 0, 0))
        assert dist_engine._limb == _width(catalan(n))
        assert q == XPoly((0,) * n + (catalan(n),)), n


def test_recursion_reaches_large_lengths():
    q = q_poly_recursive(40, (1, 1, 1, 1))
    assert q.eval_at(1) == catalan(40)
    assert q.degree == 36  # saturation eats the top four match slots


def test_avoiders_array_matches_generator():
    for n in range(10):
        arr = avoiders_array(n)
        assert arr.shape == (catalan(n), n)
        assert arr.dtype == np.int8
        assert {tuple(int(v) for v in row) for row in arr} == set(gen_avoiders(n))
    # rows go by position of the maximal value, then left block, then right
    assert avoiders_array(3).tolist() == [
        [3, 2, 1], [3, 1, 2], [2, 3, 1], [2, 1, 3], [1, 2, 3]
    ]


def _documented_order(n):
    """S_n(132) as plain tuples in the documented row order: by the position
    i of n, then the left part A (on the top i - 1 values), then the right
    part B, each of them in this same order."""
    if n == 0:
        return [()]
    return [
        tuple(v + n - i for v in a) + (n,) + b
        for i in range(1, n + 1)
        for a in _documented_order(i - 1)
        for b in _documented_order(n - i)
    ]


def test_avoiders_array_rows_follow_the_documented_order():
    for n in range(10):
        assert avoiders_array(n).tolist() == [list(p) for p in _documented_order(n)]


def test_avoiders_array_limits():
    with pytest.raises(ValueError):
        avoiders_array(-1)
    with pytest.raises(ResourceLimitError, match=OVER_LIMIT):
        avoiders_array(DEFAULT_ENUM_CAP + 1)


def test_cache_clearing_is_idempotent():
    before = q_poly_recursive(8, (1, 1, 1, 1))
    clear_recursion_memo()
    clear_brute_cache()
    assert q_poly_recursive(8, (1, 1, 1, 1)) == before
    assert q_poly_bruteforce(8, (1, 1, 1, 1)) == before


def test_one_count_and_three_identities_give_every_quadrant():
    """q1 by comparison, q2..q4 by counting points by value and by position,
    block by block."""
    for n in range(1, 9):
        blocks = list(dist_engine._count_blocks(n))
        # n first and n last are split by the position of n - 1
        where = [1] if n == 1 else [1] * (n - 1) + list(range(2, n)) + [n] * (n - 1)
        assert len(blocks) == len(where) == max(3 * n - 4, 1)
        for i, values in zip(where, blocks):
            # one int8 row per position, reused: each is copied before the next
            q1 = np.array([row.copy() for row in dist_engine._q1_rows(values)])
            assert q1.dtype == np.int8
            assert values.shape == q1.shape
            assert values.shape[0] == n
            assert values.shape[1] <= catalan(max(n - 2, 0))
            assert (values[i - 1] == n).all()  # n at position i
            for m, perm in enumerate(values.T.tolist()):
                for p, v in enumerate(perm):
                    one = int(q1[p, m])
                    two = (n - v) - one
                    derived = (one, two, p - two, (n - 1 - p) - one)
                    assert derived == quadrant_counts(perm, p + 1), (perm, p)


def test_blocks_joined_in_order_are_the_whole_table():
    for n in range(1, 11):
        blocks = list(dist_engine._count_blocks(n))
        assert all(values.dtype == np.int8 for values in blocks)
        joined = np.concatenate(blocks, axis=1)
        assert (joined == avoiders_array(n).T).all()
        clear_brute_cache()
        [values] = dist_engine._counts_for(n)  # cached: one block, the whole table
        assert (values == joined).all()
        # q1 of the whole table is q1 of each block, joined in order
        whole = [row.copy() for row in dist_engine._q1_rows(values)]
        parts = zip(*(dist_engine._q1_rows(block) for block in blocks))
        for row, part in zip(whole, parts, strict=True):
            assert (row == np.concatenate(part)).all()


def test_every_shorter_table_is_a_column_suffix():
    """The last block of each length is the previous table with the maximum
    appended, so one table holds every shorter one."""
    table = avoiders_array(9).T
    for k in range(10):
        expected = avoiders_array(k).T
        assert (table[:k, catalan(9) - catalan(k) :] == expected).all(), k
        assert (dist_engine._shorter(table, k) == expected).all(), k
        assert (table[k:, catalan(9) - catalan(k) :].T == range(k + 1, 10)).all(), k


def test_one_table_build_per_cache_miss(monkeypatch):
    """A cache hit builds nothing.  A cached miss builds its own table, which
    reads the table two shorter, and so on down; a streamed length (above
    11, rebuilt on every call) starts two shorter."""
    built = []

    def counting(n):
        built.append(n)
        return avoiders_array(n)

    monkeypatch.setattr(dist_engine, "avoiders_array", counting)
    clear_brute_cache()
    for n in (5, 5, 13, 12, 12, 13):
        q_poly_bruteforce(n, (1, 0, 1, 0))
    odd, even = list(range(11, 0, -2)), list(range(10, -1, -2))
    assert built == [5, 3, 1] + odd + even + even + odd


def _random_patterns(rng, n, k):
    """k patterns whose bounds are often 0 and often n or more (clamped)."""
    choices = [0, 0, 1, 1, 2, 3, 4, n, n + 1, 3 * n]
    fixed = [(0, 0, 0, 0), (1, 1, 1, 1), (0, n, 0, n + 7), (2, 0, 3 * n, 1)]
    return fixed + [tuple(rng.choice(choices) for _ in range(4)) for _ in range(k)]


def test_bruteforce_matches_recursion_at_12_streamed():
    rng = random.Random(1312)
    clear_brute_cache()
    q_poly_bruteforce(11, (1, 1, 1, 1))
    for pat in _random_patterns(rng, 12, 16):
        assert q_poly_bruteforce(12, pat) == q_poly_recursive(12, pat), pat
    assert list(dist_engine._count_tensors) == [11]  # 11 cached, 12 streamed


def test_bruteforce_matches_recursion_at_13_uncached():
    rng = random.Random(1313)
    for pat in _random_patterns(rng, 13, 4):
        assert q_poly_bruteforce(13, pat) == q_poly_recursive(13, pat), pat
    assert 13 not in dist_engine._count_tensors


def test_bruteforce_matches_recursion_at_the_enumeration_cap():
    for pat in [(1, 1, 1, 1), (2, 1, 2, 1)]:
        assert q_poly_bruteforce(14, pat) == q_poly_recursive(14, pat), pat


def test_bruteforce_memory_peak():
    """No (M, n, n) comparison tensor and no whole-table temporaries.
    Lengths 12 to 14 are streamed: a cold call holds the table two shorter
    (0.16, 0.62 or 2.4 MiB) and one block with its q1, at most n * C_{n-2}
    bytes each (numpy reports to tracemalloc)."""
    for n, bound in [(12, 3), (13, 6), (14, 20)]:
        clear_brute_cache()
        tracemalloc.start()
        try:
            q_poly_bruteforce(n, (1, 1, 1, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * 2**20, (n, peak)


def test_a_streamed_length_holds_only_value_tables():
    """Brute force stores no quadrant-count table and widens no count: a cold
    call at n = 13 holds the table of length 11 (0.62 MiB), one block of at
    most 13 * C_11 bytes (0.73 MiB) and temporaries of one row each."""
    clear_brute_cache()
    tracemalloc.start()
    try:
        q = q_poly_bruteforce(13, (2, 2, 2, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak
    assert q == q_poly_recursive(13, (2, 2, 2, 2))


def test_warm_cache_does_not_bypass_the_enumeration_cap(monkeypatch):
    q_poly_bruteforce(11, (1, 0, 1, 0))
    assert 11 in dist_engine._count_tensors
    # the one check runs before any cache read or table build
    monkeypatch.setattr("qmmp132.perm_core.DEFAULT_ENUM_CAP", 10)
    with pytest.raises(ResourceLimitError, match=r"S_11\(132\) exceeds cap 10"):
        q_poly_bruteforce(11, (1, 0, 1, 0))
    with pytest.raises(ResourceLimitError, match=r"S_11\(132\) exceeds cap 10"):
        avoiders_array(11)


def test_lazy_import_runs_the_module_on_first_attribute_read(tmp_path, monkeypatch):
    (tmp_path / "qmmp132_lazy_probe.py").write_text(
        "from pathlib import Path\nPath(__file__).with_suffix('.ran').touch()\nvalue = 7\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        module = dist_engine._lazy_import("qmmp132_lazy_probe")
        assert sys.modules["qmmp132_lazy_probe"] is module
        assert not (tmp_path / "qmmp132_lazy_probe.ran").exists()
        assert module.value == 7
        assert (tmp_path / "qmmp132_lazy_probe.ran").exists()
    finally:
        sys.modules.pop("qmmp132_lazy_probe", None)


def test_lazy_import_keeps_the_failure_modes_of_import():
    # a module already in sys.modules is returned as it is
    assert dist_engine._lazy_import("numpy") is np
    assert dist_engine.np is np
    # a missing module fails at once, with import's own error
    missing = "^No module named 'qmmp132_no_such_module'$"
    with pytest.raises(ModuleNotFoundError, match=missing) as err:
        dist_engine._lazy_import("qmmp132_no_such_module")
    assert err.value.name == "qmmp132_no_such_module"
    assert "qmmp132_no_such_module" not in sys.modules
