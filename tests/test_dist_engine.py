"""The two ground-truth engines: brute-force enumeration and the recursion."""

from __future__ import annotations

import marshal
import os
import random
import sys
import tracemalloc
from itertools import product
from types import SimpleNamespace

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
    """No position can match while n <= a+b+c+d, so Q_n is the constant C_n,
    read from no table: a cleared memo stays empty and unsized."""
    for pat in natural_patterns(3):
        for n in range(min(sum(pat), 8) + 1):
            clear_recursion_memo()
            assert q_poly_recursive(n, pat) == XPoly((catalan(n),)), (n, pat)
            assert dist_engine._memo == {} and dist_engine._limb == 0, (n, pat)


def test_a_series_fills_only_the_lengths_that_can_match():
    # every length n <= 44 clamps c = 40 or cannot match, so it fills nothing:
    # the one box is that of (64, (2, 2, 40, 2)), every row of it at c = 40
    clear_recursion_memo()
    q_series_recursive((2, 2, 40, 2), 64)
    assert len(dist_engine._memo) == 1_713
    assert all(key[3] == 40 for key in dist_engine._memo)


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
    with pytest.raises(ResourceLimitError):  # no match, but still past the limit
        q_poly_recursive(RECURSION_N_MAX + 1, (RECURSION_N_MAX + 1, 0, 0, 0))
    with pytest.raises(ValueError):
        q_series_recursive((3, 3, 3, 3), -1)
    assert dist_engine._memo == {}
    assert dist_engine._limb == width


# _FORK_WORK for each of _fill's two paths: at 0 every box is filled by two
# processes, and above the work of every box by one
FILL_PATHS = {"two-process": 0, "one-process": 1 << 62}
on_both_paths = pytest.mark.parametrize("fork_work", FILL_PATHS.values(), ids=FILL_PATHS)


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    """_fill forks only where this process may run on two or more CPUs:
    each test sees two, whatever the host allows."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture(params=FILL_PATHS.values(), ids=FILL_PATHS)
def fill_path(request, monkeypatch):
    """Each test that takes it runs once on each path of _fill."""
    monkeypatch.setattr(dist_engine, "_FORK_WORK", request.param)


def _reference_fill(memo, x, n, a, b, c, d):
    """The table fill at the point x as one triple loop over (m, a', b', d') and i."""
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
                            term *= x
                        acc += term
                    memo[key] = acc


def _memo_after(*requests, since=0):
    """The recursion memo after cold requests in turn, the reference's pairs
    at x = +2^h and x = -2^h for the limb the memo ends with, and the
    requests' results.  The reference fills the requests from index
    ``since`` on, the one that drops the memo, and skips those that cannot
    match, which fill nothing."""
    clear_recursion_memo()
    results = [q_poly_recursive(n, pat) for n, pat in requests]
    x = 1 << dist_engine._half(dist_engine._limb)
    plus: dict = {}
    minus: dict = {}
    for n, pat in filter(_can_match, requests[since:]):
        _reference_fill(plus, x, n, *natural_pattern(pat, n))
        _reference_fill(minus, -x, n, *natural_pattern(pat, n))
    assert plus.keys() == minus.keys()
    ref = {key: (p, minus[key]) for key, p in plus.items()}
    return dict(dist_engine._memo), ref, results


def _can_match(request) -> bool:
    """Whether some position of some length-n permutation can match: only
    then does the request fill the memo."""
    n, pat = request
    return sum(natural_pattern(pat, n)) < n


_ROWS_PER_CASE = 3000


@st.composite
def fill_requests(draw, c=None, n_min=0, n_max=24):
    """(n, pattern), n_min <= n <= n_max, filling at most _ROWS_PER_CASE
    rows.  Most draws can match, a + b + c + d < n, and so reach rows whose
    length m is below c, b or d; the rest have bounds up to n + 2 in sum."""
    n = draw(st.integers(n_min, n_max))
    room = n + 2 if draw(st.integers(0, 3)) == 3 else n - 1
    if c is None:
        c = draw(st.integers(0, max(room, 0)))
    b = draw(st.integers(0, max(room - c, 0)))
    d = draw(st.integers(0, max(room - c - b, 0)))
    per_a = sum((min(b, m) + 1) * (min(d, m) + 1) for m in range(1, n + 1))
    a_max = min(room - c - b - d, _ROWS_PER_CASE // max(per_a, 1) - 1)
    a = draw(st.integers(0, max(a_max, 0)))
    return n, (a, b, c, d)


@on_both_paths
@settings(max_examples=30, deadline=None)
@given(st.data())
def test_fill_matches_the_reference_loop(fork_work, data):
    first = data.draw(fill_requests())
    second = data.draw(fill_requests(c=first[1][2]))  # often reads warm rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dist_engine, "_FORK_WORK", fork_work)
        new, ref, _ = _memo_after(first)
        assert list(new) == list(ref) and new == ref
        # a longer second request that can match drops the rows of a first that can
        drops = _can_match(first) and _can_match(second) and first[0] < second[0]
        new, ref, _ = _memo_after(first, second, since=int(drops))
        assert list(new) == list(ref) and new == ref


@on_both_paths
@settings(max_examples=20, deadline=None)
@given(st.data())
def test_a_longer_request_drops_the_warm_memo_once(fork_work, data):
    # both can match, so the first sizes the limb and the longer drops it
    first = data.draw(fill_requests(n_min=1, n_max=23).filter(_can_match))
    longer = data.draw(
        fill_requests(c=first[1][2], n_min=first[0] + 1).filter(_can_match)
    )
    requests = [first, longer] + data.draw(st.lists(fill_requests(), max_size=1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dist_engine, "_FORK_WORK", fork_work)
        new, ref, results = _memo_after(*requests, since=1)
        assert dist_engine._limb == _width(catalan(RECURSION_N_MAX))
        assert list(new) == list(ref) and new == ref  # refilled from the longer on
        for (n, pat), q in zip(requests, results):
            clear_recursion_memo()
            assert q == q_poly_recursive(n, pat), (n, pat)


def test_a_longer_request_drops_the_rows_of_the_shorter():
    # every row of the box (1,0,0,1) at n = 10 has c = 0, and no row of the
    # longer box (2,2,1,2) does: none may survive the drop
    clear_recursion_memo()
    q_poly_recursive(10, (1, 0, 0, 1))
    want = q_poly_recursive(30, (2, 2, 1, 2))
    assert dist_engine._memo and not [k for k in dist_engine._memo if k[3] == 0]
    clear_recursion_memo()
    assert q_poly_recursive(30, (2, 2, 1, 2)) == want


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
    # no length up to 8 = a + b + c + d can match: those fill no rows
    pat, N = (1, 0, 5, 2), 12
    expected = []
    for n in range(N + 1):
        clear_recursion_memo()
        expected.append(q_poly_recursive(n, pat))
    clear_recursion_memo()
    assert list(q_series_recursive(pat, N).coeffs) == expected  # cold
    assert list(q_series_recursive(pat, N).coeffs) == expected  # warm
    clear_recursion_memo()
    q_poly_recursive(9, pat)  # a warm memo sized for a shorter length
    assert dist_engine._limb == _width(catalan(9))
    assert list(q_series_recursive(pat, N).coeffs) == expected
    assert dist_engine._limb == _width(catalan(RECURSION_N_MAX))


def test_fill_matches_the_reference_loop_on_a_large_box(fill_path):
    new, ref, _ = _memo_after((27, (8, 8, 2, 8)))
    assert len(new) == 16_407
    assert new == ref


def test_reflected_twin_rows_are_shared(fill_path):
    # inversion swaps b and d and keeps Q_m: a row with b' > d' is the very
    # object of its twin, and the memo still equals the reference loop's,
    # after a cold fill and after a fill that widens the limb on the way
    pat = (2, 5, 1, 5)
    for requests, objects in [
        (((40, pat),), 1_912),
        (((30, pat),), 1_332),
        (((30, pat), (40, pat)), 1_912),
    ]:
        new, ref, _ = _memo_after(*requests)
        assert new.keys() == ref.keys() and new == ref
        twins = [(k, (k[0], k[1], k[4], k[3], k[2])) for k in new if k[2] > k[4]]
        assert len(twins) > 1000
        assert all(new[k] is new[t] for k, t in twins)
        assert len({id(row) for row in new.values()}) == objects


def _block_partners(key):
    """The rows that Q(1, 0, c, e-1) = Q(0, 0, c, e) equates with a row
    (m, 1, b', c, d'), b'd' = 0, e = b' + d' + 1 (else none)."""
    m, aa, bb, c, dd = key
    if aa != 1 or bb * dd:
        return []
    e = bb + dd + 1
    return [(m, 0, 0, c, e), (m, 0, e, c, 0)]


def test_rows_with_a_proven_value_share_one_object(fill_path):
    # a row with no possible match is C_m, one object per length, and a row
    # of the block identity is the very object of its partner in the box
    clear_recursion_memo()
    q_poly_recursive(40, (8, 8, 8, 8))
    memo = dist_engine._memo
    assert len(memo) == 25_884
    assert len({id(row) for row in memo.values()}) == 7_912
    no_match = {}
    for key, row in memo.items():
        m, aa, bb, c, dd = key
        if aa + bb + c + dd >= m:
            assert row == (catalan(m), catalan(m)), key
            assert no_match.setdefault(m, row) is row, key
    assert len(no_match) == 32
    shared = [
        (key, partner)
        for key in memo
        if sum(key[1:]) < key[0]
        for partner in _block_partners(key)
        if partner in memo
    ]
    assert len(shared) > 400
    assert all(memo[key] is memo[partner] for key, partner in shared)


def test_a_warm_request_does_not_share_a_row_of_the_one_before(fill_path):
    # (m, 1, 0, 2, 5) is in the second box only, its partner (m, 0, 6, 2, 0)
    # in the first only: a row takes only rows of its own fill's box, so the
    # second fill sums the row, equal to the first's but another object
    new, ref, _ = _memo_after((40, (0, 8, 2, 0)), (40, (1, 0, 2, 5)))
    assert list(new) == list(ref) and new == ref
    for m in range(9, 41):
        assert (m, 0, 0, 2, 6) not in new
        row, partner = new[(m, 1, 0, 2, 5)], new[(m, 0, 6, 2, 0)]
        assert row == partner and row is not partner, m


def test_the_block_identity_holds_on_brute_force():
    # Q(1, 0, c, e-1) = Q(0, 0, c, e): the recursion's memo relies on it, and
    # brute force, which does not, checks it
    for c in range(3):
        for e in range(1, 4):
            for n in range(13):
                want = q_poly_bruteforce(n, (0, 0, c, e))
                assert q_poly_bruteforce(n, (1, 0, c, e - 1)) == want, (n, c, e)


def test_rows_with_the_same_pair_share_one_middle(monkeypatch):
    # a row at a' <= 1 reads the middle of its pair {b', d' + a'}, computed
    # once per length and point: a level-1 row shares it with a level-0 row
    # or its level-1 twin, so a cold fill computes fewer middles than it sums
    # rows, each pinned exactly.  Every other _core call is the unmarked head
    # of a marked row (a' = b' = 0).  The counters see one process's calls
    monkeypatch.setattr(dist_engine, "_FORK_WORK", FILL_PATHS["one-process"])
    calls = {"_core": [], "_sum": []}
    for name, seen in calls.items():
        original = getattr(dist_engine, name)

        def counting(*args, _seen=seen, _original=original):
            _seen.append(args)
            return _original(*args)

        monkeypatch.setattr(dist_engine, name, counting)
    for n, pat, middles, summed in [
        (46, (1, 2, 2, 1), 252, 334),
        (44, (1, 3, 1, 1), 363, 442),
    ]:
        for seen in calls.values():
            seen.clear()
        new, ref, _ = _memo_after((n, pat))
        assert new == ref
        marked = sum(1 for args in calls["_sum"] if args[2] == args[3] == 0)
        assert len(calls["_core"]) == 2 * (middles + marked), (n, pat)  # two points
        assert len(calls["_sum"]) == summed, (n, pat)


def test_fill_matches_the_reference_loop_on_a_grid(fill_path):
    # every box a <= 2, b, d <= 3, c <= 2 at n = 24, cold and after another
    # box with the same c: c = 0 makes the family (0,0,0) C_m x^m, every box
    # has match-factor rows (a' = b' = 0), whose middle is marked, and a >= 1
    # shares pair middles between levels 0 and 1.  One reference fill per c
    # serves every box, since each box's rows are those of (2,3,c,3) in its
    # order.
    n = 24
    clear_recursion_memo()
    q_poly_recursive(n, (2, 3, 0, 3))
    x = 1 << dist_engine._half(dist_engine._limb)
    for c in range(3):
        plus: dict = {}
        minus: dict = {}
        _reference_fill(plus, x, n, 2, 3, c, 3)
        _reference_fill(minus, -x, n, 2, 3, c, 3)
        if c == 0:  # the family (0,0,0): C_m x^m
            lengths = range(1, n + 1)
            assert all(plus[(m, 0, 0, 0, 0)] == catalan(m) * x**m for m in lengths)

        def box(a, b, d):
            return [k for k in plus if k[1] <= a and k[2] <= b and k[4] <= d]

        for a, b, d in product(range(3), range(4), range(4)):
            cold = box(a, b, d)
            warm = box(2 - a, 3 - b, d)  # of (2-a, 3-b, c, d), never this box
            held = set(warm)
            warm += [k for k in cold if k not in held]
            for first, want in [((), cold), (((2 - a, 3 - b, c, d),), warm)]:
                clear_recursion_memo()
                for pat in first + ((a, b, c, d),):
                    q_poly_recursive(n, pat)
                assert list(dist_engine._memo) == want, (first, a, b, c, d)
                assert all(dist_engine._memo[k] == (plus[k], minus[k]) for k in want)


def test_the_two_paths_give_one_series_at_the_top_order(monkeypatch):
    # the recursion workload's heaviest box, whose fill the threshold sends
    # to two processes, at the highest order the recursion serves
    pat, N = (4, 2, 4, 8), RECURSION_N_MAX
    series = {}
    for path, fork_work in FILL_PATHS.items():
        monkeypatch.setattr(dist_engine, "_FORK_WORK", fork_work)
        clear_recursion_memo()
        series[path] = q_series_recursive(pat, N)
    assert series["two-process"] == series["one-process"]
    assert all(q.eval_at(1) == catalan(n) for n, q in enumerate(series["two-process"].coeffs))


def _assert_no_child():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_a_two_process_fill_reaps_its_child(monkeypatch):
    monkeypatch.setattr(dist_engine, "_FORK_WORK", 0)
    _assert_no_child()
    new, ref, _ = _memo_after((30, (2, 3, 1, 2)))
    assert new == ref
    _assert_no_child()


def _roles(monkeypatch):
    """The (plus, minus) role of each _points call this process makes."""
    roles = []
    points = dist_engine._points

    def recording(*args):
        roles.append(args[6:8])
        return points(*args)

    monkeypatch.setattr(dist_engine, "_points", recording)
    return roles


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_a_failed_child_leaves_the_memo_of_one_process(monkeypatch):
    # the child's pass at -x raises at length 20: this process pairs the
    # rows below it, reaps the child, and fills the rest at both points
    request = (40, (2, 5, 1, 5))
    monkeypatch.setattr(dist_engine, "_FORK_WORK", FILL_PATHS["one-process"])
    one, _, _ = _memo_after(request)
    monkeypatch.setattr(dist_engine, "_FORK_WORK", 0)
    roles = _roles(monkeypatch)
    summing = dist_engine._sum

    def failing(fams, m, *args):
        if m == 20 and fams[0][0][0][2] is None:  # a pass at -x alone
            raise RuntimeError("the child's pass fails")
        return summing(fams, m, *args)

    monkeypatch.setattr(dist_engine, "_sum", failing)
    new, ref, _ = _memo_after(request)
    assert roles == [(True, False), (True, True)]
    assert list(new) == list(one) and new == one == ref
    assert len({id(row) for row in new.values()}) == 1_912  # as on one process
    _assert_no_child()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
@pytest.mark.parametrize(
    "corrupt", [lambda values: values[1:], lambda values: [1] + values], ids=["short", "long"]
)
def test_a_child_that_sums_other_rows_raises(monkeypatch, corrupt):
    # the child's blob of length 20 holds one value fewer or one more than
    # the rows this process sums there: its pairs cannot be trusted, so the
    # memo is dropped and the child reaped
    monkeypatch.setattr(dist_engine, "_FORK_WORK", 0)
    sent = []  # the child's values, one list per length

    def dumps(values):
        sent.append(values)
        return marshal.dumps(corrupt(values) if len(sent) == 20 else values)

    link_format = SimpleNamespace(dumps=dumps, loads=marshal.loads)
    monkeypatch.setattr(dist_engine, "marshal", link_format)
    clear_recursion_memo()
    with pytest.raises(ArithmeticError, match="summed different rows"):
        q_poly_recursive(40, (2, 5, 1, 5))
    assert dist_engine._memo == {}
    assert not sent  # dumps ran in the child alone
    _assert_no_child()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_on_one_cpu_one_process_fills_the_box(monkeypatch):
    # two processes pinned to one CPU would take turns: no child is forked
    monkeypatch.setattr(dist_engine, "_FORK_WORK", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    roles = _roles(monkeypatch)
    new, ref, _ = _memo_after((30, (2, 3, 1, 2)))
    assert roles == [(True, True)]
    assert list(new) == list(ref) and new == ref
    _assert_no_child()


def test_without_fork_one_process_fills_the_box(monkeypatch):
    monkeypatch.setattr(dist_engine, "_FORK_WORK", 0)
    monkeypatch.delattr(os, "fork", raising=False)
    roles = _roles(monkeypatch)
    new, ref, _ = _memo_after((30, (2, 3, 1, 2)))
    assert roles == [(True, True)]
    assert list(new) == list(ref) and new == ref


def test_limb_width_holds_every_coefficient():
    # (0,0,0,0) puts all C_n permutations in one coefficient: the top limb
    # holds the bound itself, so a limb one bit short of it fails here
    for n in range(1, RECURSION_N_MAX + 1):
        clear_recursion_memo()
        q = q_poly_recursive(n, (0, 0, 0, 0))
        assert dist_engine._limb == _width(catalan(n))
        assert q == XPoly((0,) * n + (catalan(n),)), n


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_row_round_trips_through_its_two_points(data):
    # width(C_n) is odd for some n and even for others: 2h = limb or limb + 1
    n = data.draw(st.integers(1, RECURSION_N_MAX))
    limb = _width(catalan(n))
    coeffs = data.draw(st.lists(st.integers(0, catalan(n)), max_size=n + 1))
    x = 1 << dist_engine._half(limb)
    row = XPoly(coeffs).eval_at(x), XPoly(coeffs).eval_at(-x)
    assert dist_engine._decode(row, limb) == XPoly(coeffs)


def test_a_corrupted_row_raises_instead_of_decoding():
    clear_recursion_memo()
    want = q_poly_recursive(20, (1, 0, 2, 1))
    key = (20, 1, 0, 2, 1)
    p, q = dist_engine._memo[key]
    h = dist_engine._half(dist_engine._limb)
    # an odd p + q, then an even p + q whose p - q is not a multiple of 2^(h+1)
    for bad in ((p + 1, q), (p, q + 2), (p + (1 << h), q)):
        dist_engine._memo[key] = bad
        with pytest.raises(ArithmeticError):
            q_poly_recursive(20, (1, 0, 2, 1))
    dist_engine._memo[key] = (p, q)
    assert q_poly_recursive(20, (1, 0, 2, 1)) == want
    clear_recursion_memo()


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
