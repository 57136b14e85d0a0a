"""Permutation primitives: avoidance, enumeration, parsing, inversion."""

from __future__ import annotations

import math
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_avoids_132, oracle_catalan, oracle_contains
from qmmp132 import (
    DEFAULT_ENUM_CAP,
    ResourceLimitError,
    avoids_132,
    catalan,
    contains_classical,
    format_perm,
    gen_avoiders,
    inverse,
    parse_perm,
    reduce_word,
)
from qmmp132.perm_core import (
    all_perms,
    avoiders_after_also_avoiding,
    count_avoiders,
    is_permutation,
)

CATALAN_FROZEN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]

perm_strategy = st.integers(0, 7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
)


def test_catalan_frozen_values():
    assert [catalan(n) for n in range(11)] == CATALAN_FROZEN


def test_catalan_matches_binomial_formula():
    for n in range(60):
        assert catalan(n) == math.comb(2 * n, n) // (n + 1)
        assert catalan(n) == oracle_catalan(n)


def test_catalan_rejects_negative():
    with pytest.raises(ValueError):
        catalan(-1)


def test_is_permutation():
    assert is_permutation((2, 1, 3))
    assert is_permutation(())
    assert not is_permutation((1, 1, 2))
    assert not is_permutation((0, 1, 2))


def test_reduce_word_example():
    assert reduce_word((2, 7, 5, 4)) == (1, 4, 3, 2)


def test_reduce_word_identity_on_permutations():
    assert reduce_word((3, 1, 2)) == (3, 1, 2)
    assert reduce_word(()) == ()


def test_reduce_word_rejects_duplicates():
    with pytest.raises(ValueError):
        reduce_word((1, 2, 1))


def test_avoids_132_examples():
    assert avoids_132((3, 2, 1))
    assert not avoids_132((1, 3, 2))
    assert not avoids_132((4, 7, 1, 5, 6, 9, 2, 8, 3))
    assert avoids_132(())
    assert avoids_132((1,))


def test_avoids_132_matches_oracle_exhaustively():
    for n in range(7):
        for p in permutations(range(1, n + 1)):
            assert avoids_132(p) == oracle_avoids_132(p), p


@settings(max_examples=200)
@given(perm_strategy)
def test_avoids_132_matches_oracle_random(p):
    assert avoids_132(tuple(p)) == oracle_avoids_132(p)


def test_gen_avoiders_counts_are_catalan():
    for n in range(9):
        assert count_avoiders(n) == catalan(n)


def test_gen_avoiders_members_are_distinct_avoiders():
    for n in range(7):
        got = list(gen_avoiders(n))
        assert len(got) == len(set(got)) == catalan(n)
        for p in got:
            assert is_permutation(p)
            assert oracle_avoids_132(p)


def test_gen_avoiders_enforces_cap():
    over = r"^enumeration of S_15\(132\) exceeds cap 14$"
    with pytest.raises(ResourceLimitError, match=over):
        gen_avoiders(DEFAULT_ENUM_CAP + 1)  # raised at the call, not on iteration
    with pytest.raises(ResourceLimitError, match=over):
        count_avoiders(DEFAULT_ENUM_CAP + 1)
    with pytest.raises(ResourceLimitError, match=over):
        avoiders_after_also_avoiding(DEFAULT_ENUM_CAP + 1, [(1, 2, 3)])
    gen_avoiders(DEFAULT_ENUM_CAP)  # the limit itself is accepted
    assert count_avoiders(5) == 42


def test_gen_avoiders_rejects_negative():
    with pytest.raises(ValueError):
        gen_avoiders(-1)


def test_contains_classical_examples():
    assert contains_classical((4, 7, 1, 5, 6, 9, 2, 8, 3), (1, 3, 2))
    assert not contains_classical((3, 2, 1), (1, 2))
    assert contains_classical((3, 2, 1), ())
    assert not contains_classical((2, 1), (1, 2, 3))


def test_contains_classical_accepts_unreduced_patterns():
    # (2, 7, 5) reduces to (1, 3, 2)
    assert contains_classical((1, 3, 2), (2, 7, 5))


def test_contains_classical_matches_oracle():
    pats = [(1, 2), (2, 1), (1, 3, 2), (3, 1, 2), (1, 2, 3), (2, 1, 4, 3)]
    for n in range(6):
        for p in permutations(range(1, n + 1)):
            for pat in pats:
                assert contains_classical(p, pat) == oracle_contains(p, pat)


def test_avoids_132_consistent_with_contains():
    for n in range(7):
        for p in permutations(range(1, n + 1)):
            assert avoids_132(p) == (not contains_classical(p, (1, 3, 2)))


def test_all_perms():
    assert sorted(all_perms(3)) == sorted(permutations((1, 2, 3)))
    assert list(all_perms(0)) == [()]


def test_inverse_example_and_involution():
    assert inverse((2, 3, 1)) == (3, 1, 2)
    for p in permutations(range(1, 6)):
        assert inverse(inverse(p)) == p
        q = inverse(p)
        assert all(q[p[i] - 1] == i + 1 for i in range(len(p)))


@settings(max_examples=100)
@given(perm_strategy)
def test_inverse_preserves_avoidance(p):
    # 132 viewed as a permutation is its own inverse, so S_n(132) is
    # closed under inversion
    p = tuple(p)
    assert avoids_132(p) == avoids_132(inverse(p))


def test_parse_perm_formats():
    assert parse_perm("471569283") == (4, 7, 1, 5, 6, 9, 2, 8, 3)
    assert parse_perm("10,3,1,2,4,5,6,7,8,9") == (10, 3, 1, 2, 4, 5, 6, 7, 8, 9)
    assert parse_perm("") == ()
    assert parse_perm(" 312 ") == (3, 1, 2)


def test_parse_perm_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_perm("122")  # repeated value
    with pytest.raises(ValueError):
        parse_perm("13")  # not a rearrangement of 1..2
    with pytest.raises(ValueError):
        parse_perm("a1")


def test_format_perm_roundtrip():
    assert format_perm((4, 7, 1, 5, 6, 9, 2, 8, 3)) == "471569283"
    long = tuple(range(10, 0, -1))
    assert format_perm(long) == "10,9,8,7,6,5,4,3,2,1"
    assert parse_perm(format_perm(long)) == long


def test_avoiders_after_also_avoiding():
    # forbidding nothing extra leaves all avoiders
    for n in range(6):
        assert avoiders_after_also_avoiding(n, []) == catalan(n)
    # cross-check one nontrivial set against a direct scan
    extra = [(3, 1, 2, 4), (4, 1, 2, 3)]
    for n in range(7):
        direct = sum(
            1
            for p in permutations(range(1, n + 1))
            if oracle_avoids_132(p)
            and all(not oracle_contains(p, q) for q in extra)
        )
        assert avoiders_after_also_avoiding(n, extra) == direct
