"""Quadrant counts, pattern parsing, and the match-count statistic."""

from __future__ import annotations

import pickle
import re
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_mmp_count, oracle_quadrant_counts
from qmmp132 import (
    EMPTY,
    TSeries,
    check_closed_forms,
    choose_route,
    classical_equivalence_check,
    cross_validate,
    dispatch,
    export_sequence,
    format_pattern,
    gen_avoiders,
    inverse,
    make_pattern,
    matches_at,
    mmp_count,
    parse_pattern,
    parse_perm,
    q_poly_bruteforce,
    q_poly_gf,
    q_poly_recursive,
    q_series_recursive,
    quadrant_counts,
    swap_b_d,
)
from qmmp132 import dist_engine, gf_formulas
from qmmp132.gf_formulas import block_series

perm_strategy = st.integers(1, 7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
)
bound_strategy = st.one_of(st.integers(0, 3), st.just(EMPTY))
pattern_strategy = st.tuples(bound_strategy, bound_strategy, bound_strategy, bound_strategy)


def test_quadrant_counts_frozen_examples():
    p = parse_perm("471569283")
    assert quadrant_counts(p, 4) == (3, 1, 2, 2)
    assert quadrant_counts(p, 3) == (6, 2, 0, 0)


def test_quadrant_counts_sum_identity():
    p = parse_perm("471569283")
    for i in range(1, len(p) + 1):
        assert sum(quadrant_counts(p, i)) == len(p) - 1


def test_quadrant_counts_position_out_of_range():
    with pytest.raises(IndexError):
        quadrant_counts((1, 2, 3), 0)
    with pytest.raises(IndexError):
        quadrant_counts((1, 2, 3), 4)


def test_quadrant_counts_matches_oracle_exhaustively():
    for n in range(1, 7):
        for p in permutations(range(1, n + 1)):
            for i in range(1, n + 1):
                assert quadrant_counts(p, i) == oracle_quadrant_counts(p, i)


def test_matches_at_frozen_example():
    p = parse_perm("471569283")
    assert matches_at(p, 3, parse_pattern("4,2,e,e"))
    # position 3 holds value 1: six larger values follow, two precede
    assert not matches_at(p, 3, parse_pattern("7,2,e,e"))
    assert not matches_at(p, 4, parse_pattern("4,2,e,e"))


def test_empty_bound_requires_exactly_zero():
    # in (1, 2, 3) every earlier value is smaller, so quadrant II is
    # empty at each position while III is not (except at position 1)
    p = (1, 2, 3)
    assert matches_at(p, 2, make_pattern(0, EMPTY, 1, 0))
    assert not matches_at(p, 2, make_pattern(0, 1, EMPTY, 0))
    assert mmp_count(p, make_pattern(EMPTY, EMPTY, 0, EMPTY)) == 1  # only n


def test_zero_bound_imposes_nothing():
    for n in range(6):
        for p in permutations(range(1, n + 1)):
            assert mmp_count(p, make_pattern(0, 0, 0, 0)) == n


def test_mmp_count_frozen_examples():
    assert mmp_count((5, 4, 3, 2, 1), make_pattern(1, 1, 1, 0)) == 0
    # hand-check for 341256: position 4 (value 2) is the unique match --
    # QI holds 5,6; QII holds 3,4; QIII holds 1; positions 1,2 have empty
    # QII, position 3 has empty QIII, positions 5,6 have empty QII or QI
    assert mmp_count(parse_perm("341256"), make_pattern(1, 1, 1, 0)) == 1
    assert oracle_mmp_count(parse_perm("341256"), make_pattern(1, 1, 1, 0)) == 1
    assert mmp_count(parse_perm("471569283"), parse_pattern("4,2,e,e")) == 1


def test_mmp_count_matches_oracle_exhaustively():
    patterns = [
        make_pattern(*t)
        for t in product([0, 1, 2, EMPTY], repeat=4)
    ]
    for n in range(6):
        for p in permutations(range(1, n + 1)):
            for pat in patterns:
                assert mmp_count(p, pat) == oracle_mmp_count(p, pat), (p, pat)


@settings(max_examples=300)
@given(perm_strategy, pattern_strategy)
def test_mmp_count_matches_oracle_random(p, pat):
    p = tuple(p)
    assert mmp_count(p, pat) == oracle_mmp_count(p, pat)


def test_make_pattern_validation():
    assert make_pattern(1, EMPTY, 0, 2) == (1, EMPTY, 0, 2)
    with pytest.raises(ValueError):
        make_pattern(1, -1, 0, 0)
    with pytest.raises(ValueError):
        make_pattern(1, 0.5, 0, 0)
    with pytest.raises(ValueError):
        make_pattern(1, "e", 0, 0)  # the string is not the sentinel
    with pytest.raises(ValueError):
        make_pattern(True, 0, 0, 0)  # bools are not bounds


@pytest.mark.parametrize(
    "pat", [(0, 0, 0), (0, -1, 0, 0), (0, 0.5, 0, 0), (0, 0, 0, 0, 0)], ids=repr
)
def test_mmp_count_and_matches_at_reject_malformed_patterns(pat):
    # zip once dropped a missing fourth bound: (0, 0, 0) counted 3 on (1, 2, 3)
    with pytest.raises(ValueError):
        mmp_count((1, 2, 3), pat)
    with pytest.raises(ValueError):
        mmp_count((), pat)
    with pytest.raises(ValueError):
        matches_at((1, 2, 3), 1, pat)


@pytest.mark.parametrize(
    "pat",
    [[1, 1, 1, 1], (1, True, 0, 0), (1, 0.5, 0, 0), (1, EMPTY, 0, 0), (1, -1, 0, 0), (1, 0, 0)],
    ids=repr,
)
def test_every_engine_rejects_malformed_patterns(pat):
    # the enumeration, the recursion and the formula route share one contract
    for engine in (q_poly_recursive, q_poly_bruteforce, lambda n, p: dispatch(p, n)):
        with pytest.raises(ValueError):
            engine(3, pat)


# every public entry that takes a length or an order, called with it as n
LENGTH_ENTRIES = {
    "q_poly_recursive": lambda n: q_poly_recursive(n, (1, 1, 1, 1)),
    "q_poly_bruteforce": lambda n: q_poly_bruteforce(n, (1, 1, 1, 1)),
    "q_poly_gf": lambda n: q_poly_gf(n, (1, 1, 1, 1)),
    "q_series_recursive": lambda n: q_series_recursive((1, 1, 1, 1), n),
    "dispatch": lambda n: dispatch((1, 1, 1, 1), n),
    "block_series": lambda n: block_series((1, 1, 1, 1), n),
    "choose_route": lambda n: choose_route((1, 1, 1, 1), n),
    "export_sequence": lambda n: export_sequence((1, 1, 1, 1), "x0", n),
    "check_closed_forms": lambda n: check_closed_forms(n_max=n),
    "cross_validate n_max": lambda n: cross_validate(1, n, 3),
    "cross_validate order": lambda n: cross_validate(1, 3, n),
    "classical_equivalence_check": lambda n: classical_equivalence_check(
        (1, 1, 1, 0), [(1, 3, 2)], n
    ),
    "gen_avoiders": gen_avoiders,
    "TSeries": TSeries,
}


@pytest.mark.parametrize("n", [True, 2.5, "3", None, -1, np.int64(3)], ids=repr)
@pytest.mark.parametrize("entry", LENGTH_ENTRIES)
def test_every_entry_rejects_malformed_lengths_before_any_work(entry, n):
    # one check and one message for every length, never a TypeError
    dist_engine.clear_recursion_memo()
    dist_engine.clear_brute_cache()
    gf_formulas.clear_gf_cache()
    text = f"length must be a nonnegative int, got {n!r}"
    if (entry, n) == ("check_closed_forms", -1):  # no length up to n_max
        text = "n_max must be >= 1"
    with pytest.raises(ValueError, match=re.escape(text)):
        LENGTH_ENTRIES[entry](n)
    assert not dist_engine._memo
    assert not gf_formulas._cache
    assert not dist_engine._count_tensors


def test_choose_route_pattern_is_the_dispatch_cache_key():
    gf_formulas.clear_gf_cache()
    dispatch((1, 99, 0, 0), 6)
    assert (choose_route((1, 99, 0, 0), 6).pattern, 6) in gf_formulas._cache


def test_parse_pattern():
    assert parse_pattern("4,2,e,e") == (4, 2, EMPTY, EMPTY)
    assert parse_pattern(" 1 , 1 , 1 , 0 ") == (1, 1, 1, 0)
    with pytest.raises(ValueError):
        parse_pattern("1,1,1")
    with pytest.raises(ValueError):
        parse_pattern("1,1,1,1,1")
    with pytest.raises(ValueError):
        parse_pattern("1,1,x,1")
    with pytest.raises(ValueError):
        parse_pattern("1,1,-1,1")


def test_format_pattern_roundtrip():
    for pat in [(4, 2, EMPTY, EMPTY), (0, 0, 0, 0), (1, EMPTY, 3, 0)]:
        assert parse_pattern(format_pattern(pat)) == pat
    assert format_pattern((4, 2, EMPTY, EMPTY)) == "4,2,e,e"


def test_empty_is_a_picklable_singleton():
    assert pickle.loads(pickle.dumps(EMPTY)) is EMPTY
    assert repr(EMPTY) == "EMPTY"
    assert type(EMPTY)() is EMPTY


def test_swap_b_d():
    assert swap_b_d((1, 2, 3, 4)) == (1, 4, 3, 2)
    assert swap_b_d((1, EMPTY, 3, 0)) == (1, 0, 3, EMPTY)
    assert swap_b_d(swap_b_d((1, 2, 3, 4))) == (1, 2, 3, 4)


def test_inversion_identity_exhaustive():
    """mmp_count(p, pat) == mmp_count(inverse(p), swap_b_d(pat)).

    Inverting reflects the plot across the main diagonal, exchanging
    quadrants II and IV; holds for EMPTY bounds too.
    """
    patterns = [
        make_pattern(*t)
        for t in product([0, 1, 2, EMPTY], repeat=4)
    ]
    for n in range(6):
        for p in permutations(range(1, n + 1)):
            q = inverse(p)
            for pat in patterns:
                assert mmp_count(p, pat) == mmp_count(q, swap_b_d(pat))


@settings(max_examples=300)
@given(perm_strategy, pattern_strategy)
def test_inversion_identity_random(p, pat):
    p = tuple(p)
    assert mmp_count(p, pat) == mmp_count(inverse(p), swap_b_d(pat))


def test_monotonicity_in_bounds():
    """Raising any natural bound can only shrink the match count."""
    base_patterns = [t for t in product([0, 1, 2], repeat=4)]
    for n in range(6):
        for p in permutations(range(1, n + 1)):
            for pat in base_patterns:
                base = mmp_count(p, pat)
                for k in range(4):
                    bumped = pat[:k] + (pat[k] + 1,) + pat[k + 1 :]
                    assert mmp_count(p, bumped) <= base
