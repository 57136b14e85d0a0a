"""Acceptance suite: one test per shipped criterion, exact equality throughout.

Each test prints a single summary line on success, so a verbose run reads
as a checklist.  No tolerances anywhere: every comparison is integer or
polynomial equality.
"""

from __future__ import annotations

import time
from itertools import product

import numpy as np

from conftest import load_reference_series, natural_patterns, patterns_with_sum_at_most
from qmmp132 import (
    EMPTY,
    catalan,
    check_closed_forms,
    classical_equivalence_check,
    cli,
    dispatch,
    inverse,
    mmp_count,
    q_poly_bruteforce,
    q_poly_recursive,
)
from qmmp132.dist_engine import (
    avoiders_array,
    clear_brute_cache,
    clear_recursion_memo,
    q_series_recursive,
)
from qmmp132.gf_formulas import clear_gf_cache
from qmmp132.mmp_stat import quadrant_counts, swap_b_d
from qmmp132.poly_series import TSeries

# the twelve reference expansions and the order each must reach
REQUIRED_REFERENCE_ORDERS = {
    (1, 1, 1, 0): 9,
    (1, 1, 2, 0): 9,
    (2, 1, 1, 0): 10,
    (1, 2, 1, 0): 9,
    (2, 2, 1, 0): 9,
    (0, 1, 1, 1): 10,
    (0, 2, 2, 2): 12,
    (1, 1, 0, 1): 10,
    (2, 1, 0, 1): 10,
    (1, 1, 1, 1): 10,
    (2, 1, 1, 1): 10,
    (3, 1, 1, 1): 10,
}


def test_criterion_1_reference_series_reproduction(capsys):
    """GF route reproduces the frozen reference expansions exactly."""
    blocks = load_reference_series()
    assert set(blocks) == set(REQUIRED_REFERENCE_ORDERS)
    rows_checked = 0
    for pat, need in REQUIRED_REFERENCE_ORDERS.items():
        order, rows = blocks[pat]
        assert order >= need, pat
        # through the library route
        series = dispatch(pat, order)
        for n in range(order + 1):
            assert str(series.coeff(n)) == rows[n], (pat, n)
            rows_checked += 1
        # and through the CLI series command
        patstr = ",".join(str(v) for v in pat)
        code = cli.main(
            ["series", "--pattern", patstr, "--order", str(order), "--method", "gf"]
        )
        out = capsys.readouterr().out
        want = "".join(f"t^{n}: {rows[n]}\n" for n in range(order + 1))
        assert code == 0 and out == want, pat
    print(
        f"ACCEPTANCE 1: PASS -- {len(blocks)} reference expansions, "
        f"{rows_checked} polynomial rows reproduced by the formula route"
    )


def test_criterion_2_triple_engine_agreement():
    """brute == recursion (n <= 9) and recursion == formulas (t^10)."""
    family = patterns_with_sum_at_most(5)
    assert len(family) == 126 >= 120
    for pat in family:
        for n in range(10):
            assert q_poly_bruteforce(n, pat) == q_poly_recursive(n, pat), (pat, n)
        assert dispatch(pat, 10) == q_series_recursive(pat, 10), pat
    print(
        "ACCEPTANCE 2: PASS -- 126 patterns with total bound <= 5: "
        "brute == recursion for n <= 9, recursion == formulas through t^10"
    )


def test_criterion_3_x0_closed_forms():
    """Exact zero-match counts for three benchmark patterns."""
    for n in range(1, 21):
        assert q_poly_recursive(n, (1, 1, 0, 1)).coeff(0) == (n - 1) ** 2 + 1, n
    for n in range(1, 21):
        want = 1 if n == 1 else (n - 1) * 2 ** (n - 2) + 1
        assert q_poly_recursive(n, (0, 1, 1, 1)).coeff(0) == want, n
    den = TSeries(20, [1, -7, 18, -20, 8])  # (1 - t)(1 - 2t)^3
    rational = den.reciprocal(TSeries(20, [1, -6, 13, -11, 3, -2, 1]))
    for s in (q_series_recursive((1, 1, 1, 1), 20), dispatch((1, 1, 1, 1), 20)):
        assert TSeries(20, [p.coeff(0) for p in s.coeffs]) == rational
    print(
        "ACCEPTANCE 3: PASS -- (1,1,0,1) and (0,1,1,1) zero-match counts to "
        "n = 20; (1,1,1,1) zero-match series matches its rational form to t^20"
    )


def test_criterion_4_closed_form_registry():
    """Every registered coefficient formula holds for n <= 25."""
    report = check_closed_forms(n_max=25)
    assert report.all_passed, "\n" + str(report)
    tally = str(report).splitlines()[-1]
    assert tally == "40/40 checks passed"
    print(f"ACCEPTANCE 4: PASS -- closed-form registry to n = 25: {tally}")


def test_criterion_5_classical_equivalences():
    """Zero-match counts coincide with classical multi-avoidance counts."""
    first = classical_equivalence_check(
        (1, 1, 1, 0), ["132", "3124", "4123"], 9
    )
    assert first.all_equal, "\n" + str(first)
    rows = {n: lhs for n, lhs, _ in first.rows}
    assert rows[8] == 320 and rows[9] == 704
    second = classical_equivalence_check(
        (1, 1, 1, 1), ["132", "52314", "52341", "42315", "42351"], 9
    )
    assert second.all_equal, "\n" + str(second)
    rows = {n: lhs for n, lhs, _ in second.rows}
    assert rows[8] == 609 and rows[9] == 1457
    print(
        "ACCEPTANCE 5: PASS -- zero-match columns of (1,1,1,0) and (1,1,1,1) "
        "match their classical avoidance families for n <= 9"
    )


def _match_vectors(counts: np.ndarray, pattern) -> np.ndarray:
    """Per-permutation match counts for one pattern, vectorized."""
    ok = np.ones(counts.shape[:2], dtype=bool)
    for axis, bound in enumerate(pattern):
        if bound is EMPTY:
            ok &= counts[:, :, axis] == 0
        else:
            ok &= counts[:, :, axis] >= bound
    return ok.sum(axis=1)


def test_criterion_6_invariant_suite():
    """Total count, reflection symmetry, monotonicity, inverse identity."""
    # total-count identity across the entries<=3 box up to n = 25
    for pat in natural_patterns(3):
        for n in range(26):
            assert q_poly_recursive(n, pat).eval_at(1) == catalan(n), (pat, n)
    # reflection symmetry up to n = 12
    for pat in natural_patterns(3):
        mirrored = swap_b_d(pat)
        for n in range(13):
            assert q_poly_recursive(n, pat) == q_poly_recursive(n, mirrored)
    # pointwise invariants, exhaustively over S_n(132) for n <= 7
    bumps_checked = 0
    for n in range(1, 8):
        perms = avoiders_array(n)
        counts = np.empty((perms.shape[0], n, 4), dtype=np.int16)
        row_of = {}
        for r, row in enumerate(perms):
            p = tuple(int(v) for v in row)
            row_of[p] = r
            for i in range(1, n + 1):
                counts[r, i - 1] = quadrant_counts(p, i)
        inv_row = np.empty(perms.shape[0], dtype=np.int64)
        for p, r in row_of.items():
            inv_row[r] = row_of[inverse(p)]
        natural = [t for t in product(range(3), repeat=4)]
        with_empty = [t for t in product((0, 1, 2, EMPTY), repeat=4)]
        for pat in natural:
            base = _match_vectors(counts, pat)
            # raising any single bound can only lose matches
            for k in range(4):
                bumped = pat[:k] + (pat[k] + 1,) + pat[k + 1 :]
                assert (_match_vectors(counts, bumped) <= base).all(), (n, pat, k)
                bumps_checked += 1
        for pat in with_empty:
            # inverting the permutation swaps the off-diagonal bounds
            lhs = _match_vectors(counts, pat)
            rhs = _match_vectors(counts, swap_b_d(pat))
            assert (lhs == rhs[inv_row]).all(), (n, pat)
    # spot-check the numpy tensors against the scalar statistic
    assert mmp_count((3, 4, 1, 2, 5, 6), (1, 1, 1, 0)) == 1
    print(
        "ACCEPTANCE 6: PASS -- totals are Catalan to n = 25, reflection "
        "symmetry to n = 12, monotonicity and inverse identity exhaustive "
        f"for n <= 7 ({bumps_checked} bound bumps)"
    )


def test_criterion_7_performance_floor():
    """Cold-start speed: enumeration at n = 12, recursion to n = 40."""
    clear_brute_cache()
    t0 = time.perf_counter()
    q = q_poly_bruteforce(12, (1, 1, 1, 1))
    brute_elapsed = time.perf_counter() - t0
    assert q.eval_at(1) == catalan(12) == 208012
    assert brute_elapsed < 10.0, f"brute force took {brute_elapsed:.2f}s"
    rec_worst = 0.0
    for pat in [(4, 4, 4, 4), (1, 1, 1, 1), (4, 0, 4, 0), (2, 3, 4, 1)]:
        clear_recursion_memo()
        clear_gf_cache()
        t0 = time.perf_counter()
        q = q_poly_recursive(40, pat)
        elapsed = time.perf_counter() - t0
        assert q.eval_at(1) == catalan(40)
        assert elapsed < 1.0, f"recursion for {pat} took {elapsed:.2f}s"
        rec_worst = max(rec_worst, elapsed)
    print(
        f"ACCEPTANCE 7: PASS -- cold brute force at n = 12 in "
        f"{brute_elapsed:.2f}s (< 10s); cold recursion to n = 40 in "
        f"{rec_worst:.3f}s worst case (< 1s each)"
    )
