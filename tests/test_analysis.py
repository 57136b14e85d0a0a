"""Coefficient exports, the closed-form registry, and cross-validation."""

from __future__ import annotations

import re
from itertools import permutations

import pytest

from conftest import oracle_avoids_132, oracle_contains
from qmmp132 import (
    ResourceLimitError,
    XPoly,
    avoidance_sequence,
    catalan,
    check_closed_forms,
    classical_equivalence_check,
    cross_validate,
    default_registry,
    export_sequence,
    q_poly_bruteforce,
    q_poly_recursive,
    top_coeff_report,
)
from qmmp132 import analysis, dist_engine, gf_formulas
from qmmp132.analysis import ClosedFormCheck, SequenceExport
from qmmp132.dist_engine import q_series_recursive
from qmmp132.mmp_stat import natural_pattern
from qmmp132.poly_series import _width


# ---------------------------------------------------------------------------
# coefficient extraction


def test_top_coeff_report_frozen_examples():
    assert top_coeff_report((1, 1, 1, 0), 7) == (4, 2)
    # Q_5 for (2,1,0,1) is 33+9x: the top power is x^(n-k-2) = x^1, so the
    # report is (1, 9); both engines confirm
    assert top_coeff_report((2, 1, 0, 1), 5) == (1, 9)
    assert str(q_poly_bruteforce(5, (2, 1, 0, 1))) == "33+9x"
    assert top_coeff_report((0, 0, 0, 0), 4) == (4, 14)


def test_export_sequence_transforms():
    top = export_sequence((0, 0, 0, 0), "top", 5)
    assert top.values == tuple(catalan(n) for n in range(1, 6))
    assert top.rows() == [(n, catalan(n)) for n in range(1, 6)]
    x2 = export_sequence((1, 1, 1, 0), "x^2", 7)
    assert x2.values == (0, 0, 0, 0, 2, 18, 97)
    x0 = export_sequence((1, 1, 1, 0), "x0", 4)
    assert x0 == SequenceExport((1, 1, 1, 0), "x0", 1, (1, 2, 5, 12))


def test_export_sequence_validation():
    with pytest.raises(ValueError):
        export_sequence((1, 1, 1, 0), "x^-1", 5)
    with pytest.raises(ValueError):
        export_sequence((1, 1, 1, 0), "x^two", 5)
    with pytest.raises(ValueError):
        export_sequence((1, 1, 1, 0), "bogus", 5)
    with pytest.raises(ValueError):
        export_sequence((1, 1, 1, 0), "x0", 0)


def test_avoidance_sequence_frozen_examples():
    assert avoidance_sequence((1, 1, 1, 0), 9).values == (
        1, 2, 5, 12, 28, 64, 144, 320, 704,
    )
    assert avoidance_sequence((1, 1, 0, 1), 10).values == (
        1, 2, 5, 10, 17, 26, 37, 50, 65, 82,
    )
    assert avoidance_sequence((0, 1, 1, 1), 7).values == (1, 2, 5, 13, 33, 81, 193)


def test_exported_rows_respect_total_count():
    # the x-coefficients of each Q_n always sum to catalan(n)
    for pat in [(1, 1, 1, 0), (2, 1, 0, 1), (0, 1, 1, 1)]:
        for n in range(1, 10):
            assert q_poly_recursive(n, pat).eval_at(1) == catalan(n)


# ---------------------------------------------------------------------------
# closed-form registry


def test_default_registry_shape():
    reg = default_registry()
    assert len(reg) == 40
    names = [c.name for c in reg]
    assert len(set(names)) == 40
    for expected in (
        "1110-top", "1130-second", "2110-top", "1220-top", "2210-top",
        "0111-top", "0132-second", "0222-top", "1101-top", "3101-top",
        "1111-second", "1101-x0", "0111-x0",
    ):
        assert expected in names
    # exactly the series-validated corrections carry explanatory notes
    assert sum(1 for c in reg if c.note) == 8
    # a check of x^(n - shift) starts at n = shift + 1, where the exponent
    # is 1; a check of x^0 starts at n = 1
    for c in reg:
        x0 = c.name.endswith("-x0")
        assert c.validity == 1 if x0 else c.selector(c.validity) == 1, c.name


def test_registry_passes_to_moderate_lengths():
    report = check_closed_forms(n_max=14)
    assert report.all_passed
    assert str(report).endswith("40/40 checks passed")
    for line in str(report).splitlines()[:-1]:
        assert line.startswith("PASS ")


def test_check_report_is_deterministic():
    assert str(check_closed_forms(n_max=10)) == str(check_closed_forms(n_max=10))


# the default registry's report at n_max = 8, one line per check
REPORT_AT_8 = """\
PASS 1110-top (n=4..8)
PASS 1120-top (n=5..8)
PASS 1130-top (n=6..8)
PASS 1110-second (n=5..8)
PASS 1120-second (n=6..8)
PASS 1130-second (n=7..8)
PASS 2110-top (n=5..8)
PASS 2120-top (n=6..8)
PASS 1210-top (n=5..8)
PASS 1220-top (n=6..8)
PASS 1230-top (n=7..8)
PASS 2210-top (n=6..8)
PASS 2220-top (n=7..8)
PASS 0111-top (n=4..8)
PASS 0121-top (n=5..8)
PASS 0131-top (n=6..8)
PASS 0111-second (n=5..8)
PASS 0121-second (n=6..8)
PASS 0131-second (n=7..8)
PASS 0112-top (n=5..8)
PASS 0122-top (n=6..8)
PASS 0132-top (n=7..8)
PASS 0112-second (n=6..8)
PASS 0122-second (n=7..8)
PASS 0132-second (n=8..8)
PASS 0212-top (n=6..8)
PASS 0222-top (n=7..8)
PASS 0232-top (n=8..8)
PASS 1101-top (n=4..8)
PASS 1201-top (n=5..8)
PASS 1301-top (n=6..8)
PASS 1101-second (n=5..8)
PASS 2101-top (n=5..8)
PASS 3101-top (n=6..8)
PASS 1111-top (n=5..8)
PASS 2111-top (n=6..8)
PASS 3111-top (n=7..8)
PASS 1111-second (n=6..8)
PASS 1101-x0 (n=1..8)
PASS 0111-x0 (n=1..8)
40/40 checks passed"""


def test_registry_reads_one_series_per_pattern(monkeypatch):
    # 40 checks share 27 patterns: each pattern's series is read once, in
    # registry order, and serves every check of that pattern
    reads = []

    def counted(pattern, n_max):
        reads.append(pattern)
        return q_series_recursive(pattern, n_max)

    monkeypatch.setattr(analysis, "q_series_recursive", counted)
    registry = default_registry()
    report = check_closed_forms(registry, n_max=8)
    assert reads == list(dict.fromkeys(c.pattern for c in registry))
    assert len(reads) == 27
    assert str(report) == REPORT_AT_8


def _families():
    """The registry rows with a free parameter: 13 of its 20."""
    rows = [row for row in analysis._FAMILIES if "p" in row[0]]
    assert len(analysis._FAMILIES) == 20 and len(rows) == 13
    return rows


def test_every_family_holds_past_its_registry_parameters():
    # each family from its first parameter up to 8, through n = 40: the
    # formulas claim every parameter, not just the registry's 1..3
    checks = [
        analysis._family_check(row, p)
        for row in _families()
        for p in range(row[3][0], 9)
    ]
    assert len(checks) == 100
    report = check_closed_forms(checks, n_max=40)
    assert report.all_passed, str(report)


def test_family_names_stay_distinct_at_two_digit_parameters():
    # at p = 11, 1p01 and p101 would both read 11101: a two-digit parameter
    # writes the pattern with commas, and one-digit names keep their digits
    checks = [
        analysis._family_check(row, p)
        for row in _families()
        for p in range(row[3][0], 17)
    ]
    names = [c.name for c in checks]
    assert len(checks) == len(set(names)) == 204
    assert "1,11,0,1-top" in names and "11,1,0,1-top" in names
    assert "1901-top" in names and "1,10,0,1-top" in names


def test_second_families_fail_at_parameter_one():
    # the general "-second" forms are wrong at p = 1, which is why each has
    # a row of its own there and its family row starts at 2
    rows = [row for row in _families() if row[1] == "second"]
    report = check_closed_forms([analysis._family_check(row, 1) for row in rows])
    assert [(r.name, r.failure[0]) for r in report.results] == [
        ("1110-second", 6),
        ("0111-second", 6),
        ("0112-second", 7),
    ]
    assert [row[3][0] for row in rows] == [2, 2, 2]


def test_single_named_check_line_format():
    reg = [c for c in default_registry() if c.name == "1101-x0"]
    report = check_closed_forms(reg, n_max=12)
    assert str(report).splitlines()[0] == "PASS 1101-x0 (n=1..12)"


def test_failing_formula_reports_first_counterexample():
    bad = ClosedFormCheck(
        name="bogus-x0",
        pattern=(1, 1, 0, 1),
        selector=lambda n: 0,
        formula=lambda n: n * n,  # correct value is (n-1)^2 + 1
        validity=1,
    )
    report = check_closed_forms([bad], n_max=10)
    assert not report.all_passed
    line = report.results[0].line()
    # first mismatch: n=2 gives 4 claimed vs 2 actual
    assert line == "FAIL bogus-x0 at n=2: expected 4, got 2"
    assert str(report).endswith("0/1 checks passed")


def test_top_flag_rejects_wrong_degree_claims():
    bad = ClosedFormCheck(
        name="bogus-top",
        pattern=(1, 1, 1, 0),
        selector=lambda n: n - 2,  # right coefficient slot only for n >= 4
        formula=lambda n: 2,
        validity=3,  # at n=3 the polynomial is the constant 5 (degree 0)
        is_top=True,
    )
    report = check_closed_forms([bad], n_max=6)
    result = report.results[0]
    assert not result.passed
    assert result.failure[0] == 3
    assert "degree" in result.failure[1]


def test_check_with_empty_validity_window():
    check = ClosedFormCheck(
        name="never-applicable",
        pattern=(1, 1, 1, 0),
        selector=lambda n: 0,
        formula=lambda n: 0,
        validity=50,
    )
    # a check whose first length is above n_max checks nothing; when no
    # selected check has a length in range the request is refused
    with pytest.raises(ValueError, match="no selected check"):
        check_closed_forms([check], n_max=10)
    # Q_n of (0,0,0,0) is C_n x^n: every position matches
    applicable = ClosedFormCheck("applicable", (0, 0, 0, 0), lambda n: n, catalan, 1)
    report = check_closed_forms([check, applicable], n_max=10)
    assert report.all_passed
    assert "PASS never-applicable (no n in range)" in str(report)


# ---------------------------------------------------------------------------
# classical avoidance equivalences


def test_equivalence_with_132_fast_path():
    report = classical_equivalence_check(
        (1, 1, 1, 0), [(1, 3, 2), (3, 1, 2, 4), (4, 1, 2, 3)], 7
    )
    assert report.all_equal
    rows = dict((n, (lhs, rhs)) for n, lhs, rhs in report.rows)
    assert rows[6] == (64, 64)
    assert str(report).endswith("result: EQUAL")


def test_equivalence_accepts_string_patterns():
    report = classical_equivalence_check(
        (1, 1, 1, 1), ["132", "52314", "52341", "42315", "42351"], 6
    )
    assert report.all_equal
    rows = dict((n, (lhs, rhs)) for n, lhs, rhs in report.rows)
    assert rows[5] == (38, 38)


def test_equivalence_counts_match_a_direct_scan():
    # the right-hand column on the 132 fast path, against the oracles
    for extra in ([], [(3, 1, 2, 4), (4, 1, 2, 3)]):
        report = classical_equivalence_check((1, 1, 1, 0), [(1, 3, 2), *extra], 6)
        direct = tuple(
            sum(
                1
                for p in permutations(range(1, n + 1))
                if oracle_avoids_132(p)
                and all(not oracle_contains(p, q) for q in extra)
            )
            for n in range(1, 7)
        )
        assert tuple(rhs for _, _, rhs in report.rows) == direct


def test_equivalence_rejects_a_forbidden_entry_of_another_type(monkeypatch):
    def no_rows(*args):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(analysis, "q_poly_recursive", no_rows)
    monkeypatch.setattr(analysis, "q_series_recursive", no_rows)
    for entry in ([1, 2, 3], 123):
        with pytest.raises(ValueError, match=re.escape(repr(entry))):
            classical_equivalence_check((1, 1, 0, 1), [(1, 3, 2), entry], 4)


def test_equivalence_rejects_a_forbidden_argument_that_is_not_a_collection(
    monkeypatch,
):
    def no_rows(*args):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(analysis, "q_poly_recursive", no_rows)
    monkeypatch.setattr(analysis, "q_series_recursive", no_rows)
    # a bare string is not read one character at a time
    for forbidden in ("132", "1", None, 132):
        with pytest.raises(ValueError) as info:
            classical_equivalence_check((1, 1, 0, 1), forbidden, 4)
        assert str(info.value) == (
            f"forbidden must be a collection of patterns, got {forbidden!r}"
        )


def test_equivalence_scan_cap():
    with pytest.raises(ResourceLimitError, match=r"capped at n=10; asked for 11$"):
        classical_equivalence_check((1, 1, 1, 0), [(1, 3, 2)], 11)
    # the limit itself is accepted
    report = classical_equivalence_check((1, 1, 1, 0), [(1, 3, 2)], 10)
    assert len(report.rows) == 10


def test_equivalence_scans_only_s_n_132(monkeypatch):
    """The x=0 column counts 132-avoiders, so 132 must be forbidden: a set
    without it is refused before any row; within S_n(132) a count that
    differs is still reported."""

    def no_rows(*args):
        raise AssertionError("a row was computed")

    with monkeypatch.context() as m:
        m.setattr(analysis, "q_poly_recursive", no_rows)
        m.setattr(analysis, "q_series_recursive", no_rows)
        for forbidden in ([(1, 2, 3)], [], ["213", (3, 1, 2)]):
            with pytest.raises(
                ValueError,
                match=r"^forbidden must include 132: "
                r"the x=0 column counts 132-avoiders$",
            ):
                classical_equivalence_check((0, 0, 0, 0), forbidden, 9)
    report = classical_equivalence_check((1, 1, 1, 0), ["132"], 7)
    assert report.rows[-3:] == ((5, 28, 42), (6, 64, 132), (7, 144, 429))
    assert not report.all_equal
    assert "!=" in str(report)
    assert str(report).endswith("result: NOT EQUAL")
    report = classical_equivalence_check((0, 0, 0, 0), [(1, 3, 2), (1, 2, 3)], 9)
    assert len(report.rows) == 9


@pytest.mark.parametrize(
    "read, n_max",
    [
        (q_series_recursive, 12),
        (lambda p, n: export_sequence(p, "x0", n), 12),
        (lambda p, n: classical_equivalence_check(p, ["132"], n), 10),
    ],
    ids=["q_series_recursive", "export_sequence", "classical_equivalence_check"],
)
def test_one_read_sizes_a_cold_memo_once(read, n_max):
    # the longest row is read first, so the limb is sized from C_n_max and
    # never widened by a shorter read; c = 5 is above the first lengths
    dist_engine.clear_recursion_memo()
    read((1, 0, 5, 2), n_max)
    assert dist_engine._limb == _width(catalan(n_max))


# ---------------------------------------------------------------------------
# cross-validation and its mutation tests


def test_cross_validate_clean_run():
    report = cross_validate(2, 6, 6)
    assert report.passed
    assert report.patterns_checked == 15  # compositions of <= 2 into 4 parts
    assert report.comparisons == 15 * (7 * 2 + 7)
    assert "PASS" in str(report)


def test_cross_validate_catches_corrupt_recursion():
    def rec_ignoring_b(n, pat):
        a, b, c, d = pat
        return q_poly_recursive(n, (a, 0, c, d))

    report = cross_validate(2, 4, 4, rec_fn=rec_ignoring_b)
    assert not report.passed
    kind, pat, n, detail = report.failure
    # the corruption first shows up as a broken reflection symmetry:
    # (0,0,0,1) reflects to (0,1,0,0), whose b bound gets dropped
    assert kind == "reflection-symmetry"
    assert pat == (0, 0, 0, 1)
    assert n == 1
    assert detail == "1 vs reflected x"
    # (0,0,0,0): 2 per length n = 0..4, then 5 orders; (0,0,0,1): 2 at n = 0 and 1
    assert report.comparisons == 19
    assert "FAIL" in str(report)


def test_cross_validate_catches_corrupt_bruteforce():
    def brute_off_by_one(n, pat):
        q = q_poly_bruteforce(n, pat)
        if n == 3 and pat == (0, 0, 1, 0):
            return q + XPoly((1,))
        return q

    report = cross_validate(1, 4, 4, brute_fn=brute_off_by_one)
    assert not report.passed
    kind, pat, n, detail = report.failure
    assert kind == "brute-vs-recursion"
    assert (pat, n) == ((0, 0, 1, 0), 3)
    assert detail == "brute 2+3x+x^2 vs recursion 1+3x+x^2"
    # 15 for each of (0,0,0,0) and (0,0,0,1), then 2 per length n = 0..2 and 1
    assert report.comparisons == 37


def test_cross_validate_catches_corrupt_dispatch():
    def dispatch_ignoring_d(pat, order):
        a, b, c, d = pat
        return q_series_recursive((a, b, c, 0), order)

    report = cross_validate(1, 3, 3, dispatch_fn=dispatch_ignoring_d)
    assert not report.passed
    kind, pat, n, detail = report.failure
    assert kind == "recursion-vs-dispatch"
    assert pat == (0, 0, 0, 1)
    assert n == 1  # Q_1 is 1 for (0,0,0,1) but x for the corrupted (0,0,0,0)
    assert detail == "dispatch x vs recursion 1"
    # 12 for (0,0,0,0), then 8 for the lengths of (0,0,0,1) and 2 orders
    assert report.comparisons == 22


def test_cross_validate_reflection_compares_two_fills():
    # a reflection comparison of two patterns that differ and can match
    # decodes one row from each pattern's own fill, never one memo object
    # twice.  Brute force is the recursion here, so the run takes no
    # enumeration
    reads = []  # (memo key, memo row) of each rec_fn call, in call order

    def recording(n, pat):
        q = q_poly_recursive(n, pat)
        key = (n, *natural_pattern(pat, n))
        reads.append((key, dist_engine._memo.get(key)))
        return q

    dist_engine.clear_recursion_memo()
    report = cross_validate(4, 13, 24, brute_fn=q_poly_recursive, rec_fn=recording)
    assert report.passed and report.comparisons == 3_710
    # rec_fn(n, pat) is followed by rec_fn(n, swap_b_d(pat)) only in a
    # reflection comparison
    pairs = [
        (row, twin_row)
        for ((n, a, b, c, d), row), (twin, twin_row) in zip(reads, reads[1:])
        if twin == (n, a, d, c, b) and b != d and a + b + c + d < n
    ]
    assert len(pairs) == 464
    assert sum(row is twin_row for row, twin_row in pairs) == 0


def test_cross_validate_is_deterministic():
    assert str(cross_validate(2, 5, 5)) == str(cross_validate(2, 5, 5))


# ---------------------------------------------------------------------------
# limits and vacuous requests, checked before any work


@pytest.mark.parametrize(
    "call, error, text",
    [
        (lambda: export_sequence((8, 8, 8, 8), "x0", 65), ResourceLimitError, "got 65"),
        (lambda: export_sequence((8, 8, 8, 8), "x0", 0), ValueError, "n_max"),
        (lambda: check_closed_forms(n_max=65), ResourceLimitError, "got 65"),
        (lambda: check_closed_forms(n_max=-3), ValueError, "n_max"),
        (lambda: check_closed_forms(n_max=0), ValueError, "n_max"),
        (lambda: check_closed_forms([], n_max=10), ValueError, "no checks"),
        (
            # a malformed pattern is refused before any series is read,
            # with the pattern message, not as an unhashable key
            lambda: check_closed_forms(
                [*default_registry(), ClosedFormCheck("list", [1, 1, 1, 0], abs, abs, 1)]
            ),
            ValueError,
            "4-tuple",
        ),
        (
            lambda: classical_equivalence_check((1, 1, 1, 0), [(1, 3, 2)], 0),
            ValueError,
            "n_max",
        ),
        (lambda: cross_validate(1, 15, 3), ResourceLimitError, "S_15"),
        (lambda: cross_validate(1, 5, 65), ResourceLimitError, "got 65"),
        (lambda: cross_validate(-1, 5, 5), ValueError, "entry_bound"),
        (lambda: cross_validate(1, -1, 5), ValueError, "nonnegative"),
        (lambda: cross_validate(1, 5, -1), ValueError, "nonnegative"),
        (lambda: cross_validate(-1, 5, 5), ValueError, "entry_bound must be >= 0$"),
        (lambda: cross_validate("3", 5, 5), ValueError, "entry_bound .* got '3'"),
        (lambda: cross_validate(2.5, 5, 5), ValueError, "entry_bound .* got 2.5"),
        (lambda: cross_validate(True, 5, 5), ValueError, "entry_bound .* got True"),
    ],
)
def test_limits_fail_before_any_row_or_table(call, error, text):
    dist_engine.clear_recursion_memo()
    dist_engine.clear_brute_cache()
    gf_formulas.clear_gf_cache()
    with pytest.raises(error, match=text):
        call()
    assert not dist_engine._memo
    assert not dist_engine._count_tensors
    assert not gf_formulas._cache


# ---------------------------------------------------------------------------
# the records

# (type, field values in order, defaulted field -> default, str() or None for
# the repr)
_RECORDS = [
    (gf_formulas.GfRequest, ((1, 1, 3, 2), 7, gf_formulas.Route.Q1234, (1, 1, 3, 2)), {}, None),
    (SequenceExport, ((1, 1, 1, 0), "x0", 1, (1, 2, 5, 12)), {}, None),
    (ClosedFormCheck, ("c", (0, 0, 0, 0), abs, catalan, 1), {"is_top": False, "note": ""}, None),
    (analysis.CheckResult, ("r", (4, 5)), {"failure": None}, None),
    (
        analysis.CheckReport,
        ((analysis.CheckResult("a", (4, 5)), analysis.CheckResult("b", (1,), (2, "5", "4"))),),
        {},
        "PASS a (n=4..5)\nFAIL b at n=2: expected 5, got 4\n1/2 checks passed",
    ),
    (
        analysis.EquivalenceReport,
        ((1, 1, 0, 0), ((1, 3, 2), (1, 2, 3)), ((1, 1, 1), (2, 2, 2), (3, 4, 5))),
        {},
        "n=1: zero-match count 1 == avoider count 1\n"
        "n=2: zero-match count 2 == avoider count 2\n"
        "n=3: zero-match count 4 != avoider count 5\n"
        "result: NOT EQUAL",
    ),
    (
        analysis.XvalReport,
        (1, 5, 6, 5, 40),
        {"failure": None},
        "cross-validation: entry bound 1, lengths <= 5, series order 6\n"
        "PASS: 5 patterns, 40 comparisons, no discrepancies",
    ),
]


@pytest.mark.parametrize(
    "record, values, defaults, text", _RECORDS, ids=[r[0].__name__ for r in _RECORDS]
)
def test_records_keep_their_fields_immutability_and_text(record, values, defaults, text):
    r = record(*values)
    fields = {**dict(zip(record.__annotations__, values)), **defaults}
    assert list(fields) == list(record.__annotations__)  # positional order
    assert {f: getattr(r, f) for f in fields} == fields
    assert repr(r) == f"{record.__name__}(" + ", ".join(
        f"{f}={v!r}" for f, v in fields.items()
    ) + ")"
    assert str(r) == (repr(r) if text is None else text)
    for name in (next(iter(fields)), "unknown"):
        with pytest.raises(AttributeError):
            setattr(r, name, None)
    assert hash(r) == hash(record(*values))
