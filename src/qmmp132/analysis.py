"""Coefficient extraction, closed-form checking, and cross-validation.

This module turns the three computation engines into verification and
export tools:

* ``top_coeff_report`` / ``export_sequence`` pull leading terms and
  whole integer sequences out of the distribution polynomials (the x=0
  column is the avoidance count: permutations with no match at all).

* ``ClosedFormCheck`` + ``check_closed_forms`` evaluate a registry of
  exact coefficient formulas (highest coefficient, second-highest
  coefficient, and x=0 closed forms) against the structural recursion
  over a range of lengths.  ``default_registry`` ships every formula
  the package asserts; four entries carry series-validated corrections
  whose stated source forms contradict the verified expansions (see
  each entry's ``note``).

* ``classical_equivalence_check`` compares the x=0 column against a
  direct count of permutations avoiding a set of classical patterns,
  132 among them: the count scans S_n(132) alone.

* ``cross_validate`` runs the three engines against each other and the
  inversion symmetry over a whole family of patterns, returning the
  first discrepancy found (it is the library's self-test driver; the
  engine hooks are injectable so tests can prove it catches corrupted
  implementations).

All arithmetic is exact; all reports are deterministic functions of
their inputs.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from itertools import product
from math import comb
from typing import NamedTuple

from .dist_engine import (
    _check_length,
    q_poly_bruteforce,
    q_poly_recursive,
    q_series_recursive,
)
from .gf_formulas import dispatch
from .mmp_stat import _checked, natural_pattern, swap_b_d
from .perm_core import (
    ResourceLimitError,
    _is_count,
    catalan,
    check_enumeration,
    contains_classical,
    gen_avoiders,
    parse_digits,
    parse_perm,
    reduce_word,
)
from .poly_series import TSeries, XPoly

__all__ = [
    "CheckReport",
    "CheckResult",
    "ClosedFormCheck",
    "EquivalenceReport",
    "SequenceExport",
    "XvalReport",
    "avoidance_sequence",
    "check_closed_forms",
    "classical_equivalence_check",
    "cross_validate",
    "default_registry",
    "export_sequence",
    "top_coeff_report",
]

DEFAULT_SEQUENCE_TERMS = 12
DEFAULT_CHECK_N_MAX = 25
CLASSICAL_SCAN_CAP = 10


def top_coeff_report(pattern, n: int) -> tuple[int, int]:
    """(x-degree, leading coefficient) of the length-n polynomial.

    >>> top_coeff_report((1, 1, 1, 0), 7)
    (4, 2)
    >>> top_coeff_report((2, 1, 0, 1), 5)
    (1, 9)
    >>> top_coeff_report((0, 0, 0, 0), 4)
    (4, 14)
    """
    q = q_poly_recursive(n, pattern)
    return (q.degree, q.leading())


class SequenceExport(NamedTuple):
    """An exact integer sequence extracted from one pattern's polynomials.

    ``transform`` is one of ``"x0"`` (coefficient of x^0, the avoidance
    count), ``"x^R"`` for a fixed exponent R, or ``"top"`` (leading
    coefficient).  ``values[i]`` belongs to length ``start + i``.
    """

    pattern: tuple[int, int, int, int]
    transform: str
    start: int
    values: tuple[int, ...]

    def rows(self) -> list[tuple[int, int]]:
        return [(self.start + i, v) for i, v in enumerate(self.values)]


def _transform(transform: str) -> Callable[[XPoly], int]:
    """The coefficient of Q_n that a transform names, as a function of Q_n."""
    if transform == "x0":
        return lambda q: q.coeff(0)
    if transform == "top":
        return XPoly.leading
    if transform.startswith("x^"):
        r = parse_digits(transform[2:])
        if r is None:
            raise ValueError(f"bad transform {transform!a}")
        return lambda q: q.coeff(r)
    raise ValueError(f"unknown transform {transform!a}; use x0, x^R, or top")


def export_sequence(
    pattern, transform: str, n_max: int = DEFAULT_SEQUENCE_TERMS
) -> SequenceExport:
    """Sequence of one coefficient per length n = 1..n_max, exactly.

    The pattern and n_max, then the transform, are checked; then one
    recursive series to order n_max gives every length, and its first
    read, of length n_max, checks the recursion's limit before any row.
    """
    natural_pattern(pattern, n_max)
    value = _transform(transform)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    vals = tuple(map(value, q_series_recursive(pattern, n_max).coeffs[1:]))
    a, b, c, d = pattern
    return SequenceExport((a, b, c, d), transform, 1, vals)


def avoidance_sequence(pattern, n_max: int = DEFAULT_SEQUENCE_TERMS) -> SequenceExport:
    """x=0 column: counts of avoiders with zero pattern matches.

    >>> avoidance_sequence((1, 1, 1, 0), 9).values
    (1, 2, 5, 12, 28, 64, 144, 320, 704)
    >>> avoidance_sequence((1, 1, 0, 1), 10).values
    (1, 2, 5, 10, 17, 26, 37, 50, 65, 82)
    >>> avoidance_sequence((0, 1, 1, 1), 7).values
    (1, 2, 5, 13, 33, 81, 193)
    """
    return export_sequence(pattern, "x0", n_max)


class ClosedFormCheck(NamedTuple):
    """One exact coefficient formula, checkable against the engine.

    For each n >= validity the engine polynomial Q_n must satisfy
    ``Q_n.coeff(selector(n)) == formula(n)``; when ``is_top`` is
    set, ``selector(n)`` must also be the exact x-degree of Q_n (the
    formula claims the *highest* power, not just some coefficient).
    """

    name: str
    pattern: tuple[int, int, int, int]
    selector: Callable[[int], int]
    formula: Callable[[int], int]
    validity: int
    is_top: bool = False
    note: str = ""


class CheckResult(NamedTuple):
    name: str
    n_checked: tuple[int, ...]
    failure: tuple[int, str, str] | None = None  # (n, expected, got)

    @property
    def passed(self) -> bool:
        return self.failure is None

    def line(self) -> str:
        if self.passed:
            ns = self.n_checked
            span = f"n={ns[0]}..{ns[-1]}" if ns else "no n in range"
            return f"PASS {self.name} ({span})"
        n, expected, got = self.failure
        return f"FAIL {self.name} at n={n}: expected {expected}, got {got}"


class CheckReport(NamedTuple):
    results: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def __str__(self) -> str:
        lines = [r.line() for r in self.results]
        tally = sum(r.passed for r in self.results)
        lines.append(f"{tally}/{len(self.results)} checks passed")
        return "\n".join(lines)


def _run_check(check: ClosedFormCheck, series: TSeries) -> CheckResult:
    for n in range(check.validity, series.order + 1):
        q = series.coeff(n)
        r = check.selector(n)
        expected, got = check.formula(n), q.coeff(r)
        if check.is_top and q.degree != r:  # x^r is not the top power
            expected, got = f"degree {r}", f"degree {q.degree}"
        if got != expected:
            failure = (n, str(expected), str(got))
            return CheckResult(check.name, tuple(range(check.validity, n)), failure)
    return CheckResult(check.name, tuple(range(check.validity, series.order + 1)))


def check_closed_forms(
    registry: Sequence[ClosedFormCheck] | None = None, n_max: int = DEFAULT_CHECK_N_MAX
) -> CheckReport:
    """Evaluate every registered formula against the recursion engine.

    An empty registry, n_max < 1, or an n_max below every check's first
    length checks nothing and raises ValueError, as does a malformed
    pattern; an n_max above the recursion's limit raises
    ResourceLimitError.  All are raised before any check runs.
    """
    if registry is None:
        registry = default_registry()
    if not registry:
        raise ValueError("no checks to run")
    if isinstance(n_max, int) and n_max < 1:  # checks nothing; else a length
        raise ValueError("n_max must be >= 1")
    _check_length(n_max)
    first = min(c.validity for c in registry)
    if first > n_max:
        raise ValueError(
            f"no selected check has a length up to n_max = {n_max}"
            f" (the first starts at n = {first})"
        )
    patterns = dict.fromkeys(_checked(c.pattern, natural=True) for c in registry)
    series = {p: q_series_recursive(p, n_max) for p in patterns}
    return CheckReport(tuple(_run_check(c, series[c.pattern]) for c in registry))


def default_registry() -> tuple[ClosedFormCheck, ...]:
    """Every coefficient closed form the package asserts.

    Families are instantiated at the small parameter values their
    source expansions cover (m, l, k in 1..3 as applicable).  Entries
    whose ``note`` is nonempty are series-validated corrections: the
    form stated alongside the source expansions contradicts the
    expansions themselves (and both independent engines); the registry
    encodes the value the verified series force.

    Each check's ``validity`` is its first length: n = shift + 1 for a
    check of x^(n - shift), where that exponent is 1, and n = 1 for a
    check of x^0.
    """
    C = catalan
    reg: list[ClosedFormCheck] = []

    def add(name, pattern, shift, fn, note=""):
        """The coefficient of x^(n - shift), or of x^0 if shift is None."""
        selector = (lambda n: 0) if shift is None else (lambda n: n - shift)
        validity = 1 if shift is None else shift + 1
        is_top = name.endswith("-top")
        reg.append(ClosedFormCheck(name, pattern, selector, fn, validity, is_top, note))

    # --- patterns bounding quadrants I, II, III -------------------------
    for m in (1, 2, 3):
        add(f"11{m}0-top", (1, 1, m, 0), 2 + m, lambda n, m=m: 2 * C(m))
    add("1110-second", (1, 1, 1, 0), 4, lambda n: 6 + 2 * comb(n - 2, 2))
    for m in (2, 3):
        add(
            f"11{m}0-second",
            (1, 1, m, 0),
            3 + m,
            lambda n, m=m: 2 * C(m + 1) + 8 * C(m) + 4 * C(m) * (n - 4 - m),
        )
    for m in (1, 2):
        add(f"21{m}0-top", (2, 1, m, 0), 3 + m, lambda n, m=m: 3 * C(m))
    for m in (1, 2, 3):
        add(f"12{m}0-top", (1, 2, m, 0), 3 + m, lambda n, m=m: 5 * C(m))
    for m in (1, 2):
        add(f"22{m}0-top", (2, 2, m, 0), 4 + m, lambda n, m=m: 9 * C(m))

    # --- patterns bounding quadrants II, III, IV ------------------------
    for el in (1, 2, 3):
        add(f"01{el}1-top", (0, 1, el, 1), 2 + el, lambda n, el=el: C(el))
    add("0111-second", (0, 1, 1, 1), 4, lambda n: 5 + comb(n - 2, 2))
    for el in (2, 3):
        add(
            f"01{el}1-second",
            (0, 1, el, 1),
            3 + el,
            lambda n, el=el: C(el + 1) + 6 * C(el) + 2 * C(el) * (n - 4 - el),
        )
    for el in (1, 2, 3):
        add(f"01{el}2-top", (0, 1, el, 2), 3 + el, lambda n, el=el: 2 * C(el))
    add(
        "0112-second",
        (0, 1, 1, 2),
        5,
        lambda n: 13 + 2 * comb(n - 3, 2),
        note="series-validated correction: stated forms 13+binom(n-2,2) and "
        "13+2*binom(n-3,2) disagree between statement and proof; the "
        "expansions force 13+2*binom(n-3,2)",
    )
    for el in (2, 3):
        add(
            f"01{el}2-second",
            (0, 1, el, 2),
            4 + el,
            lambda n, el=el: 2 * C(el + 1) + 15 * C(el) + 4 * C(el) * (n - 5 - el),
        )
    for el in (1, 2, 3):
        add(
            f"02{el}2-top",
            (0, 2, el, 2),
            4 + el,
            lambda n, el=el: 4 * C(el),
            note="series-validated exponent n-4-el (a stated variant shifts it)",
        )

    # --- patterns bounding quadrants I, II, IV --------------------------
    for el in (1, 2, 3):
        add(
            f"1{el}01-top",
            (1, el, 0, 1),
            2 + el,
            lambda n, el=el: 2 * C(el + 1) * C(n - el - 2),
            note="series-validated correction: the stated constant 4*C(el) "
            "equals the true constant 2*C(el+1) only at el=1",
        )
    add("1101-second", (1, 1, 0, 1), 4, lambda n: 8 * C(n - 3) + C(n - 4))
    for k in (2, 3):
        add(
            f"{k}101-top",
            (k, 1, 0, 1),
            2 + k,
            lambda n, k=k: (k + 1) ** 2 * C(n - k - 2),
        )

    # --- patterns bounding all four quadrants ---------------------------
    for k in (1, 2, 3):
        add(f"{k}111-top", (k, 1, 1, 1), 3 + k, lambda n, k=k: (k + 1) ** 2)
    add(
        "1111-second",
        (1, 1, 1, 1),
        5,
        lambda n: 17 + 4 * comb(n - 3, 2),
        note="series-validated correction: stated binom(n-3,3); expansions "
        "force binom(n-3,2)",
    )

    # --- x = 0 closed forms ----------------------------------------------
    add("1101-x0", (1, 1, 0, 1), None, lambda n: (n - 1) ** 2 + 1)
    add(
        "0111-x0",
        (0, 1, 1, 1),
        None,
        lambda n: 1 if n == 1 else (n - 1) * 2 ** (n - 2) + 1,
    )
    return tuple(reg)


class EquivalenceReport(NamedTuple):
    pattern: tuple[int, int, int, int]
    forbidden: tuple[tuple[int, ...], ...]
    rows: tuple[tuple[int, int, int], ...]  # (n, x0_count, classical_count)

    @property
    def all_equal(self) -> bool:
        return all(lhs == rhs for _, lhs, rhs in self.rows)

    def __str__(self) -> str:
        out = []
        for n, lhs, rhs in self.rows:
            mark = "==" if lhs == rhs else "!="
            out.append(f"n={n}: zero-match count {lhs} {mark} avoider count {rhs}")
        verdict = "EQUAL" if self.all_equal else "NOT EQUAL"
        out.append(f"result: {verdict}")
        return "\n".join(out)


def classical_equivalence_check(
    pattern, forbidden: Iterable, n_max: int
) -> EquivalenceReport:
    """Compare the x=0 column with a classical multi-avoidance count.

    ``forbidden`` is a collection of classical patterns (tuples or
    strings accepted by the permutation parser) that must include 132,
    since the x=0 column counts 132-avoiders; the right-hand side counts
    the members of S_n(132) avoiding the others, by direct scan (n_max <=
    CLASSICAL_SCAN_CAP).  The limit, the entries and 132 are checked
    before the x=0 column is read from one recursive series.
    """
    natural_pattern(pattern, n_max)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > CLASSICAL_SCAN_CAP:
        raise ResourceLimitError(
            f"classical avoidance scan capped at n={CLASSICAL_SCAN_CAP}; "
            f"asked for {n_max}"
        )
    if isinstance(forbidden, str) or not isinstance(forbidden, Iterable):
        raise ValueError(
            f"forbidden must be a collection of patterns, got {forbidden!r}"
        )
    pats = []
    for p in forbidden:
        if isinstance(p, str):
            p = parse_perm(p)
        elif not isinstance(p, tuple):
            raise ValueError(f"forbidden pattern must be a tuple or string, got {p!r}")
        pats.append(reduce_word(p))
    pats = tuple(pats)
    if (1, 3, 2) not in pats:
        raise ValueError(
            "forbidden must include 132: the x=0 column counts 132-avoiders"
        )
    tests = tuple(p for p in pats if p != (1, 3, 2))

    def avoids(s) -> bool:
        return not any(contains_classical(s, p) for p in tests)

    x0 = q_series_recursive(pattern, n_max)
    rows = tuple(
        (n, x0.coeff(n).coeff(0), sum(map(avoids, gen_avoiders(n))))
        for n in range(1, n_max + 1)
    )
    a, b, c, d = pattern
    return EquivalenceReport((a, b, c, d), pats, rows)


class XvalReport(NamedTuple):
    entry_bound: int
    n_max: int
    order: int
    patterns_checked: int
    comparisons: int
    failure: tuple[str, tuple[int, int, int, int], int, str] | None = None
    # failure = (kind, pattern, n-or-order, detail)

    @property
    def passed(self) -> bool:
        return self.failure is None

    def __str__(self) -> str:
        head = (
            f"cross-validation: entry bound {self.entry_bound}, "
            f"lengths <= {self.n_max}, series order {self.order}"
        )
        if self.passed:
            return (
                f"{head}\nPASS: {self.patterns_checked} patterns, "
                f"{self.comparisons} comparisons, no discrepancies"
            )
        kind, pat, n, detail = self.failure
        return f"{head}\nFAIL [{kind}] pattern={pat} n={n}: {detail}"


# the detail text of a failed comparison, from (got, want)
_XVAL_DETAIL = {
    "brute-vs-recursion": "brute {} vs recursion {}",
    "reflection-symmetry": "{} vs reflected {}",
    "recursion-vs-dispatch": "dispatch {} vs recursion {}",
}


def cross_validate(
    entry_bound: int,
    n_max: int,
    order: int,
    *,
    brute_fn: Callable = q_poly_bruteforce,
    rec_fn: Callable = q_poly_recursive,
    dispatch_fn: Callable = dispatch,
) -> XvalReport:
    """Run all three engines against each other over a pattern family.

    For every all-natural pattern with a+b+c+d <= entry_bound, checks
    brute force == recursion for n <= n_max, recursion == formula
    dispatch through the given series order, and invariance under the
    inversion reflection (a,b,c,d) -> (a,d,c,b).  Stops at the first
    discrepancy.  The engine hooks exist so the test suite can verify
    that deliberately corrupted engines are caught.

    Every argument is checked before any engine runs: a negative one
    checks nothing and raises ValueError, and an n_max above the
    enumeration limit or an order above the recursion's limit raises
    ResourceLimitError.
    """
    if not _is_count(entry_bound):
        raise ValueError(
            "entry_bound must be >= 0"
            if type(entry_bound) is int
            else f"entry_bound must be a nonnegative int, got {entry_bound!r}"
        )
    check_enumeration(n_max)
    _check_length(order)

    def pairs(pat):
        """(kind, n, got, want) in call order, each engine called when reached."""
        for n in range(n_max + 1):
            b = brute_fn(n, pat)
            r = rec_fn(n, pat)
            yield "brute-vs-recursion", n, b, r
            yield "reflection-symmetry", n, r, rec_fn(n, swap_b_d(pat))
        gf = dispatch_fn(pat, order)
        for n in range(order + 1):
            yield "recursion-vs-dispatch", n, gf.coeff(n), rec_fn(n, pat)

    patterns = comparisons = 0
    box = product(range(entry_bound + 1), repeat=4)
    for pat in (p for p in box if sum(p) <= entry_bound):
        patterns += 1
        for kind, n, got, want in pairs(pat):
            comparisons += 1
            if got != want:
                failure = (kind, pat, n, _XVAL_DETAIL[kind].format(got, want))
                return XvalReport(
                    entry_bound, n_max, order, patterns, comparisons, failure
                )
    return XvalReport(entry_bound, n_max, order, patterns, comparisons)
