"""Quadrant counting and the marked-mesh-pattern statistic.

Fix a permutation sigma and a position i.  Centering axes on the point
(i, sigma_i) splits the remaining points (j, sigma_j) into four quadrants:

    I   j > i and sigma_j > sigma_i        II  j < i and sigma_j > sigma_i
    III j < i and sigma_j < sigma_i        IV  j > i and sigma_j < sigma_i

A quadrant bound is either a nonnegative integer k ("at least k points
here"; 0 imposes nothing) or the distinct bound EMPTY ("exactly zero points
here").  A pattern is one bound per quadrant, written "a,b,c,d" with "e"
for EMPTY, e.g. "1,1,1,0" or "4,2,e,e".  Position i matches the pattern
when all four quadrant counts satisfy their bounds, and the statistic
counts matching positions.

>>> p = parse_perm("471569283")
>>> quadrant_counts(p, 4)
(3, 1, 2, 2)
>>> matches_at(p, 3, parse_pattern("4,2,e,e"))
True
>>> mmp_count((5, 4, 3, 2, 1), parse_pattern("1,1,1,0"))
0
"""

from __future__ import annotations

from typing import Sequence

from .perm_core import _is_count, checked_length, parse_digits, parse_perm


class _Empty:
    """Singleton bound requiring a quadrant to hold no points at all."""

    _instance = None

    def __new__(cls) -> "_Empty":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "EMPTY"

    def __reduce__(self):
        return (_Empty, ())


EMPTY = _Empty()

MmpPattern = tuple  # 4-tuple of bounds (a, b, c, d)


def _checked(pat, natural: bool = False) -> MmpPattern:
    """The one pattern check: a 4-tuple of bounds, each a nonnegative int
    or, unless natural, EMPTY."""
    if not (isinstance(pat, tuple) and len(pat) == 4):
        raise ValueError(f"pattern must be a 4-tuple of bounds, got {pat!r}")
    for bound in pat:
        if bound is EMPTY and natural:
            raise ValueError(
                f"numeric bounds only, got {pat!r}; empty-quadrant patterns "
                "(e tokens) are supported by mmp_count and the stat command"
            )
        if bound is not EMPTY and not _is_count(bound):
            kind = "a nonnegative int" + ("" if natural else " or EMPTY")
            raise ValueError(f"bound must be {kind}: {bound!r}")
    return pat


def make_pattern(a, b, c, d) -> MmpPattern:
    """Validate and build a pattern of four quadrant bounds."""
    return _checked((a, b, c, d))


def parse_pattern(text: str) -> MmpPattern:
    """Parse "a,b,c,d" with "e" tokens for EMPTY.

    >>> parse_pattern("4,2,e,e")
    (4, 2, EMPTY, EMPTY)
    """
    tokens = [tok.strip() for tok in text.split(",")]
    if len(tokens) != 4:
        raise ValueError(f"pattern needs exactly four tokens: {text!a}")
    bounds = [EMPTY if tok == "e" else parse_digits(tok) for tok in tokens]
    if None in bounds:
        bad = tokens[bounds.index(None)]
        raise ValueError(f"bad pattern token {bad!a} in {text!a}")
    return make_pattern(*bounds)


def format_pattern(pat: MmpPattern) -> str:
    return ",".join("e" if b is EMPTY else str(b) for b in pat)


def natural_pattern(pat, n: int) -> tuple[int, int, int, int]:
    """Validate an all-natural pattern and a length, and clamp the one to
    the other.

    This is the input contract of every engine (enumeration, recursion
    and formulas): the pattern is a 4-tuple of nonnegative ints, checked
    first, and n a nonnegative int (a length or a series order).  Each
    bound is clamped to n: a position of a length-n permutation sees n-1
    other points, so every bound of n or more is equally unsatisfiable,
    and clamping keeps brute force's counts in int8 and gives the formula
    route one cache key for all of them.

    >>> natural_pattern((1, 99, 0, 2), 5)
    (1, 5, 0, 2)
    """
    _checked(pat, natural=True)
    checked_length(n)
    return tuple(min(b, n) for b in pat)


def quadrant_counts(p: Sequence[int], i: int) -> tuple[int, int, int, int]:
    """Point counts in quadrants I..IV around position i (1-based).

    The four counts always sum to len(p) - 1.
    """
    n = len(p)
    if not 1 <= i <= n:
        raise IndexError(f"position {i} out of range 1..{n}")
    v = p[i - 1]
    left, right = p[: i - 1], p[i:]
    return (
        sum(w > v for w in right),
        sum(w > v for w in left),
        sum(w < v for w in left),
        sum(w < v for w in right),
    )


def _meets(counts: tuple[int, int, int, int], pat: MmpPattern) -> bool:
    """True when every count meets its bound: >= k, or == 0 for EMPTY."""
    return all(c == 0 if b is EMPTY else c >= b for c, b in zip(counts, pat))


def matches_at(p: Sequence[int], i: int, pat: MmpPattern) -> bool:
    """True when every quadrant count around position i meets its bound."""
    return _meets(quadrant_counts(p, i), _checked(pat))


def mmp_count(p: Sequence[int], pat: MmpPattern) -> int:
    """Number of positions of p matching the pattern, checked once.

    >>> mmp_count(parse_perm("341256"), make_pattern(1, 1, 1, 0))
    1
    """
    _checked(pat)
    return sum(_meets(quadrant_counts(p, i), pat) for i in range(1, len(p) + 1))


def swap_b_d(pat: MmpPattern) -> MmpPattern:
    """Exchange the quadrant II and IV bounds: (a,b,c,d) -> (a,d,c,b).

    Inverting a permutation reflects its plot across the main diagonal,
    which swaps quadrants II and IV while fixing I and III; hence
    mmp_count(p, pat) == mmp_count(inverse(p), swap_b_d(pat)).
    """
    a, b, c, d = pat
    return (a, d, c, b)


__all__ = [
    "EMPTY",
    "MmpPattern",
    "make_pattern",
    "parse_pattern",
    "format_pattern",
    "natural_pattern",
    "quadrant_counts",
    "matches_at",
    "mmp_count",
    "swap_b_d",
]
