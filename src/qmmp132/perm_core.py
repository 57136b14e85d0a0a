"""132-avoiding permutations: reduction, avoidance tests, and enumeration.

Permutations are plain tuples of ints in one-line notation, values a
rearrangement of 1..n.  The empty tuple is the unique permutation of length 0.

A permutation contains the pattern 132 when some subsequence at positions
i < j < k satisfies sigma_i < sigma_k < sigma_j.  S_n(132), the set of
permutations avoiding 132, has Catalan-many elements; it is enumerated here
without filtering by splitting at the position of the maximal value n: in a
132-avoider every value left of n must exceed every value right of n
(otherwise that pair together with n forms a 132), so the left block is a
132-avoiding arrangement of the top values and the right block one of the
bottom values.

Serialization: length <= 9 permutations read and print as digit strings
("471569283"); longer ones as comma-separated integers ("10,3,1,2,...").
"""

from __future__ import annotations

from itertools import combinations, permutations as _all_permutations
from math import comb
from typing import Iterable, Iterator, Sequence

Perm = tuple[int, ...]

#: Largest n any enumeration of S_n(132) accepts, a fixed limit.
DEFAULT_ENUM_CAP = 14


class ResourceLimitError(Exception):
    """Requested computation exceeds a fixed size limit."""


# C_0, C_1, ...: grown on demand by C_m = C_{m-1} (4m - 2) / (m + 1); the
# table holds about n^2 bits, so lengths past _CATALAN_TABLE_MAX are
# computed, not stored
_catalans = [1]
_CATALAN_TABLE_MAX = 1024


def catalan(n: int) -> int:
    """Exact n-th Catalan number binom(2n,n)/(n+1).

    >>> [catalan(n) for n in range(7)]
    [1, 1, 2, 5, 14, 42, 132]
    """
    if 0 <= n < len(_catalans):
        return _catalans[n]
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > _CATALAN_TABLE_MAX:
        return comb(2 * n, n) // (n + 1)
    for m in range(len(_catalans), n + 1):
        _catalans.append(_catalans[-1] * (4 * m - 2) // (m + 1))
    return _catalans[n]


def is_permutation(values: Sequence[int]) -> bool:
    """True when values is a rearrangement of 1..len(values)."""
    n = len(values)
    return sorted(values) == list(range(1, n + 1))


def reduce_word(word: Sequence[int]) -> Perm:
    """Rank a sequence of distinct integers onto 1..n, preserving order.

    The i-th smallest entry becomes i, so the result is order-isomorphic
    to the input.

    >>> reduce_word((2, 7, 5, 4))
    (1, 4, 3, 2)
    >>> reduce_word(())
    ()
    """
    if len(set(word)) != len(word):
        raise ValueError("entries must be distinct")
    rank = {v: r for r, v in enumerate(sorted(word), start=1)}
    return tuple(rank[v] for v in word)


def avoids_132(p: Sequence[int]) -> bool:
    """True when no i < j < k has p_i < p_k < p_j.

    >>> avoids_132((4, 7, 1, 5, 6, 9, 2, 8, 3))
    False
    >>> avoids_132((3, 2, 1))
    True
    """
    n = len(p)
    min_before = None  # smallest value strictly left of the current position
    for j in range(n):
        if min_before is not None and min_before < p[j]:
            # min_before can play the "1" and p[j] the "3"; any later value
            # strictly between them completes a 132
            for k in range(j + 1, n):
                if min_before < p[k] < p[j]:
                    return False
        min_before = p[j] if min_before is None else min(min_before, p[j])
    return True


def _is_count(value) -> bool:
    """A length or a numeric bound: a nonnegative int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def checked_length(n) -> int:
    """The one length check, of every length and order: n must be a count."""
    if not _is_count(n):
        raise ValueError(f"length must be a nonnegative int, got {n!r}")
    return n


def check_enumeration(n: int) -> None:
    """Reject a length no enumeration of S_n(132) accepts, before any work."""
    if checked_length(n) > DEFAULT_ENUM_CAP:
        raise ResourceLimitError(
            f"enumeration of S_{n}(132) exceeds cap {DEFAULT_ENUM_CAP}"
        )


def gen_avoiders(n: int) -> Iterator[Perm]:
    """Yield every member of S_n(132) exactly once, streaming.

    Recursive by position of the maximal value; O(1) amortized work per
    output beyond tuple assembly, never touching non-avoiders.

    >>> sorted(gen_avoiders(3))
    [(1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    """
    check_enumeration(n)
    return _gen(n)


def _gen(n: int) -> Iterator[Perm]:
    if n == 0:
        yield ()
        return
    for i in range(1, n + 1):  # position of the value n
        shift = n - i  # left block uses values n-i+1 .. n-1
        for right in _gen(n - i):
            for left in _gen(i - 1):
                yield tuple(v + shift for v in left) + (n,) + right


def count_avoiders(n: int) -> int:
    """Stream length of gen_avoiders(n); equals catalan(n)."""
    return sum(1 for _ in gen_avoiders(n))


def contains_classical(p: Sequence[int], pat: Sequence[int]) -> bool:
    """True when some subsequence of p is order-isomorphic to pat.

    >>> contains_classical((4, 7, 1, 5, 6, 9, 2, 8, 3), (1, 3, 2))
    True
    >>> contains_classical((3, 2, 1), (1, 2))
    False
    """
    m = len(pat)
    n = len(p)
    if m == 0:
        return True
    if m > n:
        return False
    target = reduce_word(pat)
    # order relations the subsequence must reproduce
    rel = [(s, t, target[s] < target[t]) for s in range(m) for t in range(s + 1, m)]

    def matches(idx: tuple[int, ...]) -> bool:
        return all((p[idx[s]] < p[idx[t]]) == less for s, t, less in rel)

    return any(matches(idx) for idx in combinations(range(n), m))


def all_perms(n: int) -> Iterator[Perm]:
    """Every permutation of 1..n (full S_n, not just avoiders)."""
    return _all_permutations(range(1, n + 1))


def inverse(p: Sequence[int]) -> Perm:
    """Group inverse: result[v-1] = position of value v.

    >>> inverse((2, 3, 1))
    (3, 1, 2)
    """
    out = [0] * len(p)
    for pos, v in enumerate(p, start=1):
        out[v - 1] = pos
    return tuple(out)


def parse_digits(text: str) -> int | None:
    """The int written by ``text`` if it is ASCII digits [0-9]+, else None.

    Signs, spaces, underscores and non-ASCII digits, all of which int()
    accepts, are refused.

    >>> parse_digits("042"), parse_digits("+1"), parse_digits("1_0")
    (42, None, None)
    """
    return int(text) if text.isascii() and text.isdigit() else None


def parse_perm(text: str) -> Perm:
    """Parse "471569283" or "10,3,1,2,..." into a permutation tuple."""
    text = text.strip()
    if not text:
        return ()
    tokens = [tok.strip() for tok in text.split(",")] if "," in text else text
    values = tuple(map(parse_digits, tokens))
    if None in values:
        raise ValueError(f"not a permutation string: {text!a}")
    if not is_permutation(values):
        raise ValueError(f"not a rearrangement of 1..{len(values)}: {text!a}")
    return values


def format_perm(p: Sequence[int]) -> str:
    """Digit string for length <= 9, comma-separated otherwise."""
    if len(p) <= 9:
        return "".join(str(v) for v in p)
    return ",".join(str(v) for v in p)


def avoiders_after_also_avoiding(
    n: int, extra_patterns: Iterable[Sequence[int]]
) -> int:
    """Count S_n(132) members that also avoid every pattern in extra_patterns."""
    pats = [reduce_word(q) for q in extra_patterns]
    count = 0
    for p in gen_avoiders(n):
        if all(not contains_classical(p, q) for q in pats):
            count += 1
    return count
