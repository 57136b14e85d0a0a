"""Ground truth for Q_n(x): brute-force enumeration and a structural recursion.

Both functions take a pattern of four nonnegative integer quadrant bounds
(a, b, c, d) (no EMPTY bounds here) and return the exact polynomial

    Q_n(x) = sum over sigma in S_n(132) of x^(mmp count of sigma).

Brute force accepts n <= 14 (perm_core.DEFAULT_ENUM_CAP), a fixed limit
checked before any work.  It enumerates S_n(132) one block at a time,
all from the one table of length n-2: every shorter table is a column
suffix of it.  For 1 < i < n, block i holds the permutations with n at
position i, an (n, C_{i-1} C_{n-i}) int8 array written in place from the
two tables on either side of n.  With n first or last the other side is
all of S_{n-1}(132), so that block is split by the position j of n-1
into n-1 sub-blocks, each written from two tables of length at most n-2
beside the row of n.  That makes 3n-4 blocks for n >= 2, none wider
than C_{n-2}, and joined in order they are avoiders_array(n).  Points
are compared for one count only: q1, the points right of and above each
position, with one C-level pass per pair of positions.  Lengths n <= 11
keep their values and q1, the blocks joined into one pair; longer
lengths are streamed, one block and its q1 at a time.
The other three counts follow by counting points by value and by
position: at 0-based position p with value v, n - v points lie above, p
to the left and n - 1 - p to the right, so

    q2 = (n - v) - q1,    q3 = p - q2,    q4 = (n - 1 - p) - q1.

No 132 structure is used in counting, so brute force stays independent
of the recursion.  Matches are counted one position at a time: each
nonzero bound is one comparison on that position's row of the block, and
the matching permutations gain one in a single uint8 count per
permutation, which one bincount per block adds into the histogram.  So no
temporary of the count outgrows one row: C_n entries for a cached length,
at most C_{n-2} for a streamed one.  Counts stay below 2^63 through the
enumeration limit, so int64 histogram bins are exact.

The recursion works on the position i of the maximal value n.  In a
132-avoider, sigma = A n B where A occupies the top i-1 values and B the
bottom n-i values, and A, B are independent 132-avoiders on their value
sets.  Around a position inside A, the value n and all of B sit to the
right, n above and B below: one point is guaranteed in quadrant I and n-i
points in quadrant IV, while quadrants II and III see only A itself.  So A
contributes the length-(i-1) distribution for the reduced bounds
(a-.-1, b, c, d-.-(n-i)), where u-.-v = max(u-v, 0) is truncated
subtraction.  Around a position inside B, all of A and n sit to the left
and above: i guaranteed points in quadrant II, quadrants I, III, IV seeing
only B.  That gives the length-(n-i) distribution for (a, b-.-i, c, d).
The position of n itself has empty quadrants I and II and all of A in III,
all of B in IV; it matches exactly when a = 0, b = 0, i-1 >= c and
n-i >= d, in which case the product picks up one factor x:

    Q_n^{(a,b,c,d)} = sum_{i=1}^{n} w_i * Q_{i-1}^{(a-.-1, b, c, d-.-(n-i))}
                                        * Q_{n-i}^{(a, b-.-i, c, d)},

with w_i = x on a match of n, else 1, and Q_0 = 1.  Since a length-m
factor never distinguishes bounds above m, keys are memoized with b and d
clamped to min(., m), which keeps the table small.

The recursion is evaluated as an iterative table fill over increasing
length (no call-stack recursion).  Polynomials are packed into single big
integers with fixed-width limbs (Kronecker substitution): one polynomial
multiplication becomes one big-integer multiplication.  For a row of
length m with bounds (a', b', c, d'), the positions i fall into three
regimes:

* i < b': the right factor still carries b' - i in its b bound;
* max(b', 1) <= i <= m - d': both truncations are spent, so the left
  factor is the length-(i-1) row of the fixed bounds (a'-.-1, b', c, 0)
  and the right factor the length-(m-i) row of (a', 0, c, d');
* i > m - d': the left factor still carries d' - (m - i) in its d bound.

The middle regime, which holds all but at most b' + d' positions, is a
t-convolution of two fixed families of rows.  The fill keeps each family
as a list indexed by length, so the middle is one dot product of a slice
and a reversed slice, summed in C; when a' = b' = 0 it is split at
i = c + 1 and the part where n matches is shifted up one limb.  Only the
edge terms are summed by an interpreted loop.  Inversion swaps the b and
d bounds and keeps Q_m, so a row (m, a', b', c, d') with b' > d' takes
the row (m, a', d', c, b') when the memo has it: the same object, with no
sum at all.  Rows are unpacked by the series kernel's balanced
`poly_series._unpack`, the one unpack in the package.  All coefficients
are nonnegative and a row of length m sums to the Catalan number C_m, so
every coefficient of every row up to length n, and of every partial sum
of the fill, is at most C_n.  The memo's limb is
`poly_series._width(C_n)`, the width rule the series kernel uses, sized
for the first request on an empty memo.  A longer request on a warm memo
widens it once, straight to the width for RECURSION_N_MAX, repacking every
row in place; so a loop over increasing n repacks at most once before the
next clear.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from operator import mul

import numpy as np

from .mmp_stat import natural_pattern
from .perm_core import ResourceLimitError, catalan, check_enumeration
from .poly_series import ONE, TSeries, XPoly, _pack, _unpack, _width

#: largest length the packed-limb table accepts
RECURSION_N_MAX = 64

_memo: dict[tuple[int, int, int, int, int], int] = {}
_limb = 0  # bits per packed coefficient of every row in _memo

# ---------------------------------------------------------------------------
# structural recursion


def _fill(n: int, a: int, b: int, c: int, d: int) -> None:
    """Ensure memo rows for every state reachable from (a,b,c,d) up to length n.

    While it runs, ``fam[a'][b'][d'][k]`` is the packed row
    ``_memo[(k, a', min(b',k), c, min(d',k))]`` (1 at k = 0), grown by one
    entry per length, so every factor of the sum is a list read.
    """
    if (n, a, b, c, d) in _memo:
        return  # rows go in (m, a', b', d') order: the box is complete
    fam = [[[[1] for _ in range(d + 1)] for _ in range(b + 1)] for _ in range(a + 1)]
    for m in range(1, n + 1):
        if m > 1:  # extend every family by its length-(m-1) row
            k = m - 1
            dks = [min(dd, k) for dd in range(d + 1)]
            for aa, per_b in enumerate(fam):
                for bb, per_d in enumerate(per_b):
                    bk = min(bb, k)
                    for dk, row in zip(dks, per_d):
                        row.append(_memo[(k, aa, bk, c, dk)])
        if (m, a, min(b, m), c, min(d, m)) in _memo:
            continue  # its top row is written last: the length is complete
        for aa in range(a + 1):
            left = fam[aa - 1 if aa else 0]
            right = fam[aa]
            for bb in range(min(b, m) + 1):
                lfam = left[bb]
                lmid = lfam[0]
                lo = max(bb, 1)  # from i = lo on, the right factor's b is spent
                for dd in range(min(d, m) + 1):
                    key = (m, aa, bb, c, dd)
                    if key in _memo:
                        continue
                    if bb > dd:  # inversion swaps the b and d bounds, keeping Q_m
                        twin = _memo.get((m, aa, dd, c, bb))
                        if twin is not None:
                            _memo[key] = twin
                            continue
                    rmid = right[0][dd]
                    hi = m - dd  # up to i = hi, the left factor's d is spent
                    mid = min(lo, hi + 1)  # the middle regime is mid..hi
                    if aa == 0 and bb == 0:  # n matches from i = c + 1 on
                        split = min(max(c + 1, mid), hi + 1)
                        acc = _dot(lmid, rmid, m, mid, split - 1)
                        acc += _dot(lmid, rmid, m, split, hi) << _limb
                    else:
                        acc = _dot(lmid, rmid, m, mid, hi)
                    for i in range(1, mid):
                        acc += lmid[i - 1] * right[bb - i][dd][m - i]
                    for i in range(hi + 1, m + 1):
                        # m - i < dd: no position of the right factor can see
                        # dd points below-right, so its b bound is moot
                        acc += lfam[i - hi][i - 1] * rmid[m - i]
                    _memo[key] = acc


def _dot(left: list[int], right: list[int], m: int, lo: int, hi: int) -> int:
    """sum_{i=lo}^{hi} left[i-1] * right[m-i] in one C-level pass; lo <= hi + 1."""
    return sum(map(mul, left[lo - 1 : hi], reversed(right[m - hi : m - lo + 1])))


def _check_length(n: int) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > RECURSION_N_MAX:
        raise ResourceLimitError(
            f"recursion table supports n <= {RECURSION_N_MAX}, got {n}"
        )


def _hold(n: int) -> None:
    """Make the memo's limb hold rows of length n: coefficients are <= C_n.

    C_{n+1} >= 2 C_n for n >= 1, so the width rises strictly with n and a
    limb narrower than C_n's width holds no row of length n.
    """
    global _limb
    if not _memo:
        _limb = _width(catalan(n))
    elif _width(catalan(n)) > _limb:  # widen once, to the longest length accepted
        limb = _width(catalan(RECURSION_N_MAX))
        for key, z in _memo.items():
            _memo[key] = _pack(_unpack(z, _limb).coeffs, limb)
        _limb = limb


def q_poly_recursive(n: int, pat) -> XPoly:
    """Q_n(x) by the memoized structural recursion.

    >>> print(q_poly_recursive(4, (1, 1, 1, 0)))
    12+2x
    >>> print(q_poly_recursive(5, (1, 1, 1, 1)))
    38+4x
    """
    a, b, c, d = natural_pattern(pat, n)
    _check_length(n)
    if n == 0:
        return ONE
    _hold(n)
    _fill(n, a, b, c, d)
    return _unpack(_memo[(n, a, b, c, d)], _limb)


def q_series_recursive(pat, N: int) -> TSeries:
    """Series whose t^n coefficient is q_poly_recursive(n, pat), n <= N.

    The order is checked before any row is filled.  One fill to length N
    builds the row families once; the per-n calls then find their rows,
    except at lengths n < c, whose rows clamp c to n.
    """
    pat = natural_pattern(pat)
    _check_length(N)
    if N:
        _hold(N)
        _fill(N, *natural_pattern(pat, N))
    return TSeries(N, [q_poly_recursive(n, pat) for n in range(N + 1)])


def clear_recursion_memo() -> None:
    """Drop all memoized rows and their limb width (cold-start benchmarks)."""
    global _limb
    _memo.clear()
    _limb = 0


# ---------------------------------------------------------------------------
# brute force

_CACHE_N_MAX = 11  # counts this small are kept; larger ones are streamed per call
_count_tensors: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}


def clear_brute_cache() -> None:
    """Drop cached quadrant counts (cold-start benchmarks)."""
    _count_tensors.clear()


def _shorter(table: np.ndarray, k: int) -> np.ndarray:
    """The (k, catalan(k)) table of S_k(132), a view into a longer table.

    The last block of every length, the value m at position m, is the
    previous table with m appended; so each shorter table is the first k
    rows of the last catalan(k) columns.
    """
    return table[:k, table.shape[1] - catalan(k) :]


def _write_block(out: np.ndarray, left: np.ndarray, right: np.ndarray) -> None:
    """Write every A m B into out, A from the table left and B from right.

    left and right are the (i-1, catalan(i-1)) and (m-i, catalan(m-i))
    tables of S_{i-1}(132) and S_{m-i}(132), and out is
    (m, catalan(i-1) * catalan(m-i)) with contiguous rows.  Column
    l * catalan(m-i) + r holds the l-th A shifted up by m - i, then m, then
    the r-th B.  Each part is written into its rows by broadcasting through
    a (rows, catalan(i-1), catalan(m-i)) reshape, a view since each row is
    contiguous, with no repeated, tiled or shifted copy of either factor.
    """
    k, ml = left.shape  # k = i - 1
    r, mr = right.shape  # r = m - i
    np.add(left[:, :, None], r, out=out[:k].reshape(k, ml, mr))
    out[k] = k + 1 + r
    out[k + 1 :].reshape(r, ml, mr)[...] = right[:, None, :]


def avoiders_array(n: int) -> np.ndarray:
    """All of S_n(132) as a (catalan(n), n) int8 array, one row per permutation.

    Built from scratch, each length m <= n position-major into one
    (m, catalan(m)) table from the table of length m - 1 alone, which holds
    every shorter table (see _shorter); the result is a transposed view of
    the last.  The block of the value m at position i takes the next
    catalan(i-1) * catalan(m-i) columns, written in place by _write_block.
    """
    check_enumeration(n)
    table = np.zeros((0, 1), dtype=np.int8)
    for m in range(1, n + 1):
        prev, table = table, np.empty((m, catalan(m)), dtype=np.int8)
        off = 0
        for i in range(1, m + 1):  # position of the value m
            width = catalan(i - 1) * catalan(m - i)
            left, right = _shorter(prev, i - 1), _shorter(prev, m - i)
            _write_block(table[:, off : off + width], left, right)
            off += width
    return table.T


def _counts_for(n: int) -> Iterable[tuple[np.ndarray, np.ndarray]]:
    """Values and quadrant-I counts of S_n(132) as (values, q1) pairs of
    (n, k) int8 arrays indexed [position, permutation].

    Either way the only table avoiders_array builds is the one of length
    n - 2 (see _count_blocks).  A length above _CACHE_N_MAX, 12 to 14, comes as a
    generator of its blocks, so a call holds the table and one block at a
    time, never the whole length.
    A length up to _CACHE_N_MAX is cached as its blocks joined in order
    into one pair: the same bytes as the list of blocks, and a warm call
    then makes n passes rather than n per block.
    """
    cached = _count_tensors.get(n)
    if cached is not None:
        return cached
    blocks = _count_blocks(n)
    if n <= _CACHE_N_MAX:
        values = np.empty((n, catalan(n)), dtype=np.int8)
        q1 = np.empty_like(values)
        off = 0
        for block, ones in blocks:
            width = block.shape[1]
            values[:, off : off + width] = block
            q1[:, off : off + width] = ones
            off += width
        blocks = _count_tensors[n] = [(values, q1)]
    return blocks


def _block_layout(n: int) -> Iterator[tuple[slice, int, int]]:
    """(rows, |A|, |B|) of each block of S_n(132), in avoiders_array's order.

    For 1 < i < n, block i is every A n B with n at position i, over all n
    rows.  With n at position 1 or n, the other side is all of S_{n-1}(132),
    itself A (n-1) B split by the position j of n - 1: one sub-block per j,
    written into the n - 1 rows after or before the row of n.
    """
    for i in range(1, n + 1):
        if 1 < i < n or n == 1:
            yield slice(None), i - 1, n - i
        else:
            rows = slice(1, None) if i == 1 else slice(None, -1)
            for j in range(1, n):
                yield rows, j - 1, n - 1 - j


def _count_blocks(n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(values, q1) of S_n(132) one block at a time (see _block_layout):
    3n - 4 blocks for n >= 2, each at most catalan(n-2) permutations wide.
    Every block comes from the one table of length n - 2 (see _shorter),
    and its q1 from comparing every pair of positions."""
    table = avoiders_array(max(n - 2, 0)).T
    for rows, na, nb in _block_layout(n):
        left, right = _shorter(table, na), _shorter(table, nb)
        values = np.full((n, left.shape[1] * right.shape[1]), n, dtype=np.int8)
        _write_block(values[rows], left, right)
        q1 = np.zeros_like(values)
        for p in range(n):
            acc = q1[p]
            for j in range(p + 1, n):
                acc += values[j] > values[p]
        yield values, q1
        del values, q1  # so the caller can free this block before the next


def q_poly_bruteforce(n: int, pat) -> XPoly:
    """Q_n(x) by direct enumeration of S_n(132).

    Block by block (see _counts_for), one pass per position p tests q1[p]
    and the values at p against the bounds and adds the result into one
    match count per permutation; the histogram of those counts, summed
    over the blocks, is Q_n.

    >>> print(q_poly_bruteforce(5, (0, 1, 1, 1)))
    33+8x+x^2
    >>> print(q_poly_bruteforce(2, (1, 1, 0, 1)))
    2
    """
    a, b, c, d = natural_pattern(pat, n)
    check_enumeration(n)
    if n == 0:
        return ONE
    hist = np.zeros(n + 1, dtype=np.int64)
    # at 0-based position p with value v: n - v points lie above, p to the
    # left and n - 1 - p to the right; bounds are clamped to n, and no length
    # that can be enumerated reaches 128, so bounds and counts fit int8
    for cols, q1 in _counts_for(n):
        count = np.zeros(q1.shape[1], dtype=np.uint8)
        for p in range(n):
            one = q1[p]
            ok = one >= a
            if b or c:
                q2 = (n - cols[p]) - one
                if b:
                    ok &= q2 >= b
                if c:
                    ok &= p - q2 >= c
            if d:
                ok &= (n - 1 - p) - one >= d
            count += ok
        hist += np.bincount(count, minlength=n + 1)
        del cols, q1  # a streamed block is freed before the next is built
    return XPoly(int(h) for h in hist)
