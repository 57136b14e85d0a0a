"""Ground truth for Q_n(x): brute-force enumeration and a structural recursion.

Both functions take a pattern of four nonnegative integer quadrant bounds
(a, b, c, d) (no EMPTY bounds here) and return the exact polynomial

    Q_n(x) = sum over sigma in S_n(132) of x^(mmp count of sigma).

Brute force accepts n <= 14 (perm_core.DEFAULT_ENUM_CAP), a fixed limit
checked before any work.  One generator, _blocks, holds its one layout
of S_n(132): blocks of A n B, all read from the one table of length n-2,
in which every shorter table is a column suffix.  For 1 < i < n, block i
holds the permutations with n at position i, written in place from the
two tables on either side of n.  With n first or last the other side is
all of S_{n-1}(132), so that block is split by the position j of n-1
into n-1 sub-blocks, each written from two tables of length at most n-2
beside the row of n.  That makes 3n-4 blocks for n >= 2, none wider than
C_{n-2}.  avoiders_array writes them in order into one table, and so
builds lengths n, n-2, n-4, ...; lengths n <= 11 are cached as that
table, and longer lengths are streamed, each block written into a fresh
array.  Only these int8 value tables are ever stored.  Points are
compared for one count only: q1, the points right of and above a
position, summed into one int8 row per position with one C-level pass
per pair of positions (_q1_rows).  That row is reused for the next
position, so no (n, k) q1 array exists, and a cached length recomputes
q1 on every call.
The other three counts follow by counting points by value and by
position: at 0-based position p with value v, n - v points lie above, p
to the left and n - 1 - p to the right, so

    q2 = (n - v) - q1,    q3 = p - q2,    q4 = (n - 1 - p) - q1.

No 132 structure is used in counting, so brute force stays independent
of the recursion.  Matches are counted one position at a time: each
nonzero bound is one comparison on that position's q1 row or values, and
the matching permutations gain one in a single uint8 count per
permutation.  The histogram takes one count_nonzero pass per possible
count, 0 to n, into Python ints, so the counts are never widened.  No
temporary outgrows one row: C_n entries for a cached length, at most
C_{n-2} for a streamed one.

Brute force is the package's one numpy user, and numpy runs only when it
does.  ``np`` is a lazy module (importlib.util.LazyLoader): importing
this module enters numpy in sys.modules, and numpy runs on the first
``np.`` read, inside a brute-force call.  So a process that only computes
polynomials or series never runs numpy, and nothing at module level may
read ``np.`` (annotations are strings, by the ``__future__`` import).

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

import importlib.util
import sys
from collections.abc import Iterable, Iterator
from operator import mul
from types import ModuleType

from .mmp_stat import natural_pattern
from .perm_core import ResourceLimitError, catalan, check_enumeration, checked_length
from .poly_series import ONE, TSeries, XPoly, _pack, _unpack, _width


def _lazy_import(name: str) -> ModuleType:
    """Module ``name``, entered in sys.modules now but run on its first
    attribute access.  A module already imported is returned as it is, and
    a missing one raises ModuleNotFoundError here, as ``import`` would."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_import("numpy")

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
    if checked_length(n) > RECURSION_N_MAX:
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

    The rows are read longest first: the read of length N checks the
    order, sizes the limb from C_N and fills the box before any shorter
    row is read, and the shorter reads find their rows, except at lengths
    n < c, whose rows clamp c to n.
    """
    pat = natural_pattern(pat, N)
    rows = [q_poly_recursive(n, pat) for n in range(N, -1, -1)]
    return TSeries(N, rows[::-1])


def clear_recursion_memo() -> None:
    """Drop all memoized rows and their limb width (cold-start benchmarks)."""
    global _limb
    _memo.clear()
    _limb = 0


# ---------------------------------------------------------------------------
# brute force

_CACHE_N_MAX = 11  # tables this small are kept; larger ones are streamed per call
_count_tensors: dict[int, np.ndarray] = {}  # (n, catalan(n)) values, by length


def clear_brute_cache() -> None:
    """Drop the cached avoider tables (cold-start benchmarks)."""
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


def _blocks(n: int) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """(rows, A table, B table) of each block of S_n(132), in row order.

    The one block layout of brute force (see the module docstring).  Block
    i, 1 < i < n, spans all n rows; with n first or last, one sub-block per
    position j of n - 1 spans the n - 1 rows after or before the row of n.
    Every A and B table is a view into the one table of length n - 2.
    """
    table = avoiders_array(n - 2).T if n > 1 else np.zeros((0, 1), dtype=np.int8)
    for i in range(1, n + 1):
        if 1 < i < n or n == 1:
            yield slice(None), _shorter(table, i - 1), _shorter(table, n - i)
        else:
            rows = slice(1, None) if i == 1 else slice(None, -1)
            for j in range(1, n):
                yield rows, _shorter(table, j - 1), _shorter(table, n - 1 - j)


def avoiders_array(n: int) -> np.ndarray:
    """All of S_n(132) as a (catalan(n), n) int8 array, one row per permutation.

    One (n, catalan(n)) table, filled with n, takes the blocks of _blocks
    in order, each written in place into its next column slice by
    _write_block; the result is a transposed view.  The blocks read the
    table of length n - 2 alone, so a call builds lengths n, n - 2, n - 4,
    and so on down to 1 or 0.
    """
    check_enumeration(n)
    table = np.full((n, catalan(n)), n, dtype=np.int8)
    off = 0
    for rows, left, right in _blocks(n):
        width = left.shape[1] * right.shape[1]
        _write_block(table[rows, off : off + width], left, right)
        off += width
    return table.T


def _counts_for(n: int) -> Iterable[np.ndarray]:
    """The values of S_n(132) as (n, k) int8 arrays indexed [position,
    permutation], block after block.

    A length up to _CACHE_N_MAX is cached as one block, the whole table of
    avoiders_array.  A length above it, 12 to 14, comes as the generator
    _count_blocks, so a call holds the table of length n - 2 and one block
    at a time, never the whole length.
    """
    table = _count_tensors.get(n)
    if table is None:
        if n > _CACHE_N_MAX:
            return _count_blocks(n)
        table = _count_tensors[n] = avoiders_array(n).T
    return (table,)


def _count_blocks(n: int) -> Iterator[np.ndarray]:
    """The values of S_n(132) one block of _blocks at a time, each written
    into a fresh array filled with n, at most catalan(n-2) permutations
    wide."""
    for rows, left, right in _blocks(n):
        values = np.full((n, left.shape[1] * right.shape[1]), n, dtype=np.int8)
        _write_block(values[rows], left, right)
        yield values
        del values  # so the caller can free this block before the next


def _q1_rows(values: np.ndarray) -> Iterator[np.ndarray]:
    """Quadrant-I counts of the (n, k) values array, one int8 row per
    position in order: the points right of and above that position, with
    one C-level pass per pair of positions.  The one row is reused, so each
    row yielded is overwritten by the next."""
    n, k = values.shape
    one = np.empty(k, dtype=np.int8)
    for p in range(n):
        one[...] = 0
        for j in range(p + 1, n):
            one += values[j] > values[p]
        yield one


def q_poly_bruteforce(n: int, pat) -> XPoly:
    """Q_n(x) by direct enumeration of S_n(132).

    Block by block (see _counts_for), one pass per position p tests the
    quadrant-I row of p (see _q1_rows) and the values at p against the
    bounds and adds the result into one match count per permutation; the
    histogram of those counts, summed over the blocks, is Q_n.

    >>> print(q_poly_bruteforce(5, (0, 1, 1, 1)))
    33+8x+x^2
    >>> print(q_poly_bruteforce(2, (1, 1, 0, 1)))
    2
    """
    a, b, c, d = natural_pattern(pat, n)
    check_enumeration(n)
    if n == 0:
        return ONE
    hist = [0] * (n + 1)
    # at 0-based position p with value v: n - v points lie above, p to the
    # left and n - 1 - p to the right; bounds are clamped to n, and no length
    # that can be enumerated reaches 128, so bounds and counts fit int8
    for values in _counts_for(n):
        count = np.zeros(values.shape[1], dtype=np.uint8)
        for p, one in enumerate(_q1_rows(values)):
            ok = one >= a
            if b or c:
                q2 = (n - values[p]) - one
                if b:
                    ok &= q2 >= b
                if c:
                    ok &= p - q2 >= c
            if d:
                ok &= (n - 1 - p) - one >= d
            count += ok
        for m in range(n + 1):  # one pass per count: no wider copy of count
            hist[m] += int(np.count_nonzero(count == m))
        del values  # a streamed block is freed before the next is built
    return XPoly(hist)
