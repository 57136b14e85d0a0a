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

with w_i = x on a match of n, else 1, and Q_0 = 1.  A position sees n-1
other points, so for n <= a+b+c+d none matches and Q_n = C_n: such a
request, n = 0 among them, is answered so and fills no table.  Since a
length-m factor never distinguishes bounds above m, keys are memoized
with b and d clamped to min(., m), which keeps the table small.

The recursion is evaluated as an iterative table fill over increasing
length (no call-stack recursion).  Each row is kept as its values at two
points, x = +2^h and x = -2^h (two-point Kronecker substitution): one
polynomial multiplication becomes two big-integer multiplications, each
of operands half as wide as one packing at x = 2^(2h) would be.  For a
row of length m with bounds (a', b', c, d'), the positions i fall into
three regimes:

* i < b': the right factor still carries b' - i in its b bound;
* max(b', 1) <= i <= m - d': both truncations are spent, so the left
  factor is the length-(i-1) row of the fixed bounds (a'-.-1, b', c, 0)
  and the right factor the length-(m-i) row of (a', 0, c, d');
* i > m - d': the left factor still carries d' - (m - i) in its d bound.

The middle regime, which holds all but at most b' + d' positions, is a
t-convolution of two fixed families of rows: with j = i - 1 and
top = m - 1, the left factor is the length-j row of F = (a'-.-1, b', 0)
and the right factor the length-(top-j) row of G = (a', 0, d'), for j
from lo = b'-.-1 to hi = top - d'.  The fill keeps each family as a list
indexed by length, one list per point, and _core, the one routine that
sums a middle, takes any range of such a t-convolution in one C-level
pass per point.  A family (a, b, d) is the constant C_k at every length
k < t = a + b + c + d + 1 (rule 1 below).  A family key names the
family's values: (a, b, d) with b <= d, since reflection (rule 2) swaps
b and d, and (0, 0, b + d + 1) for a = 1 and bd = 0, by the block
identity (rule 3).  Both hold at every length k of the clamped bounds
min(b, k) and min(d, k): where the clamp changes rule 3's bounds,
k <= b + d, both rows are C_k.

So at a' <= 1 the families F and G are those of R_u = (0, 0, c, u) and
R_v = (0, 0, c, v), u = b' and v = d' + a', and such a row reads the pair
middle

    M(u, v) = sum_{j = u-.-1}^{top - (v-.-1)} R_u[j] * R_v[top-j].

M(u, v) = M(v, u): j -> top - j maps the range of M(u, v) onto that of
M(v, u), and each term onto the term of M(v, u) with the same factors.
So each length computes M once per unordered pair {u, v}, by _core, and
when u = v its terms pair up: it is twice the sum below the middle plus
the middle square, as in poly_series._q00k0_terms.  The rows take it:

* a level-1 row's middle is M (hi = top - (v - 1)), so the twins
  (1, u, c, v-1) and (1, v, c, u-1) share it;
* a level-0 row's middle is M less its one term past hi,
  F[hi+1] * G[d'-1], when d' >= 1, and M itself when d' = 0;
* a marked row, a' = b' = 0, where n matches from i = c + 1 on, takes
  H + x (M' - H) at the point x = +2^h or -2^h, M' its middle and H its
  unmarked head j < c.

A row at a' >= 2 has a pair no other row of its length has, and sums its
own middle by one _core call.  Only the edge terms are summed by an
interpreted loop, and one call sums a row at every point of its pass.

Three proven equalities let a row take another row of its length, with
no sum at all:

1. no match: a row with a' + b' + c + d' >= m is the constant C_m, so
   every such row of length m shares one (C_m, C_m) pair;
2. reflection: inversion swaps the b and d bounds and keeps Q_m, so the
   rows (m, a', b', c, d') and (m, a', d', c, b') are equal;
3. the block identity: Q(1, 0, c, e-1) = Q(0, 0, c, e) for e >= 1 (proved
   in gf_formulas.block_series), so a row (m, 1, b', c, d') with b'd' = 0
   equals (m, 0, 0, c, e) and (m, 0, e, c, 0), e = b' + d' + 1.

Rule 1 is the family threshold t, and rules 2 and 3 the family key: a row
of length m >= t takes the length-m row of its family's representative,
the first index (a', b', d') of its key in the box's order, which comes
earlier and has b', d' <= m.  A row probes the memo for its own key only.
The memo's keys, their order and their values are those of a fill that
sums every row.

The two points never read each other, so a large box is filled by two
processes at once.  _fill weighs a box by the sum of m^3 over its keys: a
row of length m sums about m products of operands about m limbs wide, each
about m^2 limb products.  At _FORK_WORK or more, where os.fork exists and
the process may run on two or more CPUs (by os.sched_getaffinity, where
that exists: on one CPU the two passes would take turns), it forks once.
The child fills the rows at -2^h with the cyclic GC off: it never needs
the collector, since it exits after the pass, and a collection would walk
the objects it inherits and so copy every page it touches.  It sends the
values of the rows it sums, in key order, down a pipe, one marshal blob
per length.  The parent fills +2^h, reads each length's blob before that
length, and stores each row it sums as a whole pair, so its memo holds
the same keys, order, values and shared objects as a one-process fill.
The rows summed are the same in both processes, since the three rules
read the box alone.  One fill loop, _points, and one _sum serve all three
roles: both points, +2^h only and -2^h only.  In each family the list of
a point that a process does not compute is None, and _sum returns None
for it.  The parent reaps the child before _fill returns, on every path;
if the child fails, its pipe ends early, and the parent finishes the box
alone from the whole pairs it holds.  A fork costs about 1 ms on a 2-core
host with numpy loaded, a pass at one point takes 53-73% of the time of a
pass at both, the interpreted part of a row being the same, and the
pairing costs the parent a little more, so a small box stays in one
process (see _FORK_WORK for the requests measured on each side).

A row (p, q) = (P(2^h), P(-2^h)) is read through the even and odd parts
of P(x) = E(x^2) + x O(x^2): (p + q) / 2 = E(2^(2h)) and
(p - q) / 2^(h+1) = O(2^(2h)), each unpacked at limb 2h by the series
kernel's balanced `poly_series._unpack`, the one unpack in the package.
Both divisions are checked to be exact, else ArithmeticError.  All
coefficients are nonnegative and a row of length m sums to the Catalan
number C_m, so every coefficient of every row up to length n is at most
C_n.  The memo's limb is `poly_series._width(C_n)`, the width rule the
series kernel uses, sized for the first request that fills an empty memo,
and h = ceil(limb / 2), so that 2h >= limb.  A longer request that the
limb cannot hold drops the memo and refills it at the width for
RECURSION_N_MAX, so a loop over increasing n refills at most once before
the next clear.
"""

from __future__ import annotations

import importlib.util
import marshal
import os
import sys
from collections.abc import Iterable, Iterator
from itertools import product
from operator import mul
from types import ModuleType

from .mmp_stat import natural_pattern
from .perm_core import ResourceLimitError, catalan, check_enumeration, checked_length
from .poly_series import TSeries, XPoly, _unpack, _width


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

_memo: dict[tuple[int, int, int, int, int], tuple[int, int]] = {}
_limb = 0  # width(C_n) of the longest length held: every coefficient's bound

#: the least work, the sum of m^3 over a box's keys, that _fill splits between
#: two processes.  Measured on a 2-core host with numpy loaded, best of 21
#: cold fills in one process / in two, work in millions: below it,
#: (3,3,2,3) at n = 30 (13.8) 8.5 / 10.0 ms, (1,1,1,3) at 44 (15.7) 7.9 /
#: 8.8 ms, (2,2,1,2) at 40 (18.2) 9.0 / 9.7 ms, (2,2,2,2) at 44 (26.5)
#: 11.2 / 10.9 ms, (4,4,4,4) at 30 (27.0) 13.4 / 14.0 ms and (3,3,3,3) at 36
#: (28.4) 12.3 / 12.3 ms; above it, (1,2,1,3) at 48 (33.2) 14.1 / 12.7 ms,
#: (1,1,1,1) at 64 (34.6) 20.9 / 15.7 ms, (4,4,4,4) at 36 (55.4) 20.5 /
#: 18.8 ms, (2,2,2,6) at 44 (61.7) 28.0 / 22.2 ms, (8,8,8,8) at 40 (490)
#: 94 / 78 ms and (4,2,4,8) at 64 (584) 256 / 156 ms.
_FORK_WORK = 30_000_000

# ---------------------------------------------------------------------------
# structural recursion


def _fill(n: int, a: int, b: int, c: int, d: int) -> None:
    """Ensure memo rows for the whole box (m, a', b', c, d'), m <= n,
    a' <= a, b' <= min(b, m), d' <= min(d, m).

    Each row is the pair of its values at x = +2^h and x = -2^h,
    h = _half(_limb), filled by _points in one of three roles.  A box whose
    work, the sum of m^3 over its keys, is below _FORK_WORK, a host
    without os.fork, or a process that may run on one CPU only (by
    os.sched_getaffinity, where it exists), takes one pass at both points:
    on one CPU the two passes would take turns.  A larger box forks
    once (_fill_forked): the child takes the pass at -x only, with the
    cyclic GC off, and this process the pass at +x only, which pairs each
    row it sums with the child's value (see the module docstring).  The
    child is reaped before this returns, on every path; if it fails, this
    process finishes the box at both points, from the whole pairs it
    already holds.
    """
    if (n, a, b, c, d) in _memo:
        return  # rows go in (m, a', b', d') order: the box is complete
    box = (n, a, b, c, d, 1 << _half(_limb))
    work = (a + 1) * sum(m**3 * (min(b, m) + 1) * (min(d, m) + 1) for m in range(n + 1))
    if work < _FORK_WORK or not hasattr(os, "fork") or not _fill_forked(box):
        _points(*box, True, True, None)


def _fill_forked(box: tuple) -> bool:
    """Fill _fill's box at -x in a forked child and at +x here, pairing
    each summed row with the child's value, and reap the child.  True when
    the box is complete; False when this process may run on one CPU only
    (by os.sched_getaffinity, where it exists), when no child could be
    forked or when the child failed, and then every row held is a whole
    pair.  A child that summed other rows empties the memo and raises
    ArithmeticError."""
    cpus = getattr(os, "sched_getaffinity", None)
    if cpus is not None and len(cpus(0)) < 2:
        return False  # on one CPU the two passes would take turns
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return False
    if not pid:  # the child, which never returns
        code = 1
        try:
            os.close(r)
            import gc  # built in: loading it reads no file

            gc.disable()  # a collection would walk, and so copy, inherited pages
            with open(w, "wb") as link:
                _points(*box, False, True, link)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    try:
        with open(r, "rb") as link:
            _points(*box, True, False, link)
        return True
    except EOFError:  # the child's pipe ended early
        return False
    except (StopIteration, ArithmeticError):  # the child summed other rows
        _memo.clear()  # a pair that took one of its values may be wrong
        raise ArithmeticError("the two processes summed different rows") from None
    finally:
        os.waitpid(pid, 0)


def _points(
    n: int, a: int, b: int, c: int, d: int, x: int, plus: bool, minus: bool, link
) -> None:
    """The fill loop of _fill's box at x (``plus``), at -x (``minus``), or
    at both: _fill's three roles.

    ``fams[a'][b'][d']`` is the family (r, t, P, Q) of the rows
    ``_memo[(k, a', min(b',k), c, min(d',k))]``, k = 0, 1, ...: P and Q list
    their values at x and -x (1 at k = 0), and the list of a point this
    pass does not compute is None.  t is sum(key) + c + 1, the first length
    at which a row can match, and r, the family's representative, the
    first of its indices in product order (equal family keys share one
    family: see _family_key).  A row that the memo lacks is C_m when m < t,
    else r's row when it is not r, else summed.  Each family takes r's row
    once each length is complete.  A length's pair middles M(u, v) (see
    _sum) are kept by (u, v), u <= v, one dict per point, until the length
    is done.

    With one point, ``link`` is the pipe between the two processes.  The
    pass at -x writes the values of the rows it sums, in key order, as one
    marshal blob per length, each after its 8-byte size, and keeps
    (None, q) rows in its own memo, which ends with its process.  The pass
    at x reads each length's blob before that length and pairs each row it
    sums with the next value; a pipe that ends early raises EOFError, a blob
    too short StopIteration and one too long ArithmeticError.
    """
    cat = [catalan(k) for k in range(n + 1)]
    heads: dict = {}  # family key -> family
    fams = [[[None] * (d + 1) for _ in range(b + 1)] for _ in range(a + 1)]
    for aa, bb, dd in product(range(a + 1), range(b + 1), range(d + 1)):
        key = _family_key(aa, bb, dd)
        if key not in heads:
            lists = [1] if plus else None, [1] if minus else None
            heads[key] = ((aa, bb, dd), sum(key) + c + 1, *lists)
        fams[aa][bb][dd] = heads[key]
    for m in range(1, n + 1):
        if not minus:  # the child's values at -x of this length's summed rows
            size = int.from_bytes(link.read(8), "little")
            theirs = iter(marshal.loads(link.read(size)))  # short: EOFError
        ours = []  # this length's summed values at -x, sent when not plus
        rows = {}  # this length's rows, by (a', b', d')
        cores = {}, {}  # this length's pair middles at x and -x
        no_match = (cat[m], cat[m])  # C_m at both points
        for aa in range(a + 1):
            for bb in range(min(b, m) + 1):
                for dd in range(min(d, m) + 1):
                    key = (m, aa, bb, c, dd)
                    row = _memo.get(key)
                    if row is None:
                        rep, t, _, _ = fams[aa][bb][dd]
                        if m < t:  # no position sees that many points
                            row = no_match
                        elif rep != (aa, bb, dd):  # an equal row, done earlier
                            row = rows[rep]
                        else:
                            row = _sum(fams, m, aa, bb, dd, c, cores, x)
                            if link:  # one point: paired at x, sent from -x
                                if plus:
                                    row = row[0], next(theirs)
                                else:
                                    ours.append(row[1])
                        _memo[key] = row
                    rows[aa, bb, dd] = row
        if not plus:  # marshal.load from a file reads piece by piece: 40x slower
            blob = marshal.dumps(ours)
            link.write(len(blob).to_bytes(8, "little"))
            link.write(blob)
            link.flush()
        elif not minus and next(theirs, None) is not None:
            raise ArithmeticError("the child summed more rows of this length")
        if m < n:  # the length is complete: every family takes its row
            for (aa, bb, dd), _, p, q in heads.values():
                pq = rows[aa, min(bb, m), min(dd, m)]
                if plus:
                    p.append(pq[0])
                if minus:
                    q.append(pq[1])


def _family_key(aa: int, bb: int, dd: int) -> tuple[int, int, int]:
    """The key of the family of rows (k, aa, min(bb,k), c, min(dd,k)), equal
    for two families whose rows are equal at every length k: (0, 0, e),
    e = bb + dd + 1, when aa = 1 and bb * dd = 0 (the block identity),
    else (aa, bb, dd) with its b and d in increasing order (reflection)."""
    if aa == 1 and not bb * dd:
        return (0, 0, bb + dd + 1)
    return (aa, bb, dd) if bb <= dd else (aa, dd, bb)


def _sum(fams, m: int, aa: int, bb: int, dd: int, c: int, cores: tuple, x: int):
    """The row (m, aa, bb, c, dd) at x and -x, as the sum over j = i - 1 of
    its left factor's length-j row times its right factor's length-(m-1-j)
    row (see the module docstring), None at a point whose family lists are
    None (see _points).  The middle regime lo..hi reads the families
    F = fams[aa-.-1][bb][0] and G = fams[aa][0][dd].  At aa >= 2 it is one
    _core call.  At aa <= 1, F and G are the families of (0,0,c,u) and
    (0,0,c,v), u = bb and v = dd + aa, and the row reads the pair middle
    M(u, v) = M(v, u), which the first row of the length to need it
    computes into the point's dict of ``cores`` under (min(u,v), max(u,v)):
    a level-1 row's middle is M, and a level-0 row with dd >= 1 drops M's
    one term past hi.  When aa = bb = 0 the terms from j = c on are
    multiplied by the point: the middle M' becomes H + x (M' - H), H its
    part j < c."""
    left, right = fams[aa - 1 if aa else 0][bb], fams[aa]
    f, g = left[0], right[0][dd]
    top = m - 1
    lo, hi = bb - 1 if bb else 0, top - dd  # the middle regime
    v = dd + aa
    pair = (bb, v) if bb <= v else (v, bb)
    row = []
    for k, y in (2, x), (3, -x):
        fk, gk = f[k], g[k]
        if fk is None:
            row.append(None)
            continue
        if aa > 1:
            p = _core(fk, gk, top, lo, hi)
        else:
            mids = cores[k - 2]  # this point's pair middles
            p = mids.get(pair)
            if p is None:  # M(u, v) sums lo..top-.-(v-1)
                p = mids[pair] = _core(fk, gk, top, lo, top - (v - 1 if v else 0))
            if dd and not aa:  # M runs one term past hi
                p -= fk[hi + 1] * gk[dd - 1]
            if not (aa or bb):
                head = _core(fk, gk, top, 0, c - 1)
                p = head + y * (p - head)
        for j in range(lo):  # the right factor still carries bb - 1 - j in its b
            p += fk[j] * right[bb - 1 - j][dd][k][top - j]
        for j in range(hi + 1, m):
            # top - j < dd: no position of the right factor can see dd points
            # below-right, so its b bound is moot
            p += left[j - hi][k][j] * gk[top - j]
        row.append(p)
    return tuple(row)


def _core(f: list, g: list, top: int, lo: int, hi: int) -> int:
    """sum_{j=lo}^{hi} f[j] * g[top-j], lo <= hi + 1, for the values f and g
    of two families at one point.  When f is g and lo + hi = top, swapping
    j and top - j pairs the terms: it is twice the sum below the middle,
    plus the middle square when top is even."""
    if f is g and lo + hi == top:
        h = (top + 1) // 2  # j < h: below the middle
        half = sum(map(mul, f[lo:h], reversed(f[top - h + 1 : top - lo + 1])))
        return 2 * half + (0 if top % 2 else f[h] * f[h])
    return sum(map(mul, f[lo : hi + 1], reversed(g[top - hi : top - lo + 1])))


def _check_length(n: int) -> None:
    if checked_length(n) > RECURSION_N_MAX:
        raise ResourceLimitError(
            f"recursion table supports n <= {RECURSION_N_MAX}, got {n}"
        )


def _half(limb: int) -> int:
    """h = ceil(limb / 2): rows at this limb are kept at x = +2^h and
    x = -2^h, and their even and odd parts unpack at limb 2h >= limb."""
    return (limb + 1) // 2


def _decode(row: tuple[int, int], limb: int) -> XPoly:
    """The polynomial of a memo row (p, q) = (P(2^h), P(-2^h)), h = _half(limb).

    (p + q) / 2 is the even part of P at y = 2^(2h), (p - q) / 2^(h+1) the
    odd part, each unpacked at limb 2h >= limb.  A pair that is not exactly
    divisible so is no such row, and raises ArithmeticError.
    """
    h = _half(limb)
    p, q = row
    even, odd = p + q, p - q
    if even & 1 or odd & ((2 << h) - 1):
        raise ArithmeticError("a memo row is not one polynomial at x = +2^h and -2^h")
    ev = _unpack(even >> 1, 2 * h).coeffs
    od = _unpack(odd >> (h + 1), 2 * h).coeffs
    coeffs = [0] * (2 * max(len(ev), len(od)))
    coeffs[0 : 2 * len(ev) : 2] = ev
    coeffs[1 : 2 * len(od) : 2] = od
    return XPoly(coeffs)


def q_poly_recursive(n: int, pat) -> XPoly:
    """Q_n(x) by the memoized structural recursion, decoded from its row's
    values at x = +2^h and x = -2^h (see _decode).

    Coefficients are <= C_n, and C_{n+1} >= 2 C_n for n >= 1, so a limb
    narrower than C_n's width holds no row of length n: a warm memo that
    narrow is dropped, not re-encoded, and _fill stays its one writer.

    >>> print(q_poly_recursive(4, (1, 1, 1, 0)))
    12+2x
    >>> print(q_poly_recursive(5, (1, 1, 1, 1)))
    38+4x
    """
    global _limb
    a, b, c, d = natural_pattern(pat, n)
    _check_length(n)
    if a + b + c + d >= n:  # no position can see that many points
        return XPoly((catalan(n),))
    if not _memo:
        _limb = _width(catalan(n))
    elif _width(catalan(n)) > _limb:  # drop it, widen to the longest length accepted
        _memo.clear()
        _limb = _width(catalan(RECURSION_N_MAX))
    _fill(n, a, b, c, d)
    return _decode(_memo[(n, a, b, c, d)], _limb)


def q_series_recursive(pat, N: int) -> TSeries:
    """Series whose t^n coefficient is q_poly_recursive(n, pat), n <= N.

    The rows are read longest first: the read of length N checks the
    order, sizes the limb from C_N and fills the box before any shorter
    row is read, and the shorter reads find their rows.  A length that
    clamps a bound cannot match, and reads no row.
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
