"""Exact polynomials in x and truncated power series in t.

XPoly is a polynomial in x with arbitrary-precision integer coefficients,
stored densely in ascending order with no trailing zeros (the zero
polynomial stores nothing).  TSeries is a power series in t truncated at a
fixed order N: exactly N+1 XPoly coefficients, and no operation ever reads
or produces terms beyond t^N.  Only t is truncated; x-degrees grow as
needed.  All arithmetic is exact; there are no floats or rationals
anywhere.

A series is stored packed.  Each x-polynomial is one big integer by
Kronecker substitution, x = 2^L: the coefficient of x^r sits in limb r,
L bits wide.  Limbs are balanced (signed): a limb holds any value in
[-2^(L-1), 2^(L-1)), so differences pack exactly.  A TSeries holds one
width L, its t-coefficients packed at L, and for each t-coefficient p
an upper bound n1 on |p|_1, the sum of the absolute values of its
coefficients, and so on each coefficient.  Every operation carries the
bound forward, and a width of bit_length(bound) + 2 holds a coefficient:

* `linear_combination`, sum c t^k u over any number of terms (c an int,
  u a series or an x-free int sequence): the bounds of all terms are
  summed first, by the triangle inequality, which fixes one width,
  L = max(W_N, width(largest bound), every term's width); then each term
  is read once at L and added into one packed list, with no
  intermediate series;
* product u*v: one big-integer dot product per output coefficient, with
  |(uv)_n|_1 <= sum_i |u_i|_1 |v_{n-i}|_1;
* division v/u (`reciprocal`), u_0 = 1, by forward substitution
  w_n = v_n - sum_{k>=1} u_k w_{n-k}, with
  |w_n|_1 <= r_n = |v_n|_1 + sum_{k>=1} |u_k|_1 r_{n-k};
* solve_q00k0: no majorant; it runs at W_N, and the bound of its t^n
  coefficient is C_n, since that coefficient's entries are counts
  summing to C_n, so the bound of its square is C_{n+1} (see there).

A caller that has proved a bound passes it to the product or the division,
which then skips its own O(N^2) pass on bounds.  Every caller in the
package does: `block_series` passes count bounds, C_{n+1} for its product
and C_n for its quotient, and `solve_q00k0` C_{n+1} for Q^2 (see there).
The derived bounds (convolution, majorant) stay as the reference that
the tests hold the proven bounds to.

A series is repacked only when a bound no longer fits its width.  Every
series of order N starts at no less than W_N = width(C_{N+2}): over
{0..8}^4 at order 20, {0..4}^4 at order 40 and {0..3}^4 at order 60 no
product, sum or division in `block_series` needed more (a test checks
this), so the formula route runs at one width, `solve_q00k0` included.
W_N only decides where packing starts; correctness rests on the bounds.
`TSeries.distribution`, which `dispatch` applies to each result, checks
z mod (2^L - 1) = p(1) mod (2^L - 1) against C_n, resets the bound of
t^n to C_n (the coefficients are counts) and moves the series to W_N.
Unpacking happens on each read, with no cache: `coeffs`, `coeff(n)`,
printing, hashing, equality across widths.  t and x are never packed
together: one integer for both measured about 30x slower.

Textual forms follow the house style of the series being modeled:
polynomials print ascending, "38+4x", "99+29x+4x^2"; a series prints one
"t^n: <poly>" line per order.

>>> print(catalan_series(5))
t^0: 1
t^1: 1
t^2: 2
t^3: 5
t^4: 14
t^5: 42
>>> catalan_xt_series(3).coeff(3)
XPoly((0, 0, 0, 5))
"""

from __future__ import annotations

from operator import add, mul
from typing import Iterable, Sequence

from .perm_core import catalan, catalans, checked_length


class OrderMismatchError(ValueError):
    """Two series of different truncation orders were combined."""


class XPoly:
    """Immutable dense polynomial in x over the integers: how a Q_n(x) is read."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("XPoly is immutable")

    @property
    def degree(self) -> int:
        """Degree in x; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coeff(self, r: int) -> int:
        """Coefficient of x^r (0 above the degree)."""
        if r < 0:
            raise ValueError("exponent must be nonnegative")
        return self.coeffs[r] if r < len(self.coeffs) else 0

    def leading(self) -> int:
        """Coefficient of the highest power; 0 for the zero polynomial."""
        return self.coeffs[-1] if self.coeffs else 0

    def __add__(self, other: "XPoly") -> "XPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for r, c in enumerate(b):
            out[r] += c
        return XPoly(out)

    def eval_at(self, x: int) -> int:
        """Exact integer evaluation (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, XPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"XPoly({self.coeffs!r})"

    def __str__(self) -> str:
        """Ascending sparse form: "0", "38+4x", "99+29x+4x^2", "1-2x+x^3"."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for r, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if r == 0:
                body = str(mag)
            else:
                var = "x" if r == 1 else f"x^{r}"
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+{body}" if c > 0 else f"-{body}")
        return "".join(parts)


# ---------------------------------------------------------------------------
# the packed kernel


def _pack(coeffs: Sequence[int], L: int) -> int:
    """sum_r c_r 2^(rL): the polynomial evaluated at x = 2^L."""
    z = 0
    for c in reversed(coeffs):
        z = (z << L) + c
    return z


def _unpack(z: int, L: int) -> XPoly:
    """Inverse of _pack for balanced limbs: every |c_r| < 2^(L-1), L >= 2."""
    if L < 2:  # at L = 1 every nonzero limb borrows and the loop never ends
        raise ValueError(f"limb width must be at least 2, got {L}")
    mask = (1 << L) - 1
    half = 1 << (L - 1)
    coeffs = []
    while z:
        c = z & mask
        z >>= L
        if c >= half:  # a negative limb borrowed one from the limb above
            c -= mask + 1
            z += 1
        coeffs.append(c)
    return XPoly(coeffs)


def _width(bound: int) -> int:
    """Limb width for coefficients of absolute value at most ``bound``."""
    return bound.bit_length() + 2


def _inverse_terms(u: Sequence[int], num: Iterable[int], sign: int) -> list[int]:
    """w_n = num_n + sign * sum_{k>=1} u_k w_{n-k}, for each num_n.

    With packed u (u_0 = 1), num_n = v_n and sign = -1 this is v/u
    packed; with every term replaced by its 1-norm and sign = 1 it is
    the majorant r_n of v/u.  u_0 is never read.
    """
    w: list[int] = []
    for n, c in enumerate(num):
        w.append(c + sign * sum(map(mul, u[1 : n + 1], reversed(w))))
    return w


def _q00k0_terms(k: int, N: int, L: int) -> list[int]:
    """Q_n = [n=0] + x*(Q^2)_{n-1} - (x - 1) * sum_{j=1}^{k} C_{j-1} Q_{n-j},
    n <= N, at x = 2^L: the (0,0,k,0) series packed at width L."""
    x, b = 1 << L, 1 - (1 << L)
    cat = catalans(k - 1)
    q = [1]
    for n in range(1, N + 1):
        h = n // 2  # (Q^2)_{n-1} by symmetry: twice the half-sum, plus a middle square
        sq = 2 * sum(map(mul, q[:h], reversed(q[n - h :])))
        if n % 2:
            sq += q[h] * q[h]
        q.append(x * sq + b * sum(map(mul, cat, reversed(q))))
    return q


def _as_xpoly(v) -> XPoly:
    if isinstance(v, XPoly):
        return v
    if isinstance(v, int):
        return XPoly((v,))
    raise TypeError(f"cannot coerce {v!r} to XPoly")


def _floor(N: int) -> int:
    """W_N, the least width of a series of order N."""
    return _width(catalan(N + 2))


def _series(order: int, L: int, z, n1) -> "TSeries":
    """A TSeries from its packed form; the caller proves the bounds."""
    s = object.__new__(TSeries)
    _set = object.__setattr__
    _set(s, "order", order)
    _set(s, "L", L)
    _set(s, "z", tuple(z))
    _set(s, "n1", n1)
    return s


class TSeries:
    """Power series in t, truncated at a fixed order, XPoly coefficients.

    Stored packed: ``z[n]`` is the t^n coefficient at x = 2^L, and
    ``n1[n]`` bounds its 1-norm.
    """

    __slots__ = ("order", "L", "z", "n1")

    def __init__(self, order: int, coeffs: Sequence = ()):
        checked_length(order)
        cs = [_as_xpoly(c).coeffs for c in coeffs]
        if len(cs) > order + 1:
            raise ValueError("more coefficients than order allows")
        cs.extend([()] * (order + 1 - len(cs)))
        n1 = tuple(sum(map(abs, c)) for c in cs)
        L = max(_floor(order), _width(max(n1)))
        z = tuple(_pack(c, L) for c in cs)
        for name, v in zip(self.__slots__, (order, L, z, n1)):
            object.__setattr__(self, name, v)

    def __setattr__(self, name, value):
        raise AttributeError("TSeries is immutable")

    def distribution(self) -> "TSeries":
        """This series at width W_N, each t^n coefficient known to be counts
        summing to C_n, so that its bound is C_n.  The sums are
        checked, z mod (2^L - 1) = p(1) mod (2^L - 1) = C_n, else ArithmeticError."""
        cats = catalans(self.order)
        if tuple(map(((1 << self.L) - 1).__rmod__, self.z)) != cats:
            raise ArithmeticError("a t-coefficient does not sum to its Catalan number")
        W = _floor(self.order)
        return _series(self.order, W, self._at(W), cats)

    @property
    def coeffs(self) -> tuple[XPoly, ...]:
        """The XPoly coefficients, unpacked on each read."""
        return tuple(_unpack(z, self.L) for z in self.z)

    def coeff(self, n: int) -> XPoly:
        """XPoly coefficient of t^n."""
        if not 0 <= n <= self.order:
            raise ValueError(f"t-exponent {n} outside 0..{self.order}")
        return _unpack(self.z[n], self.L)

    def _check(self, other: "TSeries") -> None:
        if self.order != other.order:
            raise OrderMismatchError(f"orders differ: {self.order} vs {other.order}")

    def _at(self, L: int) -> tuple[int, ...]:
        """The packing at width L, which must hold the coefficients."""
        if L == self.L:
            return self.z
        return tuple(_pack(_unpack(z, self.L).coeffs, L) for z in self.z)

    def __mul__(self, other: "TSeries", n1: Sequence[int] | None = None) -> "TSeries":
        """Product through the packed kernel: one big-integer dot product
        per output coefficient.  ``n1`` bounds the product's norms when the
        caller has proved a bound; without it they are the convolved bounds."""
        self._check(other)
        N = self.order
        if n1 is None:
            u1, v1 = self.n1, other.n1[::-1]
            n1 = tuple(sum(map(mul, u1, v1[N - n :])) for n in range(N + 1))
        L = max(self.L, other.L, _width(max(n1)))
        A, B = self._at(L), other._at(L)[::-1]
        z = [sum(map(mul, A, B[N - n :])) for n in range(N + 1)]
        return _series(N, L, z, n1)

    def reciprocal(self, num: "TSeries", n1: Sequence[int] | None = None) -> "TSeries":
        """num / self by forward substitution; the constant term of self
        must be exactly 1, as it is for the package's one divisor, 1 - t*lam.
        ``n1`` bounds the quotient's norms when the caller has proved a
        bound; without it they are the majorant of num / self."""
        if self.z[0] != 1:
            raise ValueError("reciprocal needs constant term 1")
        self._check(num)
        if n1 is None:
            n1 = tuple(_inverse_terms(self.n1, num.n1, 1))
        L = max(self.L, num.L, _width(max(n1)))
        return _series(self.order, L, _inverse_terms(self._at(L), num._at(L), -1), n1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TSeries) or self.order != other.order:
            return False
        return self.z == other.z if self.L == other.L else self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __repr__(self) -> str:
        return f"TSeries(order={self.order}, coeffs={[str(c) for c in self.coeffs]})"

    def __str__(self) -> str:
        return "\n".join(f"t^{n}: {c}" for n, c in enumerate(self.coeffs))


def linear_combination(order: int, terms: Iterable[tuple]) -> TSeries:
    """sum c t^k u over the terms (c, k, u), packed in one pass at one width.

    c is an int, k >= 0, and u a series of this order or a sequence of ints
    (an x-free series: an int packs to itself at any width).  The bounds
    come first, by the triangle inequality: the t^n coefficient of the sum
    has |.|_1 at most sum |c| |u_{n-k}|_1 (|v| for an int v).  The width is
    then L = max(W_N, width(largest bound), every u's width), and each u is
    read once at L, scaled by c and shifted by k into one coefficient list.
    """
    N = order
    n1, z = [0] * (N + 1), [0] * (N + 1)
    L, reads = _floor(N), []
    for c, k, u in terms:
        if k < 0:
            raise ValueError("shift must be nonnegative")
        keep = N + 1 - k  # the rest falls off
        if keep <= 0:
            continue
        if isinstance(u, TSeries):
            if u.order != N:
                raise OrderMismatchError(f"orders differ: {N} vs {u.order}")
            L = max(L, u.L)
            u1 = u.n1[:keep]
        else:
            u1 = tuple(map(abs, u[:keep]))
        m, e = abs(c), k + len(u1)
        n1[k:e] = map(add, n1[k:e], u1 if m == 1 else map(m.__mul__, u1))
        reads.append((c, k, e, u))
    L = max(L, _width(max(n1)))
    for c, k, e, u in reads:
        v = (u._at(L) if isinstance(u, TSeries) else u)[: e - k]
        z[k:e] = map(add, z[k:e], v if c == 1 else map(c.__mul__, v))
    return _series(N, L, z, tuple(n1))


def catalan_series(N: int) -> TSeries:
    """C(t) = sum C_n t^n truncated at t^N."""
    cats = catalans(N)
    return _series(N, _floor(N), cats, cats)


def catalan_xt_series(N: int) -> TSeries:
    """C(xt): coefficient of t^n is C_n x^n, packed as C_n 2^(nL)."""
    cats = catalans(N)
    L = _floor(N)
    return _series(N, L, (c << n * L for n, c in enumerate(cats)), cats)


def _times_x(s: TSeries) -> TSeries:
    """x * s: every limb moves up one place, and the bounds stay."""
    return _series(s.order, s.L, (z << s.L for z in s.z), s.n1)


def solve_q00k0(k: int, N: int) -> TSeries:
    """Series Q with t*x*Q^2 - (1 + (tx - t)*S_k)*Q + 1 = 0 and Q(0) = 1.

    S_k is the Catalan partial sum through t^{k-1}.  Writing the quadratic
    as B*Q = 1 + t*x*Q^2 with B = 1 + (tx - t)*S_k, so B_0 = 1 and
    B_j = (x - 1)*C_{j-1} for 1 <= j <= k, and reading off the t^n
    coefficient gives the recurrence

        Q_n = [n=0] + x*(Q^2)_{n-1} - sum_{j>=1} B_j Q_{n-j},

    whose right side only needs Q_0..Q_{n-1}: O(N^2) big-integer products
    in all.  It runs packed at W_N, and each t^n coefficient carries the
    bound C_n.  The width argument:

    * packed arithmetic is exact: p -> p(2^L) is a ring map, so the
      recurrence run at x = 2^L yields z_n = Q_n(2^L) at any L;
    * so the residual check below, t*x*Q^2 - Q + 1 - sum_{j=1}^{k}
      C_{j-1} t^j (x*Q - Q) computed as one product, with the bound
      sum_i C_i C_{n-i} = C_{n+1}, and one `linear_combination`, is
      exact at any width too, and a zero residual shows only that the
      recurrence code matches the quadratic;
    * the width matters only for reading z_n back.  Q_n's coefficients
      are counts that sum to C_n: at x = 1 the quadratic is Catalan's,
      t*Q^2 - Q + 1 = 0.  `TSeries.distribution` already rests on this
      for every `dispatch` result, so W_N = width(C_{N+2}) holds them.

    With those bounds the residual's terms sum to at most 4 C_n at t^n,
    within W_N for every N: nothing is repacked.
    """
    if k < 1:
        raise ValueError("k must be >= 1 (k = 0 is the C(xt) case)")
    L = _floor(N)
    cats = catalans(N)
    q = _series(N, L, _q00k0_terms(k, N, L), cats)
    xq = _times_x(q)
    qq = q.__mul__(q, catalans(N + 1)[1:])
    terms = [(1, 1, _times_x(qq)), (-1, 0, q), (1, 0, (1,))]
    for j, c in enumerate(catalans(k - 1), 1):
        terms += [(-c, j, xq), (c, j, q)]
    if any(linear_combination(N, terms).z):
        raise ArithmeticError("recurrence failed to satisfy its quadratic")
    return q
