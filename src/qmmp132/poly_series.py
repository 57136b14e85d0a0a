"""Exact polynomials in x and truncated power series in t.

XPoly is a polynomial in x with arbitrary-precision integer coefficients,
stored densely in ascending order with no trailing zeros (the zero
polynomial stores nothing).  TSeries is a power series in t truncated at a
fixed order N: exactly N+1 XPoly coefficients, and no operation ever reads
or produces terms beyond t^N.  Only t is truncated; x-degrees grow as
needed.  All arithmetic is exact; there are no floats or rationals
anywhere.

Series arithmetic runs on one packed kernel.  Each x-polynomial is
packed into a single big integer by Kronecker substitution, x = 2^L:
the coefficient of x^r sits in limb r, L bits wide.  Limbs are balanced
(signed): a limb holds any value in [-2^(L-1), 2^(L-1)), so the
differences the formula route takes pack and unpack exactly.  A series
product then costs one big-integer product per pair of t-coefficients,
and each output t-coefficient is unpacked once.  The limb width is
always derived from a proven bound on the output coefficients:

* product u*v: every coefficient is at most
  sum_i |u_i|_1 * max_j |v_j|_inf in absolute value;
* reciprocal 1/u: |(1/u)_n|_1 <= r_n, where r_0 = 1 and
  r_n = sum_{k>=1} |u_k|_1 * r_{n-k};
* solve_q00k0: the same kind of majorant, taken over the coefficient
  recurrence it runs.

Here |p|_1 is the sum and |p|_inf the maximum of the absolute values of
p's coefficients.  A width of bit_length(bound) + 2 keeps every limb
inside its signed range.  t and x are never packed together: the support
of a series is triangular, and one integer for both variables measured
about 30x slower than one integer per t-coefficient.

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

from typing import Iterable, Sequence

from .perm_core import catalan


class OrderMismatchError(ValueError):
    """Two series of different truncation orders were combined."""


class XPoly:
    """Immutable dense polynomial in x over the integers."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("XPoly is immutable")

    @classmethod
    def const(cls, c: int) -> "XPoly":
        return cls((c,))

    @classmethod
    def x_power(cls, r: int, c: int = 1) -> "XPoly":
        """c * x^r"""
        return cls((0,) * r + (c,))

    @property
    def degree(self) -> int:
        """Degree in x; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

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

    def __neg__(self) -> "XPoly":
        return XPoly(-c for c in self.coeffs)

    def __sub__(self, other: "XPoly") -> "XPoly":
        a, b = self.coeffs, other.coeffs
        out = list(a)
        out.extend([0] * (len(b) - len(a)))
        for r, c in enumerate(b):
            out[r] -= c
        return XPoly(out)

    def __mul__(self, other: "XPoly") -> "XPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return XPoly()
        out = [0] * (len(a) + len(b) - 1)
        for r, ca in enumerate(a):
            if ca:
                for s, cb in enumerate(b):
                    out[r + s] += ca * cb
        return XPoly(out)

    def scale(self, c: int) -> "XPoly":
        return XPoly(c * v for v in self.coeffs)

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


ZERO = XPoly()
ONE = XPoly((1,))


# ---------------------------------------------------------------------------
# the packed kernel


def _pack(coeffs: Sequence[int], L: int) -> int:
    """sum_r c_r 2^(rL): the polynomial evaluated at x = 2^L."""
    z = 0
    for c in reversed(coeffs):
        z = (z << L) + c
    return z


def _unpack(z: int, L: int) -> XPoly:
    """Inverse of _pack for balanced limbs: every |c_r| < 2^(L-1)."""
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


def _norm1(p: XPoly) -> int:
    return sum(map(abs, p.coeffs))


def _inverse_terms(u: Sequence[int], sign: int) -> list[int]:
    """w_0 = u_0, w_n = sign * sum_{k>=1} u_k w_{n-k}, for n < len(u).

    With packed u (u_0 = +-1 = 1/u_0) and sign = -u_0 this is 1/u packed;
    with u_k = |u_k|_1 and sign = 1 it is the majorant r_n of 1/u.
    """
    nz = [k for k in range(1, len(u)) if u[k]]
    w = [u[0]]
    for n in range(1, len(u)):
        acc = 0
        for k in nz:
            if k > n:
                break
            acc += u[k] * w[n - k]
        w.append(sign * acc)
    return w


def _q00k0_terms(k: int, N: int, x: int, b: int) -> list[int]:
    """Q_n = [n=0] + x*(Q^2)_{n-1} + b * sum_{j=1}^{k} C_{j-1} Q_{n-j}, n <= N.

    At x = 2^L, b = 1 - 2^L this is the (0,0,k,0) series packed at width
    L; at x = 1, b = 2 it is the majorant of the coefficients' 1-norms.
    """
    cat = [catalan(j) for j in range(k)]
    q: list[int] = []
    for n in range(N + 1):
        if n == 0:
            q.append(1)
            continue
        m = n - 1  # (Q^2)_m by symmetry: twice the half-sum, plus a middle square
        sq = 0
        for i in range((m + 1) // 2):
            sq += q[i] * q[m - i]
        sq *= 2
        if m % 2 == 0:
            sq += q[m // 2] * q[m // 2]
        acc = 0
        for j in range(1, min(k, n) + 1):
            acc += cat[j - 1] * q[n - j]
        q.append(x * sq + b * acc)
    return q


def _as_xpoly(v) -> XPoly:
    if isinstance(v, XPoly):
        return v
    if isinstance(v, int):
        return XPoly((v,))
    raise TypeError(f"cannot coerce {v!r} to XPoly")


class TSeries:
    """Power series in t, truncated at a fixed order, XPoly coefficients."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Sequence = ()):
        if order < 0:
            raise ValueError("order must be nonnegative")
        cs = [_as_xpoly(c) for c in coeffs]
        if len(cs) > order + 1:
            raise ValueError("more coefficients than order allows")
        cs.extend([ZERO] * (order + 1 - len(cs)))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("TSeries is immutable")

    @classmethod
    def zero(cls, order: int) -> "TSeries":
        return cls(order)

    @classmethod
    def one(cls, order: int) -> "TSeries":
        return cls(order, (ONE,))

    @classmethod
    def t_power(cls, r: int, order: int, c=1) -> "TSeries":
        """c * t^r (c an int or XPoly); zero if r exceeds the order."""
        if r > order:
            return cls(order)
        return cls(order, (ZERO,) * r + (_as_xpoly(c),))

    def coeff(self, n: int) -> XPoly:
        """XPoly coefficient of t^n."""
        if not 0 <= n <= self.order:
            raise ValueError(f"t-exponent {n} outside 0..{self.order}")
        return self.coeffs[n]

    def _check(self, other: "TSeries") -> None:
        if self.order != other.order:
            raise OrderMismatchError(
                f"orders differ: {self.order} vs {other.order}"
            )

    def __add__(self, other: "TSeries") -> "TSeries":
        self._check(other)
        return TSeries(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "TSeries":
        return TSeries(self.order, [-a for a in self.coeffs])

    def __sub__(self, other: "TSeries") -> "TSeries":
        self._check(other)
        return TSeries(self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other: "TSeries") -> "TSeries":
        """Product through the packed kernel: one big-integer product per
        pair of nonzero t-coefficients, one unpack per output coefficient."""
        self._check(other)
        N = self.order
        bound = sum(map(_norm1, self.coeffs)) * max(
            max(map(abs, b.coeffs), default=0) for b in other.coeffs
        )
        L = _width(bound)
        A = [_pack(a.coeffs, L) for a in self.coeffs]
        B = [_pack(b.coeffs, L) for b in other.coeffs]
        nz = [i for i in range(N + 1) if A[i]]
        out = []
        for n in range(N + 1):
            z = 0
            for i in nz:
                if i > n:
                    break
                if B[n - i]:
                    z += A[i] * B[n - i]
            out.append(_unpack(z, L))
        return TSeries(N, out)

    def scale(self, c) -> "TSeries":
        """Multiply every coefficient by an int or XPoly."""
        if isinstance(c, int):
            return TSeries(self.order, [a.scale(c) for a in self.coeffs])
        p = _as_xpoly(c)
        return TSeries(self.order, [a * p for a in self.coeffs])

    def shift(self, k: int = 1) -> "TSeries":
        """Multiply by t^k at fixed order (top k coefficients fall off)."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        return TSeries(self.order, (ZERO,) * k + self.coeffs[: self.order + 1 - k])

    def reciprocal(self) -> "TSeries":
        """Multiplicative inverse; constant term must be exactly 1 or -1."""
        c0 = self.coeffs[0]
        if c0 != ONE and c0 != XPoly((-1,)):
            raise ValueError("reciprocal needs constant term +1 or -1")
        u0 = c0.coeff(0)  # +1 or -1, self-inverse
        r = _inverse_terms([1] + [_norm1(u) for u in self.coeffs[1:]], 1)
        L = _width(max(r))
        inv = _inverse_terms([_pack(u.coeffs, L) for u in self.coeffs], -u0)
        return TSeries(self.order, [_unpack(z, L) for z in inv])

    def subs_x(self, x: int) -> "TSeries":
        """Evaluate every coefficient at an integer x."""
        return TSeries(self.order, [XPoly((a.eval_at(x),)) for a in self.coeffs])

    def int_coeffs(self) -> list[int]:
        """Constant-in-x view; requires every coefficient constant."""
        out = []
        for n, a in enumerate(self.coeffs):
            if a.degree > 0:
                raise ValueError(f"t^{n} coefficient is not constant in x")
            out.append(a.coeff(0))
        return out

    def truncate(self, order: int) -> "TSeries":
        """Copy at a lower (or equal) truncation order."""
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TSeries(order, self.coeffs[: order + 1])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __repr__(self) -> str:
        return f"TSeries(order={self.order}, coeffs={[str(c) for c in self.coeffs]})"

    def __str__(self) -> str:
        return "\n".join(f"t^{n}: {c}" for n, c in enumerate(self.coeffs))


def catalan_series(N: int) -> TSeries:
    """C(t) = sum C_n t^n truncated at t^N."""
    return TSeries(N, [XPoly((catalan(n),)) for n in range(N + 1)])


def catalan_xt_series(N: int) -> TSeries:
    """C(xt): coefficient of t^n is C_n x^n."""
    return TSeries(N, [XPoly.x_power(n, catalan(n)) for n in range(N + 1)])


def catalan_partial_sum(j_max: int, N: int) -> TSeries:
    """sum_{j=0}^{j_max} C_j t^j as a series of order N; zero when j_max < 0."""
    if j_max < 0:
        return TSeries.zero(N)
    return TSeries(
        N, [XPoly((catalan(n),)) if n <= j_max else ZERO for n in range(N + 1)]
    )


def rational_series(num: Sequence[int], den: Sequence[int], N: int) -> TSeries:
    """Expand num(t)/den(t) to order N; den must have constant term +-1."""
    nu = TSeries(N, [XPoly((c,)) for c in num[: N + 1]])
    de = TSeries(N, [XPoly((c,)) for c in den[: N + 1]])
    return nu * de.reciprocal()


def solve_q00k0(k: int, N: int) -> TSeries:
    """Series Q with t*x*Q^2 - (1 + (tx - t)*S_k)*Q + 1 = 0 and Q(0) = 1.

    S_k is the Catalan partial sum through t^{k-1}.  Writing the quadratic
    as B*Q = 1 + t*x*Q^2 with B = 1 + (tx - t)*S_k, so B_0 = 1 and
    B_j = (x - 1)*C_{j-1} for 1 <= j <= k, and reading off the t^n
    coefficient gives the recurrence

        Q_n = [n=0] + x*(Q^2)_{n-1} - sum_{j>=1} B_j Q_{n-j},

    whose right side only needs Q_0..Q_{n-1}.  It runs packed at a width
    taken from the same recurrence with every term replaced by its
    1-norm bound: O(N^2) big-integer products in all.
    """
    if k < 1:
        raise ValueError("k must be >= 1 (k = 0 is the C(xt) case)")
    L = _width(max(_q00k0_terms(k, N, 1, 2)))
    packed = _q00k0_terms(k, N, 1 << L, 1 - (1 << L))
    q = TSeries(N, [_unpack(z, L) for z in packed])
    one = TSeries.one(N)
    s_k = catalan_partial_sum(k - 1, N)
    # tx - t as a series: coefficient of t^1 is x - 1
    tx_minus_t = TSeries.t_power(1, N, XPoly((-1, 1)))
    tx = TSeries.t_power(1, N, XPoly((0, 1)))
    # exact residual check: the quadratic must vanish identically
    residual = tx * q * q - (one + tx_minus_t * s_k) * q + one
    if any(not c.is_zero() for c in residual.coeffs):
        raise ArithmeticError("recurrence failed to satisfy its quadratic")
    return q
