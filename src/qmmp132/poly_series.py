"""Exact polynomials in x and truncated power series in t.

XPoly is a polynomial in x with arbitrary-precision integer coefficients,
stored densely in ascending order with no trailing zeros (the zero
polynomial stores nothing).  TSeries is a power series in t truncated at a
fixed order N: exactly N+1 XPoly coefficients, and no operation ever reads
or produces terms beyond t^N.  Only t is truncated; x-degrees grow as
needed.  All arithmetic is exact; there are no floats or rationals
anywhere.

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
        return self + (-other)

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
        self._check(other)
        N = self.order
        out = [ZERO] * (N + 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j in range(N + 1 - i):
                b = other.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return TSeries(N, out)

    def scale(self, c) -> "TSeries":
        """Multiply every coefficient by an int or XPoly."""
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
        inv = [ZERO] * (self.order + 1)
        inv[0] = XPoly((u0,))
        for n in range(1, self.order + 1):
            acc = ZERO
            for k in range(1, n + 1):
                uk = self.coeffs[k]
                if not uk.is_zero():
                    acc = acc + uk * inv[n - k]
            inv[n] = acc.scale(-u0)
        return TSeries(self.order, inv)

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

    S_k is the Catalan partial sum through t^{k-1}.  Solved by iterating
    the fixed point Q <- (1 + t*x*Q^2) / (1 + (tx - t)*S_k), which pins
    down one further t-order per pass because the numerator's Q-dependence
    carries a factor t.
    """
    if k < 1:
        raise ValueError("k must be >= 1 (k = 0 is the C(xt) case)")
    one = TSeries.one(N)
    s_k = catalan_partial_sum(k - 1, N)
    # tx - t as a series: coefficient of t^1 is x - 1
    tx_minus_t = TSeries.t_power(1, N, XPoly((-1, 1)))
    b_inv = (one + tx_minus_t * s_k).reciprocal()
    tx = TSeries.t_power(1, N, XPoly((0, 1)))
    q = one
    for _ in range(N + 1):
        q = (one + tx * q * q) * b_inv
    # exact residual check: the quadratic must vanish identically
    residual = tx * q * q - (one + tx_minus_t * s_k) * q + one
    if any(not c.is_zero() for c in residual.coeffs):
        raise ArithmeticError("fixed point failed to satisfy its quadratic")
    return q
