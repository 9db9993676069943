"""Exact truncated power series over an integer-first kernel.

The kernel works on plain coefficient lists (ascending degree) with two
primitives: the Cauchy product `mul` and the Euler product `euler_product`.
The first half of `euler_product`, `log_derivative`, also gives a field's
point counts.  Integer inputs stay Python ints end to end; every division
is exact and checked, so `Fraction` appears only where a result is not
integral.

`TruncatedSeries` is the public value type over that kernel: it stores its
coefficients 0..order (inclusive), integral ones as int, and offers the sum
(`+`), `scale`, `mul`, `inv` and `pow`.  A sum or product of two series
truncates to the shorter operand.  Values are immutable and safe to share.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence, Union

from .errors import ConsistencyError

Scalar = Union[int, Fraction]


def _exact(c) -> Scalar:
    """c as an int when integral, otherwise as a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _divide(a: Scalar, n: int) -> Scalar:
    """a / n; an int stays an int, and must then divide exactly."""
    if type(a) is int:
        quotient, remainder = divmod(a, n)
        if remainder:
            raise ConsistencyError(f"{a} is not divisible by {n}")
        return quotient
    return a / n


def mul(a: Sequence, b: Sequence, order: int | None = None) -> list:
    """Product of two coefficient lists, truncated after t^order when given."""
    size = len(a) + len(b) - 1 if order is None else order + 1
    out = [0] * size
    for i, x in enumerate(a[:size]):
        if x:
            for j, y in enumerate(b[: size - i]):
                out[i + j] += x * y
    return out


def subst_monomial(a: Sequence, scale: Scalar, power: int, order: int | None = None) -> list:
    """a(scale * t^power), truncated after t^order when given."""
    if power < 1:
        raise ValueError("substitution power must be >= 1")
    size = (len(a) - 1) * power + 1 if order is None else order + 1
    out = [0] * size
    acc = 1
    for i, c in enumerate(a[: (size - 1) // power + 1]):
        out[i * power] = c * acc
        acc *= scale
    return out


def log_derivative(factors: Iterable, order: int) -> list:
    """g = sum e tF'/F over the (terms, e) in `factors`, truncated after t^order.

    Each F = 1 + sum x t^k comes as its nonzero monomials (k, x), k >= 1 in
    ascending order, and each e is any integer; monomials past t^order are
    skipped.  Each tF'/F comes from F h = tF' on the multiples of the gcd w
    of F's exponents, summing over F's monomials only.
    """
    g = [0] * (order + 1)
    for terms, e in factors:
        terms = [(k, x) for k, x in terms if k <= order]
        if e == 0 or not terms:
            continue
        h = [0] * (order + 1)  # tF'/F: h_n = n F_n - sum_(k<n) F_k h_(n-k)
        for k, x in terms:
            h[k] = k * x
        w = gcd(*(k for k, _ in terms))
        for n in range(w, order + 1, w):
            for k, x in terms:
                if k >= n:
                    break
                h[n] -= x * h[n - k]
            g[n] += e * h[n]
    return g


def euler_product(factors: Iterable, order: int) -> list:
    """prod F**e over the (terms, e) in `factors`, truncated after t^order,
    with factors as in `log_derivative`.  Its g = sum e tF'/F gives the
    product P through n P_n = sum_k g_k P_{n-k} (Brent and Kung 1978), so
    the cost does not grow with e; P is solved on g's stride.
    """
    g = log_derivative(factors, order)
    out = [1] + [0] * order
    w = gcd(*(n for n, x in enumerate(g) if x)) or len(g)
    for n in range(w, order + 1, w):
        out[n] = _divide(sum(g[k] * out[n - k] for k in range(w, n + 1, w)), n)
    return out


@dataclass(frozen=True)
class TruncatedSeries:
    coeffs: tuple  # int or Fraction, length order + 1

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a truncated series needs at least the constant term")
        object.__setattr__(self, "coeffs", tuple(_exact(c) for c in self.coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def constant(value: Scalar, order: int) -> "TruncatedSeries":
        return TruncatedSeries.monomial(value, 0, order)

    @staticmethod
    def zero(order: int) -> "TruncatedSeries":
        return TruncatedSeries.constant(0, order)

    @staticmethod
    def monomial(coeff: Scalar, power: int, order: int) -> "TruncatedSeries":
        cs = [0] * (order + 1)
        if power <= order:
            cs[power] = coeff
        return TruncatedSeries(tuple(cs))

    def _common(self, other: "TruncatedSeries") -> int:
        return min(self.order, other.order)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries.constant(other, self.order)
        m = self._common(other)
        return TruncatedSeries(
            tuple(self.coeffs[n] + other.coeffs[n] for n in range(m + 1))
        )

    __radd__ = __add__

    def scale(self, factor: Scalar) -> "TruncatedSeries":
        return TruncatedSeries(tuple(c * factor for c in self.coeffs))

    def mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product truncated at the smaller operand order."""
        return TruncatedSeries(mul(self.coeffs, other.coeffs, self._common(other)))

    def inv(self) -> "TruncatedSeries":
        """Multiplicative inverse up to the truncation order."""
        return self.pow(-1)

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None for the zero series."""
        for n, c in enumerate(self.coeffs):
            if c:
                return n
        return None

    def pow(self, exponent: int) -> "TruncatedSeries":
        """Integer power.  The lowest term c t^v is factored out, leaving a
        factor with constant term 1 for `euler_product`; negative exponents
        need a nonzero constant term."""
        m, v = self.order, self.valuation()
        if exponent == 0:
            return TruncatedSeries.constant(1, m)
        if exponent < 0 and v != 0:
            raise ValueError("not invertible as power series")
        if v is None or v * exponent > m:
            return TruncatedSeries.zero(m)
        c = Fraction(self.coeffs[v])
        terms = [(k, _exact(x / c)) for k, x in enumerate(self.coeffs[v + 1 :], 1) if x]
        shift = v * exponent
        body = euler_product([(terms, exponent)], m - shift)
        return TruncatedSeries((0,) * shift + tuple(c**exponent * x for x in body))

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order > 7 else ""
        return f"TruncatedSeries([{shown}{tail}]; order={self.order})"
