"""Conductor counts of C_p^r-extensions derived apart from asdist.

This module imports nothing from asdist.  It counts extensions as subspaces
of Artin-Schreier character groups, so it checks the program's Euler-product
assembly against a different derivation of the same numbers:

* A module m = prod P^{n_P} bounds the conductor of a character group
  V_m of F_p-dimension dim V_m = 1 + c + k * sum_P deg P * r(n_P), less 1
  when c = 1 and some n_P >= 2.  Here k = log_p q, c = log_p |Cl[p]| and
  r(n) = #{1 <= j < n : p does not divide j}.  The leading 1 is the
  constant-field extension.  On genus 1 the logarithmic differential of a
  p-torsion class has no zero, so that class obstructs at every place of
  multiplicity >= 2: hence the correction.
* C_p^r-extensions with conductor dividing m are the r-dimensional
  subspaces of V_m, counted by the Gaussian binomial G(n) = [n, r]_p.
* Conductor exactly m follows by inclusion-exclusion over the support:
  sum over eps in {0,1}^supp(m) of (-1)^|eps| G(dim V_{m - eps}).

Summed over all modules of degree n this is a product over places in
(t, y), where y^j marks local dimension j: every place of degree d
contributes 1 + sum_{n >= 2} t^{dn} (y^{k d r(n)} - y^{k d r(n-1)}).  The
series is then sum_j [y^j] E(t, y) * G(dim(j)).  Since G(1 + j) is a
polynomial of degree r in p^j, it is enough to evaluate E at y = p^i for
i = 0..r, and at y = 0 for the genus-1 correction.  Every evaluation is an
integer power series, computed from its logarithmic derivative.

Valid for genus 0 and genus 1 (so c is 0 or 1).
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product


def prime_exponent(q: int, p: int) -> int:
    """k with q = p^k; raises ValueError when q is not a power of p."""
    k, m = 0, q
    while m > 1 and m % p == 0:
        m //= p
        k += 1
    if m != 1 or k < 1:
        raise ValueError(f"{q} is not a power of {p}")
    return k


def mobius(n: int) -> int:
    result, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    return -result if n > 1 else result


def place_counts(q: int, l_poly, depth: int) -> list:
    """[b_1, .., b_depth]: places of each degree of a function field over F_q
    with L-polynomial l_poly, from its point counts q^d + 1 - sum alpha^d."""
    g2 = len(l_poly) - 1
    s = [0] * (depth + 1)  # power sums of the inverse roots (Newton)
    for n in range(1, depth + 1):
        acc = n * l_poly[n] if n <= g2 else 0
        for j in range(1, min(n, g2 + 1)):
            acc += l_poly[j] * s[n - j]
        s[n] = -acc
    points = [q**d + 1 - s[d] for d in range(depth + 1)]
    counts = []
    for d in range(1, depth + 1):
        total = sum(mobius(d // e) * points[e] for e in range(1, d + 1) if d % e == 0)
        if total % d or total < 0:
            raise ValueError(f"L-polynomial {l_poly} gives b_{d} = {total}/{d}")
        counts.append(total // d)
    return counts


def wild_rank(n: int, p: int) -> int:
    """r(n) = #{1 <= j < n : p does not divide j}."""
    return 0 if n < 1 else (n - 1) - (n - 1) // p


def gaussian(n: int, r: int, p: int) -> int:
    """Number of r-dimensional subspaces of F_p^n."""
    if n < r:
        return 0
    num = den = 1
    for i in range(r):
        num *= p**n - p**i
        den *= p**r - p**i
    return num // den


class Model:
    """A genus-0 or genus-1 function field over F_q with |Cl[p]| = clp_order."""

    def __init__(self, q: int, p: int, l_poly=(1,), clp_order: int = 1):
        self.q, self.p = q, p
        self.k = prime_exponent(q, p)
        self.l_poly = tuple(l_poly)
        if len(self.l_poly) not in (1, 3):
            raise ValueError("the reference count covers genus 0 and 1 only")
        if clp_order not in (1, p) or (clp_order == p and len(self.l_poly) == 1):
            raise ValueError(f"clp_order {clp_order} impossible here")
        if len(self.l_poly) == 3 and (sum(self.l_poly) % p == 0) != (clp_order == p):
            # Cl^0 = E(F_q) has L(1) elements and p-torsion of order <= p
            raise ValueError("|Cl[p]| is p exactly when p divides L(1)")
        self.c = 1 if clp_order == p else 0

    def place_counts(self, depth: int) -> list:
        return place_counts(self.q, self.l_poly, depth)

    def dimension(self, local: int) -> int:
        """dim V_m for a module whose local dimension k*sum deg*r(n) is `local`."""
        return 1 + self.c + local - (1 if self.c and local > 0 else 0)

    def module_count(self, r: int, module) -> int:
        """Extensions with conductor exactly `module`, a list of
        (degree, multiplicity) pairs with multiplicities >= 1."""
        total = 0
        for eps in product((0, 1), repeat=len(module)):
            local = sum(
                self.k * d * wild_rank(n - e, self.p)
                for (d, n), e in zip(module, eps)
            )
            total += (-1) ** sum(eps) * gaussian(self.dimension(local), r, self.p)
        return total

    def _evaluation(self, y: int, order: int, counts: list) -> list:
        """Coefficients of E(t, y) to t^order, E = prod_d F_d(t^d)^{b_d}."""
        p, k = self.p, self.k

        def power(e):
            return 1 if e == 0 else y**e

        log_deriv = [0] * (order + 1)  # t E'/E
        for d in range(1, order // 2 + 1):
            top = order // d
            f = [1] + [0] * top  # F_d as a series in u = t^d
            for n in range(2, top + 1):
                f[n] = power(k * d * wild_rank(n, p)) - power(k * d * wild_rank(n - 1, p))
            # h = u f'/f, integral because f(0) = 1
            h = [0] * (top + 1)
            for n in range(1, top + 1):
                h[n] = n * f[n] - sum(f[j] * h[n - j] for j in range(1, n))
            b = counts[d - 1]
            for n in range(1, top + 1):
                log_deriv[d * n] += b * d * h[n]
        e = [1] + [0] * order
        for n in range(1, order + 1):
            acc = sum(log_deriv[m] * e[n - m] for m in range(1, n + 1))
            if acc % n:
                raise ArithmeticError("log-derivative recurrence is not integral")
            e[n] = acc // n
        return e

    def series(self, r: int, order: int) -> list:
        """Counts of C_p^r-extensions by conductor degree 0..order."""
        p = self.p
        counts = self.place_counts(max(order, 1))
        # G(1 + j) = sum_i g[i] * (p^j)^i, from the values at j = 0..r
        g = _interpolate([gaussian(1 + j, r, p) for j in range(r + 1)], p)
        total = [Fraction(0)] * (order + 1)
        for i in range(r + 1):
            if g[i]:
                ev = self._evaluation(p**i, order, counts)
                for n in range(order + 1):
                    total[n] += g[i] * ev[n]
        if self.c:
            shift = gaussian(2, r, p) - gaussian(1, r, p)
            ev = self._evaluation(0, order, counts)
            for n in range(order + 1):
                total[n] += shift * ev[n]
        out = []
        for n, value in enumerate(total):
            if value.denominator != 1 or value < 0:
                raise ArithmeticError(f"reference count {value} at degree {n}")
            out.append(int(value))
        return out


def _interpolate(values: list, p: int) -> list:
    """Coefficients g with sum_i g[i] x^i = values[j] at x = p^j."""
    n = len(values)
    rows = [[Fraction(p**j) ** i for i in range(n)] + [Fraction(values[j])]
            for j in range(n)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if rows[i][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for i in range(n):
            if i != col and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[col])]
    return [rows[i][n] for i in range(n)]


def partial_sums(values: list) -> list:
    out, acc = [], 0
    for v in values:
        acc += v
        out.append(acc)
    return out
