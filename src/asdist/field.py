"""Global function fields modelled by their numerical invariants.

A field is described by (p, q, genus, L-polynomial, |Cl[p]|); everything the
counting formulas need (place counts per degree, zeta values, the residue of
the zeta function) is derived from that data.  No curve arithmetic happens
here.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .errors import ModelError
from .series import log_derivative

VALIDATION_DEPTH = 12


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_power_exponent(q: int, p: int) -> int | None:
    k, m = 0, q
    while m > 1 and m % p == 0:
        m //= p
        k += 1
    return k if m == 1 and k >= 1 else None


@dataclass(frozen=True)
class FieldModel:
    p: int
    q: int
    genus: int
    l_poly: tuple  # integer coefficients, ascending degree, length 2*genus + 1
    clp_order: int
    exceptional_counts: Optional[frozenset] = None  # {(DivisorModule, count)}

    @property
    def class_number(self) -> int:
        return sum(self.l_poly)

    def zeta_factors(self, power: int) -> list:
        """Z(t^power) = L(t^power) / ((1 - t^power)(1 - q t^power)) as the
        (monomials, exponent) factors of `series.euler_product`."""
        l_terms = [(power * k, c) for k, c in enumerate(self.l_poly) if k and c]
        return [(l_terms, 1), ([(power, -1)], -1), ([(power, -self.q)], -1)]

    def point_counts(self, depth: int) -> list:
        """The coefficients 0..depth of tZ'/Z = sum_(d >= 1) N_d t^d, where
        N_d = number of rational points over the degree-d constant extension."""
        return log_derivative(self.zeta_factors(1), depth)

    def place_counts(self, depth: int) -> list:
        """b_d = number of places of degree d, for d = 1..depth, solved
        upward from N_d = sum_(e | d) e b_e."""
        n = self.point_counts(depth)
        b = []
        for d in range(1, depth + 1):
            total = n[d]  # N_d less e b_e for each divisor e < d, taken off below
            if total % d != 0 or total < 0:
                raise ModelError(
                    f"inconsistent L-polynomial: place count b_{d} = {total}/{d}"
                )
            b.append(total // d)
            for m in range(2 * d, depth + 1, d):
                n[m] -= total
        return b

    def zeta_value(self, k: int) -> Fraction:
        """Exact value of the zeta function at the integer argument k >= 2,
        i.e. the zeta series evaluated at t = q^{-k}."""
        if k < 2:
            raise ValueError("exact zeta values are only defined for k >= 2")
        x = Fraction(1, self.q**k)
        num = sum(Fraction(c) * x**i for i, c in enumerate(self.l_poly))
        return num / ((1 - x) * (1 - self.q * x))

    def zeta_residue_factor(self) -> Fraction:
        """L(1/q) / (1 - 1/q), the residue of the zeta function at s = 1
        multiplied by log(q); exact rational."""
        x = Fraction(1, self.q)
        num = sum(Fraction(c) * x**i for i, c in enumerate(self.l_poly))
        return num / (1 - x)

    def exceptional_count_map(self) -> dict:
        return dict(self.exceptional_counts) if self.exceptional_counts else {}

    def describe(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "genus": self.genus,
            "l_poly": list(self.l_poly),
            "clp_order": self.clp_order,
            "class_number": self.class_number,
        }


def make_field_model(
    p: int,
    q: int,
    genus: int,
    l_poly: Sequence[int] | None = None,
    clp_order: int = 1,
    exceptional_counts: Mapping | None = None,
) -> FieldModel:
    """Validate invariants and build a FieldModel.

    Checks: q is a power of the prime p, the L-polynomial satisfies the
    functional equation, derived place counts are nonnegative integers, and
    |Cl[p]| is a p-power dividing L(1) and at most p^genus, and equal to p
    at genus 1 when p divides L(1).  L defaults to 1 at genus 0.
    """
    if not is_prime(p):
        raise ModelError(f"{p} is not prime")
    if prime_power_exponent(q, p) is None:
        raise ModelError(f"q = {q} is not a power of p = {p}")
    if genus < 0:
        raise ModelError("genus must be nonnegative")
    if l_poly is None and genus == 0:
        l_poly = [1]
    if l_poly is None:
        raise ModelError("an L-polynomial is required for genus >= 1")
    coeffs = [int(c) for c in l_poly]
    if len(coeffs) != 2 * genus + 1:
        raise ModelError(
            f"L-polynomial must have degree {2 * genus} for genus {genus}"
        )
    if coeffs[0] != 1:
        raise ModelError("L-polynomial must have constant term 1")
    for i in range(2 * genus + 1):
        if coeffs[2 * genus - i] * q**i != coeffs[i] * q**genus:
            raise ModelError("L-polynomial violates the functional equation")
    if clp_order < 1 or prime_power_exponent(clp_order, p) is None and clp_order != 1:
        raise ModelError("clp_order must be a power of p (including 1)")
    class_number = sum(coeffs)
    if class_number < 1:
        raise ModelError("class number L(1) must be positive")
    if class_number % clp_order or clp_order > p**genus:
        raise ModelError(
            f"clp_order {clp_order} must divide L(1) = {class_number} "
            f"and be at most p^genus = {p**genus}"
        )
    exc = None
    if exceptional_counts is not None:
        exc = frozenset((m, int(c)) for m, c in dict(exceptional_counts).items())
    model = FieldModel(p, q, genus, tuple(coeffs), clp_order, exc)
    model.place_counts(max(VALIDATION_DEPTH, 2 * genus + 2))
    # Cl^0 of genus 1 is E(F_q), whose p-part is cyclic, so |Cl[p]| = p
    # exactly when p | L(1) = |E(F_q)| (Silverman, AEC III.6.4 and V.3.1)
    if genus == 1 and class_number % p == 0 and clp_order != p:
        raise ModelError(
            f"genus 1 with p = {p} dividing L(1) = {class_number} "
            f"forces clp_order {p}, got {clp_order}"
        )
    return model


def rational_field(q: int, p: int | None = None) -> FieldModel:
    """The rational function field over F_q."""
    if p is None:
        p = min(d for d in range(2, q + 1) if q % d == 0)
    return make_field_model(p, q, 0)

