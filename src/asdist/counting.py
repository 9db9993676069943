"""Per-conductor counting of elementary abelian p-extensions.

Contains the subgroup-counting polynomial of the target group, the wild
ramification exponents, the finite exceptional module set, and the count of
extensions with a given conductor.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import ConsistencyError, ModelError, UnsupportedInputError
from .field import FieldModel, is_prime
from .series import mul


@dataclass(frozen=True, order=True)
class Place:
    """An abstract prime: only its degree enters any formula.  The index
    distinguishes the b_d places of equal degree (oracle code uses a
    polynomial string as index)."""

    degree: int
    index: str = "0"

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("place degree must be positive")
        if not isinstance(self.index, str):
            object.__setattr__(self, "index", str(self.index))


@dataclass(frozen=True)
class DivisorModule:
    """An effective divisor given as places with multiplicities >= 1."""

    entries: tuple  # sorted ((Place, multiplicity), ...)

    @staticmethod
    def from_entries(entries: Mapping[Place, int] | Iterable) -> "DivisorModule":
        items = dict(entries)
        for place, mult in items.items():
            if mult < 1:
                raise ValueError("multiplicities must be >= 1")
        return DivisorModule(tuple(sorted(items.items())))

    @staticmethod
    def trivial() -> "DivisorModule":
        return DivisorModule(())

    @property
    def degree(self) -> int:
        return sum(place.degree * mult for place, mult in self.entries)

    def __repr__(self):
        if not self.entries:
            return "DivisorModule(1)"
        parts = "*".join(
            f"P({p.degree},{p.index})^{m}" if m > 1 else f"P({p.degree},{p.index})"
            for p, m in self.entries
        )
        return f"DivisorModule({parts})"


@dataclass(frozen=True)
class GroupSpec:
    """The target group C_p^r with its derived subgroup-counting data."""

    p: int
    r: int
    e_coeffs: tuple  # Fractions e_0..e_r

    def quotient_count(self, x) -> Fraction:
        """e(x): number of subgroups U of an elementary abelian group A with
        |A| = p*x such that A/U is isomorphic to C_p^r."""
        return sum((c * x**k for k, c in enumerate(self.e_coeffs)), Fraction(0))


def subgroup_count_poly(p: int, r: int) -> GroupSpec:
    """Expand e(X) = prod_{i<r} (pX - p^i)/(p^r - p^i) into coefficients."""
    if not is_prime(p):
        raise ModelError(f"{p} is not prime")
    if r < 1:
        raise ModelError(f"rank must be >= 1, got {r}")
    coeffs = [Fraction(1)]
    for i in range(r):
        denom = p**r - p**i
        coeffs = mul(coeffs, [Fraction(-(p**i), denom), Fraction(p, denom)])
    return GroupSpec(p, r, tuple(coeffs))


def wild_exponent(m: int, p: int) -> int:
    """r_m = m - 1 - floor((m-1)/p), so r_0 = 0; the p-rank per unit residue
    degree of the local unit filtration quotient."""
    if m < 0:
        raise ValueError("exponent index must be nonnegative")
    return m - 1 - (m - 1) // p


def exceptional_modules(model: FieldModel) -> frozenset:
    """The finite set M: the trivial module plus, for genus >= 2, all
    squareful modules supported on primes of degree <= 2g-2 with
    multiplicities <= 2g."""
    places = abstract_places(model, 2 * model.genus - 2)
    multiplicities = [0, *range(2, 2 * model.genus + 1)]
    return frozenset(
        DivisorModule(tuple((p, m) for p, m in zip(places, mults) if m))
        for mults in itertools.product(multiplicities, repeat=len(places))
    )


def _is_exceptional(model: FieldModel, module: DivisorModule) -> bool:
    """Whether the module has the shape of `exceptional_modules(model)`:
    multiplicities in 2..2g on places of degree <= 2g - 2, which holds for
    the trivial module and for no other below genus 2.  Read off the module,
    so any labelling of the places works."""
    genus = model.genus
    return all(
        2 <= mult <= 2 * genus and place.degree <= 2 * genus - 2
        for place, mult in module.entries
    )


def product_count(model: FieldModel, group: GroupSpec, module: DivisorModule) -> Fraction:
    """The multiplicative (Selmer-free) count
    sum_(i=0..r) e_i prod_{p^m || m} (N^{i r_m} - N^{i r_{m-1}}).  The i = 0
    term is e_0 at the trivial module and 0 at any other."""
    total = Fraction(0)
    for i, term in enumerate(group.e_coeffs):
        for place, mult in module.entries:
            n = model.q**place.degree
            term *= n ** (i * wild_exponent(mult, model.p)) - n ** (
                i * wild_exponent(mult - 1, model.p)
            )
        total += term
    return total


def exceptional_correction(
    model: FieldModel, group: GroupSpec, module: DivisorModule
) -> Fraction:
    """c~(m0), the correction of an exceptional module m0 that both
    `conductor_count` and the series' error term add: the count of m0 minus
    `product_count`.  The count of the trivial module is e(|Cl[p]|); any
    other comes with the model."""
    counts = model.exceptional_count_map()
    counts[DivisorModule.trivial()] = group.quotient_count(model.clp_order)
    if module not in counts:
        raise UnsupportedInputError(
            f"missing exceptional conductor count for {module}; counts are "
            "keyed by the places of abstract_places, where the places of "
            'degree d have the indices "0", "1", ...'
        )
    return Fraction(counts[module]) - product_count(model, group, module)


def _as_nonneg_int(value: Fraction, context: str) -> int:
    if value.denominator != 1 or value < 0:
        raise ConsistencyError(f"{context} produced a bad count {value}")
    return int(value)


def conductor_count(model: FieldModel, group: GroupSpec, module: DivisorModule) -> int:
    """Number of C_p^r-extensions with the given conductor m: the product
    count, plus mu(m1) c~(m0) when m = m0 m1^2 with m0 exceptional and m1
    squarefree on places of degree > 2g - 2.  The trivial module is
    m0 = m1 = 1, where the count is e(|Cl[p]|)."""
    if group.p != model.p:
        raise ModelError("group exponent must equal the field characteristic")
    used = Counter(place.degree for place, _ in module.entries)
    available = model.place_counts(max(used, default=0))
    for d, n in used.items():
        if n > available[d - 1]:
            raise ModelError(
                f"module {module} uses {n} places of degree {d}, but the "
                f"field has {available[d - 1]}"
            )
    threshold = 2 * model.genus - 2
    small = DivisorModule(
        tuple((p, m) for p, m in module.entries if p.degree <= threshold)
    )
    large = [m for p, m in module.entries if p.degree > threshold]
    value = product_count(model, group, module)
    if _is_exceptional(model, small) and all(m == 2 for m in large):
        value += (-1) ** len(large) * exceptional_correction(model, group, small)
    return _as_nonneg_int(value, f"conductor {module}")


def abstract_places(model: FieldModel, max_degree: int) -> list:
    """Places as abstract (degree, index) pairs, for module enumeration.
    The b_d places of degree d get the indices "0", "1", ..., "b_d - 1".
    A model's `exceptional_counts` are keyed by modules over these places:
    a module whose places carry other labels finds no count."""
    counts = model.place_counts(max_degree)
    return [
        Place(d, str(j))
        for d in range(1, max_degree + 1)
        for j in range(counts[d - 1])
    ]
