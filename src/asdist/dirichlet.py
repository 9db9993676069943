"""Assembly of the conductor generating series and its zeta factorization.

All Dirichlet series live as truncated power series in t = q^{-s}; the
meromorphic zeta factor is kept as an exact rational function in t so its
poles are available exactly.  The paper's local factor is written once,
by `local_monomials`, as its monomials g_l = N^{(l-1) i} u^l, u = N^{-s}:
the exact Euler factor, the zeta factor's binomials and numerator, and the
holomorphic factor all read them.  A term N^{u - v s} of a prime of degree
d contributes q^{d u} t^{d v}; `prime_term` owns that mapping for the exact
series, and `holomorphic_factor_value` forms the holomorphic factor's
monomials in floating point.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm

import mpmath

from .counting import GroupSpec, exceptional_correction, exceptional_modules
from .errors import ConsistencyError, ModelError, UnsupportedInputError
from .field import FieldModel
from .series import TruncatedSeries, euler_product, mul as poly_mul, subst_monomial

PREC_BITS = 200  # the working precision of every numeric evaluation


def prime_term(q: int, d: int, u: int, v: int) -> tuple:
    """(t-power, integer coefficient) of N^{u} N^{-v s} for N = q^d."""
    return d * v, q ** (d * u)


# ---------------------------------------------------------------------------
# integer polynomials in t (ascending coefficients)

def _poly_trim(a):
    while len(a) > 1 and a[-1] == 0:
        a = a[:-1]
    return a


@dataclass(frozen=True)
class RationalFunctionT:
    """Quotient of integer polynomials in t, reduced by integer content."""

    numerator: tuple
    denominator: tuple

    def __post_init__(self):
        num = _poly_trim(list(self.numerator))
        den = _poly_trim(list(self.denominator))
        if den[0] == 0:
            raise ValueError("denominator must have nonzero constant term")
        content = 0
        for c in num + den:
            content = gcd(content, c)
        if content > 1:
            num = [c // content for c in num]
            den = [c // content for c in den]
        if den[0] < 0:
            num = [-c for c in num]
            den = [-c for c in den]
        object.__setattr__(self, "numerator", tuple(num))
        object.__setattr__(self, "denominator", tuple(den))


# ---------------------------------------------------------------------------
# Euler products

def local_monomials(p: int, i: int) -> list:
    """The monomials g_l = N^k u^l, k = (l - 1) i, of the paper's local
    factor F_i(u) = 1 + (N^i - 1) sum_{p not | n} N^{i r_n} u^{n+1} of the
    i-th component, as (k, l) for l = 1..p, with u = N^{-s}:
    - F_i = (1 - g_1)(1 + g_1 + ... + g_(p-1)) / (1 - g_p), since r_n grows
      by p - 1 every p steps;
    - the zeta factors zeta(l s - (l-1) i) take out g_2..g_p, which leaves
      the holomorphic factor's local factor (1 + sum_(l<p) g_l)
      prod_(l<p) (1 - g_l);
    - consecutive monomials differ by N^i u."""
    return [((l - 1) * i, l) for l in range(1, p + 1)]


def _euler_factor_component(q: int, d: int, i: int, p: int) -> tuple:
    """The local factor of the i-th component at a prime of degree d, as the
    three (t-power, coefficient) monomial lists past their constant 1, each
    with its exponent, of (1 - g_1)(1 + sum_(l<p) g_l) / (1 - g_p)."""
    g = [prime_term(q, d, k, l) for k, l in local_monomials(p, i)]
    return ([(g[0][0], -g[0][1])], 1), (g[:-1], 1), ([(g[-1][0], -g[-1][1])], -1)


def euler_component_series(
    model: FieldModel, group: GroupSpec, i: int, order: int
) -> TruncatedSeries:
    """The i-th Euler product component of the conductor series (1 <= i <= r)."""
    if not 1 <= i <= group.r:
        raise ModelError(f"component index {i} out of range 1..{group.r}")
    # each local factor to the power b_d, for each degree with 2d <= order;
    # a generator, so euler_product holds one prime's factors at a time
    factors = (
        (f, e * b_d)
        for d, b_d in enumerate(model.place_counts(order // 2), start=1)
        for f, e in _euler_factor_component(model.q, d, i, model.p)
    )
    return TruncatedSeries(euler_product(factors, order))


def error_term_series(model: FieldModel, group: GroupSpec, order: int) -> TruncatedSeries:
    """Rational error term of the decomposition: the part of the series the
    Euler components miss, driven by the finitely many exceptional modules."""
    # e_0 is the i = 0 component, whose Euler product is 1; the trivial
    # module's c~ = e(|Cl[p]|) - e(1) comes with the exceptional sum below
    const = group.e_coeffs[0]
    # restricted product over primes of degree > 2g-2 of (1 - N^{-2s})
    # = zeta(2s)^{-1} = (1 - t^2)(1 - q t^2) / L(t^2), corrected by the
    # finitely many small-degree primes
    counts = model.place_counts(2 * model.genus - 2)
    # every nontrivial exceptional module needs a count from the model, and
    # there are (2g)^n - 1 of them over the n places of degree <= 2g - 2:
    # refuse a short model before enumerating them.  The exponent is capped
    # where (2g)^cap already exceeds any supply, so no huge power is built.
    supplied = len(model.exceptional_count_map())
    n = min(sum(counts), supplied.bit_length() + 1)
    if (2 * model.genus) ** n - 1 > supplied:
        raise UnsupportedInputError(
            f"missing exceptional conductor count: genus {model.genus} needs "
            f"one for each of the {2 * model.genus}^{sum(counts)} - 1 "
            f"nontrivial exceptional modules, the model supplies {supplied}"
        )
    inv_zeta_2s = [(f, -e) for f, e in model.zeta_factors(2)]
    small = [([(2 * d, -1)], -b_d) for d, b_d in enumerate(counts, start=1)]
    restricted = euler_product(inv_zeta_2s + small, order)
    poly = TruncatedSeries.zero(order)
    for module in sorted(exceptional_modules(model), key=lambda m: (m.degree, repr(m))):
        c_tilde = exceptional_correction(model, group, module)
        if module.degree <= order:
            poly = poly + TruncatedSeries.monomial(c_tilde, module.degree, order)
    return const + poly.mul(TruncatedSeries(restricted))


def conductor_series(model: FieldModel, group: GroupSpec, order: int) -> TruncatedSeries:
    """Full generating series of conductor counts; coefficients are checked
    to be nonnegative integers."""
    if group.p != model.p:
        raise ModelError("group exponent must equal the field characteristic")
    if order < 0:
        raise ModelError(f"series order must be >= 0, got {order}")
    total = error_term_series(model, group, order)
    for i in range(1, group.r + 1):
        total = total + euler_component_series(model, group, i, order).scale(
            group.e_coeffs[i]
        )
    for n, c in enumerate(total.coeffs):
        if c.denominator != 1 or c < 0:
            raise ConsistencyError(
                f"conductor series coefficient of t^{n} is {c}, expected a "
                "nonnegative integer"
            )
    return total


def zeta_factor_binomials(p: int, r: int) -> list:
    """The binomials 1 - q^e t^l of the denominator of the meromorphic
    factor, as (l, e) pairs: the zeta factor of the monomial N^k u^l of
    `local_monomials`, l >= 2, is L(c t^l) / ((1 - c t^l)(1 - q c t^l))
    with c = q^k."""
    return [(l, k + c) for k, l in local_monomials(p, r)[1:] for c in (0, 1)]


def critical_poles(p: int, r: int) -> tuple:
    """(a, ell, vanishing): the poles of the meromorphic factor on its
    circle of convergence |t| = q^(-a), read off `zeta_factor_binomials`.
    a is the largest e / l.  The poles sit among z_j = q^(-a) xi^(-j),
    xi = exp(2 pi i / ell), with ell the lcm of the l with l a = e; such a
    binomial vanishes at z_j exactly when ell | j l.  `vanishing` maps each
    j in 1..ell where some binomial vanishes to those binomials, and their
    number is the order of the pole z_j."""
    binomials = zeta_factor_binomials(p, r)
    a = max(Fraction(e, l) for l, e in binomials)
    top = [(l, e) for l, e in binomials if l * a == e]
    ell = lcm(*(l for l, _ in top))
    vanishing: dict = {}
    for l, e in top:
        for j in range(ell // l, ell + 1, ell // l):
            vanishing.setdefault(j, []).append((l, e))
    return a, ell, vanishing


def zeta_factor_rational(model: FieldModel, p: int, r: int) -> RationalFunctionT:
    """The meromorphic factor prod_{l=2}^p zeta(l s - (l-1) r) as an exact
    rational function in t."""
    num = [1]
    for k, l in local_monomials(p, r)[1:]:
        num = poly_mul(num, subst_monomial(model.l_poly, model.q**k, l))
    den = [1]
    for l, e in zeta_factor_binomials(p, r):
        den = poly_mul(den, [1] + [0] * (l - 1) + [-model.q**e])
    return RationalFunctionT(tuple(num), tuple(den))


def holomorphic_factor_value(model: FieldModel, p: int, r: int, point, degree_cutoff: int):
    """Numeric value of the holomorphic factor at a point inside its region
    of convergence, via the Euler product over primes of degree <= cutoff.
    A prime of degree d contributes (1 + sum g_l) * prod (1 - g_l) over the
    monomials g_1..g_(p-1) of `local_monomials` at i = r, N = q^d, u = t^d:
    g_1 = t^d, and each next one is the last times their common ratio
    N^r u = q^(d r) t^d."""
    if degree_cutoff < 1:
        raise ValueError("degree cutoff must be >= 1")
    counts = model.place_counts(degree_cutoff)
    # factor**b_d multiplies the rounding error of factor by b_d, so carry
    # the bits of the largest b_d on top of PREC_BITS
    with mpmath.workprec(PREC_BITS + max(counts).bit_length()):
        z = mpmath.mpmathify(point)
        z_d, total = 1, mpmath.mpf(1)
        for d, b_d in enumerate(counts, start=1):
            z_d *= z
            # g_(l+1) = g_l * q^(d r) t^d in floats: the exact N^((l-1) r)
            # runs to tens of thousands of digits at large p
            step, monomials = model.q ** (d * r) * z_d, [z_d]
            for _ in range(p - 2):
                monomials.append(monomials[-1] * step)
            factor = sum(monomials, mpmath.mpf(1))
            for m in monomials:
                factor *= 1 - m
            total *= factor**b_d
        return total


def _tail_bound(model: FieldModel, p: int, r: int, degree_cutoff: int):
    """The relative tail bound past a degree cutoff n: the primes of degree
    > n multiply the holomorphic factor's Euler product by a factor within
    expm1(scale * ratio^(n + 1)) of 1 anywhere on |t| = q^(-a).  The log
    of a prime's factor is at most 2 per_factor N^(-tau) in size, tau =
    2 (r + p - 1) / p >= 2, and there are at most (2 + 2g) q^d primes of
    degree d, so the ratio q^(1 - tau) of the geometric tail is <= 1/q."""
    per_factor = (p - 1) ** 2 + 2 ** (p - 1) + p
    place_bound = 2 + 2 * model.genus
    tau = mpmath.mpf(2 * (r + p - 1)) / p
    ratio = mpmath.mpf(model.q) ** (1 - tau)
    scale = 2 * per_factor * place_bound / (1 - ratio)
    return mpmath.expm1(scale * ratio ** (degree_cutoff + 1))


def holomorphic_factor_at_abscissa(model: FieldModel, p: int, r: int, degree_cutoff: int):
    """Value of the holomorphic factor at the convergence abscissa, i.e.
    `holomorphic_factor_value` at t = q^(-a), with a rigorous tail bound;
    returns (value, bound)."""
    a = pole_analysis(p, r).abscissa
    with mpmath.workprec(PREC_BITS):
        q = mpmath.mpf(model.q)
        point = q ** (-mpmath.mpf(a.numerator) / a.denominator)
        total = holomorphic_factor_value(model, p, r, point, degree_cutoff)
        return total, abs(total) * _tail_bound(model, p, r, degree_cutoff)


def holomorphic_factor_cutoff(model: FieldModel, p: int, r: int) -> int:
    """The least degree cutoff whose tail bound (as in
    `holomorphic_factor_at_abscissa`) is below 2^-60 of the product.  The
    bound depends only on |t|, so it holds at every pole on the circle."""
    cutoff = 1
    while _tail_bound(model, p, r, cutoff) >= mpmath.mpf(2) ** -60:
        cutoff += 1
    return cutoff


# ---------------------------------------------------------------------------
# pole data and derived views

@dataclass(frozen=True)
class PoleReport:
    """Location data of the poles on the axis of convergence."""

    abscissa: Fraction
    log_order: int
    progression: int  # period l: every pole on the circle is at an angle j/l
    max_order_angles: tuple


def pole_analysis(p: int, r: int) -> PoleReport:
    a, ell, vanishing = critical_poles(p, r)
    order = max(map(len, vanishing.values()))
    return PoleReport(a, order, ell, (Fraction(0),))


def counting_function(model: FieldModel, group: GroupSpec, up_to_degree: int) -> list:
    """Partial sums of the conductor series: counts of extensions with
    conductor degree <= n, for n = 0..up_to_degree."""
    series = conductor_series(model, group, up_to_degree)
    return list(accumulate(int(c) for c in series.coeffs))


@dataclass(frozen=True)
class DiscriminantView:
    """Discriminant-count exponents (and exact table for rank 1)."""

    lower_exponent: Fraction  # conductor-derived X-exponent lower bound
    upper_exponent: Fraction
    malle_exponent: Fraction
    comparison: str  # 'equal' or 'greater' vs the tame prediction
    z_table: tuple | None  # Z(q^n) for n = 0..bound, exact only for r = 1


def exponent_comparison(p: int, r: int) -> tuple:
    """(lower exponent, tame Malle exponent, comparison sign)."""
    a_lower = pole_analysis(p, r).abscissa / (p**r - 1)
    a_malle = Fraction(p, (p**r) * (p - 1))
    return a_lower, a_malle, "equal" if a_lower == a_malle else "greater"


def discriminant_view(
    model: FieldModel, group: GroupSpec, up_to_degree: int
) -> DiscriminantView:
    p, r = group.p, group.r
    if up_to_degree < 0:
        raise ModelError(f"order must be >= 0, got {up_to_degree}")
    a_lower, a_malle, sign = exponent_comparison(p, r)
    d_upper = pole_analysis(p, r).abscissa / (p**r - p ** (r - 1))
    z_table = None
    if r == 1:
        # discriminant degree is (p-1) times the conductor degree
        cond = counting_function(model, group, up_to_degree // (p - 1))
        z_table = tuple(cond[n // (p - 1)] for n in range(up_to_degree + 1))
    return DiscriminantView(a_lower, d_upper, a_malle, sign, z_table)
