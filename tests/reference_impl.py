"""Reference implementations that the tests check the library against.

No `asdist` command and no benchmark operation runs these functions, so they
live beside the tests rather than in `asdist`.  Each is the library's former
code, moved as it was; it may use private helpers of `asdist`.  A former
method takes its object as the first argument, and `wp_image` and
`coset_rep` compute what `GF.__init__` once stored.  The tests that use each
one:

- `normalize_rational`, the normal form of any rational function (through
  `_reduce_finite_block`, `residue_pth_root`, `_padic_digits`,
  `poly_pow_mod`, `poly_inv_mod`, `poly_scale` and `_pack`): test_oracle's
  test_rep_conductor_examples, test_normalization_strips_p_divisible_indices,
  test_normalization_invariant_under_wp_shift,
  test_normalization_idempotent_via_reconstruction,
  test_scaling_preserves_conductor,
  test_enumerate_classes_below_degree_two_places and
  test_enumerate_classes_matches_exhaustive_rationals.
- `gf_add`, `pth_root`, `wp_image` and `coset_rep` (from `GF`):
  `normalize_rational`, and test_oracle's test_field_axioms_exhaustive,
  test_frobenius_and_pth_root and test_wp_cosets.
- `rep_conductor` (`ASRep.conductor`): test_oracle's
  test_rep_conductor_examples, test_scaling_preserves_conductor,
  test_enumerate_classes_matches_exhaustive_rationals,
  test_walk_conductor_matches_the_class_conductor and
  test_census_matches_span_definition.
- `add_reps` and `scale_rep`, the F_p-linearity of the normal form:
  test_oracle's test_census_matches_span_definition and
  test_add_and_scale_group_laws; `scale_rep` also
  test_scaling_preserves_conductor.
- `poly_add`, `poly_neg` and `poly_mul`: test_oracle's
  test_normalization_invariant_under_wp_shift and
  test_normalization_idempotent_via_reconstruction; `poly_mul` also
  test_enumerate_classes_below_degree_two_places and
  test_enumerate_classes_matches_exhaustive_rationals.
- `unit_group_size`: test_counting's test_product_count_equals_mobius_sum,
  test_summation_identity_genus0 and test_summation_identity_elliptic_spot,
  and test_oracle's test_class_count_sanity_unit_groups.
- `divisors` (from `DivisorModule`): test_counting's
  test_product_count_equals_mobius_sum, test_summation_identity_genus0,
  test_summation_identity_elliptic_spot and test_module_helpers.
- `selmer_trivial`: test_counting's test_selmer_criterion and
  test_summation_identity_elliptic_spot.
- `modules_up_to_degree`: test_counting's
  test_exceptional_predicate_matches_exceptional_modules,
  test_product_count_equals_mobius_sum, test_summation_identity_genus0 and
  test_modules_up_to_degree_census, and test_dirichlet's
  test_conductor_series_matches_per_module_counts and
  test_conductor_series_genus2_matches_per_module_counts.
- `mobius` (`asdist.field.mobius`): test_field's
  test_genus0_place_counts_match_irreducible_counts (Gauss' formula) and
  test_counts_match_newton_and_mobius.
- `newton_power_sums` (`FieldModel.inverse_root_power_sums`, Newton's
  identities): test_field's test_counts_match_newton_and_mobius.
- `subgroup_count_coeffs` (the former expansion loop of
  `subgroup_count_poly`): test_counting's
  test_e_coeffs_match_the_factor_by_factor_expansion.
- `dense_euler_product`, not former code but an adapter that hands
  coefficient lists to `euler_product` as their monomials: `zeta_series`,
  `rational_series`, and test_series's _product helper and
  test_integer_inputs_give_int_coefficients.
- `geometric`: test_series's test_mul_geometric_telescopes,
  test_inv_geometric, test_subst_monomial_zeta_argument and
  test_pow_negative_inverts.
- `substitute` (`TruncatedSeries.subst_monomial`) and `zeta_series` (from
  `FieldModel`): test_dirichlet's test_error_term_elliptic_models,
  test_zeta_factor_p2_is_shifted_zeta and
  test_holomorphic_factor_p2_is_inverse_zeta, and test_acceptance's
  test_criterion_8_genus1_suite; `substitute` also test_series's
  test_subst_* tests and test_integer_inputs_give_int_coefficients, and
  `zeta_series` test_field's test_zeta_* tests.
- `rational_series` (`RationalFunctionT.series`): test_dirichlet's
  test_euler_component_q2_closed_form, test_zeta_factor_p2_is_shifted_zeta
  and test_factorization_identity, and test_acceptance's
  test_criterion_1_closed_form_p2, test_criterion_3_factorization_identity
  and test_criterion_9_growth_proxy.
- `_holomorphic_factor_terms` (`asdist.dirichlet._holomorphic_factor_terms`),
  the exact monomials N^(l r) t^(d (l + 1)) of a prime's holomorphic
  factor: `holomorphic_factor_series` and `euler_factor_closed_form_check`.
  `holomorphic_factor_value` forms the same monomials in floating point on
  its own, so the two derive them independently.
- `holomorphic_factor_series`: test_acceptance's
  test_criterion_3_factorization_identity and test_dirichlet's
  test_holomorphic_factor_p2_is_inverse_zeta, test_factorization_identity
  and test_holomorphic_factor_value_matches_series.
- `euler_factor_direct_sum` (`dirichlet._euler_factor_component` before
  it became a closed-form quotient): `euler_factor_closed_form_check`, and
  test_dirichlet's test_euler_factor_is_the_geometric_quotient.
- `euler_factor_closed_form_check`: test_acceptance's
  test_criterion_3_factorization_identity and test_dirichlet's
  test_euler_factor_closed_form_examples.
- `predict_coefficients`: test_acceptance's
  test_criterion_6_tauberian_unit_oracles and test_tauberian's
  test_predict_coefficients_double_pole,
  test_predict_coefficients_respects_progression and
  test_predict_coefficients_simple_pole_is_exact.
- `binomial_sum_check`: test_acceptance's
  test_criterion_6_tauberian_unit_oracles and test_tauberian's
  test_binomial_sum_check_decreases and
  test_binomial_sum_check_rejects_large_point.
- `empirical_ratio`: test_acceptance's test_criterion_4_exact_constant_p2
  and test_tauberian's test_empirical_ratio_q2 and
  test_empirical_ratio_logarithmic_case.
- `estimate_value` (`AsymptoticEstimate.value`): `empirical_ratio` and
  test_tauberian's test_predict_partial_sums_geometric.

The module is not named `reference`: pytest puts both tests/ and bench/ on
sys.path, and bench/ has a reference.py of its own.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator

import mpmath

from asdist.counting import DivisorModule, Place, abstract_places, wild_exponent
from asdist.dirichlet import RationalFunctionT, prime_term
from asdist.field import FieldModel
from asdist.oracle import (
    ASRep, _place_key, irreducibles_up_to, poly_divmod, poly_mod, poly_trim,
)
from asdist.series import Scalar, TruncatedSeries, euler_product, subst_monomial
from asdist.series import mul as series_mul
from asdist.tauberian import (
    PREC_BITS,
    AsymptoticEstimate,
    MeromorphicModel,
    _imag_guard,
)


# ---------------------------------------------------------------------------
# the constant field GF (from asdist.oracle)

def gf_add(gf, a, b):
    return tuple((x + y) % gf.p for x, y in zip(a, b))


def pth_root(gf, a):
    return gf.pow(a, gf.p ** (gf.k - 1))


def wp_image(gf) -> frozenset:  # the image of y -> y^p - y on F_q
    return frozenset(gf.sub(gf.pow(a, gf.p), a) for a in gf.elements())


def coset_rep(gf, a):  # the element of gf.coset_reps in a + wp_image(gf)
    image = wp_image(gf)
    return next(rep for rep in gf.coset_reps if gf.sub(a, rep) in image)


# ---------------------------------------------------------------------------
# polynomials over GF (from asdist.oracle)

def poly_add(a, b, gf):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = gf_add(gf, out[i], c)
    return poly_trim(out, gf)


def poly_neg(a, gf):
    return tuple(gf.sub(gf.zero, c) for c in a)


def poly_scale(a, c, gf):
    if c == gf.zero:
        return ()
    return tuple(gf.mul(x, c) for x in a)


def poly_mul(a, b, gf):
    if not a or not b:
        return ()
    out = [gf.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x != gf.zero:
            for j, y in enumerate(b):
                if y != gf.zero:
                    out[i + j] = gf_add(gf, out[i + j], gf.mul(x, y))
    return poly_trim(out, gf)


def poly_pow_mod(a, e: int, m, gf):
    result = (gf.one,)
    base = poly_mod(a, m, gf)
    while e:
        if e & 1:
            result = poly_mod(poly_mul(result, base, gf), m, gf)
        base = poly_mod(poly_mul(base, base, gf), m, gf)
        e >>= 1
    return result


def poly_inv_mod(a, m, gf):
    """Inverse of a modulo m in GF[x], by the extended Euclidean algorithm."""
    r0, r1 = m, poly_mod(a, m, gf)
    s0, s1 = (), (gf.one,)
    while r1:
        q, rem = poly_divmod(r0, r1, gf)
        r0, r1 = r1, rem
        s0, s1 = s1, poly_add(s0, poly_neg(poly_mul(q, s1, gf), gf), gf)
    if len(r0) != 1:
        raise ZeroDivisionError("element not invertible modulo m")
    return poly_scale(s0, gf.inv(r0[0]), gf)


def residue_pth_root(c, modulus, gf):
    """p-th root in the residue field GF[x]/modulus."""
    deg = len(modulus) - 1
    return poly_pow_mod(c, gf.p ** (gf.k * deg - 1), modulus, gf)


def _padic_digits(poly, base, gf):
    digits = []
    while poly:
        poly, rem = poly_divmod(poly, base, gf)
        digits.append(rem)
    return digits


# ---------------------------------------------------------------------------
# Artin-Schreier normal forms (from asdist.oracle)

def rep_conductor(rep: ASRep) -> DivisorModule:
    entries = {}
    if rep.infinity:
        entries[Place(1, "inf")] = max(j for j, _ in rep.infinity) + 1
    for poly, block in rep.finite:
        place = Place(len(poly) - 1, _place_key(poly))
        entries[place] = max(j for j, _ in block) + 1
    return DivisorModule.from_entries(entries)


def add_reps(a: ASRep, b: ASRep, gf) -> ASRep:
    constant = gf_add(gf, a.constant, b.constant)
    inf = dict(a.infinity)
    for j, c in b.infinity:
        s = gf_add(gf, inf.get(j, gf.zero), c)
        if s == gf.zero:
            inf.pop(j, None)
        else:
            inf[j] = s
    fin = {poly: dict(block) for poly, block in a.finite}
    for poly, block in b.finite:
        dest = fin.setdefault(poly, {})
        for j, h in block:
            s = poly_add(dest.get(j, ()), h, gf)
            if s:
                dest[j] = s
            else:
                dest.pop(j, None)
    return _pack(constant, inf, fin)


def scale_rep(a: ASRep, c: int, gf) -> ASRep:
    c %= gf.p
    if c == 0:
        return ASRep(gf.zero, (), ())
    constant = gf.scalar_mul(c, a.constant)
    inf = {j: gf.scalar_mul(c, x) for j, x in a.infinity}
    fin = {
        poly: {j: poly_scale(h, gf.scalar_mul(c, gf.one), gf) for j, h in block}
        for poly, block in a.finite
    }
    return _pack(constant, inf, fin)


def _pack(constant, inf: dict, fin: dict) -> ASRep:
    finite = tuple(
        (poly, tuple(sorted(block.items())))
        for poly, block in sorted(fin.items(), key=lambda kv: (len(kv[0]), kv[0]))
        if block
    )
    return ASRep(constant, tuple(sorted(inf.items())), finite)


def normalize_rational(gf, num, den) -> ASRep:
    """Normal form of num/den in F_q(x): partial fractions, then reduction
    of every p-divisible denominator index and polynomial degree."""
    num = poly_trim(num, gf)
    den = poly_trim(den, gf)
    if not den:
        raise ZeroDivisionError("zero denominator")
    lead = den[-1]
    if lead != gf.one:
        inv = gf.inv(lead)
        den = poly_scale(den, inv, gf)
        num = poly_scale(num, inv, gf)
    quot, rem = poly_divmod(num, den, gf)

    # factor the monic denominator by trial division up to half the degree
    # of what is left; a leftover of degree >= 1 is then irreducible
    factors: dict = {}
    rest = den
    for cand in irreducibles_up_to(gf, (len(den) - 1) // 2):
        if 2 * (len(cand) - 1) > len(rest) - 1:
            break
        while not poly_mod(rest, cand, gf):
            rest = poly_divmod(rest, cand, gf)[0]
            factors[cand] = factors.get(cand, 0) + 1
    if len(rest) > 1:
        factors[rest] = 1

    fin: dict = {}
    for poly, mult in factors.items():
        power = (gf.one,)
        for _ in range(mult):
            power = poly_mul(power, poly, gf)
        cofactor = poly_divmod(den, power, gf)[0]
        h = poly_mod(
            poly_mul(rem, poly_inv_mod(cofactor, power, gf), gf), power, gf
        )
        digits = _padic_digits(h, poly, gf)
        block = {}
        for i, digit in enumerate(digits):
            if digit and mult - i >= 1:
                block[mult - i] = digit
        leftover = _reduce_finite_block(block, poly, gf)
        if block:
            fin[poly] = block
        if 0 in block:
            raise AssertionError("index 0 must not survive reduction")
        quot = poly_add(quot, leftover, gf)

    # reduce the polynomial part at infinity
    poly_part = list(quot) + [gf.zero]
    while True:
        top = None
        for j in range(len(poly_part) - 1, 0, -1):
            if j % gf.p == 0 and poly_part[j] != gf.zero:
                top = j
                break
        if top is None:
            break
        root = pth_root(gf, poly_part[top])
        poly_part[top] = gf.zero
        poly_part[top // gf.p] = gf_add(gf, poly_part[top // gf.p], root)
    inf = {
        j: c for j, c in enumerate(poly_part) if j >= 1 and c != gf.zero
    }
    constant = coset_rep(gf, poly_part[0] if poly_part else gf.zero)
    return _pack(constant, inf, fin)


def _reduce_finite_block(block: dict, modulus, gf):
    """In-place removal of p-divisible indices; returns the polynomial
    overflow (always zero in theory, kept for safety)."""
    leftover = ()
    while True:
        bad = [j for j in block if j % gf.p == 0]
        if not bad:
            return leftover
        j = max(bad)
        c = block.pop(j)
        root = residue_pth_root(c, modulus, gf)
        root_p = root
        for _ in range(gf.p - 1):
            root_p = poly_mul(root_p, root, gf)
        digits = _padic_digits(root_p, modulus, gf)
        # root^p / P^j cancels c / P^j in its leading digit and spreads the
        # higher digits to lower indices
        for i in range(1, len(digits)):
            if not digits[i]:
                continue
            idx = j - i
            if idx == 0:
                leftover = poly_add(leftover, poly_neg(digits[i], gf), gf)
                continue
            s = poly_add(block.get(idx, ()), poly_neg(digits[i], gf), gf)
            if s:
                block[idx] = s
            else:
                block.pop(idx, None)
        target = j // gf.p
        s = poly_add(block.get(target, ()), root, gf)
        if s:
            block[target] = s
        else:
            block.pop(target, None)


# ---------------------------------------------------------------------------
# place counts and subgroup counts (from asdist.field and asdist.counting)

def mobius(n: int) -> int:
    if n < 1:
        raise ValueError("mobius is defined for positive integers")
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def newton_power_sums(model: FieldModel, depth: int) -> list:
    """Power sums s_0..s_depth of the inverse zeros of the L-polynomial,
    by Newton's identities (`FieldModel.inverse_root_power_sums`)."""
    a = model.l_poly
    deg = len(a) - 1
    s = [0] * (depth + 1)
    for k in range(1, depth + 1):
        acc = k * a[k] if k <= deg else 0
        for j in range(1, min(k, deg + 1)):
            acc += a[j] * s[k - j]
        s[k] = -acc
    return s


def subgroup_count_coeffs(p: int, r: int) -> tuple:
    """The coefficients of e(X) = prod_{i<r} (pX - p^i)/(p^r - p^i), expanded
    one linear factor at a time (`subgroup_count_poly`)."""
    coeffs = [Fraction(1)]
    for i in range(r):
        denom = p**r - p**i
        new = [Fraction(0)] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            new[j + 1] += c * Fraction(p, denom)
            new[j] -= c * Fraction(p**i, denom)
        coeffs = new
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# modules and unit groups (from asdist.counting)

def divisors(module: DivisorModule) -> Iterator[DivisorModule]:
    """All effective divisors dividing this module (including 1 and itself)."""
    places = [p for p, _ in module.entries]
    ranges = [range(m + 1) for _, m in module.entries]
    for mults in itertools.product(*ranges):
        yield DivisorModule(
            tuple((p, m) for p, m in zip(places, mults) if m > 0)
        )


def unit_group_size(model: FieldModel, module: DivisorModule) -> int:
    """|U_m| = prod over p^m || m of N(p)^{r_m}."""
    size = 1
    for place, mult in module.entries:
        size *= model.q ** (place.degree * wild_exponent(mult, model.p))
    return size


def selmer_trivial(model: FieldModel, module: DivisorModule) -> bool:
    """Sufficient criterion for triviality of the Selmer ray group: the
    square part of the module is large against the genus.  A False return
    makes no claim of nontriviality."""
    weight = sum((mult - 1) * place.degree for place, mult in module.entries)
    return weight > 2 * model.genus - 2


def modules_up_to_degree(model: FieldModel, max_degree: int) -> Iterator[DivisorModule]:
    """All abstract modules of degree <= max_degree (including the trivial one)."""
    places = abstract_places(model, max_degree)

    def walk(idx: int, budget: int, chosen: tuple):
        yield DivisorModule(chosen)
        for i in range(idx, len(places)):
            place = places[i]
            max_mult = budget // place.degree
            for mult in range(1, max_mult + 1):
                yield from walk(
                    i + 1,
                    budget - mult * place.degree,
                    chosen + ((place, mult),),
                )

    yield from walk(0, max_degree, ())


# ---------------------------------------------------------------------------
# series (from asdist.series, asdist.field and asdist.dirichlet)

def substitute(f: TruncatedSeries, scale: Scalar, power: int) -> TruncatedSeries:
    """Substitute t -> scale * t^power; truncation order is preserved."""
    return TruncatedSeries(subst_monomial(f.coeffs, scale, power, f.order))


def dense_euler_product(factors, order: int) -> list:
    """`euler_product` over factors given as coefficient lists (ascending,
    constant term 1) instead of their nonzero monomials."""
    def monomials(coeffs):
        if coeffs[0] != 1:
            raise ValueError(f"factor {list(coeffs)} has constant term != 1")
        return [(k, x) for k, x in enumerate(coeffs) if k and x]

    return euler_product(((monomials(f), e) for f, e in factors), order)


def zeta_series(model: FieldModel, order: int) -> TruncatedSeries:
    """Expansion of L(t) / ((1 - t)(1 - q t)) to the given order."""
    factors = [(model.l_poly, 1), ([1, -1], -1), ([1, -model.q], -1)]
    return TruncatedSeries(dense_euler_product(factors, order))


def rational_series(f: RationalFunctionT, order: int) -> TruncatedSeries:
    inverse = dense_euler_product([(f.denominator, -1)], order)
    return TruncatedSeries(series_mul(f.numerator, inverse, order))


def geometric(ratio: Scalar, order: int) -> TruncatedSeries:
    """Series of 1/(1 - ratio * t)."""
    cs, acc = [], 1
    for _ in range(order + 1):
        cs.append(acc)
        acc *= ratio
    return TruncatedSeries(tuple(cs))


def _holomorphic_factor_terms(q: int, d: int, p: int, r: int):
    """The (t-power, coefficient) monomials m of the per-prime holomorphic
    factor (1 + sum m) * prod (1 - m), in increasing t-power."""
    return [prime_term(q, d, l * r, l + 1) for l in range(p - 1)]


def holomorphic_factor_series(
    model: FieldModel, p: int, r: int, order: int
) -> TruncatedSeries:
    """Truncated series of the holomorphic factor of the factorization."""
    # (1 + sum m) then each (1 - m), one prime at a time
    factors = (
        (part, b_d)
        for d, b_d in enumerate(model.place_counts(order), start=1)
        for terms in [_holomorphic_factor_terms(model.q, d, p, r)]
        for part in [terms] + [[(w, -c)] for w, c in terms]
    )
    return TruncatedSeries(euler_product(factors, order))


def euler_factor_direct_sum(q: int, d: int, i: int, p: int, order: int) -> list:
    """Coefficients of the per-prime factor
    1 + (N^i - 1) sum_{p not | n} N^{i r_n - (n+1) s}."""
    coeffs = [1] + [0] * order
    n_i = q ** (d * i)
    for n in range(1, order // d):  # the terms with d (n + 1) <= order
        if n % p != 0:
            power, coeff = prime_term(q, d, i * wild_exponent(n, p), n + 1)
            coeffs[power] += (n_i - 1) * coeff
    return coeffs


def euler_factor_closed_form_check(
    q: int, d: int, p: int, r: int, order: int
) -> bool:
    """Check that the direct sum form of the top Euler factor equals its
    closed meromorphic form as truncated series."""
    power, coeff = prime_term(q, d, (p - 1) * r, p)
    closed = euler_product(
        [([(power, -coeff)], -1), ([(d, -1)], 1),
         (_holomorphic_factor_terms(q, d, p, r), 1)],
        order,
    )
    return euler_factor_direct_sum(q, d, r, p, order) == closed


# ---------------------------------------------------------------------------
# Tauberian predictions (from asdist.tauberian)

def predict_coefficients(model: MeromorphicModel, n: int):
    """Leading-term prediction of the n-th series coefficient."""
    if n < 1:
        raise ValueError("prediction needs n >= 1")
    with mpmath.workprec(PREC_BITS):
        b = model.pole_order
        xi = mpmath.exp(2j * mpmath.pi / model.root_count)
        s, magnitude = mpmath.mpc(0), mpmath.mpf(0)
        for j, p_j in model.principal_coeffs.items():
            u = model.radius * xi ** (-j)
            term = (-u) ** (-b) * p_j * xi ** (j * n)
            s += term
            magnitude += abs(term)
        s = _imag_guard(s, magnitude) / mpmath.factorial(b - 1)
        return s * model.radius ** (-n) * mpmath.mpf(n) ** (b - 1)


def binomial_sum_check(l: int, t_on_circle, m: int):
    """Deviation ratio of the binomial partial-sum approximation at a point
    on the circle |t| = R < 1: should trend to 0 as m grows."""
    with mpmath.workprec(PREC_BITS):
        t = mpmath.mpmathify(t_on_circle)
        radius = abs(t)
        if not radius < 1:
            raise ValueError("the point must satisfy |t| < 1")
        lhs = mpmath.mpc(0)
        for n in range(m + 1):
            lhs += mpmath.binomial(n + l, l) * t ** (-n)
        main = t ** (-m) * mpmath.mpf(m) ** l / (mpmath.factorial(l) * (1 - t))
        return abs(lhs - main) / (radius ** (-m) * mpmath.mpf(m) ** l)


def estimate_value(estimate: AsymptoticEstimate, n: int):
    if n < 1:
        raise ValueError("estimates are evaluated at n >= 1")
    v = estimate.constant * mpmath.mpf(estimate.growth) ** n
    if estimate.log_order > 1:
        v *= (n * estimate.log_scale) ** (estimate.log_order - 1)
    return v


def empirical_ratio(series: TruncatedSeries, estimate: AsymptoticEstimate, n: int):
    """(partial sum at n) / (predicted value at n), for convergence checks
    along the progression."""
    ell, e = estimate.progression
    if n % ell != e % ell:
        raise ValueError(f"index {n} is off the progression {e} mod {ell}")
    partial = sum(series.coeffs[: n + 1])  # an int or a Fraction
    with mpmath.workprec(max(getattr(estimate.constant, "context", mpmath.mp).prec, 64)):
        numer = mpmath.mpf(partial.numerator) / partial.denominator
        return numer / estimate_value(estimate, n)
