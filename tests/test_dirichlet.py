"""Dirichlet-series assembly, zeta factorization, poles, derived views."""
import hashlib
import tracemalloc
from fractions import Fraction
from itertools import chain, product
from math import lcm

import mpmath
import pytest

from asdist import (
    TruncatedSeries,
    UnsupportedInputError,
    conductor_count,
    conductor_series,
    counting_function,
    discriminant_view,
    error_term_series,
    euler_component_series,
    exceptional_modules,
    exponent_comparison,
    holomorphic_factor_at_abscissa,
    holomorphic_factor_value,
    make_field_model,
    pole_analysis,
    product_count,
    rational_field,
    subgroup_count_poly,
    zeta_factor_rational,
)
from asdist import dirichlet
from asdist.dirichlet import (
    RationalFunctionT, _euler_factor_component, poly_mul, prime_term,
    zeta_factor_binomials,
)
from asdist.series import euler_product
from reference_impl import (
    euler_factor_closed_form_check,
    euler_factor_direct_sum,
    holomorphic_factor_series,
    modules_up_to_degree,
    rational_series,
    substitute,
    zeta_series,
)

Q2 = rational_field(2)
Q3 = rational_field(3)
C2 = subgroup_count_poly(2, 1)
C3 = subgroup_count_poly(3, 1)
C2C2 = subgroup_count_poly(2, 2)
ELL_A = make_field_model(2, 2, 1, [1, 0, 2], clp_order=1)
ELL_B = make_field_model(2, 2, 1, [1, -1, 2], clp_order=2)


def test_prime_term_mapping():
    # N^{u - vs} for N = q^d contributes q^{du} t^{dv}
    assert prime_term(3, 2, 1, 2) == (4, 9)
    assert prime_term(2, 1, 0, 3) == (3, 1)


def test_euler_component_q2_closed_form():
    got = euler_component_series(Q2, C2, 1, 6)
    # (1 - t^2)/(1 - 4 t^2)
    expected = rational_series(RationalFunctionT((1, 0, -1), (1, 0, -4)), 6)
    assert got == expected
    assert [int(c) for c in got.coeffs] == [1, 0, 3, 0, 12, 0, 48]


def test_euler_component_generic_properties():
    for model, group in [(Q3, C3), (Q2, C2C2), (ELL_A, C2)]:
        for i in range(1, group.r + 1):
            s = euler_component_series(model, group, i, 9)
            assert s.coeffs[0] == 1
            assert s.coeffs[1] == 0  # minimal conductor exponent is 2


def test_error_term_constants():
    assert error_term_series(Q2, C2, 6) == TruncatedSeries.constant(-1, 6)
    assert error_term_series(Q3, C3, 6) == TruncatedSeries.constant(
        Fraction(-1, 2), 6
    )
    assert error_term_series(Q2, C2C2, 6) == TruncatedSeries.constant(
        Fraction(1, 3), 6
    )


def test_error_term_elliptic_models():
    assert error_term_series(ELL_A, C2, 8) == TruncatedSeries.constant(-1, 8)
    # L = 1 - t + 2t^2, |Cl[2]| = 2: c~_1 = e(2) - e(1) = 2, and the trivial
    # module itself contributes e_0, so Upsilon = -1 + 2/zeta_F(2s)
    inv_zeta2 = substitute(zeta_series(ELL_B, 8).inv(), 1, 2)
    assert error_term_series(ELL_B, C2, 8) == inv_zeta2.scale(2) + (-1)


def test_conductor_series_examples():
    s = conductor_series(Q2, C2, 6)
    assert [int(c) for c in s.coeffs] == [1, 0, 6, 0, 24, 0, 96]
    assert int(conductor_series(Q3, C3, 0).coeffs[0]) == 1
    assert int(conductor_series(Q2, C2C2, 4).coeffs[0]) == 0
    assert int(conductor_series(ELL_B, C2, 0).coeffs[0]) == 3


@pytest.mark.parametrize(
    "model,group",
    [(Q2, C2), (Q3, C3), (Q2, C2C2), (ELL_A, C2), (ELL_B, C2), (ELL_A, C2C2)],
    ids=["q2C2", "q3C3", "q2C22", "ellA", "ellB", "ellA-C22"],
)
def test_conductor_series_matches_per_module_counts(model, group):
    order = 6
    series = conductor_series(model, group, order)
    assert all(c.denominator == 1 and c >= 0 for c in series.coeffs)
    totals = [0] * (order + 1)
    for module in modules_up_to_degree(model, order):
        totals[module.degree] += conductor_count(model, group, module)
    assert totals == [int(c) for c in series.coeffs]


def test_conductor_series_at_the_order_ceiling():
    # the coefficients at the --order ceiling of 2000, and below it for the
    # larger field and rank, pinned by their sha256
    cases = [
        (2, 2, 1, 2000,
         "05318116da291a0fbe4849d716e649b1faf5a7b0f9095562dc03f9e93020333c"),
        (5, 5, 1, 1000,
         "303c428773dfbf54ea011293643fefab968409409d87dfbead7d29a3ec2c0381"),
        (3, 3, 2, 600,
         "f9cd4743842853c8225792da2c64de0a7a7767ef68e50c48dd7113d6b0f4d0d1"),
    ]
    for q, p, r, order, digest in cases:
        series = conductor_series(rational_field(q, p), subgroup_count_poly(p, r), order)
        text = ",".join(str(int(c)) for c in series.coeffs)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_conductor_series_holds_one_euler_factor_at_a_time(monkeypatch):
    # q = 2, C_2 to order 320 has 160 local factors; they arrive as a
    # generator, so one prime's monomials are alive at a time and the peak
    # is the kernel's few lists of order + 1 coefficients
    conductor_series(Q2, C2, 320)
    tracemalloc.start()
    try:
        conductor_series(Q2, C2, 320)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200_000
    # monomial factors are so small that a list of all 160 primes' factors
    # also fits that bound, so check the generator itself: no prime's factor
    # is built before the kernel draws the first one
    expected = euler_component_series(Q2, C2, 1, 320)
    built, drawn = [], []
    component, kernel = dirichlet._euler_factor_component, dirichlet.euler_product

    def counting_component(*args):
        built.append(args)
        return component(*args)

    def spy(factors, order):
        assert not isinstance(factors, (list, tuple))
        factors = iter(factors)
        first = next(factors)
        drawn.append(len(built))
        return kernel(chain([first], factors), order)

    monkeypatch.setattr(dirichlet, "_euler_factor_component", counting_component)
    monkeypatch.setattr(dirichlet, "euler_product", spy)
    assert euler_component_series(Q2, C2, 1, 320) == expected
    assert drawn == [1] and len(built) == 160


def test_conductor_series_genus2_needs_exceptional_counts():
    g2 = make_field_model(2, 2, 2, [1, -2, 4, -4, 4])
    with pytest.raises(UnsupportedInputError):
        conductor_series(g2, C2, 6)


def test_conductor_series_genus2_matches_per_module_counts():
    # c~ enters both the series' error term and conductor_count: supply a
    # count for every nontrivial exceptional module and compare the two
    plain = make_field_model(2, 2, 2, [1, 0, 0, 0, 4])
    modules = exceptional_modules(plain)
    assert len(modules) == 256
    supplied = {m: product_count(plain, C2, m) + 1
                for m in modules if m.entries}
    model = make_field_model(2, 2, 2, [1, 0, 0, 0, 4],
                             exceptional_counts=supplied)
    order = 8
    series = conductor_series(model, C2, order)
    totals = [0] * (order + 1)
    for module in modules_up_to_degree(model, order):
        totals[module.degree] += conductor_count(model, C2, module)
    assert totals == [int(c) for c in series.coeffs]
    # a missing count is reported even when its module lies above the order
    top = max(supplied, key=lambda m: m.degree)
    assert top.degree > order
    partial = make_field_model(
        2, 2, 2, [1, 0, 0, 0, 4],
        exceptional_counts={m: c for m, c in supplied.items() if m != top},
    )
    with pytest.raises(UnsupportedInputError):
        error_term_series(partial, C2, order)


def test_zeta_factor_p2_q2():
    lam = zeta_factor_rational(Q2, 2, 1)
    assert lam.numerator == (1,)
    assert lam.denominator == tuple(poly_mul([1, 0, -2], [1, 0, -4]))


def test_zeta_factor_p2_is_shifted_zeta():
    # p = 2: Lambda_r = zeta_F(2s - r), i.e. Z_F evaluated at q^r t^2
    for model, r in [(Q2, 1), (Q2, 2), (ELL_A, 1)]:
        lam = zeta_factor_rational(model, 2, r)
        expected = substitute(zeta_series(model, 12), model.q**r, 2)
        assert rational_series(lam, 12) == expected


def test_zeta_factor_p3_structure():
    lam = zeta_factor_rational(Q3, 3, 1)
    den = [1]
    for scale, power in [(3, 2), (9, 2), (9, 3), (27, 3)]:
        den = poly_mul(den, [1] + [0] * (power - 1) + [-scale])
    assert lam.numerator == (1,)
    assert lam.denominator == tuple(den)


def test_holomorphic_factor_p2_is_inverse_zeta():
    for model in (Q2, ELL_A, ELL_B):
        psi = holomorphic_factor_series(model, 2, 1, 10)
        inv_zeta2 = substitute(zeta_series(model, 10).inv(), 1, 2)
        assert psi == inv_zeta2
        assert psi.coeffs[0] == 1


@pytest.mark.parametrize(
    "p,r,q", [(2, 1, 2), (2, 2, 2), (3, 1, 3), (3, 2, 3), (5, 1, 5)]
)
def test_factorization_identity(p, r, q):
    model = rational_field(q, p)
    group = subgroup_count_poly(p, r)
    order = 12
    lhs = euler_component_series(model, group, r, order)
    rhs = holomorphic_factor_series(model, p, r, order).mul(
        rational_series(zeta_factor_rational(model, p, r), order)
    )
    assert lhs == rhs


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_euler_factor_is_the_geometric_quotient(p):
    for q, i, d in product((p, p * p), (1, 2, 3), (1, 2, 3)):
        order = 4 * p * d
        factors = _euler_factor_component(q, d, i, p)
        # (1 - g_1)(1 + g_1 + ... + g_(p-1)) / (1 - g_p), g_l at t^(l d)
        (first, e1), (middle, e2), (last, e3) = factors
        assert (e1, e2, e3) == (1, 1, -1)
        assert len(first) == len(last) == 1 and len(middle) == p - 1
        assert all(c for _, c in first + middle + last)
        assert first[0][0] == d and last[0][0] == p * d
        assert [k for k, _ in middle] == [l * d for l in range(1, p)]
        quotient = euler_product(factors, order)
        assert quotient == euler_factor_direct_sum(q, d, i, p, order)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_zeta_factor_binomials_are_the_papers_zeta_factors(p):
    # zeta(l s - (l-1) r) = Z(q^((l-1) r) t^l) for l = 2..p, and Z(c t^l)
    # has the denominator (1 - c t^l)(1 - q c t^l)
    for r in range(1, 5):
        expected = [(l, (l - 1) * r + c) for l in range(2, p + 1) for c in (0, 1)]
        assert zeta_factor_binomials(p, r) == expected


def test_euler_factor_closed_form_examples():
    assert euler_factor_closed_form_check(2, 1, 2, 1, 10)
    assert euler_factor_closed_form_check(3, 2, 3, 2, 12)
    assert euler_factor_closed_form_check(5, 1, 5, 1, 15)


def test_holomorphic_factor_at_abscissa_p2():
    value, bound = holomorphic_factor_at_abscissa(Q2, 2, 1, 40)
    # Psi = 1/zeta_F(2s) at s = 1: (1 - 1/4)(1 - 1/2) = 3/8
    with mpmath.workprec(200):
        assert abs(value - mpmath.mpf(3) / 8) <= bound
    assert bound < 1e-9


def test_holomorphic_factor_at_abscissa_r1_reduction():
    # for r = 1 the per-prime factor is (1 + (p-1)/N) (1 - 1/N)^{p-1}; at
    # p = 101 the evaluator's monomial recurrence runs 100 steps a degree
    cutoff = 12
    for p in (3, 31, 101):
        model = rational_field(p)
        value, bound = holomorphic_factor_at_abscissa(model, p, 1, cutoff)
        counts = model.place_counts(cutoff)
        # (...)^b_d multiplies the rounding error by b_d, so carry its bits
        with mpmath.workprec(200 + max(counts).bit_length()):
            direct = mpmath.mpf(1)
            for d, b_d in enumerate(counts, start=1):
                n = mpmath.mpf(model.q) ** d
                direct *= ((1 + (p - 1) / n) * (1 - 1 / n) ** (p - 1)) ** b_d
            assert abs(value - direct) < mpmath.mpf(2) ** -150, p


def test_holomorphic_factor_cutoff_self_consistency():
    v12, b12 = holomorphic_factor_at_abscissa(Q3, 3, 1, 12)
    v20, b20 = holomorphic_factor_at_abscissa(Q3, 3, 1, 20)
    assert abs(v12 - v20) <= b12 + b20


def test_holomorphic_factor_value_matches_series():
    # the exact series takes its monomials from the reference's
    # `_holomorphic_factor_terms`, the evaluator from its own recurrence.
    # The points sit at |t| = q^(-a)/2, real and rotated by 2 pi/3 (complex,
    # as at the Tauberian poles for r >= 2 and for p = 2).  H converges
    # past |t| = q^(-a), and its coefficients c_n stay below q^(a n) (up to
    # order 30 the largest c_n q^(-a n) is c_0 = 1), so the terms past
    # order 30 add at most sum_(n > 30) 2^-n = 2^-30 there
    cases = [(p, r, rational_field(p)) for p in (2, 3, 5, 7) for r in (1, 2, 3)]
    for p, r, model in cases + [(2, 1, ELL_A)]:
        a = pole_analysis(p, r).abscissa
        with mpmath.workprec(200):
            radius = mpmath.mpf(model.q) ** (-mpmath.mpf(a.numerator) / a.denominator)
            series = holomorphic_factor_series(model, p, r, 30)
            coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in series.coeffs]
            assert max(abs(c) * radius**n for n, c in enumerate(coeffs)) == 1
            for point in (radius / 2, radius / 2 * mpmath.expjpi(mpmath.mpf(2) / 3)):
                via_series = mpmath.polyval(coeffs[::-1], point)
                via_product = holomorphic_factor_value(model, p, r, point, 30)
                assert abs(via_series - via_product) < mpmath.mpf(2) ** -30, (p, r)


def test_pole_analysis_examples():
    rep = pole_analysis(2, 1)
    assert (rep.abscissa, rep.log_order, rep.progression) == (1, 1, 2)
    rep = pole_analysis(3, 1)
    assert (rep.abscissa, rep.log_order, rep.progression) == (1, 2, 6)
    rep = pole_analysis(2, 3)
    assert (rep.abscissa, rep.log_order, rep.progression) == (2, 1, 2)
    rep = pole_analysis(5, 2)
    assert rep.abscissa == Fraction(9, 5)
    assert (rep.log_order, rep.progression) == (1, 5)
    assert rep.max_order_angles == (Fraction(0),)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19])
def test_pole_analysis_matches_the_closed_form(p, r):
    # the paper's closed form: at r = 1 every l = 2..p reaches the abscissa
    # 1, so the pole at t = 1/q has order p - 1 and the period is
    # lcm(2..p); at r >= 2 only l = p does, with a simple pole and period p
    rep = pole_analysis(p, r)
    assert rep.abscissa == Fraction(1 + (p - 1) * r, p)
    assert rep.log_order == (p - 1 if r == 1 else 1)
    assert rep.progression == (lcm(*range(2, p + 1)) if r == 1 else p)


def test_counting_function():
    table = counting_function(Q2, C2, 10)
    assert table[0] == 1
    for n in range(0, 11, 2):
        assert table[n] == 2 * 2**n - 1
    assert all(a <= b for a, b in zip(table, table[1:]))


def test_exponent_comparison_table():
    for p in (2, 3, 5, 7, 11, 13):
        for r in range(1, 7):
            lower, malle, sign = exponent_comparison(p, r)
            numerator = ((r - 1) * (p - 1) ** 2 - p) * p ** (r - 1) + p
            assert numerator >= 0
            if r == 1 or (p, r) == (2, 2):
                assert sign == "equal" and lower == malle
            else:
                assert sign == "greater" and lower > malle


def test_discriminant_view_r1():
    view = discriminant_view(Q2, C2, 8)
    assert view.lower_exponent == view.malle_exponent == 1
    assert view.comparison == "equal"
    # p = 2: discriminant degree equals conductor degree
    assert list(view.z_table) == counting_function(Q2, C2, 8)


def test_discriminant_view_r1_odd_p():
    # discriminant degree is (p-1) times conductor degree
    view = discriminant_view(Q3, C3, 8)
    cond = counting_function(Q3, C3, 4)
    assert list(view.z_table) == [cond[n // 2] for n in range(9)]


def test_discriminant_view_r2_bounds_only():
    view = discriminant_view(Q3, subgroup_count_poly(3, 2), 8)
    assert view.z_table is None
    assert view.lower_exponent == Fraction(5, 24)
    assert view.upper_exponent == Fraction(5, 18)
    assert view.comparison == "greater"
