"""Acceptance gate: one test per criterion, each printing PASS/FAIL.

Tolerances are pinned here and nowhere looser elsewhere:
  criterion 1: exact equality, wall time < 1 s
  criterion 2: exact equality, wall time < 120 s total
  criterion 3: exact equality of truncated series
  criterion 4: exact constant; empirical ratio within 1e-5 of 1
  criterion 5: relative agreement 1e-6, wall time < 30 s
  criterion 6: 5% at n = 50; exact constant; strict monotone decrease
  criterion 7: exact integer arithmetic
  criterion 8: exact equality of truncated series
  criterion 9: fitted-K growth bound with 2x headroom
"""
import time
from fractions import Fraction

from asdist import (
    RationalFunctionT,
    closed_form_constant,
    conductor_series,
    counts_by_degree,
    discriminant_view,
    error_term_series,
    euler_component_series,
    exponent_comparison,
    make_field_model,
    oracle_counts,
    pole_analysis,
    predict_partial_sums,
    principal_parts,
    rational_field,
    subgroup_count_poly,
    tauberian_constant,
    zeta_factor_rational,
)
from reference_impl import (
    binomial_sum_check,
    empirical_ratio,
    euler_factor_closed_form_check,
    holomorphic_factor_series,
    predict_coefficients,
    rational_series,
    substitute,
    zeta_series,
)


def _report(num: int, description: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_1_closed_form_p2():
    start = time.monotonic()
    model = rational_field(2)
    group = subgroup_count_poly(2, 1)
    series = conductor_series(model, group, 20)
    closed = rational_series(RationalFunctionT((1, 0, -1), (1, 0, -4)), 20)
    closed = closed.scale(2) + (-1)
    elapsed = time.monotonic() - start
    ok = series == closed and elapsed < 1.0
    _report(1, "p=2 closed form 2(1-t^2)/(1-4t^2) - 1 to order 20, < 1 s", ok)


def test_criterion_2_oracle_equivalence():
    start = time.monotonic()
    configs = [(2, 2, 1, 8), (4, 2, 1, 6), (3, 3, 1, 6), (5, 5, 1, 4),
               (2, 2, 2, 6)]
    ok = True
    for q, p, r, bound in configs:
        model = rational_field(q, p)
        group = subgroup_count_poly(p, r)
        expected = [int(c) for c in conductor_series(model, group, bound).coeffs]
        actual = counts_by_degree(oracle_counts(q, p, r, bound), bound)
        ok = ok and expected == actual
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    _report(2, "oracle census equals series for 5 configurations, < 2 min", ok)


def test_criterion_3_factorization_identity():
    ok = True
    for p, r, q in [(2, 1, 2), (2, 2, 2), (3, 1, 3), (3, 2, 3), (5, 1, 5)]:
        model = rational_field(q, p)
        group = subgroup_count_poly(p, r)
        lhs = euler_component_series(model, group, r, 12)
        rhs = holomorphic_factor_series(model, p, r, 12).mul(
            rational_series(zeta_factor_rational(model, p, r), 12)
        )
        ok = ok and lhs == rhs
    for p in (2, 3, 5, 7):
        for r in (1, 2, 3):
            for d in range(1, 7):
                ok = ok and euler_factor_closed_form_check(p, d, p, r, 10)
    _report(3, "component = holomorphic x zeta factor; per-prime closed form",
            ok)


def test_criterion_4_exact_constant_p2():
    model = rational_field(2)
    group = subgroup_count_poly(2, 1)
    est = closed_form_constant(model, group)
    series = conductor_series(model, group, 20)
    ratio = empirical_ratio(series, est, 20)
    ok = est.constant_exact == 2 and abs(ratio - 1) < 1e-5
    _report(4, "F_2(x), C_2 constant is exactly 2; ratio at n=20 within 1e-5",
            ok)


def test_criterion_5_cross_path_agreement_q3():
    start = time.monotonic()
    model = rational_field(3)
    group = subgroup_count_poly(3, 1)
    closed = closed_form_constant(model, group, degree_cutoff=20)
    generic = tauberian_constant(model, group, degree_cutoff=20)
    rel = abs(generic.constant - closed.constant) / abs(closed.constant)
    report = pole_analysis(3, 1)
    elapsed = time.monotonic() - start
    ok = rel < 1e-6 and report.log_order == 2 \
        and closed.log_order == generic.log_order == 2 and elapsed < 30.0
    _report(5, "q=3 closed form vs Tauberian constant to rel 1e-6, b = 2, "
            "< 30 s", ok)


def test_criterion_6_tauberian_unit_oracles():
    double = principal_parts(RationalFunctionT((1,), (1, -4, 4)))
    ratio = predict_coefficients(double, 50) / (51 * 2**50)
    ok = abs(ratio - 1) < 0.05
    simple = principal_parts(RationalFunctionT((1,), (1, -2)))
    est = predict_partial_sums(simple, 5)
    ok = ok and est.constant_exact == 2
    for l in (0, 1, 2):
        devs = [binomial_sum_check(l, 0.5, m) for m in (10, 20, 40)]
        ok = ok and devs[0] > devs[1] > devs[2]
    _report(6, "coefficient ratio 5% at n=50; exact partial-sum constant; "
            "monotone binomial deviations", ok)


def test_criterion_7_exponent_table():
    ok = True
    for p in (2, 3, 5, 7, 11, 13):
        for r in range(1, 7):
            lower, malle, sign = exponent_comparison(p, r)
            numerator = ((r - 1) * (p - 1) ** 2 - p) * p ** (r - 1) + p
            ok = ok and numerator >= 0
            ok = ok and pole_analysis(p, r).abscissa == \
                Fraction(1 + (p - 1) * r, p)
            if r == 1 or (p, r) == (2, 2):
                ok = ok and sign == "equal" and lower == malle
            else:
                ok = ok and sign == "greater" and lower > malle
    _report(7, "conductor vs discriminant exponents for p <= 13, r <= 6", ok)


def test_criterion_8_genus1_suite():
    group = subgroup_count_poly(2, 1)
    ell_a = make_field_model(2, 2, 1, [1, 0, 2], clp_order=1)
    ell_b = make_field_model(2, 2, 1, [1, -1, 2], clp_order=2)
    ok = True
    for model, constant in [(ell_a, 1), (ell_b, 3)]:
        series = conductor_series(model, group, 12)
        ok = ok and all(c.denominator == 1 and c >= 0 for c in series.coeffs)
        ok = ok and series.coeffs[0] == constant
    ok = ok and error_term_series(ell_a, group, 12).coeffs == tuple(
        [Fraction(-1)] + [Fraction(0)] * 12
    )
    # 1 + 2(1/zeta_F(2s) - 1) = -1 + 2/zeta_F(2s)
    inv_zeta2 = substitute(zeta_series(ell_b, 12).inv(), 1, 2)
    ok = ok and error_term_series(ell_b, group, 12) == inv_zeta2.scale(2) + (-1)
    view = discriminant_view(ell_a, subgroup_count_poly(2, 2), 8)
    ok = ok and view.z_table is None and view.lower_exponent is not None \
        and view.upper_exponent is not None
    _report(8, "elliptic models: integral series, constants 1 and 3, "
            "hand-derived error terms; r >= 2 gives bounds only", ok)


def test_criterion_9_growth_proxy():
    model = rational_field(2)
    group = subgroup_count_poly(2, 1)
    order = 30
    phi = conductor_series(model, group, order)
    lam = rational_series(zeta_factor_rational(model, 2, 1), order)
    quotient = phi.mul(lam.inv())
    # target growth q^{a - 1/(2p) + 0.05} = 2^{0.8}
    base = 2 ** 0.8
    fitted = max(
        (abs(c) / base**n for n, c in enumerate(quotient.coeffs[: 16])),
        default=0.0,
    )
    fitted = max(fitted, 1e-9)
    ok = all(
        abs(c) <= 2 * fitted * base**n for n, c in enumerate(quotient.coeffs)
    )
    _report(9, "Phi x Lambda^{-1} coefficients within K 2^{0.8 n} to order 30",
            ok)
