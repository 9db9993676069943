"""Pole extraction and coefficient asymptotics on known closed forms."""
import tracemalloc
from fractions import Fraction

import mpmath
import pytest
import sympy

import asdist.dirichlet
import asdist.tauberian
from asdist import (
    FieldModel,
    ModelError,
    PrecisionError,
    UnsupportedInputError,
    closed_form_constant,
    conductor_series,
    make_field_model,
    predict_partial_sums,
    principal_parts,
    rational_field,
    subgroup_count_poly,
    tauberian_constant,
    zeta_factor_poles,
    zeta_factor_rational,
)
from asdist.dirichlet import (
    RationalFunctionT,
    critical_poles,
    holomorphic_factor_at_abscissa,
    holomorphic_factor_cutoff,
    holomorphic_factor_value,
)
from asdist.tauberian import MeromorphicModel
from reference_impl import (
    binomial_sum_check,
    empirical_ratio,
    estimate_value,
    predict_coefficients,
)

Q2 = rational_field(2)
Q3 = rational_field(3)
C2 = subgroup_count_poly(2, 1)
C3 = subgroup_count_poly(3, 1)

# (model, p, r) on which the binomial pole reader is checked: both ranks,
# square q with rational radius (q=4, r=2), p up to 7, and a genus-1 model
POLE_BATTERY = [
    (rational_field(q), p, r)
    for q, p, r in [(2, 2, 1), (2, 2, 3), (4, 2, 2), (3, 3, 1), (3, 3, 2),
                    (5, 5, 1), (7, 7, 1)]
] + [(make_field_model(3, 3, 1, [1, 1, 3], clp_order=1), 3, 1)]


def test_principal_parts_double_pole():
    model = principal_parts(RationalFunctionT((1,), (1, -4, 4)))
    assert model.radius_exact == Fraction(1, 2)
    assert model.pole_order == 2
    assert model.root_count == 1
    assert model.principal_exact[1] == Fraction(1, 4)


def test_principal_parts_pair_of_simple_poles():
    model = principal_parts(RationalFunctionT((1,), (1, 0, -4)))
    assert model.radius_exact == Fraction(1, 2)
    assert model.pole_order == 1
    assert model.root_count == 2
    # principal coefficient at u = +-1/2 is num/den' = 1/(-8u) = -+1/4
    assert model.principal_exact[2] == Fraction(-1, 4)  # angle 0, u = 1/2
    assert model.principal_exact[1] == Fraction(1, 4)  # angle 1/2, u = -1/2


def test_principal_parts_zeta_factor():
    model = principal_parts(zeta_factor_rational(Q2, 2, 1))
    assert model.radius_exact == Fraction(1, 2)
    assert model.pole_order == 1
    assert model.root_count == 2


def test_principal_parts_irrational_double_poles():
    # 1/(1+t^2)^2: double poles at +-i, principal coefficient 2/(4u^2 - 4) = -1/4
    model = principal_parts(RationalFunctionT((1,), (1, 0, 2, 0, 1)))
    assert model.pole_order == 2
    assert model.root_count == 4
    assert model.principal_exact is None
    assert model.principal_coeffs.keys() == {1, 3}  # only the poles +-i
    for j in (1, 3):
        assert abs(model.principal_coeffs[j] + 0.25) < 1e-50


def test_principal_parts_sixth_roots_of_unity():
    model = principal_parts(RationalFunctionT((1,), (1, -1, 1)))
    assert model.pole_order == 1
    assert model.root_count == 6


def test_principal_parts_zeta_factor_p7():
    model = principal_parts(zeta_factor_rational(rational_field(7), 7, 1))
    assert model.pole_order == 6
    assert model.root_count == 420  # lcm(2, ..., 7)


def test_principal_parts_pole_finder_failure_is_a_precision_error(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise mpmath.libmp.NoConvergence("no convergence")

    monkeypatch.setattr(mpmath, "polyroots", no_convergence)
    # 1 - 3 t^2 is an irreducible factor of the denominator
    with pytest.raises(PrecisionError, match="did not converge"):
        principal_parts(zeta_factor_rational(Q3, 3, 1))


def test_zeta_factor_poles_match_principal_parts():
    tol = mpmath.mpf(2) ** -150
    for model, p, r in POLE_BATTERY:
        def correction(u):
            return holomorphic_factor_value(model, p, r, u, 8)

        direct = zeta_factor_poles(model, p, r, correction)
        reference = principal_parts(
            zeta_factor_rational(model, p, r), correction=correction
        )
        case = (model.q, p, r)
        assert direct.pole_order == reference.pole_order, case
        assert direct.root_count == reference.root_count, case
        with mpmath.workprec(200):
            assert abs(direct.radius / reference.radius - 1) < tol, case
            assert direct.principal_coeffs.keys() == reference.principal_coeffs.keys()
            for j, expected in reference.principal_coeffs.items():
                got = direct.principal_coeffs[j]
                if expected == 0:
                    assert got == 0, (case, j)
                else:
                    assert abs(got / expected - 1) < tol, (case, j)


def test_tauberian_constant_needs_no_computer_algebra(monkeypatch):
    def unavailable(*args, **kwargs):
        raise AssertionError("tauberian_constant factored or root-found")

    monkeypatch.setattr(sympy, "factor_list", unavailable)
    monkeypatch.setattr(sympy, "gcd", unavailable)
    monkeypatch.setattr(mpmath, "polyroots", unavailable)
    for model, p, r in POLE_BATTERY:
        estimate = tauberian_constant(model, subgroup_count_poly(p, r), 8)
        assert estimate.constant > 0, (model.q, p, r)


def test_zeta_factor_poles_reject_a_numerator_zero():
    # L(u) = (1 - u)(1 - 3u) breaks the Riemann hypothesis and vanishes at
    # u = 1/3, where the pole t = 1/3 of order 2 sends u = q t^2 (the model
    # is built directly, as make_field_model rejects L(1) = 0)
    broken = FieldModel(3, 3, 1, (1, -4, 3), 1)
    with pytest.raises(PrecisionError, match="numerator vanishes"):
        zeta_factor_poles(broken, 3, 1, lambda u: 1)


def test_zeta_factor_poles_sit_where_the_binomials_vanish_most():
    for model, p, r in POLE_BATTERY:
        _, _, vanishing = critical_poles(p, r)
        order = max(map(len, vanishing.values()))
        top = {j for j, zeros in vanishing.items() if len(zeros) == order}
        poles = zeta_factor_poles(model, p, r, lambda u: 1)
        assert top == poles.principal_coeffs.keys(), (model.q, p, r)


def test_principal_parts_rejects_poleless_input():
    with pytest.raises(ValueError):
        principal_parts(RationalFunctionT((1, 1), (2,)))


def test_predict_coefficients_double_pole():
    model = principal_parts(RationalFunctionT((1,), (1, -4, 4)))
    # true coefficients (n+1) 2^n, leading prediction n 2^n
    for n, tol in [(10, 0.10), (50, 0.021)]:
        ratio = predict_coefficients(model, n) / ((n + 1) * 2**n)
        assert abs(ratio - 1) < tol


def test_predict_coefficients_respects_progression():
    model = principal_parts(RationalFunctionT((1,), (1, 0, -4)))
    # 1/(1-4t^2): coefficients 4^{n/2} at even n, 0 at odd n
    assert abs(predict_coefficients(model, 9)) < 1e-20
    assert abs(predict_coefficients(model, 10) - 4**5) < 1e-15


def test_predict_coefficients_simple_pole_is_exact():
    model = principal_parts(RationalFunctionT((1,), (1, -2)))
    for n in (1, 7, 30):
        assert abs(predict_coefficients(model, n) - 2**n) < 1e-25


def test_predict_partial_sums_geometric():
    model = principal_parts(RationalFunctionT((1,), (1, -2)))
    est = predict_partial_sums(model, 5)
    assert est.constant_exact == 2
    assert est.log_order == 1
    assert est.progression == (1, 0)
    # partial sums are 2^{m+1} - 1; the model predicts 2 * 2^m
    assert abs(estimate_value(est, 20) - 2**21) < 1e-20


def test_imag_guard_is_relative_to_the_terms():
    # a constant of 1e-40 is far below any absolute floor, so a 10 %
    # imaginary part must still be caught relative to the terms summed
    def one_pole(coeff):
        return MeromorphicModel(mpmath.mpf(0.5), Fraction(1, 2), 1, 1,
                                {1: coeff}, None)
    real = one_pole(mpmath.mpc(1e-40))
    assert predict_partial_sums(real, 1).constant == -4 * 1e-40
    assert predict_coefficients(real, 3) == -16 * 1e-40
    skewed = one_pole(mpmath.mpc(1e-40, 1e-41))
    with pytest.raises(PrecisionError, match="imaginary part"):
        predict_partial_sums(skewed, 1)
    with pytest.raises(PrecisionError, match="imaginary part"):
        predict_coefficients(skewed, 3)


def test_predict_partial_sums_conductor_closed_form():
    # the q=2 C_2 series as a rational function: (1 + 2t^2)/(1 - 4t^2)
    model = principal_parts(RationalFunctionT((1, 0, 2), (1, 0, -4)))
    est = predict_partial_sums(model, 6)
    assert est.progression == (2, 0)
    assert est.constant_exact == 2


def test_predict_partial_sums_pole_at_angle_one_half():
    # 1/(1 + 2t) has its one pole at u = -1/2: the partial sums are
    # 1/3 + (2/3)(-2)^m, so the constant's sign alternates with m
    model = principal_parts(RationalFunctionT((1,), (1, 2)))
    for m in (4, 5):
        est = predict_partial_sums(model, m)
        assert est.constant_exact == Fraction(2, 3) * (-1) ** m


def test_predict_partial_sums_rejects_multiple_poles_on_the_unit_circle():
    # 1/(1 + t^2)^2 has double poles at +-i, where log(1/R) = 0
    model = principal_parts(RationalFunctionT((1,), (1, 0, 2, 0, 1)))
    assert model.pole_order == 2
    for m in (1, 2):
        with pytest.raises(UnsupportedInputError, match="unit circle"):
            predict_partial_sums(model, m)


def test_binomial_sum_check_decreases():
    for l, point in [(0, 0.5), (1, 0.5), (2, mpmath.mpc(0, 0.5))]:
        devs = [binomial_sum_check(l, point, m) for m in (10, 20, 40)]
        assert devs[0] > devs[1] > devs[2]
    assert binomial_sum_check(0, 0.5, 30) < 0.15


def test_binomial_sum_check_rejects_large_point():
    with pytest.raises(ValueError):
        binomial_sum_check(1, 1.5, 10)


def test_closed_form_constant_p2():
    est = closed_form_constant(Q2, C2)
    assert est.constant_exact == 2
    assert est.log_order == 1 and est.exponent == 1

    est22 = closed_form_constant(Q2, subgroup_count_poly(2, 2))
    # (2/3) * 2 / ((1 - 1/8) * zeta(3)) with zeta(3) = 32/21
    assert est22.constant_exact == Fraction(2, 3) * 2 / (
        Fraction(7, 8) * Fraction(32, 21)
    )
    assert est22.exponent == Fraction(3, 2)


def test_closed_form_constant_elliptic():
    ell = make_field_model(2, 2, 1, [1, 0, 2], clp_order=1)
    est = closed_form_constant(ell, C2)
    # e_1 * residue / ((1 - 1/4) zeta_F(2)); zeta_F(2) = (1+1/8)/((3/4)(1/2))
    zeta2 = ell.zeta_value(2)
    assert est.constant_exact == 2 * 3 / (Fraction(3, 4) * zeta2)


def test_closed_form_constant_unsupported():
    with pytest.raises(UnsupportedInputError):
        closed_form_constant(Q3, subgroup_count_poly(3, 2))


def test_constants_reject_a_group_of_another_characteristic():
    # a C_3 constant over a field of characteristic 2 is meaningless
    for constant in (closed_form_constant, tauberian_constant):
        with pytest.raises(ModelError, match="field characteristic"):
            constant(Q2, C3)


def test_cross_path_constants_p2():
    closed = closed_form_constant(Q2, C2)
    generic = tauberian_constant(Q2, C2, degree_cutoff=40)
    assert abs(generic.constant - closed.constant) / closed.constant < 1e-8
    assert generic.progression == (2, 0)


def test_cross_path_constants_q3():
    closed = closed_form_constant(Q3, C3, degree_cutoff=25)
    generic = tauberian_constant(Q3, C3, degree_cutoff=25)
    assert closed.log_order == generic.log_order == 2
    assert abs(generic.constant - closed.constant) / closed.constant < 1e-9


def test_cross_path_constants_q7():
    q7 = rational_field(7)
    closed = closed_form_constant(q7, subgroup_count_poly(7, 1))
    generic = tauberian_constant(q7, subgroup_count_poly(7, 1))
    assert closed.log_order == generic.log_order == 6
    assert abs(generic.constant - closed.constant) / closed.constant < 1e-12
    assert tauberian_constant(q7, subgroup_count_poly(7, 2)).log_order == 1


def test_cross_path_constants_q11():
    q11 = rational_field(11)
    closed = closed_form_constant(q11, subgroup_count_poly(11, 1))
    generic = tauberian_constant(q11, subgroup_count_poly(11, 1))
    assert closed.log_order == generic.log_order == 10
    assert abs(generic.constant - closed.constant) / closed.constant < 1e-12


def test_cross_path_constants_q17():
    # ell = lcm(2..17) = 12,252,240; only the one pole of maximal order
    # is visited
    q17 = rational_field(17)
    closed = closed_form_constant(q17, subgroup_count_poly(17, 1))
    generic = tauberian_constant(q17, subgroup_count_poly(17, 1))
    assert closed.log_order == generic.log_order == 16
    assert abs(generic.constant - closed.constant) / closed.constant < 1e-12


def test_cross_path_constants_q19():
    q19 = rational_field(19)  # ell = lcm(2..19) = 232,792,560
    closed = closed_form_constant(q19, subgroup_count_poly(19, 1))
    generic = tauberian_constant(q19, subgroup_count_poly(19, 1))
    assert closed.log_order == generic.log_order == 18
    assert abs(generic.constant - closed.constant) / closed.constant < 1e-12


@pytest.mark.parametrize("p", [61, 67, 71, 101])
def test_cross_path_constants_hold_at_large_p(p):
    # the pole and its phase at j = ell are exact fractions of a turn; a
    # power of a rounded root of unity lost the working bits once
    # j m = ell^2 grew past them (p = 67 gave a wrong value, p = 71 raised)
    field, group = rational_field(p), subgroup_count_poly(p, 1)
    closed = closed_form_constant(field, group)
    generic = tauberian_constant(field, group)
    assert abs(generic.constant - closed.constant) / closed.constant < 1e-50


def test_tauberian_constant_memory_does_not_grow_with_ell():
    # ell = 360,360 at p = 13; data held per lattice point would take
    # tens of MB, the one pole of maximal order a few KB
    field, group = rational_field(13), subgroup_count_poly(13, 1)
    tauberian_constant(field, group)
    tracemalloc.start()
    try:
        tauberian_constant(field, group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_tauberian_constant_keeps_its_working_precision():
    # e_top = 1/21 (C_2^3) and 2/3 (C_2^2 over F_4) are inexact at 53 bits
    for q, r in [(2, 3), (4, 2)]:
        field, group = rational_field(q), subgroup_count_poly(2, r)
        exact = closed_form_constant(field, group).constant_exact
        generic = tauberian_constant(field, group, degree_cutoff=40)
        with mpmath.workprec(200):
            exact_mpf = mpmath.mpf(exact.numerator) / exact.denominator
            assert abs(generic.constant / exact_mpf - 1) < 1e-30, (q, r)


@pytest.mark.parametrize("model,p,r,cutoff", [
    (rational_field(2), 2, 1, 65), (rational_field(2), 2, 2, 32),
    (rational_field(2), 2, 3, 21), (rational_field(3), 3, 1, 41),
    (rational_field(3), 3, 2, 24), (rational_field(5), 5, 1, 29),
    (rational_field(4), 2, 2, 16), (rational_field(17), 17, 1, 19),
    (make_field_model(3, 3, 1, [1, 1, 3], clp_order=1), 3, 1, 42),
    (make_field_model(2, 2, 1, [1, 0, 2], clp_order=1), 2, 1, 66),
])
def test_derived_cutoff_leaves_less_than_2_to_the_minus_60(model, p, r, cutoff):
    # the least cutoff whose tail bound is below 2^-60 of the product; the
    # bound holds on the whole circle, so both constants are that close to
    # their value at cutoff 200
    assert holomorphic_factor_cutoff(model, p, r) == cutoff
    for n, below in ((cutoff - 1, False), (cutoff, True)):
        value, bound = holomorphic_factor_at_abscissa(model, p, r, n)
        assert (bound < mpmath.mpf(2) ** -60 * value) == below, n
    group = subgroup_count_poly(p, r)
    for constant in (closed_form_constant, tauberian_constant):
        if constant is closed_form_constant and p != 2 and r != 1:
            continue
        derived = constant(model, group).constant
        reference = constant(model, group, degree_cutoff=200).constant
        with mpmath.workprec(200):
            assert abs(derived / reference - 1) < mpmath.mpf(2) ** -60, constant


def test_closed_form_constant_holds_at_low_precision(monkeypatch):
    # factor**b_d with b_d up to ~2^27 (q=3) or ~2^42 (q=5) at cutoff 20
    # once turned 30 bits into a wrong second digit; the default cutoffs,
    # 41 and 29, take b_d to ~2^60 and ~2^62
    for q in (3, 5):
        field, group = rational_field(q), subgroup_count_poly(q, 1)
        reference = closed_form_constant(field, group).constant
        for prec_bits in (30, 53):
            with monkeypatch.context() as patch:
                for module in (asdist.dirichlet, asdist.tauberian):
                    patch.setattr(module, "PREC_BITS", prec_bits)
                low = closed_form_constant(field, group)
            assert abs(low.constant / reference - 1) < 1e-7, (q, prec_bits)


def test_tauberian_exponent_is_the_abscissa():
    generic = tauberian_constant(Q3, subgroup_count_poly(3, 2), degree_cutoff=12)
    assert generic.exponent == Fraction(5, 3)
    ell = make_field_model(2, 2, 1, [1, 0, 2], clp_order=1)
    for model, group in [(Q2, C2), (Q2, subgroup_count_poly(2, 2)), (Q3, C3),
                         (ell, C2)]:
        closed = closed_form_constant(model, group, degree_cutoff=12)
        generic = tauberian_constant(model, group, degree_cutoff=12)
        assert generic.exponent == closed.exponent
        assert generic.log_scale == closed.log_scale
        assert abs(generic.log_scale - mpmath.log(model.q)) < 1e-15


def test_empirical_ratio_q2():
    series = conductor_series(Q2, C2, 20)
    est = closed_form_constant(Q2, C2)
    assert abs(empirical_ratio(series, est, 20) - 1) < 1e-5
    with pytest.raises(ValueError):
        empirical_ratio(series, est, 19)  # off the even progression


def test_empirical_ratio_logarithmic_case():
    # b = 2 converges like 1/log X: only assert a loose factor at n = 42
    series = conductor_series(Q3, C3, 42)
    est = tauberian_constant(Q3, C3, degree_cutoff=25)
    ell, e = est.progression
    n = 42 - (42 - e) % ell
    ratio = empirical_ratio(series, est, n)
    assert 1 / 1.3 < ratio < 1.3
