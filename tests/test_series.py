"""Truncated-series kernel: exactness, ring laws, inversion, substitution."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from asdist import (
    TruncatedSeries,
    euler_component_series,
    rational_field,
    subgroup_count_poly,
)
from asdist.series import euler_product, log_derivative, mul
from reference_impl import dense_euler_product, geometric, substitute


def S(*coeffs, order=None):  # padded with zeros up to t^order
    pad = 0 if order is None else order + 1 - len(coeffs)
    return TruncatedSeries(coeffs + (0,) * pad)


def test_mul_difference_of_squares():
    a = S(1, 1, 0)
    b = S(1, -1, 0)
    assert a.mul(b) == S(1, 0, -1)


def test_mul_identity():
    f = S(3, Fraction(1, 2), -7, 5)
    assert f.mul(TruncatedSeries.constant(1, 3)) == f


def test_mul_geometric_telescopes():
    # (sum 2^n t^n) * (1 - 2t) = 1
    g = geometric(2, 5)
    assert g.mul(S(1, -2, 0, 0, 0, 0)) == TruncatedSeries.constant(1, 5)


def test_inv_geometric():
    assert S(1, -1, 0, 0).inv() == TruncatedSeries.constant(1, 3).mul(geometric(1, 3))


def test_inv_one():
    assert TruncatedSeries.constant(1, 4).inv() == TruncatedSeries.constant(1, 4)


def test_inv_fibonacci():
    f = S(1, -1, -1, order=6)
    assert [int(c) for c in f.inv().coeffs] == [1, 1, 2, 3, 5, 8, 13]


def test_inv_zero_constant_term_rejected():
    with pytest.raises(ValueError, match="not invertible as power series"):
        S(0, 1).inv()


def test_subst_monomial_basic():
    f = S(1, 1, order=4)
    assert substitute(f, 2, 3) == S(1, 0, 0, 2, order=4)


def test_subst_monomial_identity():
    f = S(2, -3, Fraction(5, 7), 1)
    assert substitute(f, 1, 1) == f


def test_subst_monomial_zeta_argument():
    # 1/(1-t) |-> t = q t^2 gives sum q^n t^{2n}
    q = 3
    g = substitute(geometric(1, 6), q, 2)
    assert g == S(1, 0, 3, 0, 9, 0, 27)


def test_mixed_order_truncates_to_min():
    a = TruncatedSeries.constant(1, 7)
    b = TruncatedSeries.constant(1, 3)
    assert a.mul(b).order == 3
    assert (a + b).order == 3


def test_pow_binomial_matches_repeated_multiplication():
    base = S(1, 2, 3, -1, 0, 4)
    direct = TruncatedSeries.constant(1, 5)
    for e in range(1, 8):
        direct = direct.mul(base)
        assert base.pow(e) == direct


def test_pow_huge_exponent_stays_cheap():
    base = S(1, 0, 1, order=10)
    big = base.pow(10**9)
    # binomial coefficients of (1 + t^2)^N
    from math import comb
    assert big.coeffs[4] == comb(10**9, 2)
    assert big.coeffs[10] == comb(10**9, 5)


def test_pow_negative_inverts():
    f = S(1, -2, 0, 0, 0)
    assert f.pow(-1) == geometric(2, 4)


def _random_series(rng, order):
    return S(
        *[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(order + 1)]
    )


def test_ring_laws_thousand_random_triples():
    rng = random.Random(20260824)
    for _ in range(1000):
        order = rng.randint(0, 8)
        a, b, c = (_random_series(rng, order) for _ in range(3))
        assert a.mul(b) == b.mul(a)
        assert a.mul(b).mul(c) == a.mul(b.mul(c))
        assert a.mul(b + c) == a.mul(b) + a.mul(c)


small_fraction = st.fractions(
    min_value=-10, max_value=10, max_denominator=6
)
series_strategy = st.lists(small_fraction, min_size=1, max_size=8).map(
    lambda coeffs: S(*coeffs)
)


@given(series_strategy)
def test_inv_is_two_sided(f):
    if f.coeffs[0] == 0:
        with pytest.raises(ValueError):
            f.inv()
        return
    one = TruncatedSeries.constant(1, f.order)
    assert f.mul(f.inv()) == one
    assert f.inv().mul(f) == one


@given(series_strategy, series_strategy, st.integers(2, 4), small_fraction)
def test_subst_distributes_over_mul(a, b, power, scale):
    order = min(a.order, b.order)
    a, b = S(*a.coeffs[: order + 1]), S(*b.coeffs[: order + 1])
    lhs = substitute(a.mul(b), scale, power)
    rhs = substitute(a, scale, power).mul(substitute(b, scale, power))
    # powers beyond order/power * power fold differently; compare the
    # coefficients both sides can represent
    assert lhs.coeffs[: order + 1] == rhs.coeffs[: order + 1]


def _schoolbook_mul(a, b, order):
    out = [0] * (order + 1)
    for i in range(order + 1):
        for j in range(order + 1 - i):
            out[i + j] += a[i] * b[j]
    return out


def _schoolbook_power(f, e, order):
    """f**e truncated: inverse by long division, then square-and-multiply."""
    f = list(f) + [0] * (order + 1 - len(f))
    if e < 0:
        inverse = [Fraction(1, f[0])]
        for n in range(1, order + 1):
            s = sum(f[k] * inverse[n - k] for k in range(1, n + 1))
            inverse.append(-s / f[0])
        f, e = inverse, -e
    result, base = [1] + [0] * order, f
    while e:
        if e & 1:
            result = _schoolbook_mul(result, base, order)
        base = _schoolbook_mul(base, base, order)
        e >>= 1
    return result


def _product(factors, order):
    """prod f**e over dense factors f: those with constant term 1 through one
    `euler_product` call, the others through `TruncatedSeries.pow`."""
    out = dense_euler_product([(f, e) for f, e in factors if f[0] == 1], order)
    for f, e in factors:
        if f[0] != 1:
            f = (list(f) + [0] * order)[: order + 1]
            out = mul(out, TruncatedSeries(tuple(f)).pow(e).coeffs, order)
    return out


def _random_factors():
    """150 draws of (order, dense factors): constant terms +-1, exponents
    -5..5 and +-10^9, with the schoolbook product of the factors."""
    rng = random.Random(1978)
    for _ in range(150):
        order = rng.randint(0, 12)
        factors = []
        for _ in range(rng.randint(1, 4)):
            f = [rng.choice((1, -1))]
            f += [rng.choice((0, 0, rng.randint(-5, 5)))
                  for _ in range(rng.randint(0, 6))]
            factors.append((f, rng.choice(list(range(-5, 6)) + [10**9, -(10**9)])))
        expected = [1] + [0] * order
        for f, e in factors:
            power = _schoolbook_power(f, e, order)
            expected = _schoolbook_mul(expected, power, order)
        yield order, factors, expected


def test_euler_product_matches_schoolbook_on_random_factors():
    for order, factors, expected in _random_factors():
        assert _product(factors, order) == expected


def test_log_derivative_is_t_p_prime_over_p_on_random_factors():
    for order, factors, product in _random_factors():
        # tP'/P by long division, P h = tP', with P_0 = +-1
        h = []
        for n in range(order + 1):
            h.append(product[0] * (n * product[n] - sum(
                product[k] * h[n - k] for k in range(1, n + 1))))
        # tF'/F does not see F's constant, so each F is divided by it (+-1)
        monomials = [([(k, x * f[0]) for k, x in enumerate(f) if k and x], e)
                     for f, e in factors]
        assert log_derivative(monomials, order) == h


def test_pow_scales_out_non_unit_constants():
    rng = random.Random(2)
    for _ in range(100):
        order = rng.randint(0, 8)
        f = [rng.choice((2, -3, Fraction(1, 2)))]
        f += [rng.randint(-4, 4) for _ in range(4)]
        e = rng.randint(-5, 5)
        assert _product([(f, e)], order) == _schoolbook_power(f, e, order)


@pytest.mark.parametrize(
    "f, e, order",
    [
        ([1, 0, 3, 0, 0, 0, 0], 5, 4),  # trailing zeros
        ([1, 2, 0, -1, 0, 7, 0, 0, 4, 1], -3, 5),  # longer than order + 1
        ([1, 0, 0, 0, 0, 0, 0, 9], 4, 6),  # every term past the order
        ([1, 0, 0, 0, 0, 0, 0, 9], -2, 7),  # the order reaches that term
        ([2, 0, 0, 0, 0, 0, 0, 3], 3, 5),  # constant 2, terms past the order
        ([3, 0, 0, -2, 0, 0, 0, 0, 0, 5], -2, 11),  # sparse, constant 3
        ([Fraction(1, 2), 0, 0, 0, 4], 3, 9),  # sparse, constant 1/2
        ([1, 0, 0, 0, 5, 0, 0, 0, 2], -4, 11),  # stride 4 does not divide 11
        ([1, 0, 0, 0, 0, 0, -7], 10**9, 16),  # stride 6 does not divide 16
        ([1, 0, 0, 0, 0, 0, 2, 0, 0, -3], -1, 10),  # stride 3, from t^6 and t^9
    ],
)
def test_euler_product_sparse_edge_cases(f, e, order):
    assert _product([(f, e)], order) == _schoolbook_power(f, e, order)
    g = [1, 0, -1]
    expected = _schoolbook_mul(
        _schoolbook_power(f, e, order), _schoolbook_power(g, -1, order), order
    )
    assert _product([(f, e), (g, -1)], order) == expected


def test_euler_product_takes_monomials():
    # monomials past the order are skipped
    assert euler_product([([(2, 3), (9, 1)], 2)], 5) == [1, 0, 6, 0, 9, 0]
    # e = 0 contributes nothing
    assert euler_product([([(1, 5)], 0), ([(1, -1)], -1)], 3) == [1, 1, 1, 1]
    # a factor with no monomial at or below the order acts as 1, also when
    # it is the only factor
    assert euler_product([([(7, 9), (8, 1)], -2), ([(3, 1)], 1)], 6) == [
        1, 0, 0, 1, 0, 0, 0]
    assert euler_product([([(7, 9)], 3)], 6) == [1, 0, 0, 0, 0, 0, 0]
    assert euler_product([], 2) == [1, 0, 0]


def test_integer_inputs_give_int_coefficients():
    def ints(coeffs):
        return all(type(c) is int for c in coeffs)

    f = S(1, -3, 0, 7, 2, order=12)
    assert ints(mul([1, 2, 3], [-1, 0, 5]))
    assert ints(dense_euler_product([([1, 1, 2], 10**9), ([1, 0, -4], -3)], 20))
    assert ints(_product([([-1, 0, 4], -3)], 20))
    assert ints(f.inv().coeffs) and ints(f.pow(-7).coeffs)
    assert ints(f.pow(5).coeffs) and ints(f.mul(f).coeffs)
    assert ints(substitute(f, 3, 2).coeffs)
    assert ints(S(2, 1, order=6).pow(4).coeffs)
    model, group = rational_field(3), subgroup_count_poly(3, 2)
    assert ints(euler_component_series(model, group, 2, 30).coeffs)


def test_pow_zero_constant_term():
    f = S(0, 1, 1, order=6)
    # (t + t^2)^3 = t^3 (1 + t)^3
    assert f.pow(3) == S(0, 0, 0, 1, 3, 3, 1)
    assert f.pow(7) == TruncatedSeries.zero(6)
    assert f.pow(0) == TruncatedSeries.constant(1, 6)
    assert TruncatedSeries.zero(4).pow(2) == TruncatedSeries.zero(4)
    with pytest.raises(ValueError, match="not invertible"):
        f.pow(-1)


@given(series_strategy, st.integers(0, 6))
def test_pow_matches_iterated_mul(f, e):
    expected = TruncatedSeries.constant(1, f.order)
    for _ in range(e):
        expected = expected.mul(f)
    assert f.pow(e) == expected
