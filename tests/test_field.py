"""Field models: validation, place counts, zeta series, residues."""
import math
from fractions import Fraction

import pytest

from asdist import (
    ModelError,
    TruncatedSeries,
    make_field_model,
    rational_field,
)
from reference_impl import mobius, newton_power_sums, zeta_series

ELLIPTIC_A = dict(p=2, q=2, genus=1, l_poly=[1, 0, 2], clp_order=1)
ELLIPTIC_B = dict(p=2, q=2, genus=1, l_poly=[1, -1, 2], clp_order=2)


def test_rational_field_basics():
    m = rational_field(2)
    assert (m.p, m.q, m.genus, m.l_poly, m.clp_order) == (2, 2, 0, (1,), 1)
    assert m.class_number == 1


def test_elliptic_models_from_brute_force_point_counts():
    # y^2 + y = x^3 over F_2: affine solutions plus the point at infinity
    count_a = 1 + sum(
        1 for x in range(2) for y in range(2) if (y * y + y) % 2 == (x**3) % 2
    )
    assert count_a == 3
    a = make_field_model(**ELLIPTIC_A)
    assert a.point_counts(1)[1] == count_a
    assert a.class_number == 3

    # y^2 + xy = x^3 + x^2 + 1 over F_2
    count_b = 1 + sum(
        1
        for x in range(2)
        for y in range(2)
        if (y * y + x * y) % 2 == (x**3 + x**2 + 1) % 2
    )
    assert count_b == 2
    b = make_field_model(**ELLIPTIC_B)
    assert b.point_counts(1)[1] == count_b
    assert b.class_number == 2


def _monic_irreducible_count(q, d):
    """Gauss' formula, an independent oracle for b_d at genus 0 (d >= 2)."""
    return sum(mobius(e) * q ** (d // e) for e in range(1, d + 1) if d % e == 0) // d


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_genus0_place_counts_match_irreducible_counts(q):
    m = rational_field(q)
    b = m.place_counts(5)
    assert b[0] == q + 1  # monic linears plus the infinite place
    for d in range(2, 6):
        assert b[d - 1] == _monic_irreducible_count(q, d)


@pytest.mark.parametrize(
    "p, q, genus, l_poly, clp",
    [(2, 2, 0, [1], 1), (3, 3, 0, [1], 1),
     (2, 2, 1, [1, 0, 2], 1), (2, 2, 1, [1, -1, 2], 2), (3, 3, 1, [1, 1, 3], 1),
     (3, 3, 1, [1, 0, 3], 1),  # no linear term: L's factor has stride 2
     (2, 2, 2, [1, -2, 4, -4, 4], 1), (2, 2, 2, [1, 0, 0, 0, 4], 1)],
    ids=["q2", "q3", "1,0,2", "1,-1,2", "1,1,3", "1,0,3",
         "1,-2,4,-4,4", "1,0,0,0,4"],
)
def test_counts_match_newton_and_mobius(p, q, genus, l_poly, clp):
    # N_d = q^d + 1 - s_d by Newton's identities, and d b_d their Moebius sum
    model = make_field_model(p, q, genus, l_poly, clp)
    depth = 60
    s = newton_power_sums(model, depth)
    points = [q**d + 1 - s[d] for d in range(depth + 1)]
    assert model.point_counts(depth)[1:] == points[1:]
    places = []
    for d in range(1, depth + 1):
        total = sum(mobius(e) * points[d // e] for e in range(1, d + 1) if d % e == 0)
        assert total % d == 0
        places.append(total // d)
    assert model.place_counts(depth) == places


@pytest.mark.parametrize("model", [rational_field(3), make_field_model(**ELLIPTIC_A)],
                         ids=["genus0", "genus1"])
def test_place_counts_below_depth_one_are_empty(model):
    assert model.place_counts(0) == model.place_counts(-2) == []


def test_place_counts_q2_explicit():
    assert rational_field(2).place_counts(3) == [3, 1, 2]


def test_elliptic_place_count_degree1():
    assert make_field_model(**ELLIPTIC_A).place_counts(1) == [3]


def test_zeta_series_rational_q2():
    z = zeta_series(rational_field(2), 3)
    assert [int(c) for c in z.coeffs] == [1, 3, 7, 15]


def test_zeta_series_order0():
    assert zeta_series(rational_field(5), 0) == TruncatedSeries.constant(1, 0)


def test_zeta_series_elliptic():
    z = zeta_series(make_field_model(**ELLIPTIC_A), 2)
    assert [int(c) for c in z.coeffs] == [1, 3, 9]


@pytest.mark.parametrize(
    "model",
    [rational_field(2), rational_field(3),
     make_field_model(**ELLIPTIC_A), make_field_model(**ELLIPTIC_B),
     make_field_model(2, 2, 2, [1, -2, 4, -4, 4])],
    ids=["q2", "q3", "elliptic-a", "elliptic-b", "genus2"],
)
def test_zeta_equals_euler_product(model):
    order = 12
    product = TruncatedSeries.constant(1, order)
    for d, b_d in enumerate(model.place_counts(order), start=1):
        factor = TruncatedSeries.monomial(-1, d, order) + 1
        product = product.mul(factor.pow(-b_d))
    assert product == zeta_series(model, order)
    assert all(c.denominator == 1 and c >= 0 for c in product.coeffs)


def test_zeta_residue_factor():
    assert rational_field(2).zeta_residue_factor() == 2
    for q in (3, 4, 5, 9):
        assert rational_field(q).zeta_residue_factor() == Fraction(q, q - 1)
    assert make_field_model(**ELLIPTIC_A).zeta_residue_factor() == 3


def test_zeta_value_exact():
    m = rational_field(2)
    # zeta(2) = 1/((1-1/4)(1-1/2)) = 8/3
    assert m.zeta_value(2) == Fraction(8, 3)
    assert m.zeta_value(3) == Fraction(32, 21)
    with pytest.raises(ValueError):
        m.zeta_value(1)


def test_validation_errors():
    with pytest.raises(ModelError):
        make_field_model(4, 4, 0)  # p not prime
    with pytest.raises(ModelError):
        make_field_model(2, 6, 0)  # q not a power of p
    with pytest.raises(ModelError):
        make_field_model(2, 2, 1, [1, 0, 3])  # functional equation fails
    with pytest.raises(ModelError):
        make_field_model(2, 2, 0, [1, 1, 2])  # L has degree 0 at genus 0
    with pytest.raises(ModelError):
        make_field_model(2, 2, 0, clp_order=2)  # above p^genus = 1
    with pytest.raises(ModelError):
        make_field_model(2, 2, 1, [1, 0, 2], clp_order=3)  # not a 2-power
    with pytest.raises(ModelError):
        # satisfies the functional equation but yields b_1 = -1
        make_field_model(2, 2, 1, [1, -4, 2])


def test_clp_order_must_divide_class_number_and_fit_p_rank():
    with pytest.raises(ModelError):
        make_field_model(2, 2, 1, [1, 0, 2], clp_order=2)  # 2 does not divide 3
    with pytest.raises(ModelError):
        make_field_model(2, 4, 1, [1, -1, 4], clp_order=4)  # L(1) = 4 but 4 > 2^1
    with pytest.raises(ModelError):
        make_field_model(2, 2, 1, [1, 0, 2], clp_order=4)
    assert make_field_model(2, 4, 1, [1, -1, 4], clp_order=2).clp_order == 2


@pytest.mark.parametrize("q, p", [(2, 2), (3, 3), (4, 2)])
def test_genus1_clp_order_is_p_exactly_when_p_divides_class_number(q, p):
    # Cl^0 = E(F_q) has cyclic p-part, so |Cl[p]| = p exactly when p | L(1).
    # Every trace within the Hasse bound, which covers the genus-1 models
    # of the benchmark's reference tests.
    bound = math.isqrt(4 * q)
    for a in range(-bound, bound + 1):
        clp = p if (1 + a + q) % p == 0 else 1
        assert make_field_model(p, q, 1, [1, a, q], clp).clp_order == clp
        with pytest.raises(ModelError):
            make_field_model(p, q, 1, [1, a, q], p + 1 - clp)
