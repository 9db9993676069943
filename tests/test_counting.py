"""Per-conductor counting: e(X), wild exponents, Selmer criterion,
exceptional modules, and the conductor-count case analysis."""
import itertools
import math
from fractions import Fraction

import pytest

from asdist import (
    DivisorModule,
    ModelError,
    Place,
    UnsupportedInputError,
    conductor_count,
    exceptional_modules,
    make_field_model,
    product_count,
    rational_field,
    subgroup_count_poly,
    wild_exponent,
)
from asdist.counting import _as_nonneg_int, _is_exceptional
from asdist.errors import ConsistencyError
from reference_impl import (
    divisors,
    modules_up_to_degree,
    selmer_trivial,
    subgroup_count_coeffs,
    unit_group_size,
)

GENUS2 = dict(p=2, q=2, genus=2, l_poly=[1, -2, 4, -4, 4], clp_order=1)


def test_subgroup_count_poly_examples():
    g = subgroup_count_poly(2, 1)
    assert g.e_coeffs == (Fraction(-1), Fraction(2))
    g = subgroup_count_poly(3, 1)
    assert g.e_coeffs == (Fraction(-1, 2), Fraction(3, 2))
    g = subgroup_count_poly(2, 2)
    assert g.quotient_count(1) == 0
    assert g.quotient_count(2) == 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_e_coeffs_match_the_factor_by_factor_expansion(p):
    for r in range(1, 9):
        g = subgroup_count_poly(p, r)
        assert g.e_coeffs == subgroup_count_coeffs(p, r)
        assert all(type(c) is Fraction for c in g.e_coeffs)
        for x in (1, p, p**r, Fraction(1, p)):
            assert g.quotient_count(x) == math.prod(
                Fraction(p * x - p**i, p**r - p**i) for i in range(r)
            )


def _brute_force_c2c2_quotients(n):
    """Number of subgroups U of (Z/2)^n with quotient (Z/2)^2, by direct
    enumeration of subgroups as sets."""
    elements = list(itertools.product(range(2), repeat=n))

    def close(gens):
        group = {tuple([0] * n)}
        frontier = list(gens)
        while frontier:
            g = frontier.pop()
            if g in group:
                continue
            new = {tuple((a + b) % 2 for a, b in zip(g, h)) for h in group}
            group |= {g}
            frontier.extend(new - group)
        return frozenset(group)

    subgroups = set()
    for gens in itertools.chain.from_iterable(
        itertools.combinations(elements, k) for k in range(n + 1)
    ):
        subgroups.add(close(gens))
    return sum(1 for s in subgroups if len(s) == 2 ** (n - 2))


def test_e_poly_against_subgroup_enumeration():
    # e(x) counts C_2^2-quotients of an elementary abelian group of order 2x
    g = subgroup_count_poly(2, 2)
    for n in (2, 3):
        x = 2 ** (n - 1)
        assert g.quotient_count(x) == _brute_force_c2c2_quotients(n)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_e_poly_structure(p, r):
    g = subgroup_count_poly(p, r)
    assert g.quotient_count(1) == sum(g.e_coeffs, Fraction(0))
    for i in range(r - 1):
        assert g.quotient_count(p**i) == 0
    # e_r = |G| / |Aut G| = p^r / |GL_r(F_p)|
    assert g.e_coeffs[r] == Fraction(p**r, math.prod(p**r - p**i for i in range(r)))


def test_wild_exponent_examples():
    assert wild_exponent(0, 5) == 0
    assert wild_exponent(1, 3) == 0
    assert wild_exponent(2, 2) == 1
    assert wild_exponent(4, 3) == 2


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_wild_exponent_recurrence(p):
    for n in range(1, 60):
        step = 0 if n % p == 0 else 1
        assert wild_exponent(n + 1, p) == wild_exponent(n, p) + step


def test_selmer_criterion():
    m = DivisorModule.from_entries({Place(1): 2})
    assert selmer_trivial(rational_field(2), m)
    assert selmer_trivial(rational_field(2), DivisorModule.trivial())
    genus1 = make_field_model(2, 2, 1, [1, 0, 2])
    assert selmer_trivial(genus1, m)
    assert not selmer_trivial(make_field_model(**GENUS2), m)


def test_exceptional_modules_low_genus():
    assert exceptional_modules(rational_field(3)) == frozenset(
        {DivisorModule.trivial()}
    )
    genus1 = make_field_model(2, 2, 1, [1, -1, 2], clp_order=2)
    assert exceptional_modules(genus1) == frozenset({DivisorModule.trivial()})


def test_exceptional_modules_genus2_against_independent_generator():
    model = make_field_model(**GENUS2)
    got = exceptional_modules(model)
    # independent generator: all assignments of multiplicity {0} u [2, 2g]
    # over the places of degree <= 2g - 2
    counts = model.place_counts(2)
    places = [Place(d, str(j)) for d in (1, 2) for j in range(counts[d - 1])]
    expected = set()
    for mults in itertools.product([0, 2, 3, 4], repeat=len(places)):
        expected.add(
            DivisorModule(tuple((p, m) for p, m in zip(places, mults) if m))
        )
    assert got == frozenset(expected)
    assert len(got) == 4 ** len(places)


def test_conductor_count_basic_cases():
    model = rational_field(2)
    group = subgroup_count_poly(2, 1)
    assert conductor_count(model, group, DivisorModule.trivial()) == 1
    p1 = Place(1, "0")
    assert conductor_count(model, group, DivisorModule.from_entries({p1: 2})) == 2
    # squarefree nontrivial module: never a conductor
    assert conductor_count(model, group, DivisorModule.from_entries({p1: 1})) == 0
    # valuation congruent to 1 mod p: never a conductor
    m5 = DivisorModule.from_entries({p1: 5})
    assert conductor_count(rational_field(2), group, m5) == 0
    g3 = subgroup_count_poly(3, 1)
    m4 = DivisorModule.from_entries({p1: 4})
    assert conductor_count(rational_field(3), g3, m4) == 0


@pytest.mark.parametrize("q,p,l_poly,clp", [
    (2, 2, [1], 1), (3, 3, [1], 1), (4, 2, [1], 1), (5, 5, [1], 1),
    (2, 2, [1, 0, 2], 1), (2, 2, [1, -1, 2], 2), (3, 3, [1, -1, 3], 3),
    (2, 2, [1, 0, 0, 0, 4], 1),  # no exceptional counts supplied
])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_conductor_count_trivial_module_is_m0_m1_one(q, p, l_poly, clp, r):
    # the one formula at m0 = m1 = 1: product count e(1) plus c~ = e(|Cl[p]|) - e(1)
    model = make_field_model(p, q, (len(l_poly) - 1) // 2, l_poly, clp)
    group = subgroup_count_poly(p, r)
    trivial = DivisorModule.trivial()
    assert product_count(model, group, trivial) == group.quotient_count(1)
    assert conductor_count(model, group, trivial) == group.quotient_count(clp)


def test_conductor_count_rejects_more_places_than_the_field_has():
    group = subgroup_count_poly(2, 1)
    four = DivisorModule.from_entries({Place(1, name): 2 for name in "abcd"})
    with pytest.raises(ModelError):
        conductor_count(rational_field(2), group, four)  # F_2(x) has 3
    three = DivisorModule.from_entries({Place(1, name): 2 for name in "abc"})
    assert conductor_count(rational_field(2), group, three) == 2
    with pytest.raises(ModelError):  # F_2(x) has 1 place of degree 2
        conductor_count(
            rational_field(2), group,
            DivisorModule.from_entries({Place(2, "a"): 2, Place(2, "b"): 2}),
        )


def test_conductor_count_trivial_uses_class_group():
    group = subgroup_count_poly(2, 1)
    model = make_field_model(2, 2, 1, [1, -1, 2], clp_order=2)
    assert conductor_count(model, group, DivisorModule.trivial()) == 3
    g22 = subgroup_count_poly(2, 2)
    assert conductor_count(rational_field(2), g22, DivisorModule.trivial()) == 0


def test_conductor_count_genus2_requires_exceptional_data():
    model = make_field_model(**GENUS2)
    group = subgroup_count_poly(2, 1)
    small = DivisorModule.from_entries({Place(1, "0"): 2})
    with pytest.raises(UnsupportedInputError):
        conductor_count(model, group, small)


def test_conductor_count_genus2_labelled_places_need_exceptional_data():
    # the same module under a user label and under the internal index
    model = make_field_model(2, 2, 2, [1, 0, 0, 0, 4])
    group = subgroup_count_poly(2, 1)
    for label in ("a", "0"):
        module = DivisorModule.from_entries({Place(1, label): 2})
        with pytest.raises(UnsupportedInputError):
            conductor_count(model, group, module)
    small = DivisorModule.from_entries({Place(1, "0"): 2})
    supplied = make_field_model(
        2, 2, 2, [1, 0, 0, 0, 4], exceptional_counts={small: 5}
    )
    assert conductor_count(supplied, group, small) == 5
    # the count answers only under the label of abstract_places, and a
    # miss names that convention
    relabelled = DivisorModule.from_entries({Place(1, "a"): 2})
    with pytest.raises(UnsupportedInputError) as info:
        conductor_count(supplied, group, relabelled)
    message = str(info.value)
    assert "missing exceptional conductor count" in message
    assert "abstract_places" in message and '"0", "1"' in message


@pytest.mark.parametrize("genus", [0, 1, 2])
def test_exceptional_predicate_matches_exceptional_modules(genus):
    model = {
        0: rational_field(2),
        1: make_field_model(2, 2, 1, [1, -1, 2], clp_order=2),
        2: make_field_model(**GENUS2),
    }[genus]
    exceptional = exceptional_modules(model)
    for module in modules_up_to_degree(model, 6):
        assert _is_exceptional(model, module) == (module in exceptional)


def _mobius_sum(model, group, module, i):
    """Independent form of the multiplicative count: sum over divisors n of
    m of mu(m/n) |U_n|^i."""
    total = 0
    for n in divisors(module):
        below = dict(n.entries)
        gaps = [m - below.get(p, 0) for p, m in module.entries]
        mu = 0 if max(gaps, default=0) > 1 else (-1) ** sum(gaps)
        total += mu * unit_group_size(model, n) ** i
    return total


@pytest.mark.parametrize("q,p", [(2, 2), (3, 3), (4, 2)])
def test_product_count_equals_mobius_sum(q, p):
    model = rational_field(q, p)
    for r in (1, 2):
        group = subgroup_count_poly(p, r)
        for module in modules_up_to_degree(model, 4):
            expected = sum(
                group.e_coeffs[i] * _mobius_sum(model, group, module, i)
                for i in range(r + 1)
            )
            assert product_count(model, group, module) == expected


@pytest.mark.parametrize("q,p,r", [(2, 2, 1), (2, 2, 2), (3, 3, 1)])
def test_summation_identity_genus0(q, p, r):
    # sum of c_n over divisors n of m equals e(|U_m|) when all Selmer ray
    # groups are trivial (always at genus 0)
    model = rational_field(q, p)
    group = subgroup_count_poly(p, r)
    for module in modules_up_to_degree(model, 6):
        total = sum(conductor_count(model, group, n) for n in divisors(module))
        assert total == group.quotient_count(unit_group_size(model, module))


def test_summation_identity_elliptic_spot():
    # genus 1, |Cl[2]| = 2: for m = P^2 on a rational place the Selmer group
    # is trivial, so the divisor sum is e(|U_m| * |Cl[2]|)
    model = make_field_model(2, 2, 1, [1, -1, 2], clp_order=2)
    group = subgroup_count_poly(2, 1)
    module = DivisorModule.from_entries({Place(1, "0"): 2})
    assert selmer_trivial(model, module)
    total = sum(conductor_count(model, group, n) for n in divisors(module))
    assert total == group.quotient_count(unit_group_size(model, module))
    # concretely: c_1 = e(2) = 3 already exhausts e(|U_m|), so c_{P^2} = 0
    assert total == 3
    assert conductor_count(model, group, module) == 0


def test_module_helpers():
    p1, p2 = Place(1, "a"), Place(2, "b")
    m = DivisorModule.from_entries({p1: 2, p2: 1})
    assert m.degree == 4
    assert len(list(divisors(m))) == 6
    with pytest.raises(ValueError):
        DivisorModule.from_entries({p1: 0})
    with pytest.raises(ValueError):
        Place(0)


def test_modules_up_to_degree_census():
    model = rational_field(2)
    mods = list(modules_up_to_degree(model, 3))
    assert len(mods) == len(set(mods))
    # effective divisors of degree <= 3 over F_2(x): zeta partial sums
    assert len(mods) == 1 + 3 + 7 + 15


def test_nonneg_int_guard():
    assert _as_nonneg_int(Fraction(4), "x") == 4
    with pytest.raises(ConsistencyError):
        _as_nonneg_int(Fraction(-1), "x")
    with pytest.raises(ConsistencyError):
        _as_nonneg_int(Fraction(1, 2), "x")
