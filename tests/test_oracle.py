"""Brute-force oracle: finite fields, normal forms, census consistency."""
import gc
import itertools
import random
import time
import tracemalloc
import weakref

import pytest

import asdist.oracle
from asdist import (
    BudgetExceededError,
    ConsistencyError,
    DivisorModule,
    Place,
    conductor_count,
    conductor_series,
    counts_by_degree,
    enumerate_classes,
    irreducibles_up_to,
    oracle_counts,
    rational_field,
    subgroup_count_poly,
)
from asdist.field import prime_power_exponent
from asdist.oracle import (
    GF,
    ASRep,
    census_places,
    cond_module,
    iter_partial_classes,
    poly_trim,
)
from reference_impl import (
    add_reps,
    coset_rep,
    gf_add,
    normalize_rational,
    poly_add,
    poly_mul,
    poly_neg,
    pth_root,
    rep_conductor,
    scale_rep,
    unit_group_size,
    wp_image,
)


def as_poly(gf, *ints):
    """Build a GF-polynomial from prime-field integer coefficients."""
    return poly_trim([(c % gf.p,) + (0,) * (gf.k - 1) for c in ints], gf)


def poly_pow(a, e, gf):
    result = (gf.one,)
    for _ in range(e):
        result = poly_mul(result, a, gf)
    return result


# ---------------------------------------------------------------------------
# finite field arithmetic

@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (3, 2), (5, 1)])
def test_field_axioms_exhaustive(p, k):
    gf = GF(p, k)
    elems = list(gf.elements())
    assert len(elems) == p**k
    for a, b in itertools.product(elems, repeat=2):
        assert gf.mul(a, b) == gf.mul(b, a)
        assert gf_add(gf, a, b) == gf_add(gf, b, a)
    for a, b, c in itertools.product(elems[:5], repeat=3):
        assert gf.mul(a, gf.mul(b, c)) == gf.mul(gf.mul(a, b), c)
        assert gf.mul(a, gf_add(gf, b, c)) == gf_add(gf, gf.mul(a, b), gf.mul(a, c))
    for a in elems:
        if a != gf.zero:
            assert gf.mul(a, gf.inv(a)) == gf.one


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (5, 1)])
def test_frobenius_and_pth_root(p, k):
    gf = GF(p, k)
    for a, b in itertools.product(gf.elements(), repeat=2):
        assert gf.pow(gf_add(gf, a, b), p) == gf_add(gf, gf.pow(a, p), gf.pow(b, p))
    images = {gf.pow(a, p) for a in gf.elements()}
    assert len(images) == p**k  # Frobenius is bijective
    for a in gf.elements():
        assert gf.pow(pth_root(gf, a), p) == a


def test_wp_cosets():
    gf = GF(2, 2)  # F_4: the image of y^2 - y is the prime field
    assert wp_image(gf) == {gf.zero, gf.one}
    assert len(gf.coset_reps) == 2
    for a in gf.elements():
        assert gf.sub(a, coset_rep(gf, a)) in wp_image(gf)


# ---------------------------------------------------------------------------
# irreducible polynomials

def test_irreducibles_q2():
    gf = GF(2, 1)
    up2 = irreducibles_up_to(gf, 2)
    assert set(up2) == {
        as_poly(gf, 0, 1), as_poly(gf, 1, 1), as_poly(gf, 1, 1, 1)
    }
    up3 = irreducibles_up_to(gf, 3)
    assert set(up3) - set(up2) == {
        as_poly(gf, 1, 1, 0, 1), as_poly(gf, 1, 0, 1, 1)
    }


def test_irreducibles_q3_linear():
    gf = GF(3, 1)
    assert set(irreducibles_up_to(gf, 1)) == {
        as_poly(gf, 0, 1), as_poly(gf, 1, 1), as_poly(gf, 2, 1)
    }


@pytest.mark.parametrize("q,p,k", [(2, 2, 1), (3, 3, 1), (4, 2, 2)])
def test_irreducible_counts_match_place_counts(q, p, k):
    gf = GF(p, k)
    model = rational_field(q, p)
    polys = irreducibles_up_to(gf, 5)
    by_degree = [sum(1 for f in polys if len(f) - 1 == d) for d in range(1, 6)]
    b = model.place_counts(5)
    assert by_degree[0] == b[0] - 1  # the infinite place is not a polynomial
    assert by_degree[1:] == b[1:]


@pytest.mark.parametrize("p,k,modulus", [
    (2, 2, (1, 1, 1)), (2, 3, (1, 0, 1, 1)), (2, 4, (1, 0, 0, 1, 1)),
    (3, 2, (1, 0, 1)), (3, 3, (1, 0, 2, 1)), (5, 2, (1, 1, 1)), (7, 2, (1, 0, 1)),
    (3, 7, (1, 0, 0, 0, 0, 1, 2, 1)), (2, 11, (1,) + (0,) * 8 + (1, 0, 1)),
])
def test_modulus_is_the_first_monic_irreducible(p, k, modulus):
    # the modulus fixes how field elements, and so place labels, are written
    assert GF(p, k).modulus == modulus


# ---------------------------------------------------------------------------
# normal forms and conductors

def test_rep_conductor_examples():
    gf = GF(2, 1)
    one = as_poly(gf, 1)
    x = as_poly(gf, 0, 1)
    zero = ASRep(gf.zero, (), ())
    rep = normalize_rational(gf, one, x)  # 1/x
    assert rep_conductor(rep) == DivisorModule.from_entries({Place(1, "0,1"): 2})
    rep = normalize_rational(gf, as_poly(gf, 0, 0, 0, 1), one)  # x^3
    assert rep_conductor(rep) == DivisorModule.from_entries({Place(1, "inf"): 4})
    rep = normalize_rational(gf, one, one)  # the constant class
    assert rep_conductor(rep) == DivisorModule.trivial()
    assert rep != zero
    assert normalize_rational(gf, (), one) == zero


def test_normalization_strips_p_divisible_indices():
    gf = GF(2, 1)
    one = as_poly(gf, 1)
    # 1/x^2 = (1/x)^2 is wp-equivalent to 1/x
    assert normalize_rational(gf, one, as_poly(gf, 0, 0, 1)) == \
        normalize_rational(gf, one, as_poly(gf, 0, 1))
    # x^4 is wp-equivalent to x (take the square root twice)
    assert normalize_rational(gf, as_poly(gf, 0, 0, 0, 0, 1), one) == \
        normalize_rational(gf, as_poly(gf, 0, 1), one)
    # x^4 + x^2 = wp(x^2) is wp-equivalent to zero
    assert normalize_rational(gf, as_poly(gf, 0, 0, 1, 0, 1), one) == \
        ASRep(gf.zero, (), ())


def _random_poly(gf, rng, max_degree):
    degree = rng.randint(0, max_degree)
    coeffs = [
        tuple(rng.randrange(gf.p) for _ in range(gf.k))
        for _ in range(degree + 1)
    ]
    return poly_trim(coeffs, gf)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2)])
def test_normalization_invariant_under_wp_shift(p, k):
    gf = GF(p, k)
    rng = random.Random(97 + 10 * p + k)
    one = as_poly(gf, 1)
    for _ in range(25):
        num = _random_poly(gf, rng, 4)
        den = _random_poly(gf, rng, 3) or one
        g_num = _random_poly(gf, rng, 2)
        g_den = _random_poly(gf, rng, 2) or one
        # wp(g) = g^p - g = (g_num^p - g_num g_den^{p-1}) / g_den^p
        shift_num = poly_add(
            poly_pow(g_num, p, gf),
            poly_neg(poly_mul(g_num, poly_pow(g_den, p - 1, gf), gf), gf),
            gf,
        )
        shift_den = poly_pow(g_den, p, gf)
        total_num = poly_add(
            poly_mul(num, shift_den, gf), poly_mul(shift_num, den, gf), gf
        )
        total_den = poly_mul(den, shift_den, gf)
        assert normalize_rational(gf, total_num, total_den) == \
            normalize_rational(gf, num, den)


def test_normalization_idempotent_via_reconstruction():
    # normalizing the rational function rebuilt from a normal form gives
    # back the same normal form
    gf = GF(3, 1)
    x = as_poly(gf, 0, 1)
    num = as_poly(gf, 1, 2, 0, 1)
    den = poly_mul(poly_mul(x, x, gf), as_poly(gf, 1, 1), gf)
    rep = normalize_rational(gf, num, den)
    assert rep.finite  # the example genuinely has finite poles
    num_acc = poly_trim([rep.constant], gf)
    for j, c in rep.infinity:
        num_acc = poly_add(num_acc, poly_trim([gf.zero] * j + [c], gf), gf)
    den_acc = as_poly(gf, 1)
    for poly, block in rep.finite:
        for j, h in block:
            power = poly_pow(poly, j, gf)
            num_acc = poly_add(
                poly_mul(num_acc, power, gf), poly_mul(h, den_acc, gf), gf
            )
            den_acc = poly_mul(den_acc, power, gf)
    assert normalize_rational(gf, num_acc, den_acc) == rep


def test_scaling_preserves_conductor():
    gf = GF(5, 1)
    rep = normalize_rational(gf, as_poly(gf, 3, 1), as_poly(gf, 0, 2, 0, 1))
    for c in range(1, 5):
        assert rep_conductor(scale_rep(rep, c, gf)) == rep_conductor(rep)
    assert scale_rep(rep, 0, gf) == ASRep(gf.zero, (), ())


# ---------------------------------------------------------------------------
# enumeration and the census

def test_enumerate_classes_small():
    assert len(enumerate_classes(GF(2, 1), 0)) == 1
    assert len(enumerate_classes(GF(2, 1), 2)) == 7
    assert len(enumerate_classes(GF(2, 2), 0)) == 1


@pytest.mark.parametrize(
    "p,k,bound", [(3, 1, 8), (2, 2, 6), (5, 1, 4), (2, 1, 10)]
)
def test_enumerate_classes_are_distinct_and_match_the_series(p, k, bound):
    # each C_p-extension is the F_p^* orbit of p - 1 nonzero classes
    classes = enumerate_classes(GF(p, k), bound)
    assert len(set(classes)) == len(classes)
    series = conductor_series(
        rational_field(p**k, p), subgroup_count_poly(p, 1), bound
    )
    assert len(classes) == (p - 1) * sum(int(c) for c in series.coeffs)


@pytest.mark.parametrize("p", [2, 3])
def test_enumerate_classes_below_degree_two_places(p):
    # at bound 3 no degree-2 place fits, and a class holds one pole of order
    # <= 2 at infinity or at one degree-1 place; the walk stops early at
    # every such class, and must still emit each of them
    gf = GF(p, 1)
    nums = [as_poly(gf, *c) for c in itertools.product(range(p), repeat=3)]
    dens = [as_poly(gf, 1)] + [
        poly_pow(as_poly(gf, -a, 1), 2, gf) for a in range(p)
    ]
    expected = {normalize_rational(gf, num, den) for num in nums for den in dens}
    expected.discard(ASRep(gf.zero, (), ()))
    assert set(enumerate_classes(gf, 3)) == expected


def test_enumerate_classes_leaves_no_reference_cycle():
    # without the cyclic collector, the classes must die with the list
    gc.disable()
    try:
        classes = enumerate_classes(GF(3, 1), 4)
        first = weakref.ref(classes[0])
        del classes
        assert first() is None
    finally:
        gc.enable()


def test_enumerate_classes_matches_exhaustive_rationals():
    # every class with support in {x, x+1, inf} and pole orders <= 1,
    # generated independently from raw rational functions
    gf = GF(2, 1)
    x = as_poly(gf, 0, 1)
    x1 = as_poly(gf, 1, 1)
    seen = set()
    dens = [as_poly(gf, 1), x, x1, poly_mul(x, x1, gf),
            poly_mul(x, x, gf), poly_mul(x1, x1, gf)]
    for den in dens:
        deg = len(den) - 1
        for bits in itertools.product(range(2), repeat=deg + 2):
            num = poly_trim([(b,) for b in bits], gf)
            seen.add(normalize_rational(gf, num, den))
    expected = {
        rep for rep in enumerate_classes(gf, 6)
        if all(j <= 1 for _, block in rep.finite for j, _ in block)
        and all(j <= 1 for j, _ in rep.infinity)
        and {pl.index for pl, _ in rep_conductor(rep).entries}
        <= {"0,1", "1,1", "inf"}
    }
    assert len(expected) == 15  # c + a x + b/x + d/(x+1), not all zero
    assert seen - {ASRep(gf.zero, (), ())} == expected


def test_budget_exceeded():
    with pytest.raises(BudgetExceededError):
        enumerate_classes(GF(2, 1), 8, budget=10)
    with pytest.raises(BudgetExceededError):
        oracle_counts(2, 2, 1, 8, budget=10)
    with pytest.raises(BudgetExceededError):
        oracle_counts(2, 2, 2, 6, budget=100)


def test_census_streams_its_classes():
    # (3, 3, 1, 8) has 37,178 classes, which would take 4.1 MB held in a
    # list; the tally keeps one entry per conductor
    oracle_counts(3, 3, 1, 8)
    tracemalloc.start()
    try:
        oracle_counts(3, 3, 1, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_walk_state_does_not_grow_with_its_tables():
    # at (GF(2), 20) the walk has 227 places, and the block table at
    # infinity alone holds 1,023 entries; it keeps one child generator per
    # depth, so walking all 1,048,576 partial classes costs little more
    # than building its tables
    tracemalloc.start()
    try:
        places = census_places(GF(2, 1), 20)
        for _ in iter_partial_classes(places, 20):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


@pytest.mark.parametrize("p,k,bound", [(3, 1, 6), (2, 2, 4)])
def test_classes_of_a_partial_class_come_together(p, k, bound):
    # each partial class expands to one run of classes that share its
    # blocks, of p classes, or p - 1 for the empty partial class, which has
    # no zero
    gf = GF(p, k)
    runs = [
        (partial, [rep.constant for rep in group])
        for partial, group in itertools.groupby(
            enumerate_classes(gf, bound),
            key=lambda rep: (rep.infinity, rep.finite),
        )
    ]
    partials = [partial for partial, _ in runs]
    assert len(set(partials)) == len(partials) > 1
    for partial, constants in runs:
        skip = 1 if partial == ((), ()) else 0
        assert constants == list(gf.coset_reps[skip:])


@pytest.mark.parametrize("p,k,bound", [(3, 1, 6), (2, 2, 4), (2, 1, 8), (5, 1, 4)])
def test_walk_conductor_matches_the_class_conductor(p, k, bound):
    # the census reads each partial class's conductor off the walk; the
    # reference is rep_conductor, which rebuilds it from the blocks
    gf = GF(p, k)
    places = census_places(gf, bound)
    partials = list(iter_partial_classes(places, bound))
    assert len(partials) > 1
    for inf, fin, cond in partials:
        assert cond_module(places, cond) == rep_conductor(ASRep(gf.zero, inf, fin))


def reference_walk(places, bound):
    """The walk order of the oracle module docstring as a plain recursive
    generator: a partial class, then the walk of each child, the children
    from the last place down to the one after the last block's place and,
    at each place, its blocks in table order while they fit."""

    def walk(inf, fin, cond, remaining, lo):
        yield inf, fin, cond
        for i in range(len(places) - 1, lo - 1, -1):
            poly, _, blocks = places[i]
            for block, degree in blocks:
                if degree <= remaining:
                    yield from walk(
                        inf if i else block,
                        fin + ((poly, block),) if i else fin,
                        cond + ((i, block[-1][0] + 1),),
                        remaining - degree,
                        i + 1,
                    )

    return walk((), (), (), bound, 0)


@pytest.mark.parametrize("p,k,bound", [(2, 1, 10), (3, 1, 8), (2, 2, 6), (5, 1, 4)])
def test_walk_order_matches_the_reference(p, k, bound):
    # _coordinates numbers its slots in first-seen order, so the walk order
    # fixes the pivot order and how much budget the r >= 2 census uses
    gf = GF(p, k)
    places = census_places(gf, bound)
    walked = list(iter_partial_classes(places, bound))
    assert len(walked) > 1
    assert walked == list(reference_walk(places, bound))


def test_walk_budget_counts_classes():
    # (GF(3), 6) has 4,130 classes in 1,377 partial classes (the empty
    # one stands for 2 classes, the others for 3)
    gf = GF(3, 1)
    assert len(enumerate_classes(gf, 6, budget=4130)) == 4130
    with pytest.raises(BudgetExceededError):
        enumerate_classes(gf, 6, budget=4129)


def test_place_search_is_within_the_budget():
    # (2, 2, 1, 26) would search all 16,382 monic polynomials of degree
    # <= 13 by trial division, which takes seconds, before its first class
    start = time.monotonic()
    with pytest.raises(BudgetExceededError, match="place search"):
        oracle_counts(2, 2, 1, 26, budget=1000)
    assert time.monotonic() - start < 0.5


# every (q, p, bound) at which a census in this file runs to its end, but
# (2, 2, 20), whose walk takes seconds
CENSUS_SIZES = [
    (2, 2, 4), (2, 2, 5), (2, 2, 6), (2, 2, 7), (2, 2, 8), (3, 3, 3),
    (3, 3, 4), (3, 3, 5), (3, 3, 6), (3, 3, 8), (4, 2, 4), (4, 2, 5),
    (4, 2, 6), (5, 5, 4), (9, 3, 4),
]


@pytest.mark.parametrize("q,p,bound", CENSUS_SIZES)
def test_budget_is_the_exact_class_count(monkeypatch, q, p, bound):
    # the budget check sizes the census from the r = 1 series; the walk must
    # have exactly that many classes, a budget of that many must run, and
    # one less must stop before F_q is built
    series = conductor_series(rational_field(q, p), subgroup_count_poly(p, 1), bound)
    count = (p - 1) * sum(int(c) for c in series.coeffs)
    places = census_places(GF(p, prime_power_exponent(q, p)), bound)
    walk = iter_partial_classes(places, bound)
    assert sum(p if cond else p - 1 for _, _, cond in walk) == count
    oracle_counts(q, p, 1, bound, budget=count)

    def no_field(*args):
        raise AssertionError("F_q built before the budget check")

    monkeypatch.setattr(asdist.oracle, "GF", no_field)
    for r in (1, 2):
        with pytest.raises(BudgetExceededError, match="census"):
            oracle_counts(q, p, r, bound, budget=count - 1)


def test_place_search_is_checked_against_gauss(monkeypatch):
    from asdist.cli import main

    real = asdist.oracle.irreducibles_up_to
    # without its last polynomial the search finds one place too few
    monkeypatch.setattr(
        asdist.oracle, "irreducibles_up_to",
        lambda gf, max_degree: real(gf, max_degree)[:-1],
    )
    with pytest.raises(ConsistencyError, match="Gauss"):
        census_places(GF(2, 1), 6)
    assert main(["oracle", "--q", "2", "--p", "2", "--bound", "6"]) == 3


def test_uneven_orbit_split_is_a_consistency_error(monkeypatch):
    from asdist.cli import main

    real = asdist.oracle.iter_partial_classes
    # dropping one partial class (p = 3 classes) leaves an odd number in
    # its conductor's orbits
    monkeypatch.setattr(
        asdist.oracle, "iter_partial_classes",
        lambda *args: list(real(*args))[:-1],
    )
    with pytest.raises(ConsistencyError):
        oracle_counts(3, 3, 1, 3)
    assert main(["oracle", "--q", "3", "--p", "3", "--bound", "3"]) == 3


def test_class_count_sanity_unit_groups():
    # classes with conductor dividing m form a group of order p |U_m| at
    # genus 0, so 1 + (p-1) sum_{n | m} c_n = p |U_m|
    for q, p in [(2, 2), (3, 3)]:
        counts = oracle_counts(q, p, 1, 5)
        model = rational_field(q, p)
        for module in counts:
            if not module.entries:
                continue
            mults = dict(module.entries)
            classes = 1 + (p - 1) * sum(
                c for m, c in counts.items()
                if all(mult <= mults.get(pl, 0) for pl, mult in m.entries)
            )
            assert classes == p * unit_group_size(model, module)


@pytest.mark.parametrize(
    "q,p,r,bound", [(2, 2, 1, 6), (3, 3, 1, 4), (2, 2, 2, 4)]
)
def test_oracle_counts_match_series(q, p, r, bound):
    model = rational_field(q, p)
    group = subgroup_count_poly(p, r)
    series = conductor_series(model, group, bound)
    got = counts_by_degree(oracle_counts(q, p, r, bound), bound)
    assert got == [int(c) for c in series.coeffs]


@pytest.mark.parametrize("q,p,r,bound", [
    (2, 2, 1, 8), (3, 3, 1, 6), (4, 2, 1, 5), (5, 5, 1, 4), (9, 3, 1, 4),
    (2, 2, 2, 7), (3, 3, 2, 5), (4, 2, 2, 5), (2, 2, 3, 6),
])
def test_census_matches_conductor_count_per_module(q, p, r, bound):
    # per module, not per degree: errors that cancel between the modules
    # of one degree would leave the totals equal
    model = rational_field(q, p)
    group = subgroup_count_poly(p, r)
    counts = oracle_counts(q, p, r, bound)
    assert len({module.degree for module in counts}) < len(counts)
    assert counts == {
        module: conductor_count(model, group, module) for module in counts
    }


def _span_census(q, p, r, bound):
    """The census by its definition: span every r-combination of classes
    with add_reps/scale_rep, drop dependent and repeated spans, and take the
    conductor as the place-wise max over every element of the span."""
    gf = GF(p, {2: 1, 3: 1, 4: 2}[q])
    zero = ASRep(gf.zero, (), ())
    classes = enumerate_classes(gf, bound)
    conductors = {rep: rep_conductor(rep) for rep in classes}
    counts, seen = {}, set()
    for generators in itertools.combinations(classes, r):
        # the generators lie in the span, so their conductors bound its own
        # from below: skip the span when theirs already exceed the bound
        lower = {}
        for rep in generators:
            for place, mult in conductors[rep].entries:
                lower[place] = max(lower.get(place, 0), mult)
        if sum(place.degree * mult for place, mult in lower.items()) > bound:
            continue
        span = set()
        for coeffs in itertools.product(range(p), repeat=r):
            acc = zero
            for c, rep in zip(coeffs, generators):
                acc = add_reps(acc, scale_rep(rep, c, gf), gf)
            span.add(acc)
        span = frozenset(span)
        if len(span) < p**r or span in seen:
            continue
        seen.add(span)
        entries = {}
        for rep in span:
            for place, mult in rep_conductor(rep).entries:
                entries[place] = max(entries.get(place, 0), mult)
        module = DivisorModule.from_entries(entries)
        if module.degree <= bound:
            counts[module] = counts.get(module, 0) + 1
    return counts


@pytest.mark.parametrize(
    "q,p,r,bound", [(2, 2, 2, 5), (3, 3, 2, 3), (2, 2, 3, 4), (4, 2, 2, 4)]
)
def test_census_matches_span_definition(q, p, r, bound):
    expected = _span_census(q, p, r, bound)
    assert expected  # the comparison is not between two empty censuses
    assert oracle_counts(q, p, r, bound) == expected


def test_census_matches_series_at_larger_sizes():
    start = time.monotonic()
    for q, p, r, bound in [(2, 2, 2, 8), (3, 3, 2, 4), (2, 2, 3, 6),
                           (4, 2, 2, 5), (3, 3, 2, 6), (4, 2, 2, 6)]:
        series = conductor_series(
            rational_field(q, p), subgroup_count_poly(p, r), bound
        )
        got = counts_by_degree(oracle_counts(q, p, r, bound), bound)
        assert got == [int(c) for c in series.coeffs]
    assert time.monotonic() - start < 20.0


def test_subspace_walk_budget():
    # the budget covers the classes, so it runs out inside the walk
    budget = 1000
    assert len(enumerate_classes(GF(2, 1), 7, budget=budget)) < budget
    with pytest.raises(BudgetExceededError):
        oracle_counts(2, 2, 2, 7, budget=budget)


def test_add_and_scale_group_laws():
    gf = GF(3, 1)
    reps = enumerate_classes(gf, 2)
    zero = ASRep(gf.zero, (), ())
    for a in reps[:10]:
        assert add_reps(a, scale_rep(a, 2, gf), gf) == zero
        assert add_reps(a, zero, gf) == a
    for a, b in itertools.product(reps[:8], repeat=2):
        assert add_reps(a, b, gf) == add_reps(b, a, gf)
