"""Brute-force census of elementary abelian p-extensions of F_q(x).

Classes of the quotient F_q(x) / (y^p - y applied to F_q(x)) are stored in a
canonical partial-fraction normal form whose denominators only carry indices
coprime to p.  Extensions with group C_p^r correspond to r-dimensional
F_p-subspaces of that quotient, and the conductor of a subspace is the
place-wise maximum over its nonzero elements.  Everything here is exhaustive
enumeration over one concrete finite field; it exists to cross-check the
analytic counts on small inputs.

The classes are built by one depth-first walk, iter_partial_classes, over
partial classes (the blocks taken so far, without the constant) and the
places in normal-form order, which is nondecreasing in degree.  A
nonempty local block at a place of degree d has conductor degree at least
2d, so once the conductor degree left under the bound falls below 2d no
block fits there or at any later place, and the partial class has no
children.  The local blocks depend only on the kind of place (infinity or
finite) and its degree, so each kind and degree gets one table of blocks up
to the bound, sorted by conductor degree; a place walks a prefix of its
table, and classes share the block tuples.

The walk is depth first: starting from the empty partial class, it yields
a partial class and then walks each of its children in turn.  A child adds
one block at a place after the place of the parent's last block.  The
children come place by place, from the last place in the list down to the
first such place, and at each place its blocks in table order while their
conductor degree fits what is left under the bound.  The walk keeps a
stack of child generators, one per depth, and a partial class with no
place left that fits gets none, so its state grows with the number of
blocks in a class, not with the tables.  It yields each partial class once
with its conductor as ((place index, top j + 1), ...); the partial class
stands for p classes, one per constant (p - 1 for the empty one, which
leaves out zero).
Both census paths read the conductor off the walk: for r = 1 one Counter
tallies the conductors, each partial class counting p classes (p - 1 for
the empty one), and for r >= 2 the census keeps one coordinate vector per
class whose pivot coefficient is 1 (below).  No list of classes exists: at
(q, p, r, bound) = (3, 3, 1, 8) the walk stands for 37,178 classes, and
the census peaks at 0.17 MB (tracemalloc).  The place list (each place's
polynomial, its Place and its block table) is built once per census by a
sieve over the monic polynomials of degree <= bound // 2,
irreducibles_up_to, whose first irreducible of degree k over F_p is also
F_q's modulus, so the field only adds and multiplies.  The number of
places it finds of each degree d must be b_d of Gauss's formula
(FieldModel.place_counts), infinity being one of b_1, or the census raises
ConsistencyError.

The budget is checked once, before the census builds F_q, the places or
the tables, against the exact number of nonzero classes of conductor
degree <= bound.  Each C_p-extension is a line of p - 1 nonzero classes
that share one conductor, so that number is p - 1 times the r = 1 counting
function at the bound.  No count the census reports comes from a formula;
the r = 1 series only sizes the budget.  A free first test comes before
the series: a place of degree d alone gives (q^d - 1) p >= q^d classes of
conductor degree 2d, so there are at least as many classes as monic
polynomials of degree <= bound // 2, and a budget below their number
refuses at once.  That caps the bound near 2 log_q(budget) before a series
of order bound is built.  Below bound 2 only the constants fit, and F_q is
not built at all; from bound 2 on the class count keeps q below about
sqrt(budget).

The normal form is F_p-linear in fixed slots: the constant i*unit gives one
coordinate i, a term a_j x^j gives the F_p-components of a_j, and a fraction
h/P^j the components of each coefficient of h.  Adding classes adds these
coordinates, and a class's conductor at a place is its top index j there,
plus one.  For r >= 2 the census encodes each partial class once as a
sparse coordinate vector v, whose classes are v + i e_0 (the constant is
slot 0), and walks reduced row-echelon bases depth first: the
pivot (lowest nonzero slot) of each basis vector has coefficient 1, pivots
increase, and every basis vector is zero at the other pivots.  Each
subspace has exactly one such basis, and all its elements are enumerated
classes when its conductor fits the bound, so the walk visits it exactly
once.  A slot is nonzero somewhere in a span iff it is nonzero in some basis
vector, so the subspace conductor is the place-wise max over the basis; it
only grows as vectors are added, which prunes the walk.

Few conductors occur among many vectors: at (3, 3, 2, 7), 4,009 vectors
carry 107 distinct conductors.  So each step of the walk groups its
candidates by the conductor they carry, computes the join of two
conductors once (cached), skips a group whose join with the current
conductor exceeds the bound whole, and runs the pivot test on single
vectors only in the groups that fit.  The budget counts those vectors:
318,300 at (3, 3, 2, 7), of its 8.0 M candidate pairs.
"""
from __future__ import annotations

import bisect
import collections
import functools
import itertools
from dataclasses import dataclass

from .counting import DivisorModule, Place, subgroup_count_poly
from .dirichlet import counting_function
from .errors import BudgetExceededError, ConsistencyError, ModelError
from .field import prime_power_exponent, rational_field

DEFAULT_BUDGET = 10**7


# ---------------------------------------------------------------------------
# the constant field F_q = F_p[z] / modulus; elements are coefficient tuples

class GF:
    def __init__(self, p: int, k: int = 1):
        self.p, self.k, self.q = p, k, p**k
        self.zero = (0,) * k
        self.one = tuple([1] + [0] * (k - 1))
        self.modulus = self._find_modulus()
        self._mul_table: dict = {}

    @functools.cached_property
    def coset_reps(self):
        # coset representatives of F_q / image are the F_p-multiples of one
        # fixed non-image element, so scaling keeps representatives canonical
        image = frozenset(self.sub(self.pow(a, self.p), a) for a in self.elements())
        unit = next(a for a in self.elements() if a not in image)
        return tuple(self.scalar_mul(i, unit) for i in range(self.p))

    # -- modulus: the first monic irreducible of degree k over F_p ---------
    def _find_modulus(self):
        if self.k == 1:  # F_p, over which the search below runs
            return (0, 1)
        poly = next(
            f for f in irreducibles_up_to(GF(self.p), self.k) if len(f) == self.k + 1
        )
        return tuple(c[0] for c in poly)

    # -- element arithmetic ------------------------------------------------
    def elements(self):
        for tup in itertools.product(range(self.p), repeat=self.k):
            yield tup

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def scalar_mul(self, c: int, a):
        return tuple(c * x % self.p for x in a)

    def mul(self, a, b):
        key = (a, b)
        hit = self._mul_table.get(key)
        if hit is not None:
            return hit
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] = (prod[i + j] + x * y) % p
        for top in range(2 * k - 2, k - 1, -1):
            c = prod[top]
            if c:
                prod[top] = 0
                for j in range(k):
                    prod[top - k + j] = (prod[top - k + j] - c * self.modulus[j]) % p
        out = tuple(prod[:k])
        self._mul_table[key] = out
        return out

    def pow(self, a, e: int):
        result, base = self.one, a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result


# ---------------------------------------------------------------------------
# polynomials over GF: trimmed ascending tuples of elements; zero is ()

def poly_trim(poly, gf):
    poly = list(poly)
    while poly and poly[-1] == gf.zero:
        poly.pop()
    return tuple(poly)


def poly_mul(a, b, gf):
    """The product of two nonzero polynomials over GF."""
    out = [gf.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x != gf.zero:
            for j, y in enumerate(b):
                out[i + j] = gf.add(out[i + j], gf.mul(x, y))
    return tuple(out)


def monic_polys(gf, degree: int):
    for tail in itertools.product(gf.elements(), repeat=degree):
        yield poly_trim(list(tail) + [gf.one], gf)


def irreducibles_up_to(gf, max_degree: int) -> list:
    """Monic irreducible polynomials of degree 1..max_degree, by degree and
    then in monic_polys order, by a sieve: a reducible monic polynomial of
    degree d is f g with f irreducible of degree e <= d / 2 and g monic of
    degree d - e."""
    found: list = []
    for d in range(1, max_degree + 1):
        reducible = {
            poly_mul(f, g, gf)
            for f in found if 2 * (len(f) - 1) <= d
            for g in monic_polys(gf, d - len(f) + 1)
        }
        found += [f for f in monic_polys(gf, d) if f not in reducible]
    return found


# ---------------------------------------------------------------------------
# Artin-Schreier normal forms

def _place_key(poly) -> str:
    return ",".join("".join(str(x) for x in c) for c in poly)


@dataclass(frozen=True)
class ASRep:
    """A class of F_q(x) modulo y^p - y images, in normal form: a canonical
    constant, polynomial terms a_j x^j, and proper partial fractions h/P^j,
    all with j coprime to p."""

    # by hand, since dataclass(slots=True) cannot add __weakref__ before 3.11
    __slots__ = ("constant", "infinity", "finite", "__weakref__")

    constant: tuple  # GF element, always one of gf.coset_reps
    infinity: tuple  # ((j, coeff), ...) ascending, j >= 1
    finite: tuple  # ((P, ((j, h), ...)), ...) sorted by (deg P, P)


# ---------------------------------------------------------------------------
# exhaustive enumeration

def _local_blocks(payloads, degree: int, bound: int, p: int) -> list:
    """All nonempty local blocks ((j, payload), ...) ascending in j at a
    place of the given degree whose conductor degree is <= bound, as
    (block, conductor_degree) in nondecreasing conductor degree."""
    out = []
    for j_top in range(1, bound // degree):
        if j_top % p == 0:
            continue
        smaller = [j for j in range(1, j_top) if j % p]
        for top_payload in payloads[1:]:
            for rest in itertools.product(payloads, repeat=len(smaller)):
                block = tuple(
                    (j, payload) for j, payload in zip(smaller, rest)
                    if payload != payloads[0]
                )
                out.append((block + ((j_top, top_payload),), degree * (j_top + 1)))
    return out


def census_places(gf, bound: int) -> list:
    """(polynomial, Place, block table) of each place a class of conductor
    degree <= bound can use, in normal-form order: infinity (polynomial
    None), then the finite places by (deg P, P)."""
    # the places of one kind and degree share one payload set, hence one
    # block table; the zero payload comes first, as _local_blocks expects
    inf_blocks = _local_blocks(tuple(gf.elements()), 1, bound, gf.p)
    places = [(None, Place(1, "inf"), inf_blocks)]
    tables: dict = {}
    for poly in irreducibles_up_to(gf, bound // 2):
        degree = len(poly) - 1
        if degree not in tables:
            payloads = tuple(
                poly_trim(tail, gf)
                for tail in itertools.product(gf.elements(), repeat=degree)
            )
            tables[degree] = _local_blocks(payloads, degree, bound, gf.p)
        places.append((poly, Place(degree, _place_key(poly)), tables[degree]))
    found = collections.Counter(place.degree for _, place, _ in places)
    expected = rational_field(gf.q, gf.p).place_counts(bound // 2)
    if [found[d] for d in range(1, bound // 2 + 1)] != expected:
        raise ConsistencyError(f"the place search found {sorted(found.items())} "
                               f"places by degree, but Gauss's formula gives "
                               f"{expected} for degrees 1..{bound // 2}")
    return places


def cond_module(places, cond) -> DivisorModule:
    """The conductor ((place index, top j + 1), ...) as a DivisorModule."""
    return DivisorModule.from_entries({places[k][1]: mult for k, mult in cond})


def _children(inf, fin, cond, remaining, lo, places, doubled):
    """The children of one partial class, in walk order, as (inf, fin, cond,
    degree left, lowest place left): its places from the last down, and each
    place's blocks in table order while their conductor degree fits."""
    for i in range(bisect.bisect_right(doubled, remaining, lo) - 1, lo - 1, -1):
        poly, _, blocks = places[i]
        for block, degree in blocks:
            if degree > remaining:
                break
            yield (
                inf if i else block,
                fin + ((poly, block),) if i else fin,
                cond + ((i, block[-1][0] + 1),),
                remaining - degree,
                i + 1,
            )


def iter_partial_classes(places, bound: int):
    """Yield each partial class (a class's blocks, without its constant) of
    conductor degree <= bound once, as (infinity, finite, cond): its ASRep
    fields and its conductor ((index into places, top j + 1), ...).  Its
    classes take each of gf.coset_reps as constant, but zero for the empty
    one."""
    # depth first, one generator of children per depth.  A place of degree
    # d fits while 2 * d <= remaining (see the module docstring); doubled
    # ends in bound + 1, which no degree left reaches, so a child of the
    # last place has no places left and, like every leaf, gets no generator
    doubled = [2 * place.degree for _, place, _ in places] + [bound + 1]
    stack = [iter([((), (), (), bound, 0)])]
    while stack:
        for inf, fin, cond, remaining, lo in stack[-1]:
            yield inf, fin, cond
            if doubled[lo] <= remaining:
                stack.append(_children(inf, fin, cond, remaining, lo, places, doubled))
                break
        else:
            stack.pop()


def _check_budget(model, bound: int, budget: int) -> None:
    """Raise BudgetExceededError unless the nonzero classes of conductor
    degree <= bound over the rational field `model` fit the budget (see
    the module docstring)."""
    polynomials = sum(model.q**d for d in range(1, bound // 2 + 1))
    if polynomials > budget:
        raise BudgetExceededError(f"the place search ({polynomials} polynomials) "
                                  f"exceeds the budget {budget}")
    group = subgroup_count_poly(model.p, 1)
    classes = (model.p - 1) * counting_function(model, group, bound)[-1]
    if classes > budget:
        raise BudgetExceededError(f"the census ({classes} classes) exceeds "
                                  f"the budget {budget}")


def enumerate_classes(gf, bound: int, budget: int = DEFAULT_BUDGET) -> list:
    """Every nonzero normal-form class whose conductor degree is <= bound,
    as a list of ASReps, the classes of each partial class together."""
    _check_budget(rational_field(gf.q, gf.p), bound, budget)
    places = census_places(gf, bound)
    return [
        ASRep(constant, inf, fin)
        for inf, fin, cond in iter_partial_classes(places, bound)
        for constant in (gf.coset_reps if cond else gf.coset_reps[1:])
    ]


def _coordinates(partials):
    """The classes with pivot coefficient 1 as (pivot, {slot id: coeff}, cond),
    in increasing pivot order.  Slot 0 is the constant and the others are
    numbered in first-seen order, which fixes the pivot order.  Of the
    classes v + i e_0 of a partial class v, that leaves i = 1, and i = 0
    when v's own pivot coefficient is 1."""
    slots: dict = {}

    def put(vec, slot, coeff):
        for t, x in enumerate(coeff):
            if x:
                vec[slots.setdefault(slot + (t,), len(slots) + 1)] = x

    out = []
    for inf, fin, cond in partials:
        vec: dict = {}
        for j, c in inf:
            put(vec, ("inf", j), c)
        for poly, block in fin:
            for j, h in block:
                for m, c in enumerate(h):
                    put(vec, (poly, j, m), c)
        if vec and vec[pivot := min(vec)] == 1:
            out.append((pivot, vec, cond))
        out.append((0, {0: 1, **vec}, cond))
    out.sort(key=lambda entry: entry[0])
    return out


def _subspace_census(partials, places, r: int, bound: int, budget: int) -> dict:
    """{DivisorModule: count} of the r-dimensional subspaces with conductor
    degree <= bound, each visited once through its reduced row-echelon
    basis (see the module docstring)."""
    encoded = _coordinates(partials)
    # conductors are interned: ids index `conductors`, and joins[a, b] is the
    # id of the place-wise max of a and b, or None past the bound
    conductors: list = []
    ids: dict = {}
    joins: dict = {}
    counts: dict = {}
    work = 0

    def intern(cond):
        if cond not in ids:
            ids[cond] = len(conductors)
            conductors.append(cond)
        return ids[cond]

    def join(a, b):
        key = (a, b) if a < b else (b, a)
        if key not in joins:
            merged = dict(conductors[a])
            for place, mult in conductors[b]:
                if mult > merged.get(place, 0):
                    merged[place] = mult
            degree = sum(places[k][1].degree * mult for k, mult in merged.items())
            joins[key] = (
                intern(tuple(sorted(merged.items()))) if degree <= bound else None
            )
        return joins[key]

    def extend(depth: int, cands: list):
        # each entry (pivot, vec, conductor id) carries the conductor of the
        # span of the vectors chosen so far together with its own vector.
        # The entries are grouped by conductor, each group's positions in
        # pivot order, so a group whose join with an entry's conductor
        # exceeds the bound is skipped whole (conductors only grow), and
        # the pivot test runs only in the groups that fit
        nonlocal work
        groups: dict = {}
        for pos, cand in enumerate(cands):
            groups.setdefault(cand[2], []).append(pos)
        if depth == r:
            for cond, positions in groups.items():
                counts[cond] = counts.get(cond, 0) + len(positions)
            return
        targets: dict = {}  # conductor id -> [(positions, join id), ...]
        for pos, (pivot, vec, cond) in enumerate(cands):
            if cond not in targets:
                targets[cond] = [
                    (positions, merged) for other, positions in groups.items()
                    if (merged := join(cond, other)) is not None
                ]
            picks = []
            for positions, merged in targets[cond]:
                start = bisect.bisect_right(positions, pos)
                work += len(positions) - start
                if work > budget:
                    raise BudgetExceededError(
                        f"subspace enumeration exceeded the budget {budget}"
                    )
                for other in positions[start:]:
                    other_pivot, other_vec, _ = cands[other]
                    if other_pivot not in vec and pivot not in other_vec:
                        picks.append((other, merged))
            if len(picks) > r - depth - 1:
                picks.sort()
                extend(depth + 1, [
                    (cands[other][0], cands[other][1], merged)
                    for other, merged in picks
                ])

    extend(1, [
        (pivot, vec, intern(cond)) for pivot, vec, cond in encoded
    ])
    return {
        cond_module(places, conductors[cond]): count
        for cond, count in counts.items()
    }


def oracle_counts(
    q: int, p: int, r: int, bound: int, budget: int = DEFAULT_BUDGET
) -> dict:
    """Census of C_p^r-extensions of F_q(x) by conductor, up to conductor
    degree `bound`: returns {DivisorModule: count}."""
    model = rational_field(q, p)  # validates q and p
    subgroup_count_poly(p, r)  # validates r
    if bound < 0:
        raise ModelError(f"conductor degree bound must be >= 0, got {bound}")
    _check_budget(model, bound, budget)
    # below conductor degree 2 no place carries a block, and F_q is not built
    places = census_places(GF(p, prime_power_exponent(q, p)), bound) if bound >= 2 else []
    partials = iter_partial_classes(places, bound)
    if r > 1:
        return _subspace_census(partials, places, r, bound, budget)
    # a partial class stands for p classes, or p - 1 for the empty one
    tally = {
        cond: n * (p if cond else p - 1)
        for cond, n in collections.Counter(cond for _, _, cond in partials).items()
    }
    if any(count % (p - 1) for count in tally.values()):
        raise ConsistencyError(
            "class orbits did not split evenly; enumeration is inconsistent"
        )
    return {cond_module(places, cond): n // (p - 1) for cond, n in tally.items()}


def counts_by_degree(counts: dict, bound: int) -> list:
    """Aggregate a conductor census into counts per conductor degree 0..bound."""
    out = [0] * (bound + 1)
    for module, count in counts.items():
        if module.degree <= bound:
            out[module.degree] += count
    return out
