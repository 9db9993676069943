"""Seeded workloads of asdist CLI operations, and the checks on their output.

An operation is one `asdist` command line.  The seed sets the order of the
operations and draws inputs from fixed pools.  The pools never change what
an operation computes on: its command, q, p, r, genus and order are fixed,
and the seed draws only the elliptic trace, the conductor module and
`series` against `count` (or `compare` against `oracle`).  `poles` has no
input besides p and r, so it is not drawn.  Every input is valid: genus 0
or 1, a class-group p-torsion order consistent with the L-polynomial, and
modules that fit the field's place counts.

Every output is checked, either against the count in `reference` (made
apart from asdist) or against a property the method must have.  A check
raises `Mismatch` on a wrong output.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import reference

WORKLOADS = ("series", "census", "queries")

# Traces a of the elliptic L-polynomials 1 + a t + q t^2 over F_q; every
# |a| <= 2 sqrt(q) occurs for prime q.  |Cl[p]| is p exactly when p divides
# L(1) = 1 + a + q.
ELLIPTIC = {2: range(-2, 3), 3: range(-3, 4)}

# Order of the partial sums used to fit the asymptotic constant.
FIT_ORDER = 240
# The fitted constant is within this relative error of the printed one.
FIT = 1e-6
# The closed-form and the Tauberian constants agree to this relative error.
AGREEMENT = 1e-6


class Mismatch(Exception):
    """An operation printed a wrong result."""


@dataclass(frozen=True)
class Field:
    q: int
    p: int
    l_poly: tuple = (1,)
    clp_order: int = 1

    def flags(self) -> list:
        out = ["--q", str(self.q), "--p", str(self.p)]
        if len(self.l_poly) > 1:
            out += ["--genus", "1", "--l-poly", ",".join(map(str, self.l_poly)),
                    "--clp-order", str(self.clp_order)]
        return out

    def reference(self) -> reference.Model:
        return reference.Model(self.q, self.p, self.l_poly, self.clp_order)


def elliptic(q: int, a: int) -> Field:
    p = q  # the pools use prime q only
    return Field(q, p, (1, a, q), p if (1 + a + q) % p == 0 else 1)


def drawn_elliptic(rng: random.Random, q: int) -> Field:
    return elliptic(q, rng.choice(ELLIPTIC[q]))


@dataclass
class Op:
    """One CLI call: `argv` without `--format json`, and what to expect."""

    kind: str
    argv: list
    expect: dict = field(default_factory=dict)


class References:
    """Reference series per (field, r), extended on demand and shared."""

    def __init__(self):
        self._series: dict = {}

    def series(self, fld: Field, r: int, order: int) -> list:
        key = (fld, r)
        have = self._series.get(key)
        if have is None or len(have) <= order:
            have = fld.reference().series(r, order)
            self._series[key] = have
        return have[: order + 1]


# ---------------------------------------------------------------------------
# operations

def series_op(refs: References, kind: str, fld: Field, r: int, order: int) -> Op:
    values = refs.series(fld, r, order)
    if kind == "count":
        values = reference.partial_sums(values)
    argv = [kind] + fld.flags() + ["--r", str(r), "--order", str(order)]
    return Op(kind, argv, {"data": values})


def census_op(refs: References, kind: str, q: int, p: int, r: int, bound: int) -> Op:
    argv = [kind, "--q", str(q), "--p", str(p), "--r", str(r), "--bound", str(bound)]
    return Op(kind, argv, {"data": refs.series(Field(q, p), r, bound)})


def conductor_op(rng: random.Random, fld: Field, r: int) -> Op:
    model = fld.reference()
    counts = model.place_counts(3)
    used = [0, 0, 0]
    terms = []
    for _ in range(rng.randint(1, 4)):
        d = rng.randint(1, 3)
        if used[d - 1] < counts[d - 1]:
            used[d - 1] += 1
            terms.append((d, rng.randint(1, 6)))
    text = ",".join(f"{d}.{chr(97 + i)}^{n}" for i, (d, n) in enumerate(terms)) or "1"
    argv = ["conductor"] + fld.flags() + ["--r", str(r), "--module", text]
    return Op("conductor", argv, {
        "count": model.module_count(r, terms),
        "degree": sum(d * n for d, n in terms),
    })


def poles_op(p: int, r: int) -> Op:
    return Op("poles", ["poles", "--q", str(p), "--p", str(p), "--r", str(r)],
              {"p": p, "r": r})


def disc_op(refs: References, fld: Field, r: int, order: int) -> Op:
    p = fld.p
    table = None
    if r == 1:
        sums = reference.partial_sums(refs.series(fld, r, order // (p - 1)))
        table = [sums[n // (p - 1)] for n in range(order + 1)]
    argv = ["disc"] + fld.flags() + ["--r", str(r), "--order", str(order)]
    return Op("disc", argv, {"p": p, "r": r, "z_table": table})


def constant_op(refs: References, fld: Field, r: int) -> Op:
    argv = ["constant"] + fld.flags() + ["--r", str(r)]
    sums = reference.partial_sums(refs.series(fld, r, FIT_ORDER))
    return Op("constant", argv, {"p": fld.p, "q": fld.q, "r": r, "sums": sums})


# ---------------------------------------------------------------------------
# workloads

def build(name: str, seed: int) -> list:
    """The operations of one pass of workload `name`, in seeded order."""
    refs = References()
    rng = random.Random(f"{name}:{seed}")
    if name == "series":
        ops = [
            series_op(refs, rng.choice(("series", "count")), fld, r, order)
            for fld, r, order in [
                (Field(2, 2), 1, 320),
                (Field(3, 3), 2, 160),
                (Field(2, 2), 3, 120),
                (Field(4, 2), 2, 120),
                (Field(5, 5), 1, 100),
                (elliptic(2, rng.choice((-1, 1))), 1, 160),  # clp_order 2
            ]
        ]
    elif name == "census":
        ops = [
            census_op(refs, rng.choice(("compare", "oracle")), *config)
            for config in [
                (2, 2, 1, 10), (4, 2, 1, 6), (3, 3, 1, 8), (5, 5, 1, 4),
                (2, 2, 2, 7), (3, 3, 2, 3), (2, 2, 3, 4),
            ]
        ]
    elif name == "queries":
        ops = [constant_op(refs, fld, r) for fld, r in [
            (Field(2, 2), 2), (Field(3, 3), 1), (Field(3, 3), 2), (Field(5, 5), 1),
            (drawn_elliptic(rng, 3), 1),
        ]]
        ops.append(poles_op(5, 1))
        ops.append(conductor_op(rng, Field(2, 2), 1))
        ops.append(conductor_op(rng, drawn_elliptic(rng, 3), 2))
        ops.append(disc_op(refs, drawn_elliptic(rng, 3), 1, 20))
        ops += [series_op(refs, rng.choice(("series", "count")), fld, r, 20)
                for fld, r in [(Field(4, 2), 2), (drawn_elliptic(rng, 2), 1)]]
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# checks

def _number(value) -> Fraction:
    """A JSON number, or a string holding a fraction or a decimal."""
    return Fraction(value) if isinstance(value, int) else Fraction(str(value))


def _expect(ok: bool, what: str):
    if not ok:
        raise Mismatch(what)


def check(op: Op, payload: dict):
    """Raise Mismatch unless `payload` (the parsed JSON output) is right."""
    _expect(payload.get("command") == op.kind, f"command {payload.get('command')!r}")
    data = payload["data"]
    ex = op.expect
    if op.kind in ("series", "count", "oracle"):
        _expect(data == ex["data"], f"{op.kind} values differ from the reference count")
    elif op.kind == "compare":
        rows = [(row["degree"], row["series"], row["oracle"]) for row in data]
        _expect(rows == [(n, c, c) for n, c in enumerate(ex["data"])],
                "compare rows differ from the reference count")
        _expect(payload["meta"]["mismatches"] == 0, "compare reports mismatches")
    elif op.kind == "conductor":
        (row,) = data
        _expect(row["count"] == ex["count"],
                f"conductor count {row['count']} != reference {ex['count']}")
        _expect(row["degree"] == ex["degree"], "module degree")
    elif op.kind == "poles":
        _check_poles(ex["p"], ex["r"], data[0])
    elif op.kind == "disc":
        _check_disc(ex, data[0])
    elif op.kind == "constant":
        _check_constant(ex, data[0])
    else:
        raise ValueError(f"no check for {op.kind!r}")


def _leading_poles(p: int, r: int):
    """zeta(l s - (l-1) r), l = 2..p, has its pole at s = (1 + (l-1) r)/l; the
    abscissa is the largest of these and every l reaching it adds one to the
    pole order and l equally spaced poles on the critical circle."""
    where = {l: Fraction(1 + (l - 1) * r, l) for l in range(2, p + 1)}
    abscissa = max(where.values())
    top = [l for l, s in where.items() if s == abscissa]
    return abscissa, len(top), math.lcm(*top)


def _check_poles(p: int, r: int, row: dict):
    abscissa, order, count = _leading_poles(p, r)
    _expect(_number(row["abscissa"]) == abscissa, f"abscissa {row['abscissa']}")
    _expect(row["log_order"] == order, f"pole order {row['log_order']}")
    _expect(row["progression"] == count, f"progression {row['progression']}")
    angles = [_number(a) for a in row["pole_angles"]]
    _expect(angles == [Fraction(j, count) for j in range(count)], "pole angles")
    _expect([_number(a) for a in row["max_order_angles"]] == [0], "max-order angles")


def _check_disc(ex: dict, row: dict):
    p, r = ex["p"], ex["r"]
    lower = Fraction(1 + (p - 1) * r, p * (p**r - 1))
    malle = Fraction(p, p**r * (p - 1))
    upper = Fraction(1 + (p - 1) * r, p * (p**r - p ** (r - 1)))
    _expect(_number(row["lower_exponent"]) == lower, "lower exponent")
    _expect(_number(row["malle_exponent"]) == malle, "tame exponent")
    _expect(_number(row["upper_exponent"]) == upper, "upper exponent")
    equal = r == 1 or (p, r) == (2, 2)
    _expect(equal == (lower == malle) and lower >= malle, "exponent inequality")
    _expect(row["comparison"] == ("equal" if equal else "greater"), "comparison")
    _expect(row["z_table"] == ex["z_table"], "discriminant table")


def _fitted_constant(ex: dict) -> float:
    """The constant C of S(n) ~ C X^a (log X)^(b-1), X = q^n, fitted to the
    reference partial sums S(n).  a is the abscissa and b the pole order.

    On n = 0 mod h, h the progression, S(n) / q^(a n) is a polynomial in n
    of degree b - 1 with leading coefficient C (log q)^(b-1), up to terms
    that shrink geometrically; a n is then an integer.  Its (b-1)-th
    difference over b such n, h apart, is exact: (b-1)! h^(b-1) times that
    coefficient."""
    q = ex["q"]
    abscissa, order, step = _leading_poles(ex["p"], ex["r"])
    top = FIT_ORDER - FIT_ORDER % step
    points = [top - step * i for i in reversed(range(order))]
    diffs = [Fraction(ex["sums"][n], q ** int(abscissa * n)) for n in points]
    for _ in range(order - 1):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    (leading,) = diffs
    scale = math.factorial(order - 1) * (step * math.log(q)) ** (order - 1)
    return float(leading) / scale


def _check_constant(ex: dict, row: dict):
    p, r = ex["p"], ex["r"]
    _, order, _ = _leading_poles(p, r)
    _expect(row["log_order"] == order, f"log order {row['log_order']}")
    constants = [_number(row["tauberian"])]
    if "closed_form" in row:
        closed = _number(row["closed_form"])
        _expect(abs(constants[0] - closed) <= AGREEMENT * abs(closed),
                "closed-form and Tauberian constants disagree")
        constants.append(closed)
    else:
        _expect(p != 2 and r != 1, "closed form missing where it exists")
    fitted = _fitted_constant(ex)
    for c in constants:
        _expect(abs(float(c) / fitted - 1) <= FIT,
                f"constant {float(c)} against {fitted} fitted to the reference")
