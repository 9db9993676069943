"""Command-line front-end.

Every computation in the library is reachable through one subcommand.  Output
goes to stdout in one of three formats: human-readable text (default), JSON
with a fixed schema, or TSV.  Exit codes: 0 success, 1 compare mismatch,
2 invalid input, 3 internal consistency failure.
"""
from __future__ import annotations

import argparse
import gc
import json
import sys
from fractions import Fraction

import mpmath

from .counting import DivisorModule, Place, conductor_count, subgroup_count_poly
from .dirichlet import (
    conductor_series,
    counting_function,
    discriminant_view,
    pole_analysis,
)
from .errors import (
    BudgetExceededError,
    ConsistencyError,
    ModelError,
    PrecisionError,
    UnsupportedInputError,
)
from .field import load_model_file, make_field_model, rational_field
from .oracle import DEFAULT_BUDGET, counts_by_degree, oracle_counts
from .tauberian import DEFAULT_PREC_BITS, closed_form_constant, tauberian_constant

# ceilings on --order, --cutoff and --prec-bits, so that a mistyped value
# exits 2 at once instead of running for hours; at its ceiling a command on
# a small field takes seconds (series --q 2 --p 2 --order 2000 about 2 s)
MAX_ORDER = 2000
MAX_CUTOFF = 200
MAX_PREC_BITS = 10_000

_FLOAT_DIGITS = 12


def _jsonable(value):
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else str(value)
    if isinstance(value, (mpmath.mpf, mpmath.mpc)):
        return mpmath.nstr(value, _FLOAT_DIGITS)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def parse_module(text: str) -> DivisorModule:
    """Module syntax: '1' is the trivial module; otherwise comma-separated
    terms 'deg[.index]^mult', e.g. '1^2' or '2.a^3,1.b^2'."""
    text = text.strip()
    if text == "1":
        return DivisorModule.trivial()
    entries: dict = {}
    for pos, term in enumerate(text.split(",")):
        term = term.strip()
        base, _, mult_text = term.partition("^")
        deg_text, _, index = base.partition(".")
        try:
            degree = int(deg_text)
            mult = int(mult_text) if mult_text else 1
        except ValueError as exc:
            raise UnsupportedInputError(f"malformed module term {term!r}") from exc
        place = Place(degree, index if index else f"_{pos}")
        if place in entries:
            raise UnsupportedInputError(f"duplicate place in module: {term!r}")
        entries[place] = mult
    return DivisorModule.from_entries(entries)


def _build_model(args):
    if args.model_file:
        return load_model_file(args.model_file)
    l_poly = None
    if args.l_poly:
        l_poly = [int(x) for x in args.l_poly.split(",")]
    return make_field_model(args.p, args.q, args.genus, l_poly, args.clp_order)


def _emit(args, payload: dict, rows=None, text_lines=None):
    fmt = args.format
    if fmt == "json":
        print(json.dumps(_jsonable(payload), sort_keys=True, separators=(",", ":")))
    elif fmt == "tsv":
        print("n\tvalue")
        for n, value in rows or []:
            print(f"{n}\t{_jsonable(value)}")
    else:
        for line in text_lines or []:
            print(line)


def _base_payload(command, args, model, order=None):
    return {
        "command": command,
        "model": model.describe() if model else None,
        "group": {"p": args.p, "r": args.r},
        "data": [],
        "meta": {
            "order": order,
            "precision_bits": getattr(args, "prec_bits", None),
        },
    }


def cmd_series(args) -> int:
    model = _build_model(args)
    group = subgroup_count_poly(args.p, args.r)
    series = conductor_series(model, group, args.order)
    coeffs = [int(c) for c in series.coeffs]
    payload = _base_payload("series", args, model, args.order)
    payload["data"] = coeffs
    _emit(args, payload, rows=list(enumerate(coeffs)),
          text_lines=["coefficients " + ",".join(str(c) for c in coeffs)])
    return 0


def cmd_count(args) -> int:
    model = _build_model(args)
    group = subgroup_count_poly(args.p, args.r)
    sums = counting_function(model, group, args.order)
    payload = _base_payload("count", args, model, args.order)
    payload["data"] = sums
    _emit(args, payload, rows=list(enumerate(sums)),
          text_lines=["partial sums " + ",".join(str(c) for c in sums)])
    return 0


def cmd_conductor(args) -> int:
    model = _build_model(args)
    group = subgroup_count_poly(args.p, args.r)
    module = parse_module(args.module)
    count = conductor_count(model, group, module)
    payload = _base_payload("conductor", args, model)
    payload["data"] = [{"module": args.module, "degree": module.degree,
                        "count": count}]
    _emit(args, payload, rows=[(module.degree, count)],
          text_lines=[f"conductor {args.module} (degree {module.degree}): "
                      f"{count} extensions"])
    return 0


def cmd_poles(args) -> int:
    subgroup_count_poly(args.p, args.r)  # validates p and r
    report = pole_analysis(args.p, args.r)
    payload = _base_payload("poles", args, None)
    payload["data"] = [{
        "abscissa": report.abscissa,
        "log_order": report.log_order,
        "progression": report.progression,
        "pole_angles": list(report.pole_angles),
        "max_order_angles": list(report.max_order_angles),
    }]
    _emit(args, payload,
          rows=[("abscissa", report.abscissa),
                ("log_order", report.log_order),
                ("progression", report.progression)],
          text_lines=[f"abscissa {report.abscissa}, pole order "
                      f"{report.log_order}, progression {report.progression}"])
    return 0


def cmd_constant(args) -> int:
    # the printed constants carry 15 significant digits
    if args.prec_bits < 53:
        raise ValueError(f"--prec-bits must be >= 53, got {args.prec_bits}")
    model = _build_model(args)
    group = subgroup_count_poly(args.p, args.r)
    closed = None
    try:
        closed = closed_form_constant(model, group, args.cutoff, args.prec_bits)
    except UnsupportedInputError:
        pass
    generic = tauberian_constant(model, group, args.cutoff, args.prec_bits)
    payload = _base_payload("constant", args, model)
    payload["meta"]["degree_cutoff"] = args.cutoff
    entry = {
        "tauberian": generic.constant,
        "log_order": generic.log_order,
        "exponent": generic.exponent,
    }
    lines = []
    if closed is not None:
        delta = abs(generic.constant - closed.constant) / abs(closed.constant)
        entry["closed_form"] = (
            closed.constant_exact
            if closed.constant_exact is not None
            else closed.constant
        )
        entry["delta"] = delta
        lines.append(
            f"closed-form {entry['closed_form']}, tauberian "
            f"{mpmath.nstr(generic.constant, 8)} (delta {mpmath.nstr(delta, 3)})"
        )
    else:
        lines.append(
            f"tauberian {mpmath.nstr(generic.constant, 8)} "
            "(no closed form for this group)"
        )
    payload["data"] = [entry]
    _emit(args, payload,
          rows=[(k, v) for k, v in entry.items()], text_lines=lines)
    return 0


def cmd_oracle(args) -> int:
    counts = oracle_counts(args.q, args.p, args.r, args.bound, args.budget)
    table = counts_by_degree(counts, args.bound)
    payload = _base_payload("oracle", args, None, args.bound)
    payload["model"] = {"p": args.p, "q": args.q, "genus": 0}
    payload["data"] = table
    _emit(args, payload, rows=list(enumerate(table)),
          text_lines=["oracle counts " + ",".join(str(c) for c in table)])
    return 0


def cmd_compare(args) -> int:
    model = rational_field(args.q, args.p)
    group = subgroup_count_poly(args.p, args.r)
    series = conductor_series(model, group, args.bound)
    expected = [int(c) for c in series.coeffs]
    counts = oracle_counts(args.q, args.p, args.r, args.bound, args.budget)
    actual = counts_by_degree(counts, args.bound)
    mismatches = [
        (n, expected[n], actual[n])
        for n in range(args.bound + 1)
        if expected[n] != actual[n]
    ]
    checked = sum(1 for c in expected if c != 0)
    payload = _base_payload("compare", args, model, args.bound)
    payload["data"] = [
        {"degree": n, "series": expected[n], "oracle": actual[n]}
        for n in range(args.bound + 1)
    ]
    payload["meta"]["mismatches"] = len(mismatches)
    if mismatches:
        lines = [
            f"MISMATCH at degree {n}: series {e} vs oracle {a}"
            for n, e, a in mismatches
        ]
    else:
        lines = [f"match {checked}/{checked} degrees"]
    _emit(args, payload,
          rows=[(n, f"{expected[n]}|{actual[n]}") for n in range(args.bound + 1)],
          text_lines=lines)
    return 1 if mismatches else 0


def cmd_disc(args) -> int:
    model = _build_model(args)
    group = subgroup_count_poly(args.p, args.r)
    view = discriminant_view(model, group, args.order)
    payload = _base_payload("disc", args, model, args.order)
    payload["data"] = [{
        "lower_exponent": view.lower_exponent,
        "upper_exponent": view.upper_exponent,
        "malle_exponent": view.malle_exponent,
        "comparison": view.comparison,
        "z_table": list(view.z_table) if view.z_table is not None else None,
    }]
    lines = [
        f"conductor-side exponent {view.lower_exponent} .. "
        f"{view.upper_exponent}, tame prediction {view.malle_exponent} "
        f"({view.comparison})"
    ]
    if view.z_table is not None:
        lines.append(
            "discriminant counts " + ",".join(str(z) for z in view.z_table)
        )
    _emit(args, payload,
          rows=list(enumerate(view.z_table)) if view.z_table else
          [("comparison", view.comparison)],
          text_lines=lines)
    return 0


def _add_model_flags(sub, genus=True):
    sub.add_argument("--q", type=int, required=True, help="constant field size")
    sub.add_argument("--p", type=int, required=True, help="characteristic")
    if genus:
        sub.add_argument("--genus", type=int, default=0)
        sub.add_argument("--l-poly", type=str, default=None,
                         help="comma-separated L-polynomial coefficients")
        sub.add_argument("--clp-order", type=int, default=1,
                         help="order of the p-torsion of the class group")
        sub.add_argument("--model-file", type=str, default=None,
                         help="key=value model file (overrides other flags)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asdist",
        description="Distribution of elementary abelian p-extensions of "
        "global function fields, by conductor.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def common(sub, genus=True):
        _add_model_flags(sub, genus)
        sub.add_argument("--r", type=int, default=1, help="group rank")
        sub.add_argument("--format", choices=("text", "json", "tsv"),
                         default="text")

    s = subs.add_parser("series", help="conductor series coefficients")
    common(s)
    s.add_argument("--order", type=int, default=10)
    s.set_defaults(func=cmd_series)

    s = subs.add_parser("count", help="counting function partial sums")
    common(s)
    s.add_argument("--order", type=int, default=10)
    s.set_defaults(func=cmd_count)

    s = subs.add_parser("conductor", help="count for one explicit module")
    common(s)
    s.add_argument("--module", type=str, required=True,
                   help="e.g. '1^2' or '2.a^3,1.b^2'; '1' is trivial")
    s.set_defaults(func=cmd_conductor)

    s = subs.add_parser("poles", help="pole locations of the zeta factor")
    common(s, genus=False)
    s.set_defaults(func=cmd_poles)

    s = subs.add_parser("constant", help="asymptotic constants")
    common(s)
    s.add_argument("--cutoff", type=int, default=20,
                   help="Euler product degree cutoff")
    s.add_argument("--prec-bits", type=int, default=DEFAULT_PREC_BITS)
    s.set_defaults(func=cmd_constant)

    s = subs.add_parser("oracle", help="brute-force census over F_q(x)")
    common(s, genus=False)
    s.add_argument("--bound", type=int, default=4)
    s.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    s.set_defaults(func=cmd_oracle)

    s = subs.add_parser("compare", help="series vs brute force (CI entry)")
    common(s, genus=False)
    s.add_argument("--bound", type=int, default=4)
    s.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    s.set_defaults(func=cmd_compare)

    s = subs.add_parser("disc", help="discriminant-count view")
    common(s)
    s.add_argument("--order", type=int, default=10)
    s.set_defaults(func=cmd_disc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        for flag, ceiling in (("order", MAX_ORDER), ("cutoff", MAX_CUTOFF),
                              ("prec_bits", MAX_PREC_BITS)):
            value = getattr(args, flag, 0)  # 0 where a command lacks the flag
            if value > ceiling:
                raise ValueError(f"--{flag.replace('_', '-')} must be <= "
                                 f"{ceiling}, got {value}")
        return args.func(args)
    except (ModelError, UnsupportedInputError, BudgetExceededError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConsistencyError, PrecisionError) as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    """Process entry point of `asdist` and `python -m asdist.cli`.

    Freezing first moves the import-time heap (mostly sympy and mpmath) to
    the permanent generation, so neither later collections nor the one at
    interpreter exit walk it again.  `main` itself stays free of this
    process-wide effect, so it can be called in-process any number of
    times."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
