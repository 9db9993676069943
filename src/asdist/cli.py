"""Command-line front-end.

Every computation in the library is reachable through one subcommand, listed
in one table.  Every command prints through one emitter, to stdout, in one of
three formats: human-readable text (default), TSV, or JSON with a fixed schema
(`command`, `model`, `group`, `data`, `meta`), where `meta.order` holds
`--order` or `--bound`; `constant` derives its Euler-product cutoff from the
tail bound and reports it in `meta.degree_cutoff`, beside its working
precision.  A field beyond F_q(x) is given by its invariants,
`--genus/--l-poly/--clp-order`.  Exit codes: 0 success, 1 compare mismatch
or stdout closed before the output was written (as by `| head`), 2 invalid
input, 3 internal consistency failure.  Invalid input includes a
`q` that is not a power of `p` (for every command), an `--l-poly` entry
that is not an integer, an `--r` above 64, a `--p` above 128, a `--bound`
or a `conductor --module` degree above the `--order` ceiling, and `poles
--format json` at a lattice of more than 10**6 angles (p >= 17 at r = 1).
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from collections.abc import Iterator
from dataclasses import asdict
from fractions import Fraction

import mpmath

from .counting import DivisorModule, Place, conductor_count, subgroup_count_poly
from .dirichlet import (
    PREC_BITS,
    conductor_series,
    counting_function,
    discriminant_view,
    holomorphic_factor_cutoff,
    pole_analysis,
)
from .errors import (
    BudgetExceededError,
    ConsistencyError,
    ModelError,
    PrecisionError,
    UnsupportedInputError,
)
from .field import make_field_model, rational_field
from .oracle import DEFAULT_BUDGET, counts_by_degree, oracle_counts
from .tauberian import closed_form_constant, tauberian_constant

# ceilings on --order (and --bound and the degree of --module) and --r, so
# that a mistyped value exits 2 at once instead of running for hours; at its
# ceiling a command on a small field takes seconds to a minute (on a 2-vCPU
# VM, series --order 2000 0.7-0.85 s at --q 2 --p 2, 4.3-5.3 s at --q 5
# --p 5 and 36-49 s at --q 5 --p 5 --r 3, the O(r^4) rank check at most
# 0.13 s)
MAX_ORDER = 2000
MAX_RANK = 64
# the characteristic's ceiling: an admitted p gives at most 2 (p - 1) = 252
# binomials in the zeta factor, and constant --q 127 --p 127 takes up to
# about 21 s (at --r 64, the slowest of r = 1, 2, 3 and 64; 2-vCPU VM)
MAX_P = 128
# poles --format json lists every one of the ell lattice angles; at p = 17
# (ell = 12,252,240) it wrote 205 MB, so a larger lattice exits 2
MAX_JSON_ANGLES = 10**6

_FLOAT_DIGITS = 12


def _jsonable(value):
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else str(value)
    if isinstance(value, (mpmath.mpf, mpmath.mpc)):
        return mpmath.nstr(value, _FLOAT_DIGITS)
    if isinstance(value, (list, tuple, Iterator)):
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


def _inputs(args):
    """The model of the field flags, then the group, so that a bad field is
    reported first."""
    l_poly = None
    if args.l_poly:
        try:
            l_poly = [int(x) for x in args.l_poly.split(",")]
        except ValueError as exc:
            raise ModelError("--l-poly must be comma-separated integers, "
                             f"got {args.l_poly!r}") from exc
    model = make_field_model(args.p, args.q, args.genus, l_poly, args.clp_order)
    return model, subgroup_count_poly(args.p, args.r)


def _emit(args, data, rows, text_lines, model=None, meta=None) -> int:
    """Print one result, `data` in the fixed JSON schema, the `(n, value)`
    rows as TSV or the text lines, and return the exit code 0."""
    if args.format == "json":
        payload = {
            "command": args.command,
            "model": model,
            "group": {"p": args.p, "r": args.r},
            "data": data,
            "meta": {
                "order": getattr(args, "order", getattr(args, "bound", None)),
                "precision_bits": None,
                **(meta or {}),
            },
        }
        print(json.dumps(_jsonable(payload), sort_keys=True, separators=(",", ":")))
    elif args.format == "tsv":
        print("n\tvalue")
        for n, value in rows:
            print(f"{n}\t{_jsonable(value)}")
    else:
        for line in text_lines:
            print(line)
    return 0


def cmd_series(args) -> int:
    model, group = _inputs(args)
    coeffs = [int(c) for c in conductor_series(model, group, args.order).coeffs]
    return _emit(args, coeffs, enumerate(coeffs),
                 ["coefficients " + ",".join(str(c) for c in coeffs)],
                 model.describe())


def cmd_count(args) -> int:
    model, group = _inputs(args)
    sums = counting_function(model, group, args.order)
    return _emit(args, sums, enumerate(sums),
                 ["partial sums " + ",".join(str(c) for c in sums)],
                 model.describe())


def cmd_conductor(args) -> int:
    model, group = _inputs(args)
    module = parse_module(args.module)
    if module.degree > MAX_ORDER:
        raise ValueError(f"--module must have degree <= {MAX_ORDER}, got {module.degree}")
    count = conductor_count(model, group, module)
    return _emit(args,
                 [{"module": args.module, "degree": module.degree, "count": count}],
                 [(module.degree, count)],
                 [f"conductor {args.module} (degree {module.degree}): "
                  f"{count} extensions"],
                 model.describe())


def cmd_poles(args) -> int:
    rational_field(args.q, args.p)  # validates q and p
    subgroup_count_poly(args.p, args.r)  # validates r
    report = pole_analysis(args.p, args.r)
    ell = report.progression
    if args.format == "json" and ell > MAX_JSON_ANGLES:
        raise ValueError(f"--format json lists all ell = {ell} lattice angles, "
                         f"at most {MAX_JSON_ANGLES}; use text or tsv")
    angles = (Fraction(j, ell) for j in range(ell))  # built only for JSON
    return _emit(args, [{**asdict(report), "pole_angles": angles}],
                 [("abscissa", report.abscissa),
                  ("log_order", report.log_order),
                  ("progression", report.progression)],
                 [f"abscissa {report.abscissa}, pole order "
                  f"{report.log_order}, progression {report.progression}"])


def cmd_constant(args) -> int:
    model, group = _inputs(args)
    cutoff = holomorphic_factor_cutoff(model, group.p, group.r)
    closed = None
    try:
        closed = closed_form_constant(model, group, cutoff)
    except UnsupportedInputError:
        pass
    generic = tauberian_constant(model, group, cutoff)
    entry = {
        "tauberian": generic.constant,
        "log_order": generic.log_order,
        "exponent": generic.exponent,
    }
    tauberian = mpmath.nstr(generic.constant, 8)
    if closed is None:
        line = f"tauberian {tauberian} (no closed form for this group)"
    else:
        delta = abs(generic.constant - closed.constant) / abs(closed.constant)
        exact = closed.constant_exact
        entry["closed_form"] = closed.constant if exact is None else exact
        entry["delta"] = delta
        line = (f"closed-form {entry['closed_form']}, tauberian {tauberian} "
                f"(delta {mpmath.nstr(delta, 3)})")
    return _emit(args, [entry], entry.items(), [line], model.describe(),
                 {"degree_cutoff": cutoff, "precision_bits": PREC_BITS})


def cmd_oracle(args) -> int:
    counts = oracle_counts(args.q, args.p, args.r, args.bound, args.budget)
    table = counts_by_degree(counts, args.bound)
    return _emit(args, table, enumerate(table),
                 ["oracle counts " + ",".join(str(c) for c in table)],
                 {"p": args.p, "q": args.q, "genus": 0})


def cmd_compare(args) -> int:
    # the census checks the inputs first, so errors read as in `oracle`
    counts = oracle_counts(args.q, args.p, args.r, args.bound, args.budget)
    actual = counts_by_degree(counts, args.bound)
    model = rational_field(args.q, args.p)
    group = subgroup_count_poly(args.p, args.r)
    expected = [int(c) for c in conductor_series(model, group, args.bound).coeffs]
    degrees = range(args.bound + 1)
    mismatches = [(n, expected[n], actual[n])
                  for n in degrees if expected[n] != actual[n]]
    checked = sum(1 for c in expected if c != 0)
    lines = [
        f"MISMATCH at degree {n}: series {e} vs oracle {a}"
        for n, e, a in mismatches
    ] or [f"match {checked}/{checked} degrees"]
    _emit(args,
          [{"degree": n, "series": expected[n], "oracle": actual[n]}
           for n in degrees],
          [(n, f"{expected[n]}|{actual[n]}") for n in degrees],
          lines, model.describe(), {"mismatches": len(mismatches)})
    return 1 if mismatches else 0


def cmd_disc(args) -> int:
    model, group = _inputs(args)
    view = discriminant_view(model, group, args.order)
    lines = [
        f"conductor-side exponent {view.lower_exponent} .. "
        f"{view.upper_exponent}, tame prediction {view.malle_exponent} "
        f"({view.comparison})"
    ]
    if view.z_table is not None:
        lines.append(
            "discriminant counts " + ",".join(str(z) for z in view.z_table)
        )
    return _emit(args, [asdict(view)],
                 enumerate(view.z_table) if view.z_table else
                 [("comparison", view.comparison)],
                 lines, model.describe())


_FIELD_FLAGS = (
    ("--q", {"type": int, "required": True, "help": "constant field size"}),
    ("--p", {"type": int, "required": True, "help": "characteristic"}),
)
_GENUS_FLAGS = (
    ("--genus", {"type": int, "default": 0}),
    ("--l-poly", {"type": str, "default": None,
                  "help": "comma-separated L-polynomial coefficients"}),
    ("--clp-order", {"type": int, "default": 1,
                     "help": "order of the p-torsion of the class group"}),
)
_GROUP_FLAGS = (
    ("--r", {"type": int, "default": 1, "help": "group rank"}),
    ("--format", {"choices": ("text", "json", "tsv"), "default": "text"}),
)
_ORDER = (("--order", {"type": int, "default": 10}),)
_CENSUS = (("--bound", {"type": int, "default": 4}),
           ("--budget", {"type": int, "default": DEFAULT_BUDGET}))

# (name, handler, takes the genus flags, help, own flags)
_COMMANDS = (
    ("series", cmd_series, True, "conductor series coefficients", _ORDER),
    ("count", cmd_count, True, "counting function partial sums", _ORDER),
    ("conductor", cmd_conductor, True, "count for one explicit module",
     (("--module", {"type": str, "required": True,
                    "help": "e.g. '1^2' or '2.a^3,1.b^2'; '1' is trivial"}),)),
    ("poles", cmd_poles, False, "pole locations of the zeta factor", ()),
    ("constant", cmd_constant, True, "asymptotic constants", ()),
    ("oracle", cmd_oracle, False, "brute-force census over F_q(x)", _CENSUS),
    ("compare", cmd_compare, False, "series vs brute force (CI entry)", _CENSUS),
    ("disc", cmd_disc, True, "discriminant-count view", _ORDER),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asdist",
        description="Distribution of elementary abelian p-extensions of "
        "global function fields, by conductor.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, func, genus, help_text, flags in _COMMANDS:
        sub = subs.add_parser(name, help=help_text)
        genus_flags = _GENUS_FLAGS if genus else ()
        for flag, kwargs in (*_FIELD_FLAGS, *genus_flags, *_GROUP_FLAGS, *flags):
            sub.add_argument(flag, **kwargs)
        sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        for flag, ceiling in (("order", MAX_ORDER), ("bound", MAX_ORDER),
                              ("r", MAX_RANK), ("p", MAX_P)):
            value = getattr(args, flag, 0)  # 0 where a command lacks the flag
            if value > ceiling:
                raise ValueError(f"--{flag} must be <= {ceiling}, got {value}")
        return args.func(args)
    except (BudgetExceededError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConsistencyError, PrecisionError) as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    """Process entry point of `asdist` and `python -m asdist.cli`.

    Freezing first moves the import-time heap (mostly sympy and mpmath) to
    the permanent generation, so neither later collections nor the one at
    interpreter exit walk it again.  That is safe only because every command
    writes through stdout, which the interpreter flushes explicitly at exit:
    an open file caught in a frozen reference cycle is never freed, so never
    flushed, and any file a command writes must be closed explicitly.  Exact
    counts can have more digits than Python converts to decimal by default
    (4,300), so the limit is lifted when no argument is longer than it: an
    integer in argv still has to fit the limit.  `main` itself stays free of
    these process-wide effects, so it can be called in-process any number of
    times.  A reader that closes stdout early (`| head`) ends the command
    with exit code 1 and no traceback, as in the SIGPIPE note of the Python
    documentation."""
    gc.freeze()
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit and all(len(arg) <= limit for arg in sys.argv[1:]):
        sys.set_int_max_str_digits(0)
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: point it at
        # /dev/null so that flush does not raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    run()
