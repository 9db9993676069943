"""Tests of the benchmark itself: the reference count, the checks and the
tracer.  Run with `python -m pytest bench` from the repository root."""
import json
import sys
from fractions import Fraction

import pytest

import layers
import reference
import run
import workloads

sys.path.insert(0, str(run.SRC))

from asdist import (  # noqa: E402
    conductor_series,
    counts_by_degree,
    make_field_model,
    oracle_counts,
    subgroup_count_poly,
)
import asdist.cli as cli  # noqa: E402

MODELS = [
    (2, 2, (1,), 1), (3, 3, (1,), 1), (4, 2, (1,), 1), (5, 5, (1,), 1),
    (9, 3, (1,), 1), (2, 2, (1, 0, 2), 1), (2, 2, (1, -1, 2), 2),
    (2, 2, (1, 1, 2), 2), (3, 3, (1, -1, 3), 3), (3, 3, (1, 2, 3), 3),
    (3, 3, (1, 0, 3), 1), (4, 2, (1, 1, 4), 2),
]


@pytest.mark.parametrize("q,p,l_poly,clp", MODELS)
@pytest.mark.parametrize("r", [1, 2, 3])
def test_reference_series_equals_conductor_series(q, p, l_poly, clp, r):
    model = make_field_model(p, q, (len(l_poly) - 1) // 2, list(l_poly), clp)
    program = conductor_series(model, subgroup_count_poly(p, r), 24)
    assert reference.Model(q, p, l_poly, clp).series(r, 24) == [
        int(c) for c in program.coeffs]


@pytest.mark.parametrize("q,p,r,bound", [
    (2, 2, 1, 7), (3, 3, 1, 6), (4, 2, 1, 4), (5, 5, 1, 4),
    (2, 2, 2, 6), (3, 3, 2, 3), (2, 2, 3, 4),
])
def test_reference_agrees_with_oracle_module_by_module(q, p, r, bound):
    census = oracle_counts(q, p, r, bound)
    model = reference.Model(q, p)
    for module, count in census.items():
        shape = [(place.degree, mult) for place, mult in module.entries]
        assert model.module_count(r, shape) == count, module
    # equal totals per degree, and counts are nonnegative, so no module the
    # census missed has a nonzero reference count
    assert model.series(r, bound) == counts_by_degree(census, bound)


def test_reference_rejects_inconsistent_models():
    with pytest.raises(ValueError):
        reference.Model(2, 2, (1, 1, 2), 1)  # L(1) = 4 forces |Cl[2]| = 2
    with pytest.raises(ValueError):
        reference.Model(2, 2, (1, 0, 0, 0, 4), 1)  # genus 2


def in_process(ops):
    return run.run_in_process(ops, cli)[1]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_operation_passes_at_this_commit(name):
    ops = workloads.build(name, 0)
    failed, wrong, reasons = run.verify(ops, in_process(ops))
    assert (failed, wrong) == (0, 0), reasons


def test_every_constant_pool_member_passes():
    refs = workloads.References()
    ops = [workloads.constant_op(refs, workloads.elliptic(q, a), 1)
           for q, traces in workloads.ELLIPTIC.items() for a in traces]
    assert run.verify(ops, in_process(ops))[:2] == (0, 0)


def _shape(op):
    """What an operation computes on: the seed may change anything else."""
    value = {op.argv[i]: op.argv[i + 1] for i in range(1, len(op.argv), 2)}
    kind = {"count": "series", "oracle": "compare"}.get(op.kind, op.kind)
    return (kind, *(value.get(flag, "") for flag in
                    ("--q", "--p", "--r", "--genus", "--order", "--bound")))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_changes_no_operation_shape(name):
    shapes = [sorted(map(_shape, workloads.build(name, seed))) for seed in range(6)]
    assert all(shape == shapes[0] for shape in shapes)
    # the seed does draw inputs and order
    assert len({tuple(" ".join(op.argv) for op in workloads.build(name, seed))
                for seed in range(6)}) > 1


@pytest.mark.parametrize("p,r", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2),
                                 (5, 1), (5, 2), (7, 1)])
def test_pole_check_passes_beyond_the_workload(p, r):
    op = workloads.poles_op(p, r)
    assert run.verify([op], in_process([op]))[:2] == (0, 0)


def _corrupt_series(payload):
    payload["data"][-1] += 1


def _corrupt_constant(payload):
    row = payload["data"][0]
    row["tauberian"] = str(Fraction(row["tauberian"]) * Fraction(1001, 1000))


def _corrupt_both_constants(payload):
    row = payload["data"][0]
    for key in ("tauberian", "closed_form"):
        row[key] = str(Fraction(row[key]) * Fraction(1001, 1000))


def _corrupt_conductor(payload):
    payload["data"][0]["count"] += 1


def _corrupt_poles(payload):
    payload["data"][0]["abscissa"] = "3/2"


def _corrupt_disc(payload):
    payload["data"][0]["z_table"][-1] -= 1


def _corrupt_compare(payload):
    payload["data"][-1]["oracle"] += 1
    payload["data"][-1]["series"] += 1


@pytest.mark.parametrize("argv,corrupt", [
    ("series --q 2 --p 2 --r 1 --order 12", _corrupt_series),
    ("count --q 3 --p 3 --r 2 --order 8", _corrupt_series),
    ("oracle --q 2 --p 2 --r 1 --bound 6", _corrupt_series),
    ("compare --q 2 --p 2 --r 2 --bound 5", _corrupt_compare),
    ("constant --q 3 --p 3 --r 2", _corrupt_constant),
    ("constant --q 3 --p 3 --r 1", _corrupt_constant),
    ("constant --q 3 --p 3 --r 1", _corrupt_both_constants),
    ("constant --q 5 --p 5 --r 1", _corrupt_both_constants),
    ("constant --q 2 --p 2 --r 1", _corrupt_both_constants),
    ("conductor --q 2 --p 2 --r 1 --module 1.a^3,2.b^2", _corrupt_conductor),
    ("poles --q 3 --p 3 --r 2", _corrupt_poles),
    ("disc --q 3 --p 3 --r 1 --order 12", _corrupt_disc),
])
def test_corrupted_output_counts_as_failed(argv, corrupt):
    op = _op_for(argv.split())
    (outcome,) = in_process([op])
    assert run.verify([op], [outcome])[:2] == (0, 0)
    payload = json.loads(outcome.stdout)
    corrupt(payload)
    bad = run.Outcome(0, json.dumps(payload))
    failed, wrong, reasons = run.verify([op], [bad])
    assert (failed, wrong) == (1, 1) and "wrong output" in reasons[0]
    crashed = run.Outcome(3, "")
    assert run.verify([op], [crashed])[:2] == (1, 0)


def _op_for(argv):
    """The workload operation that runs exactly `argv`."""
    refs = workloads.References()
    kind = argv[0]
    value = {argv[i]: argv[i + 1] for i in range(1, len(argv), 2)}
    q, p, r = int(value["--q"]), int(value["--p"]), int(value["--r"])
    fld = workloads.Field(q, p)
    if kind in ("series", "count"):
        op = workloads.series_op(refs, kind, fld, r, int(value["--order"]))
    elif kind in ("oracle", "compare"):
        op = workloads.census_op(refs, kind, q, p, r, int(value["--bound"]))
    elif kind == "constant":
        op = workloads.constant_op(refs, fld, r)
    elif kind == "poles":
        op = workloads.poles_op(p, r)
    elif kind == "disc":
        op = workloads.disc_op(refs, fld, r, int(value["--order"]))
    else:
        terms = [(int(t.split(".")[0]), int(t.split("^")[1]))
                 for t in value["--module"].split(",")]
        op = workloads.Op("conductor", argv, {
            "count": fld.reference().module_count(r, terms),
            "degree": sum(d * n for d, n in terms)})
    assert op.argv == argv
    return op


def test_tracer_wraps_names_callers_look_up_and_restores_them():
    import asdist.dirichlet
    import asdist.tauberian

    original = asdist.dirichlet.holomorphic_factor_value
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert asdist.tauberian.holomorphic_factor_value is not original
        assert asdist.tauberian.holomorphic_factor_value is \
            asdist.dirichlet.holomorphic_factor_value
        ops = workloads.build("queries", 3)
        assert run.verify(ops, in_process(ops))[:2] == (0, 0)
    finally:
        tracer.uninstall()
    assert asdist.tauberian.holomorphic_factor_value is original
    metrics = tracer.metrics()
    assert set(metrics) == set(layers.SPAN_METRICS + layers.COUNTERS)
    assert metrics["cli.main_s"] >= metrics["cli.main_self_s"] > 0
    assert metrics["dirichlet.holomorphic_factor_value_calls"] > 0
    assert metrics["counting.conductor_count_calls"] == sum(
        op.kind == "conductor" for op in ops)


def test_self_time_subtracts_child_spans():
    tracer = layers.Tracer()
    tracer.spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["tauberian.principal_parts", 1.0, 7.0, 0],
        ["dirichlet.holomorphic_factor_value", 2.0, 5.0, 1],
        ["series.pow", 7.0, 9.0, 0],
        ["series.pow", 7.5, 8.5, 3],
    ]
    metrics = tracer.metrics()
    assert metrics["cli.main_self_s"] == 10.0 - 6.0 - 2.0
    assert metrics["tauberian.principal_parts_self_s"] == 6.0 - 3.0
    assert metrics["series.pow_s"] == 2.0  # the nested call counts once


def test_import_times_parse():
    lines = [
        "import time: self [us] | cumulative | imported package",
        "import time:      2249 |      28451 |       mpmath",
        "import time:      1669 |     332989 |       sympy",
        "import time:      6192 |     423754 |   asdist",
    ]
    assert layers.import_times(lines) == {
        "import.mpmath_s": 0.028451, "import.sympy_s": 0.332989,
        "import.asdist_s": 0.423754}


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == layers.LAYER_METRICS
    assert all(m["unit"] == layers.unit(m["name"]) for m in spec["per_layer"])


def test_missing_sources_exit_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", run.ROOT / "no-such-directory")
    assert run.main(["--workload", "queries", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
