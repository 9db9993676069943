"""Benchmark of the asdist command line.

    python3 bench/run.py --workload series|census|queries --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout.  Each operation is a fresh
`python -m asdist.cli ... --format json` process with PYTHONPATH=src, run one
after another (a closed loop with one client).  The run repeats whole passes
over the workload's operations until `--seconds` have passed, checks every
output, and prints one JSON object as its last line:

    --trace 0   the end-to-end metrics, medians over the passes;
    --trace 1   the per-layer metrics, from passes run in-process through
                asdist.cli.main with spans around each layer (layers.py).

Results and spans are written under bench/results/.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import compileall
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
PROBES = 9  # interpreters timed with -X importtime in a traced run
PROBES_PER_PASS = 3  # set-up probes before each pass
OP_TIMEOUT = 90.0  # seconds before an operation is killed and counted failed
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB"}


class Outcome:
    """What one operation printed, and what it cost."""

    def __init__(self, code: int, stdout: str, wall: float = 0.0,
                 cpu: float = 0.0, rss_mb: float = 0.0):
        self.code, self.stdout = code, stdout
        self.wall, self.cpu, self.rss_mb = wall, cpu, rss_mb


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args: list, stderr=None) -> tuple:
    """Run `python args...` to its end: (Outcome, stderr text or None)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=stderr)
    timer = threading.Timer(OP_TIMEOUT, proc.kill)
    timer.start()
    try:
        if stderr is None:
            out, err = proc.stdout.read(), None
        else:  # small outputs only: stdout is read after stderr closes
            err = proc.stderr.read()
            out = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        for stream in (proc.stdout, proc.stderr):
            if stream is not None:
                stream.close()
    outcome = Outcome(proc.returncode, out.decode(), time.perf_counter() - start,
                      usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)
    return outcome, err.decode() if err is not None else None


def verify(ops: list, outcomes: list) -> tuple:
    """(failed, wrong, reasons): failed counts every operation that exited
    with an error or printed a wrong result; wrong counts the latter."""
    failed = wrong = 0
    reasons = []
    for op, outcome in zip(ops, outcomes):
        reason = None
        if outcome.code != 0:
            reason = f"exit code {outcome.code}"
        else:
            try:
                lines = outcome.stdout.strip().splitlines()
                workloads.check(op, json.loads(lines[-1]))
            except workloads.Mismatch as exc:
                wrong += 1
                reason = f"wrong output: {exc}"
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                wrong += 1
                reason = f"malformed output: {exc!r}"
        if reason is not None:
            failed += 1
            reasons.append(f"{' '.join(op.argv)}: {reason}")
    return failed, wrong, reasons


def probe_setup() -> float:
    """Wall time of a fresh interpreter that imports asdist.cli and exits."""
    outcome, _ = spawn(["-c", "import asdist.cli"])
    if outcome.code != 0:
        raise RuntimeError("importing asdist.cli failed")
    return outcome.wall


def end_to_end(ops: list, seconds: float) -> tuple:
    probe_setup()  # warm the file cache
    probes, passes = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        probes += [probe_setup() for _ in range(PROBES_PER_PASS)]
        passes.append([spawn(["-m", "asdist.cli", *op.argv, "--format", "json"])[0]
                       for op in ops])
    metrics = {
        "setup_s": statistics.median(probes),
        "wall_s": statistics.median(sum(o.wall for o in out) for out in passes),
        "op_p50_s": statistics.median(statistics.fmean(o.wall for o in runs)
                                      for runs in zip(*passes)),
        "cpu_s": statistics.median(sum(o.cpu for o in out) for out in passes),
        "peak_rss_mb": statistics.median(max(o.rss_mb for o in out) for out in passes),
    }
    return metrics, END_TO_END, passes


def run_in_process(ops: list, cli) -> tuple:
    outcomes = []
    began = time.perf_counter()
    for op in ops:
        sympy = sys.modules.get("sympy")
        if sympy is not None:  # each CLI process starts with an empty cache
            sympy.core.cache.clear_cache()
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main([*op.argv, "--format", "json"])
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # noqa: BLE001 - a CLI process would exit 1
                code = 1
        outcomes.append(Outcome(code, stdout.getvalue()))
    return time.perf_counter() - began, outcomes


def per_layer(ops: list, seconds: float) -> tuple:
    imports = []
    for _ in range(PROBES):
        outcome, err = spawn(["-X", "importtime", "-c", "import asdist.cli"],
                             stderr=subprocess.PIPE)
        if outcome.code != 0:
            raise RuntimeError("importing asdist.cli failed")
        imports.append(layers.import_times(err.splitlines()))
    sys.path.insert(0, str(SRC))
    import asdist.cli as cli

    rounds, passes, spans = [], [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        tracer = layers.Tracer()
        order = ("plain", "traced") if len(rounds) % 2 == 0 else ("traced", "plain")
        walls = {}
        for kind in order:
            if kind == "traced":
                tracer.install()
            try:
                walls[kind], outcomes = run_in_process(ops, cli)
            finally:
                tracer.uninstall()
            passes.append(outcomes)
        metrics = tracer.metrics()
        metrics["trace.pass_s"] = walls["traced"]
        metrics["trace.untraced_pass_s"] = walls["plain"]
        rounds.append(metrics)
        spans.append(tracer.spans)
    metrics = {**layers.median_metrics(imports), **layers.median_metrics(rounds)}
    units = {name: layers.unit(name) for name in layers.LAYER_METRICS}
    return metrics, units, passes, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "asdist" / "cli.py").is_file():
        print(f"error: no asdist sources under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC / "asdist"), quiet=1)  # users run compiled bytecode

    ops = workloads.build(args.workload, args.seed)
    spans = None
    if args.trace:
        metrics, units, passes, spans = per_layer(ops, args.seconds)
    else:
        metrics, units, passes = end_to_end(ops, args.seconds)
    failed = wrong = 0
    reasons = []
    for outcomes in passes:
        f, w, r = verify(ops, outcomes)
        failed, wrong = failed + f, wrong + w
        reasons += r
    for reason in sorted(set(reasons)):
        print(f"FAILED {reason}", file=sys.stderr)
    result = {
        "correct": wrong == 0,
        "attempted": len(ops) * len(passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {**result, "argv": [op.argv for op in ops], "failures": sorted(set(reasons)),
              "passes": [[(o.code, o.wall, o.cpu, o.rss_mb) for o in out]
                         for out in passes]}
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=1))
    if spans is not None:
        with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
            for number, recorded in enumerate(spans):
                for span in recorded:
                    fh.write(json.dumps([number, *span]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
