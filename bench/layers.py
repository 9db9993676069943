"""Spans around asdist's public functions, recorded from outside the program.

`Tracer.install` replaces each traced function under every name a caller
looks it up by: the module attribute in each `asdist` module that holds it
(`tauberian` imports `holomorphic_factor_value` by name, `cli` imports
`conductor_series`), or the class attribute for a method.  `uninstall`
puts the originals back.  Spans (name, start, end, parent) stay in memory.
"""
from __future__ import annotations

import functools
import statistics
import sys
import time

# (metric prefix, module, attribute path); the prefix names the layer.
TRACED = [
    ("cli.main", "asdist.cli", "main"),
    ("field.place_counts", "asdist.field", "FieldModel.place_counts"),
    ("counting.conductor_count", "asdist.counting", "conductor_count"),
    ("series.mul", "asdist.series", "TruncatedSeries.mul"),
    ("series.pow", "asdist.series", "TruncatedSeries.pow"),
    ("series.inv", "asdist.series", "TruncatedSeries.inv"),
    ("dirichlet.conductor_series", "asdist.dirichlet", "conductor_series"),
    ("dirichlet.euler_component_series", "asdist.dirichlet", "euler_component_series"),
    ("dirichlet.error_term_series", "asdist.dirichlet", "error_term_series"),
    ("dirichlet.zeta_factor_rational", "asdist.dirichlet", "zeta_factor_rational"),
    ("dirichlet.holomorphic_factor_value", "asdist.dirichlet", "holomorphic_factor_value"),
    ("dirichlet.holomorphic_factor_at_abscissa", "asdist.dirichlet",
     "holomorphic_factor_at_abscissa"),
    ("tauberian.principal_parts", "asdist.tauberian", "principal_parts"),
    ("tauberian.tauberian_constant", "asdist.tauberian", "tauberian_constant"),
    ("tauberian.closed_form_constant", "asdist.tauberian", "closed_form_constant"),
    ("oracle.irreducibles_up_to", "asdist.oracle", "irreducibles_up_to"),
    ("oracle.enumerate_classes", "asdist.oracle", "enumerate_classes"),
    ("oracle.oracle_counts", "asdist.oracle", "oracle_counts"),
]

# Per-layer metrics of one traced pass, with their units.  `_s` is inclusive
# time, `_self_s` excludes the traced calls nested inside.
IMPORT_METRICS = ["import.asdist_s", "import.sympy_s", "import.mpmath_s"]
SPAN_METRICS = [
    "cli.main_s", "cli.main_self_s",
    "field.place_counts_s", "field.place_counts_calls",
    "counting.conductor_count_s", "counting.conductor_count_calls",
    "series.mul_s", "series.mul_calls", "series.pow_s", "series.inv_s",
    "dirichlet.conductor_series_s", "dirichlet.euler_component_series_s",
    "dirichlet.error_term_series_s",
    "dirichlet.zeta_factor_rational_s", "dirichlet.holomorphic_factor_value_s",
    "dirichlet.holomorphic_factor_value_calls",
    "dirichlet.holomorphic_factor_at_abscissa_s",
    "tauberian.principal_parts_self_s", "tauberian.tauberian_constant_s",
    "tauberian.closed_form_constant_s",
    "oracle.irreducibles_up_to_s", "oracle.irreducibles_up_to_calls",
    "oracle.enumerate_classes_s", "oracle.oracle_counts_self_s",
]
COUNTERS = ["dirichlet.coeff_bits_max", "oracle.classes", "oracle.subspaces"]
PASS_METRICS = ["trace.pass_s", "trace.untraced_pass_s"]
LAYER_METRICS = IMPORT_METRICS + SPAN_METRICS + COUNTERS + PASS_METRICS


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bits" if name.endswith("bits_max") else "count"


def _series_bits(tracer, result):
    bits = max(max(c.numerator.bit_length(), c.denominator.bit_length())
               for c in result.coeffs)
    tracer.counters["dirichlet.coeff_bits_max"] = max(
        tracer.counters["dirichlet.coeff_bits_max"], bits)


def _count_classes(tracer, result):
    tracer.counters["oracle.classes"] += len(result)


def _count_subspaces(tracer, result):
    tracer.counters["oracle.subspaces"] += sum(result.values())


ON_RESULT = {
    "dirichlet.conductor_series": _series_bits,
    "dirichlet.euler_component_series": _series_bits,
    "oracle.enumerate_classes": _count_classes,
    "oracle.oracle_counts": _count_subspaces,
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list = []
        self._undo: list = []

    def wrap(self, name: str, fn):
        on_result = ON_RESULT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "asdist" or n.startswith("asdist."))]
        for name, module_name, path in TRACED:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            if outer:  # a method: every caller finds it on the class
                targets = [(owner, attr)]
            else:
                targets = [(m, key) for m in modules
                           for key, value in vars(m).items() if value is original]
            for target, key in targets:
                setattr(target, key, wrapper)
                self._undo.append((target, key, original))

    def uninstall(self):
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    def metrics(self) -> dict:
        """The span metrics and counters of everything recorded."""
        inclusive: dict = {}
        self_time: dict = {}
        calls: dict = {}
        for index, (name, start, end, parent) in enumerate(self.spans):
            duration = end - start
            calls[name] = calls.get(name, 0) + 1
            self_time[name] = self_time.get(name, 0.0) + duration
            if parent >= 0:
                parent_name = self.spans[parent][0]
                self_time[parent_name] = self_time.get(parent_name, 0.0) - duration
            if not self._inside(index, name):  # recursion counts once
                inclusive[name] = inclusive.get(name, 0.0) + duration
        out = {}
        for metric in SPAN_METRICS:
            if metric.endswith("_self_s"):
                out[metric] = self_time.get(metric[: -len("_self_s")], 0.0)
            elif metric.endswith("_calls"):
                out[metric] = calls.get(metric[: -len("_calls")], 0)
            else:
                out[metric] = inclusive.get(metric[: -len("_s")], 0.0)
        out.update(self.counters)
        return out

    def _inside(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False


def import_times(lines) -> dict:
    """Cumulative import seconds of asdist, sympy and mpmath, from the
    stderr of `python -X importtime`."""
    out = {}
    for line in lines:
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        module = fields[2].strip()
        metric = f"import.{module}_s"
        if metric in IMPORT_METRICS:
            out[metric] = int(fields[1]) / 1e6
    missing = set(IMPORT_METRICS) - set(out)
    if missing:
        raise ValueError(f"no import time for {sorted(missing)}")
    return out


def median_metrics(runs: list) -> dict:
    """Per key, the lower median over runs: a measured value, and a count
    stays a whole number."""
    return {key: statistics.median_low(run[key] for run in runs) for key in runs[0]}
