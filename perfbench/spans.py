"""Span tracer for the splitsim benchmark.

The tracer measures the package from outside: it replaces the functions and
methods listed in ``TARGETS`` with wrappers that record one span per call, and
puts the originals back afterwards. Nothing under ``src/`` changes.

A span is (name, start, end, parent span, item id). Spans of one CLI call
share the item id. They are kept in flat arrays in memory and written once,
as JSON lines, when the run ends. A span's self time is its duration minus the
part of it covered by its child spans; calls are sequential in one thread, so
that part is the sum of the children's durations.

``layer_metrics`` turns the per-pass summaries into the per-layer metrics
named in BENCHMARK.json. It needs no numpy, so the parent process can import
this module without loading the package's dependencies.
"""

from __future__ import annotations

import statistics
import sys
import time
from array import array

# (span name, module, attribute). ``Class.method`` patches the method on the
# class; a bare ``Class`` name stands for its constructor. Module functions are
# patched in every ``splitsim`` namespace that imported them, because the
# package uses ``from .x import y``.
TARGETS = (
    ("cli.main", "splitsim.cli", "main"),
    ("harness.state_panel", "splitsim.harness", "state_panel"),
    ("harness.SchemeEvaluator", "splitsim.harness", "SchemeEvaluator.__init__"),
    ("harness.SchemeEvaluator.error", "splitsim.harness", "SchemeEvaluator.error"),
    ("harness.sweep_error_vs_K", "splitsim.harness", "sweep_error_vs_K"),
    ("harness.lemma1_campaign", "splitsim.harness", "lemma1_campaign"),
    ("harness.scaling_cross_check", "splitsim.harness", "scaling_cross_check"),
    ("harness._bisect_min_k", "splitsim.harness", "_bisect_min_k"),
    ("channels.exact_evolution", "splitsim.channels", "exact_evolution"),
    ("channels.mixture_superoperator", "splitsim.channels", "mixture_superoperator"),
    ("channels.channel_power", "splitsim.channels", "channel_power"),
    ("channels.apply_channel", "splitsim.channels", "apply_channel"),
    ("channels.mean_unitary", "splitsim.channels", "mean_unitary"),
    ("channels.expected_sq_deviation", "splitsim.channels", "expected_sq_deviation"),
    ("channels.lemma1_report", "splitsim.channels", "lemma1_report"),
    ("schedules.word_unitary", "splitsim.schedules", "word_unitary"),
    ("schedules.alg1_stage_mixture", "splitsim.schedules", "alg1_stage_mixture"),
    ("schedules.alg2_stage_mixture", "splitsim.schedules", "alg2_stage_mixture"),
    ("schedules.mixture_power", "splitsim.schedules", "mixture_power"),
    ("matkernel.expm_hermitian", "splitsim.matkernel", "expm_hermitian"),
    ("matkernel.hermitian_deviation", "splitsim.matkernel", "hermitian_deviation"),
    ("matkernel.spectral_norm", "splitsim.matkernel", "spectral_norm"),
    ("matkernel.trace_norm", "splitsim.matkernel", "trace_norm"),
    ("matkernel.trace_distance", "splitsim.matkernel", "trace_distance"),
    ("matkernel.DensityMatrix", "splitsim.matkernel", "DensityMatrix.__init__"),
    ("hamiltonians.TermSet", "splitsim.hamiltonians", "TermSet.__init__"),
    ("hamiltonians.random_termset", "splitsim.hamiltonians", "random_termset"),
    ("hamiltonians.spin_chain_termset", "splitsim.hamiltonians", "spin_chain_termset"),
    ("hamiltonians.min_pairwise_commutator", "splitsim.hamiltonians", "min_pairwise_commutator"),
    ("series.word_series", "splitsim.series", "word_series"),
    ("series.series_mul", "splitsim.series", "series_mul"),
    ("series.s_value", "splitsim.series", "s_value"),
    ("series.third_order_pair_sum", "splitsim.series", "third_order_pair_sum"),
    ("series.interleaving_profile", "splitsim.series", "interleaving_profile"),
    ("series.series_to_json", "splitsim.series", "series_to_json"),
    ("bounds.lemma2_max", "splitsim.bounds", "lemma2_max"),
    ("bounds.audit_schedule", "splitsim.bounds", "audit_schedule"),
    ("kernel.eigh", "numpy.linalg", "eigh"),
    ("kernel.eigvalsh", "numpy.linalg", "eigvalsh"),
    ("kernel.svd", "numpy.linalg", "svd"),
    ("kernel.norm", "numpy.linalg", "norm"),
    ("kernel.matrix_power", "numpy.linalg", "matrix_power"),
)
NAMES = tuple(t[0] for t in TARGETS)


def matrix_power_products(k: int) -> int:
    """Matrix products numpy's binary powering makes for exponent ``k``."""
    if k < 2:
        return 0
    return k.bit_length() - 1 + bin(k).count("1") - 1


def _matrix_power_gflop(args, kwargs) -> float:
    a = args[0] if args else kwargs["a"]
    k = args[1] if len(args) > 1 else kwargs["n"]
    n = a.shape[-1]
    return 8.0 * n**3 * matrix_power_products(abs(int(k))) / 1e9


def _word_steps(args, kwargs) -> float:
    w = args[1] if len(args) > 1 else kwargs["w"]
    return float(len(w.steps))


# Work counted from call arguments, keyed by span name.
COUNTERS = {
    "schedules.word_unitary": ("schedules.word_unitary.steps", _word_steps),
    "kernel.matrix_power": ("kernel.matrix_power.gflop_computed", _matrix_power_gflop),
}


class Tracer:
    """Records spans while installed; ``pass_summary`` aggregates a pass."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.item_id = -1
        self.counts = {metric: 0.0 for metric, _ in COUNTERS.values()}
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name)

    def _wrap(self, nid: int, fn, counter):
        tr = self

        def wrapper(*args, **kwargs):
            idx = len(tr.name)
            tr.name.append(nid)
            tr.parent.append(tr.stack[-1] if tr.stack else -1)
            tr.item.append(tr.item_id)
            tr.end.append(0.0)
            if counter is not None:
                tr.counts[counter[0]] += counter[1](args, kwargs)
            tr.stack.append(idx)
            tr.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                tr.end[idx] = time.perf_counter()
                tr.stack.pop()

        return wrapper

    def install(self) -> None:
        namespaces = [
            mod for key, mod in sys.modules.items()
            if key == "splitsim" or key.startswith("splitsim.")
        ]
        for nid, (name, module, attr) in enumerate(TARGETS):
            mod = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self._wrap(nid, orig, COUNTERS.get(name)))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(nid, orig, COUNTERS.get(name))
            for ns in {id(m): m for m in namespaces + [mod]}.values():
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        self._patch(ns, key, orig, wrapper)

    def _patch(self, owner, key: str, orig, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, orig))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, orig = self._patches.pop()
            setattr(owner, key, orig)

    def pass_summary(self, lo: int) -> dict:
        """Calls, self time and counted work of the spans recorded since span
        ``lo``; resets the counters for the next pass."""
        import numpy as np

        hi = len(self.name)
        name = np.array(self.name[lo:hi], dtype=np.int64)
        parent = np.array(self.parent[lo:hi], dtype=np.int64)
        dur = np.array(self.end[lo:hi]) - np.array(self.start[lo:hi])
        covered = np.zeros(hi - lo)
        inner = parent >= 0
        np.add.at(covered, parent[inner] - lo, dur[inner])
        calls = np.bincount(name, minlength=len(NAMES))
        self_s = np.bincount(name, weights=dur - covered, minlength=len(NAMES))
        counts, self.counts = self.counts, dict.fromkeys(self.counts, 0.0)
        return {
            "calls": {n: int(calls[i]) for i, n in enumerate(NAMES)},
            "self_s": {n: float(self_s[i]) for i, n in enumerate(NAMES)},
            "counts": counts,
        }

    def write_jsonl(self, path) -> None:
        """One JSON object per span; line i (from 0) is span i, and
        ``parent`` is the parent's line number or -1."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.name)):
                fh.write(
                    f'{{"name":"{NAMES[self.name[i]]}","start":{self.start[i]!r},'
                    f'"end":{self.end[i]!r},"parent":{self.parent[i]},"item":{self.item[i]}}}\n'
                )


# The per-layer metrics, in BENCHMARK.json order. Each ratio is
# (numerator count, denominator count).
_RATIOS = {
    "harness.probes_per_cell": ("harness.SchemeEvaluator.error.calls", "harness._bisect_min_k.calls"),
    "matkernel.expm_per_word_step": ("matkernel.expm_hermitian.calls", "schedules.word_unitary.steps"),
    "bounds.s_value_per_lemma2": ("series.s_value.calls", "bounds.lemma2_max.calls"),
}
PER_LAYER = (
    "cli.main.calls", "cli.main.self_s",
    "harness.SchemeEvaluator.error.calls", "harness.SchemeEvaluator.error.self_s",
    "harness.lemma1_campaign.self_s", "harness.probes_per_cell",
    "channels.mixture_superoperator.calls", "channels.mixture_superoperator.self_s",
    "channels.lemma1_report.calls", "channels.lemma1_report.self_s",
    "channels.apply_channel.self_s", "channels.mean_unitary.self_s",
    "channels.expected_sq_deviation.self_s", "channels.exact_evolution.calls",
    "schedules.word_unitary.calls", "schedules.word_unitary.self_s",
    "schedules.word_unitary.steps",
    "schedules.alg2_stage_mixture.calls", "schedules.alg2_stage_mixture.self_s",
    "matkernel.expm_hermitian.calls", "matkernel.expm_hermitian.self_s",
    "matkernel.expm_per_word_step",
    "matkernel.hermitian_deviation.calls", "matkernel.hermitian_deviation.self_s",
    "matkernel.spectral_norm.calls", "matkernel.spectral_norm.self_s",
    "matkernel.trace_norm.calls", "matkernel.trace_norm.self_s",
    "matkernel.DensityMatrix.calls", "matkernel.DensityMatrix.self_s",
    "hamiltonians.random_termset.calls", "hamiltonians.random_termset.self_s",
    "hamiltonians.TermSet.calls", "hamiltonians.TermSet.self_s",
    "hamiltonians.min_pairwise_commutator.self_s",
    "series.s_value.calls", "series.s_value.self_s",
    "series.word_series.calls", "series.word_series.self_s",
    "series.series_mul.calls", "series.third_order_pair_sum.calls",
    "bounds.lemma2_max.calls", "bounds.lemma2_max.self_s",
    "bounds.audit_schedule.self_s", "bounds.s_value_per_lemma2",
    "kernel.eigh.calls", "kernel.eigh.self_s", "kernel.eigvalsh.calls",
    "kernel.svd.calls", "kernel.svd.self_s",
    "kernel.norm.calls", "kernel.norm.self_s",
    "kernel.matrix_power.calls", "kernel.matrix_power.self_s",
    "kernel.matrix_power.gflop_computed",
    "trace.overhead_s",
)


def unit_of(metric: str) -> str:
    if metric in _RATIOS:
        return "ratio"
    if metric.endswith(".gflop_computed"):
        return "GFLOP"
    if metric.endswith((".calls", ".steps")):
        return "count"
    return "s"


def _span_of(metric: str) -> str:
    return metric.rsplit(".", 1)[0]


def layer_metrics(passes: list[dict], untraced_s: list[float], traced_s: list[float]):
    """Per-layer metrics from traced-pass summaries.

    Returns ``(metrics, not_applicable, problems)``. Counts come from the first
    traced pass and must repeat exactly in every other one; times are medians
    over the traced passes. A metric whose span or ratio base never occurs on
    this workload is reported as 0 and named in ``not_applicable``.
    """
    problems = []
    first = passes[0]
    for i, other in enumerate(passes[1:], start=1):
        if other["calls"] != first["calls"] or other["counts"] != first["counts"]:
            problems.append(f"traced pass {i} counts differ from traced pass 0")

    def count(metric: str) -> float:
        if metric in first["counts"]:
            return first["counts"][metric]
        return first["calls"][_span_of(metric)]

    metrics, not_applicable = {}, []
    for metric in PER_LAYER:
        if metric == "trace.overhead_s":
            value = statistics.median(traced_s) - statistics.median(untraced_s)
        elif metric in _RATIOS:
            num, den = _RATIOS[metric]
            value = count(num) / count(den) if count(den) else 0.0
            if not count(den):
                not_applicable.append(metric)
        else:
            span = _span_of(metric)
            if metric.endswith(".self_s"):
                value = statistics.median(p["self_s"][span] for p in passes)
            else:
                value = count(metric)
            if not first["calls"][span]:
                not_applicable.append(metric)
        metrics[metric] = {"value": value, "unit": unit_of(metric)}
    return metrics, not_applicable, problems

