"""Spans for the traced benchmark run, and the per-layer metrics derived from them.

A Tracer replaces public quadbin functions by wrappers where they are defined
(``quadbin.data.read_csv``) and at the names their callers bind at import time
(``quadbin.cli.read_csv``), records one span per call and puts every original
back on ``restore``. A defining name that no longer exists is reported as
missing, and the harness fails the traced operation for it. A span
is a dict with the span name, start and end (``time.perf_counter``), the index
of its parent span, the operation id, and the counters its observer adds.
Spans stay in memory; child processes hand theirs to the harness as JSON.

This module imports nothing from quadbin at import time, so a child process
can time ``import quadbin.cli`` after importing it.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
from contextlib import contextmanager

# Every per-layer metric, in the order BENCHMARK.json lists them.
LAYER_METRICS = [
    ("cli.import_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("data.write_csv.s", "s"),
    ("data.write_csv.rows", "count"),
    ("data.write_csv.bytes", "bytes"),
    ("data.read_csv.s", "s"),
    ("data.read_csv.rows", "count"),
    ("data.read_csv.bytes", "bytes"),
    ("data.sample_dataset.s", "s"),
    ("data.sample_dataset.records", "count"),
    ("data.inject_phase_noise.s", "s"),
    ("data.select_phase_window.s", "s"),
    ("data.select_phase_window.kept_frac", "ratio"),
    ("data.Dataset.calls", "count"),
    ("data.Dataset.s", "s"),
    ("binning.bin_indices.calls", "count"),
    ("binning.bin_indices.s", "s"),
    ("binning.histogram.s", "s"),
    ("detect.normally_ordered_moments.calls", "count"),
    ("detect.normally_ordered_moments.s", "s"),
    ("detect.moment_matrix_from_moments.calls", "count"),
    ("detect.moment_matrix_from_moments.s", "s"),
    ("detect.analytic_three_bin_R.calls", "count"),
    ("detect.analytic_three_bin_R.s", "s"),
    ("model.QuadratureDistribution.bin_probabilities.calls", "count"),
    ("model.QuadratureDistribution.bin_probabilities.s", "s"),
    ("model.rotated_variance.s", "s"),
    ("estimate.summarize.calls", "count"),
    ("estimate.summarize.s", "s"),
    ("estimate.estimate_params.calls", "count"),
    ("estimate.estimate_params.s", "s"),
    ("stats.resample_indices.calls", "count"),
    ("stats.resample_indices.s", "s"),
    ("stats.resample_indices.indices", "count"),
    ("stats.resample_indices.subsample.calls", "count"),
    ("stats.resample_indices.subsample.s", "s"),
    ("stats.resample_indices.subsample.indices", "count"),
    ("stats.resample_indices.replacement.calls", "count"),
    ("stats.resample_indices.replacement.s", "s"),
    ("stats.resample_indices.replacement.indices", "count"),
    ("stats.bootstrap.self_s", "s"),
    ("stats.compare_methods.self_s", "s"),
    ("fock.state_from_params.s", "s"),
    ("fock.beam_split_with_vacuum.s", "s"),
    ("fock.partial_transpose.s", "s"),
    ("fock.entanglement_potential.self_s", "s"),
    ("fock.entanglement_potential.c10.s", "s"),
    ("fock.entanglement_potential.c20.s", "s"),
    ("fock.entanglement_potential.c30.s", "s"),
    ("fock.entanglement_potential.c40.s", "s"),
    ("fock.eig_dim_sum", "count"),
    ("fock.eig_flops_computed", "flop"),
]


def _spec(args, kwargs):
    """The BootstrapSpec among a call's arguments, found by duck typing."""
    return next((a for a in (*args, *kwargs.values()) if hasattr(a, "n_resamples")), None)


def _observe_resample(result, args, kwargs):
    mode = getattr(_spec(args, kwargs), "mode", "")
    return {"indices": len(result), "mode": "replacement" if "replacement" in mode else "subsample"}


def _observe_flagged(flagged):
    def observe(result, args, kwargs):
        return {"flagged": flagged(result), "resamples": getattr(_spec(args, kwargs), "n_resamples", 0)}

    return observe


def _observe_ep(result, args, kwargs):
    return {"cutoff": args[0].cutoff, "eig_dim": (args[0].cutoff + 1) ** 2}


OBSERVERS = {
    "data.read_csv": lambda res, args, kw: {"rows": res.n, "bytes": os.path.getsize(args[0])},
    "data.write_csv": lambda res, args, kw: {"rows": args[0].n, "bytes": os.path.getsize(args[1])},
    "data.sample_dataset": lambda res, args, kw: {"records": res.n},
    "data.select_phase_window": lambda res, args, kw: {"n_in": args[0].n, "n_kept": res.n},
    "stats.resample_indices": _observe_resample,
    "stats.bootstrap": _observe_flagged(lambda res: res.n_flagged),
    "stats.compare_methods": _observe_flagged(lambda res: res[0].n_flagged),
    "fock.entanglement_potential": _observe_ep,
}

# (span name, module that defines the function, attribute path there, modules that import it by name).
# Each function is wrapped where it is defined, which also covers callers that import it lazily,
# and at every name a caller module binds to it at import time.
WRAP_POINTS = [
    ("data.read_csv", "quadbin.data", "read_csv", ("quadbin.cli",)),
    ("data.write_csv", "quadbin.data", "write_csv", ("quadbin.cli",)),
    ("data.sample_dataset", "quadbin.data", "sample_dataset", ("quadbin.cli",)),
    ("data.inject_phase_noise", "quadbin.data", "inject_phase_noise", ("quadbin.cli",)),
    ("data.select_phase_window", "quadbin.data", "select_phase_window", ("quadbin.cli",)),
    # the class stays a class (isinstance checks need it); its __init__ sees every construction
    ("data.Dataset", "quadbin.data", "Dataset.__init__", ()),
    ("model.rotated_variance", "quadbin.model", "rotated_variance", ("quadbin.data",)),
    ("model.QuadratureDistribution.bin_probabilities", "quadbin.model", "QuadratureDistribution.bin_probabilities", ()),
    ("binning.histogram", "quadbin.binning", "histogram", ("quadbin.cli",)),
    ("binning.bin_indices", "quadbin.binning", "bin_indices", ("quadbin.stats",)),
    ("detect.normally_ordered_moments", "quadbin.detect", "normally_ordered_moments", ("quadbin.cli", "quadbin.stats")),
    ("detect.moment_matrix_from_moments", "quadbin.detect", "moment_matrix_from_moments", ("quadbin.cli", "quadbin.stats")),
    ("detect.analytic_three_bin_R", "quadbin.detect", "analytic_three_bin_R", ("quadbin.cli",)),
    ("estimate.summarize", "quadbin.estimate", "summarize", ("quadbin.cli",)),
    ("estimate.estimate_params", "quadbin.estimate", "estimate_params", ("quadbin.cli",)),
    ("stats.resample_indices", "quadbin.stats", "resample_indices", ("quadbin.cli",)),
    ("stats.bootstrap", "quadbin.stats", "bootstrap", ("quadbin.cli",)),
    ("stats.compare_methods", "quadbin.stats", "compare_methods", ("quadbin.cli",)),
    ("fock.state_from_params", "quadbin.fock", "state_from_params", ("quadbin.cli",)),
    ("fock.beam_split_with_vacuum", "quadbin.fock", "beam_split_with_vacuum", ()),
    ("fock.partial_transpose", "quadbin.fock", "partial_transpose", ()),
    ("fock.entanglement_potential", "quadbin.fock", "entanglement_potential", ("quadbin.cli",)),
]


class Tracer:
    """In-memory span recorder that can wrap functions and restore them."""

    def __init__(self):
        self.op_id = ""
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "t0": time.perf_counter(), "t1": None, "op": self.op_id,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["t1"] = time.perf_counter()

    def wrap(self, owner, attr: str, name: str, observe=None):
        """Replace ``owner.attr`` by a wrapper that records a span per call; return the wrapper."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name) as rec:
                try:
                    result = original(*args, **kwargs)
                except Exception:
                    rec["failed"] = 1
                    raise
            if observe is not None:
                rec.update(observe(result, args, kwargs))
            return result

        wrapper.__wrapped__ = original
        self._set(owner, attr, wrapper)
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, points=WRAP_POINTS) -> list[str]:
        """Wrap every point; return the defining names the package no longer has.

        A caller module that no longer binds the name (a lazy import) is
        covered by the wrapper at the definition. One that binds another
        object gets a wrapper of its own under the same span name.
        """
        missing = []
        for name, module, path, callers in points:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p, None)
            if owner is None or not hasattr(owner, attr):
                missing.append(f"{module}.{path}")
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(owner, attr, name, OBSERVERS.get(name))
            for caller in callers:
                mod = importlib.import_module(caller)
                bound = getattr(mod, attr, None)
                if bound is original:
                    self._set(mod, attr, wrapper)
                elif bound is not None and bound is not wrapper:
                    self.wrap(mod, attr, name, OBSERVERS.get(name))
        return missing

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def merge_spans(into: list[dict], spans: list[dict]) -> None:
    """Append spans recorded elsewhere, shifting their parent indices."""
    offset = len(into)
    for s in spans:
        into.append({**s, "parent": None if s["parent"] is None else s["parent"] + offset})


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def busy_s(spans) -> float:
    """Time covered by the spans, counting overlapping spans once."""
    return union_length((s["t0"], s["t1"]) for s in spans)


def self_s(all_spans: list[dict], idx: list[int]) -> float:
    """Duration of the spans at ``idx`` minus the part covered by their child spans."""
    children: dict[int, list[tuple]] = {}
    for s in all_spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["t0"], s["t1"]))
    total = 0.0
    for i in idx:
        s = all_spans[i]
        inside = [(max(a, s["t0"]), min(b, s["t1"])) for a, b in children.get(i, []) if b > s["t0"] and a < s["t1"]]
        total += (s["t1"] - s["t0"]) - union_length(inside)
    return total


def _index(spans: list[dict]):
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s["name"], []).append(i)

    def pick(name, **attrs):
        return [i for i in by_name.get(name, []) if all(spans[i].get(k) == v for k, v in attrs.items())]

    def total(name, key):
        return sum(spans[i].get(key, 0) for i in pick(name))

    return pick, total


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans: list[dict]) -> dict:
    """Every metric of LAYER_METRICS from the spans of a traced run.

    Names follow ``<span name>[.<filter>].<stat>``: ``calls`` counts spans,
    ``s`` is busy time, ``self_s`` is self time, any other stat sums that
    counter; the filter ``subsample``/``replacement`` selects a resampling
    mode and ``c<N>`` a Fock cutoff. A few ratios and derived counts are
    computed by name below.
    """
    pick, total = _index(spans)
    special = {
        "cli.import_s": lambda: statistics.median([spans[i]["t1"] - spans[i]["t0"] for i in pick("cli.import")] or [0.0]),
        "data.select_phase_window.kept_frac": lambda: _ratio(
            total("data.select_phase_window", "n_kept"), total("data.select_phase_window", "n_in")),
        "fock.eig_dim_sum": lambda: total("fock.entanglement_potential", "eig_dim"),
        # 16/3 n^3 flops per complex Hermitian eigenvalue solve of order n (tridiagonal reduction)
        "fock.eig_flops_computed": lambda: sum(16.0 / 3.0 * spans[i]["eig_dim"] ** 3
                                               for i in pick("fock.entanglement_potential")),
    }
    out = {}
    for metric, unit in LAYER_METRICS:
        if metric in special:
            value = special[metric]()
        else:
            base, stat = metric.rsplit(".", 1)
            attrs = {}
            head, _, tail = base.rpartition(".")
            if tail in ("subsample", "replacement"):
                base, attrs = head, {"mode": tail}
            elif tail[:1] == "c" and tail[1:].isdigit():
                base, attrs = head, {"cutoff": int(tail[1:])}
            idx = pick(base, **attrs)
            if stat == "calls":
                value = len(idx)
            elif stat == "s":
                value = busy_s(spans[i] for i in idx)
            elif stat == "self_s":
                value = self_s(spans, idx)
            else:
                value = sum(spans[i].get(stat, 0) for i in idx)
        out[metric] = {"value": value, "unit": unit}
    return out


def diagnostics(spans: list[dict], overhead_frac: float) -> dict:
    """Counts that are 0 on a correct run, and the tracing overhead of a single pass.

    They go into the traced run's details, not its metrics: a failure count
    is 0 when nothing fails, and one traced pass against one untraced pass
    cannot resolve the overhead below the pass-to-pass noise.
    """
    pick, total = _index(spans)
    return {
        "cli.exit_nonzero": total("cli.main", "exit_nonzero"),
        "estimate.estimate_params.failed": total("estimate.estimate_params", "failed"),
        # degenerate resamples / resamples; if this moves, the results changed
        "stats.flagged_frac": _ratio(
            total("stats.bootstrap", "flagged") + total("stats.compare_methods", "flagged"),
            total("stats.bootstrap", "resamples") + total("stats.compare_methods", "resamples")),
        "trace.overhead_frac": overhead_frac,
    }
