"""Self-tests of the benchmark harness: span arithmetic, metric names, the result contract.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import json
import math
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# Every per-layer metric the benchmark's specification names.
SPECIFIED_LAYER_METRICS = """
cli.import_s cli.main.calls cli.main.self_s cli.exit_nonzero
data.write_csv.s data.write_csv.rows data.write_csv.bytes data.read_csv.s data.read_csv.rows data.read_csv.bytes
data.sample_dataset.s data.sample_dataset.records data.inject_phase_noise.s data.select_phase_window.s
data.select_phase_window.kept_frac data.Dataset.calls data.Dataset.s
binning.bin_indices.calls binning.bin_indices.s binning.histogram.s
detect.normally_ordered_moments.calls detect.normally_ordered_moments.s
detect.moment_matrix_from_moments.calls detect.moment_matrix_from_moments.s
detect.analytic_three_bin_R.calls detect.analytic_three_bin_R.s
model.QuadratureDistribution.bin_probabilities.calls model.QuadratureDistribution.bin_probabilities.s
model.rotated_variance.s
estimate.summarize.calls estimate.summarize.s estimate.estimate_params.calls estimate.estimate_params.s
estimate.estimate_params.failed
stats.resample_indices.calls stats.resample_indices.s stats.resample_indices.indices
stats.resample_indices.subsample.indices stats.resample_indices.replacement.indices
stats.bootstrap.self_s stats.compare_methods.self_s stats.flagged_frac
fock.state_from_params.s fock.beam_split_with_vacuum.s fock.partial_transpose.s
fock.entanglement_potential.self_s fock.entanglement_potential.c10.s fock.entanglement_potential.c20.s
fock.entanglement_potential.c30.s fock.entanglement_potential.c40.s fock.eig_dim_sum fock.eig_flops_computed
trace.overhead_frac
""".split()
SPECIFIED_END_TO_END = ["wall_s", "setup_s", "peak_rss_mb"]


def span(name, t0, t1, parent=None, **counters):
    return {"name": name, "t0": t0, "t1": t1, "parent": parent, "op": "op", **counters}


def test_union_length_merges_overlaps_and_gaps():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == pytest.approx(4.0)


def test_self_time_subtracts_covered_part_of_children_only():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 4.0, parent=0),
        span("c", 3.0, 6.0, parent=0),  # overlaps its sibling: counted once
        span("d", 2.0, 3.0, parent=1),  # grandchild of a: already inside b
        span("e", 9.0, 12.0, parent=0),  # runs past its parent: only the inside part counts
    ]
    assert tracing.self_s(spans, [0]) == pytest.approx(10.0 - 5.0 - 1.0)
    assert tracing.self_s(spans, [1]) == pytest.approx(2.0)
    assert tracing.self_s(spans, [1, 2]) == pytest.approx(2.0 + 3.0)
    assert tracing.busy_s(spans[1:3]) == pytest.approx(5.0)


def test_layer_metrics_from_synthetic_spans():
    spans = [
        span("stats.bootstrap", 0.0, 10.0, flagged=2, resamples=8),
        span("stats.resample_indices", 1.0, 2.0, parent=0, indices=5, mode="subsample"),
        span("binning.bin_indices", 2.0, 4.0, parent=0),
        span("stats.resample_indices", 4.0, 4.5, parent=0, indices=7, mode="replacement"),
        span("fock.entanglement_potential", 20.0, 23.0, cutoff=10, eig_dim=121),
        span("fock.partial_transpose", 20.5, 21.0, parent=4),
        span("cli.import", 30.0, 30.4),
        span("cli.import", 31.0, 31.6),
        span("cli.import", 32.0, 32.5),
        span("cli.main", 33.0, 34.0, exit_nonzero=1),
    ]
    m = {k: v["value"] for k, v in tracing.layer_metrics(spans).items()}
    m.update(tracing.diagnostics(spans, 0.05))
    assert m["stats.bootstrap.self_s"] == pytest.approx(10.0 - 1.0 - 2.0 - 0.5)
    assert m["stats.resample_indices.calls"] == 2
    assert m["stats.resample_indices.indices"] == 12
    assert m["stats.resample_indices.subsample.indices"] == 5
    assert m["stats.resample_indices.replacement.s"] == pytest.approx(0.5)
    assert m["stats.flagged_frac"] == pytest.approx(0.25)
    assert m["binning.bin_indices.s"] == pytest.approx(2.0)
    assert m["fock.entanglement_potential.self_s"] == pytest.approx(2.5)
    assert m["fock.entanglement_potential.c10.s"] == pytest.approx(3.0)
    assert m["fock.entanglement_potential.c40.s"] == 0.0
    assert m["fock.eig_dim_sum"] == 121
    assert m["fock.eig_flops_computed"] == pytest.approx(16.0 / 3.0 * 121**3)
    assert m["cli.import_s"] == pytest.approx(0.5)
    assert m["cli.exit_nonzero"] == 1
    assert m["trace.overhead_frac"] == 0.05


def test_tracer_records_parents_and_failures_and_restores():
    ns = types.SimpleNamespace()
    ns.inner = lambda x: x + 1

    def outer(x):
        return ns.inner(x) * 2

    def broken():
        raise ValueError("boom")

    ns.outer, ns.broken = outer, broken
    originals = dict(vars(ns))
    tracer = tracing.Tracer()
    tracer.op_id = "op-1"
    for attr in ("inner", "outer", "broken"):
        tracer.wrap(ns, attr, f"t.{attr}", (lambda res, args, kw: {"arg": args[0]}) if attr == "inner" else None)
    assert ns.outer(3) == 8
    with pytest.raises(ValueError):
        ns.broken()
    tracer.restore()
    assert dict(vars(ns)) == originals
    names = [s["name"] for s in tracer.spans]
    assert names == ["t.outer", "t.inner", "t.broken"]
    assert tracer.spans[1]["parent"] == 0 and tracer.spans[1]["arg"] == 3
    assert tracer.spans[2]["failed"] == 1 and tracer.spans[2]["parent"] is None
    assert all(s["op"] == "op-1" and s["t1"] >= s["t0"] for s in tracer.spans)


def test_install_covers_lazy_callers_and_reports_missing_definitions(monkeypatch):
    data = types.ModuleType("fake.data")
    data.read = lambda x: 2 * x
    cli = types.ModuleType("fake.cli")
    cli.read = data.read  # bound at import time
    lazy = types.ModuleType("fake.lazy")  # looks the name up in fake.data at call time
    other = types.ModuleType("fake.other")
    other.read = lambda x: 3 * x  # binds another function under the same name
    for mod in (data, cli, lazy, other):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    originals = [data.read, cli.read, other.read]

    tracer = tracing.Tracer()
    points = [("data.read", "fake.data", "read", ("fake.cli", "fake.lazy", "fake.other")),
              ("data.gone", "fake.data", "gone", ("fake.cli",))]
    assert tracer.install(points) == ["fake.data.gone"]
    assert cli.read is data.read and not hasattr(lazy, "read")
    assert (cli.read(1), importlib.import_module("fake.data").read(2), other.read(3)) == (2, 4, 9)
    assert [(s["name"], s["parent"]) for s in tracer.spans] == [("data.read", None)] * 3
    tracer.restore()
    assert [data.read, cli.read, other.read] == originals


def test_missing_wrap_point_fails_the_traced_operation(monkeypatch, tmp_path):
    h = run.Harness(1, tmp_path)

    def child(argv):  # stands in for child.py cli SPANS OP_ID ARG...
        Path(argv[2]).write_text(json.dumps({"spans": [], "missing": ["quadbin.data.read_csv"]}))
        return subprocess.CompletedProcess(argv, 0, stdout="{}", stderr="")

    monkeypatch.setattr(h, "run", child)
    op = types.SimpleNamespace(name="op", argv=[], outputs=[], check=lambda out, first: [])
    results = run.CliWorkload(h, "scan", [op]).run_pass(1, trace=True)
    assert results[0]["errors"] == ["not traced: quadbin.data.read_csv is missing"]
    assert h.missing == {"quadbin.data.read_csv"}


def test_three_bin_oracle_and_subsample_se():
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads
    from quadbin import StateParams

    # delta = 0: one Gaussian of variance var_x, bin masses from the error function
    params, sigma = StateParams(0.4, 0.1, 0.0), 0.8
    sd = math.sqrt(workloads.var_x(0.4, 0.1, 0.0))

    def mass(m):
        return 0.5 * (math.erf((m + 0.5) * sigma / sd / math.sqrt(2)) - math.erf((m - 0.5) * sigma / sd / math.sqrt(2)))

    exact = mass(1) * mass(-1) / mass(0) ** 2 * math.exp(sigma**2)
    assert workloads.three_bin_oracle(params, sigma) == pytest.approx(exact, rel=1e-12)
    diffused = StateParams(1.0409, 0.414, 0.15)
    assert workloads.three_bin_oracle(diffused, window=1e-6) == pytest.approx(workloads.three_bin_oracle(diffused), rel=1e-9)
    # m = n/4: the spread of subsample estimates is sqrt(3) times the full-data standard error
    assert workloads.subsample_se(1.0, 40_000, 10**12) == pytest.approx(1 / math.sqrt(3))


def test_merge_spans_shifts_parents():
    into = [span("a", 0, 1)]
    tracing.merge_spans(into, [span("b", 2, 5), span("c", 3, 4, parent=0)])
    assert [s["parent"] for s in into] == [None, None, 1]


def test_metric_names_and_units_are_well_formed():
    for name, unit in tracing.LAYER_METRICS:
        assert NAME.fullmatch(name) and UNIT.fullmatch(unit), (name, unit)
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"]), m


def test_every_specified_metric_is_reported():
    reported = tracing.layer_metrics([])
    assert set(SPECIFIED_LAYER_METRICS) <= set(reported) | set(tracing.diagnostics([], 0.0))
    assert [m["name"] for m in BENCH["per_layer"]] == list(reported)
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == tracing.LAYER_METRICS
    assert [m["name"] for m in BENCH["end_to_end"]] == SPECIFIED_END_TO_END


class FakeWorkload:
    """Stands in for a workload: passes whose fingerprints may change from pass to pass."""

    def __init__(self, hashes):
        self.hashes = iter(hashes)

    def setup(self, trace=False):
        pass

    def run_pass(self, index, trace):
        return [{"op": "op", "seconds": 0.01 * (index + 1), "errors": [], "hash": next(self.hashes)}]

    def close(self):
        pass


def test_untraced_run_reports_every_end_to_end_metric(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "make_workload", lambda name, h: FakeWorkload(["x", "x", "x"]))
    metrics, detail, passes = run.run_untraced(run.Harness(1, tmp_path), "fake", 0.0)
    assert list(metrics) == SPECIFIED_END_TO_END
    units = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(metrics[k]["unit"] == units[k] and metrics[k]["value"] >= 0 for k in metrics)
    assert len(passes) == run.MIN_PASSES and not any(r["errors"] for p in passes for r in p)
    assert detail["wall_s"]["n"] == run.MIN_PASSES and detail["setup_s"]["n"] == run.SETUP_REPEATS


def test_pass_with_different_fingerprints_fails(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "make_workload", lambda name, h: FakeWorkload(["x", "y"]))
    _, _, passes = run.run_untraced(run.Harness(1, tmp_path), "fake", 0.0)
    assert not passes[0][0]["errors"] and passes[1][0]["errors"]


def test_benchmark_file_follows_the_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["perfbench"] and BENCH["command"] == ["python3", "perfbench/run.py"]
    assert 1 <= BENCH["run_seconds"] <= 60
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in BENCH["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in BENCH["per_layer"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in BENCH["end_to_end"]
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names)) and len(BENCH["per_layer"]) <= 128


def test_exits_nonzero_without_a_result_outside_a_checkout(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "fock", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
