"""quadbin benchmark: one workload, one run.

    python3 perfbench/run.py --workload {scan,analysis,fock} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is the package under ``src``,
imported from source. Each workload is a closed loop with one client: one
process runs the operations one after another (see workloads.py for what each
workload does and why).

--trace 0  Sets up the workload five times, then repeats passes over its
           operations until S seconds are spent (at least two passes), checking
           every output. Prints the end-to-end metrics wall_s (median pass),
           setup_s (median set-up) and peak_rss_mb (largest child process).
--trace 1  For every workload, runs one pass with the public functions of each
           quadbin module wrapped (tracing.py) and prints the per-layer metrics.
           The named workload also runs one untraced pass, which must produce
           the same fingerprints and gives the diagnostic trace.overhead_frac
           (in the details, beside the failure counts that are 0 on a correct
           run). A wrap point the package no longer defines fails the
           operations that ran without it.

Stdout ends with three JSON lines: the environment, the details (samples,
quartiles, fingerprints, errors), and the result
{"correct", "attempted", "failed", "metrics"}. Operations that exit nonzero,
raise, fail a check, or whose pass fingerprints differ from the first pass
count as failed. Exits 2 without a result outside a checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import diagnostics, layer_metrics, merge_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("scan", "analysis", "fock")
SETUP_REPEATS = 5
MIN_PASSES = 2
CHILD_TIMEOUT_S = 150
CLI_ENTRY = "import sys; from quadbin.cli import main; sys.exit(main(sys.argv[1:]))"


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


class Harness:
    """Runs operations in child processes and checks and fingerprints their outputs."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        path = os.environ.get("PYTHONPATH")
        self.env = {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
        self.spans: dict[str, list[dict]] = {}
        self.missing: set[str] = set()

    def run(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *argv], env=self.env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)

    def fingerprint(self, stdout: str, outputs: list[Path]) -> str:
        """Hash of the payload with the work directory normalised, and of every file written."""
        h = hashlib.sha256(stdout.replace(str(self.work), "$WORK").encode())
        for path in outputs:
            for f in (path, path.with_suffix(".meta.json")):
                if f.exists():
                    h.update(f.read_bytes())
        return h.hexdigest()[:16]

    def add_spans(self, workload: str, spans: list[dict], missing: list[str]) -> list[str]:
        """Keep a traced operation's spans; return its errors, one per wrap point it lacked."""
        merge_spans(self.spans.setdefault(workload, []), spans)
        self.missing.update(missing)
        return [f"not traced: {name} is missing" for name in missing]


class CliWorkload:
    """A workload of fresh-process CLI calls."""

    def __init__(self, h: Harness, name: str, ops, setup=None):
        self.h, self.name, self.ops, self._setup = h, name, ops, setup

    def setup(self, trace: bool = False) -> None:
        if self._setup is not None:
            self._setup(self.h.seed, self.h.work)
        probe = self.h.run(["-c", "import quadbin.cli"])
        if probe.returncode != 0:
            raise RuntimeError(f"import quadbin.cli failed: {probe.stderr[-500:]}")

    def run_pass(self, index: int, trace: bool) -> list[dict]:
        results = []
        for k, op in enumerate(self.ops):
            op_id = f"{self.name}/{index}/{k}:{op.name}"
            spans_path = self.h.work / "spans.json"
            argv = [str(HERE / "child.py"), "cli", str(spans_path), op_id] if trace else ["-c", CLI_ENTRY]
            t0 = time.perf_counter()
            try:
                proc = self.h.run(argv + op.argv)
            except subprocess.TimeoutExpired:
                results.append({"op": op.name, "seconds": time.perf_counter() - t0, "hash": None,
                                "errors": [f"timed out after {CHILD_TIMEOUT_S} s"]})
                continue
            seconds = time.perf_counter() - t0
            errors = []
            if proc.returncode != 0:
                errors.append(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            else:
                try:
                    errors += op.check(json.loads(proc.stdout), index == 0)
                except Exception as exc:  # output the check cannot read fails the operation
                    errors.append(f"unreadable output: {type(exc).__name__}: {exc}")
            if trace and spans_path.exists():
                data = json.loads(spans_path.read_text(encoding="utf-8"))
                errors += self.h.add_spans(self.name, data["spans"], data["missing"])
                spans_path.unlink()
            results.append({"op": op.name, "seconds": seconds, "errors": errors,
                            "hash": self.h.fingerprint(proc.stdout, op.outputs)})
        return results

    def close(self) -> None:
        pass


class FockWorkload:
    """Library calls in one long-lived worker process (child.py fock)."""

    name = "fock"

    def __init__(self, h: Harness, ops, warm_up, check):
        self.h, self.ops, self.warm_up, self.check = h, ops, warm_up, check
        self.proc = None

    def _request(self, ids: list[str], ops: list) -> dict:
        self.proc.stdin.write(json.dumps({"ids": ids, "ops": ops}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"Fock worker exited with {self.proc.wait()}")
        return json.loads(line)

    def setup(self, trace: bool = False) -> None:
        argv = [str(HERE / "child.py"), "fock"] + (["--trace"] if trace else [])
        self.proc = subprocess.Popen([sys.executable, *argv], env=self.h.env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self._request(["warm-up"] * len(self.warm_up), self.warm_up)

    def run_pass(self, index: int, trace: bool) -> list[dict]:
        ids = [f"fock/{index}/{k}:c{op[3]}" for k, op in enumerate(self.ops)]
        reply = self._request(ids, self.ops)
        results = reply["results"]
        untraced = self.h.add_spans(self.name, reply["spans"], reply["missing"]) if trace else []
        errors = self.check(self.ops, [res["ep"] for res in results])
        return [{"op": f"r={op[0]},loss={op[1]},delta={op[2]},c={op[3]}", "seconds": res["seconds"],
                 "hash": hashlib.sha256(repr(res["ep"]).encode()).hexdigest()[:16],
                 "errors": ([res["error"]] if res["error"] else []) + errs + untraced}
                for op, res, errs in zip(self.ops, results, errors)]

    def close(self) -> None:
        if self.proc is not None:
            try:
                self.proc.communicate("\n", timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc = None


def make_workload(name: str, h: Harness):
    import workloads as w  # imports quadbin, so only after main() has found the checkout

    if name == "scan":
        return CliWorkload(h, name, w.scan_ops(h.seed, h.work))
    if name == "analysis":
        return CliWorkload(h, name, w.analysis_ops(h.seed, h.work), w.analysis_setup)
    warm_up = [(*w.FOCK_WARM_UP, c) for c in w.FOCK_CUTOFFS]
    return FockWorkload(h, w.fock_ops(h.seed), warm_up, w.fock_check)


def fingerprints(results: list[dict]) -> dict:
    return {f"{k}:{r['op']}": r["hash"] for k, r in enumerate(results)}


def same_as(passes: list[list[dict]], reference: list[dict], why: str) -> None:
    """Fail every operation of a pass whose fingerprints differ from the reference pass."""
    ref = [r["hash"] for r in reference]
    for results in passes:
        if [r["hash"] for r in results] != ref:
            for r in results:
                r["errors"].append(f"fingerprints differ from {why}")


def run_untraced(h: Harness, name: str, seconds: float) -> tuple[dict, dict, list]:
    wl = make_workload(name, h)
    setups, passes = [], []
    try:
        for _ in range(SETUP_REPEATS):
            wl.close()
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)
        start, longest = time.perf_counter(), 0.0
        while len(passes) < MIN_PASSES or time.perf_counter() - start + longest <= seconds:
            t0 = time.perf_counter()
            passes.append(wl.run_pass(len(passes), trace=False))
            longest = max(longest, time.perf_counter() - t0)
    finally:
        wl.close()
    same_as(passes[1:], passes[0], "the first pass")
    walls = [sum(r["seconds"] for r in results) for results in passes]
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }
    detail = {"wall_s": {**quartiles(walls), "samples": walls},
              "setup_s": {**quartiles(setups), "samples": setups},
              "peak_rss_mb": {"value": peak_mb, "n": 1},
              "fingerprints": fingerprints(passes[0]),
              "op_seconds": {r["op"]: statistics.median([p[k]["seconds"] for p in passes])
                             for k, r in enumerate(passes[0])}}
    return metrics, detail, passes


def run_traced(h: Harness, name: str) -> tuple[dict, dict, list]:
    passes, prints, overhead = [], {}, 0.0
    # every workload is traced so every layer metric is measured in every traced run
    for other in WORKLOADS:
        wl = make_workload(other, h)
        try:
            if other == name:
                wl.setup()
                untraced = wl.run_pass(0, trace=False)
                wl.close()
            wl.setup(trace=True)
            # the one-off checks already ran on the untraced pass of the named workload
            traced = wl.run_pass(int(other == name), trace=True)
        finally:
            wl.close()
        if other == name:
            same_as([traced], untraced, "the untraced pass")
            wall_u, wall_t = (sum(r["seconds"] for r in p) for p in (untraced, traced))
            overhead = (wall_t - wall_u) / wall_u
            passes.append(untraced)
        passes.append(traced)
        prints[other] = fingerprints(traced)
    spans: list[dict] = []
    for other in WORKLOADS:
        merge_spans(spans, h.spans.get(other, []))
    metrics = layer_metrics(spans)
    detail = {"per_workload": {other: {k: v["value"] for k, v in layer_metrics(h.spans.get(other, [])).items()}
                               for other in WORKLOADS},
              "diagnostics": diagnostics(spans, overhead),
              "spans": len(spans), "unwrapped": sorted(h.missing), "fingerprints": prints}
    return metrics, detail, passes


def blas_info() -> dict:
    import numpy as np

    info = {"name": "unknown", "threads": None}
    try:
        info["name"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                info["threads"] = getattr(lib, symbol)()
                break
    return info


def environment(seed: int, workload: str) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "blas": blas_info(), "cpu": cpu, "workload": workload, "seed": seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "quadbin" / "cli.py").is_file():
        sys.stderr.write(f"no quadbin package under {SRC}; run from the root of a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    # turn a stop request into an exception, so running children are killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    h = Harness(args.seed, work)
    try:
        if args.trace:
            metrics, detail, passes = run_traced(h, args.workload)
        else:
            metrics, detail, passes = run_untraced(h, args.workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [r for results in passes for r in results]
    failed = [r for r in ops if r["errors"]]
    detail.update({
        "passes": len(passes),
        "failed_frac": {"value": len(failed) / len(ops), "failed": len(failed), "attempted": len(ops)},
        "errors": [f"{r['op']}: {e}" for r in failed for e in r["errors"]][:20],
    })
    print(json.dumps({"env": environment(args.seed, args.workload)}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
