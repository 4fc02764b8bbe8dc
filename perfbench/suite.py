"""Run the benchmark over workloads and seeds; print every end-to-end metric.

    python3 perfbench/suite.py [--seeds 1,2] [--out FILE]

Runs ``run.py --trace 0`` once per workload of BENCHMARK.json and seed, one run
at a time, each measuring the file's ``run_seconds``. For
each workload and end-to-end metric it prints the median, quartiles and
sample count over the runs, and the spread (q3 - q1) / median next to the
metric's bound from BENCHMARK.json. failed_frac (failed / attempted
operations) is printed per workload and seed. Seed 1 is the benchmark seed;
seed 2 is the second seed on which every check must pass too. ``--seeds 1-10``
gives the ten-run spread check. Exits 1 if a run fails or reports an
incorrect result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def stats(values: list[float]) -> dict:
    s = quartiles(values)
    return {**s, "spread": (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2")
    parser.add_argument("--out", help="write the summary as JSON to this file")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    ok, summary = True, {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                                   "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                                  capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 3:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
            ok = ok and result["correct"]
            runs.append((seed, detail, result))
            print(f"{workload} seed {seed}: failed_frac {result['failed']}/{result['attempted']}"
                  f" = {result['failed'] / result['attempted']:.3g}, {detail['passes']} passes"
                  + "".join(f", {k} {v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items())
                  + "".join(f"\n    {e}" for e in detail["errors"]))
        if not runs:
            continue
        summary[workload] = {"runs": len(runs), "passes": [d["passes"] for _, d, _ in runs],
                             "failed": sum(r["failed"] for _, _, r in runs),
                             "attempted": sum(r["attempted"] for _, _, r in runs), "metrics": {},
                             "op_seconds": {op: quartiles([d["op_seconds"][op] for _, d, _ in runs])["median"]
                                            for op in runs[0][1]["op_seconds"]}}
        for name, metric in runs[0][2]["metrics"].items():
            s = stats([r["metrics"][name]["value"] for _, _, r in runs])
            summary[workload]["metrics"][name] = {"unit": metric["unit"], **s}
            bound = bounds[name]["bound"]
            print(f"  {workload:9s} {name:12s} median {s['median']:.4g} {metric['unit']}  q1 {s['q1']:.4g}"
                  f"  q3 {s['q3']:.4g}  n {s['n']}  spread {s['spread']:.3f} (bound {bound})")
        w = summary[workload]
        print(f"  {workload:9s} failed_frac  {w['failed']}/{w['attempted']} = {w['failed'] / w['attempted']:.3g}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
