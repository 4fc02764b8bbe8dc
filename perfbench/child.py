"""Child processes of the benchmark harness.

    python3 child.py cli SPANS OP_ID ARG...
        Run quadbin.cli.main(ARG...) with every wrap point traced, the way a
        fresh ``quadbin ARG...`` process would; write the spans to SPANS.
    python3 child.py fock [--trace]
        Fock worker, one long-lived process as a notebook user runs it. Each
        stdin line is a JSON request {"ids": [...], "ops": [[r, loss, delta,
        cutoff], ...]}; each answer is one stdout line {"results": [...],
        "spans": [...]}. An empty line or end of input stops it.

The harness puts the checkout's ``src`` directory on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
import time

from tracing import WRAP_POINTS, Tracer


def traced_cli(spans_path: str, op_id: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.op_id = op_id
    missing: list[str] = []
    try:
        with tracer.span("cli.import"):
            import quadbin.cli
        missing = tracer.install()
        with tracer.span("cli.main") as rec:
            rec["exit_nonzero"] = 1
            rc = quadbin.cli.main(argv)
            rec["exit_nonzero"] = int(rc != 0)
        return rc
    finally:
        tracer.restore()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "missing": missing}, fh)


def fock_worker(trace: bool) -> None:
    from quadbin import fock
    from quadbin.model import StateParams

    tracer = Tracer()
    missing = tracer.install([p for p in WRAP_POINTS if p[1] == "quadbin.fock"]) if trace else []
    try:
        for line in sys.stdin:
            if not line.strip():
                break
            req = json.loads(line)
            tracer.spans = []
            results = []
            for op_id, (r, loss, delta, cutoff) in zip(req["ids"], req["ops"]):
                tracer.op_id = op_id
                t0 = time.perf_counter()
                try:
                    ep, error = fock.entanglement_potential(fock.state_from_params(StateParams(r, loss, delta), cutoff)), None
                except Exception as exc:  # reported to the harness, which counts the operation as failed
                    ep, error = None, f"{type(exc).__name__}: {exc}"
                results.append({"seconds": time.perf_counter() - t0, "ep": ep, "error": error})
            sys.stdout.write(json.dumps({"results": results, "spans": tracer.spans, "missing": missing}) + "\n")
            sys.stdout.flush()
    finally:
        tracer.restore()


if __name__ == "__main__":
    if sys.argv[1] == "cli":
        sys.exit(traced_cli(sys.argv[2], sys.argv[3], sys.argv[4:]))
    fock_worker("--trace" in sys.argv[2:])
