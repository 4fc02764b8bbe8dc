"""Golden CLI cases: run them, and rewrite their expected outputs.

    PYTHONPATH=src python3 tests/golden/regenerate.py [CASE_ID ...]

Builds the inputs of cases.json in a temporary directory (``simulate`` runs
with fixed seeds, or literal records), runs every case through
``quadbin.cli.main`` there, and writes expected.json: per case the exit code,
stdout, stderr and each output file, and the environment the outputs were
made in. With case ids, only those cases are rewritten and the others keep
their recorded outputs. quadbin is imported from PYTHONPATH, so pointing it at
another checkout's ``src`` records that checkout's outputs.

tests/test_golden.py compares bytes when the environment matches the recorded
one, and otherwise compares exit codes, integers and text exactly and floats
within REL_TOL, or within ABS_TOL of a value that is zero up to rounding (the
``estimate`` residuals are such values).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import re
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
CASES = HERE / "cases.json"
EXPECTED = HERE / "expected.json"

REL_TOL = 1e-9
ABS_TOL = 1e-12

# a decimal number as json.dumps, repr and the CSV tables write it; integers have no point and no exponent
_NUMBER = re.compile(r"(-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)")


def environment() -> dict:
    """The versions and CPU dispatch targets that decide the last bits of every float."""
    import numpy
    import scipy

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "cpu_dispatch": [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)],
    }


def load_cases() -> dict:
    return json.loads(CASES.read_text(encoding="utf-8"))


def run_cli(argv: list[str], workdir: Path) -> dict:
    """Exit code, stdout and stderr of one in-process CLI call with ``workdir`` as the current directory."""
    from quadbin.cli import main

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return {"exit_code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def build_inputs(inputs: dict, workdir: Path) -> None:
    """Write every input file: a ``simulate`` run, or (x, count) records at theta 0 without a sidecar."""
    for name, spec in inputs.items():
        if "simulate" in spec:
            result = run_cli(["simulate", *spec["simulate"], "--out", name], workdir)
            if result["exit_code"] != 0:
                raise RuntimeError(f"input {name}: {result['stderr']}")
        else:
            lines = ["theta,x"] + [f"0.0,{float(x)!r}" for x, count in spec["records"] for _ in range(count)]
            (workdir / name).write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_case(case: dict, workdir: Path) -> dict:
    """The case's exit code, stdout, stderr and output files; the output files are removed afterwards."""
    result = run_cli(case["argv"], workdir)
    files = {}
    for name in case.get("outputs", []):
        path = workdir / name
        files[name] = path.read_text(encoding="utf-8") if path.exists() else None
        path.unlink(missing_ok=True)
    return {**result, "files": files}


def _same_number(want: str, got: str) -> bool:
    if not any(c in want + got for c in ".eE"):
        return want == got
    return math.isclose(float(want), float(got), rel_tol=REL_TOL, abs_tol=ABS_TOL)


def same_text(want: str | None, got: str | None) -> bool:
    """True when the texts differ at most in their float numbers, each within REL_TOL or ABS_TOL."""
    if want is None or got is None:
        return want is got
    a, b = _NUMBER.split(want), _NUMBER.split(got)
    # split keeps the numbers at the odd positions
    return len(a) == len(b) and all(
        (x == y) if k % 2 == 0 else _same_number(x, y) for k, (x, y) in enumerate(zip(a, b))
    )


def main(argv=None) -> int:
    ids = sys.argv[1:] if argv is None else list(argv)
    spec = load_cases()
    known = {case["id"] for case in spec["cases"]}
    unknown = sorted(set(ids) - known)
    if unknown:
        sys.stderr.write(f"unknown case ids: {', '.join(unknown)}\n")
        return 1
    old = json.loads(EXPECTED.read_text(encoding="utf-8")) if ids else {"cases": {}}
    if ids and old["environment"] != environment():
        sys.stderr.write("expected.json was made in another environment; regenerate every case\n")
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        build_inputs(spec["inputs"], workdir)
        cases = {
            case["id"]: run_case(case, workdir) if not ids or case["id"] in ids else old["cases"][case["id"]]
            for case in spec["cases"]
        }
    payload = {"environment": environment(), "cases": cases}
    EXPECTED.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
