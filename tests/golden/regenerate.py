"""Golden CLI cases: run them, and rewrite their expected outputs.

    PYTHONPATH=src python3 tests/golden/regenerate.py [CASE_ID ...]

Builds the inputs of cases.json in a temporary directory (CLI runs such as
``simulate`` with fixed seeds, literal records, or a JSON config file), runs
every case through ``quadbin.cli.main`` there, and writes expected.json: per
case the exit code, stdout, stderr and each output file, and the environment
the outputs were made in. An output a case lists under ``digests`` (a large
record file) is stored as ``sha256:<hex>`` of its bytes instead of its text.
With case ids, only those cases are rewritten and the others keep their
recorded outputs. quadbin is imported from PYTHONPATH, so pointing it at
another checkout's ``src`` records that checkout's outputs.

tests/test_golden.py compares bytes when the environment matches the recorded
one, and otherwise compares exit codes, integers and text exactly and floats
within REL_TOL, or within ABS_TOL of a value that is zero up to rounding (the
``estimate`` residuals are such values). A digest can only be compared
exactly, so outside the recorded environment only its presence is checked.
"""

from __future__ import annotations

import contextlib
import hashlib
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

DIGEST = "sha256:"

# a decimal number as json.dumps, repr and the CSV tables write it; integers have no point and no exponent
_NUMBER = re.compile(r"(-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)")


def environment() -> dict:
    """The versions and CPU dispatch targets that decide the last bits of every float."""
    import numpy

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
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
    """Write every input file, in order: a CLI run writing to ``--out`` (``simulate``, or ``inject`` of an
    earlier input), a ``json`` config object, or (x, count) records at theta 0 without a sidecar."""
    for name, spec in inputs.items():
        if "cli" in spec:
            result = run_cli([*spec["cli"], "--out", name], workdir)
            if result["exit_code"] != 0:
                raise RuntimeError(f"input {name}: {result['stderr']}")
        elif "json" in spec:
            (workdir / name).write_text(json.dumps(spec["json"]), encoding="utf-8")
        else:
            lines = ["theta,x"] + [f"0.0,{float(x)!r}" for x, count in spec["records"] for _ in range(count)]
            (workdir / name).write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_case(case: dict, workdir: Path) -> dict:
    """The case's exit code, stdout, stderr and output files (text, or a digest for the names under ``digests``);
    the output files are removed afterwards."""
    result = run_cli(case["argv"], workdir)
    files = {}
    for name in case.get("outputs", []) + case.get("digests", []):
        path = workdir / name
        if not path.exists():
            files[name] = None
        elif name in case.get("digests", []):
            files[name] = DIGEST + hashlib.sha256(path.read_bytes()).hexdigest()
        else:
            files[name] = path.read_text(encoding="utf-8")
        path.unlink(missing_ok=True)
    return {**result, "files": files}


def _same_number(want: str, got: str) -> bool:
    if not any(c in want + got for c in ".eE"):
        return want == got
    return math.isclose(float(want), float(got), rel_tol=REL_TOL, abs_tol=ABS_TOL)


def same_text(want: str | None, got: str | None) -> bool:
    """True when the texts differ at most in their float numbers, each within REL_TOL or ABS_TOL; any two
    digests count as the same."""
    if want is None or got is None:
        return want is got
    if want.startswith(DIGEST) or got.startswith(DIGEST):
        return want.startswith(DIGEST) and got.startswith(DIGEST)
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
