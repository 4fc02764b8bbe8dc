"""Every golden CLI case gives its recorded exit code, stdout, stderr and output files.

The cases and their expected outputs live in tests/golden (see regenerate.py
there). In the environment the outputs were recorded in, the comparison is
byte for byte; in any other, exit codes, integers and text must match exactly
and floats within regenerate.REL_TOL (or ABS_TOL near zero), and a file recorded
as a sha256 digest need only be present. The report header and each failure
message name the mode.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"


def _load_golden():
    spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _load_golden()
CASES = golden.load_cases()
EXPECTED = json.loads(golden.EXPECTED.read_text(encoding="utf-8"))
EXACT = EXPECTED["environment"] == golden.environment()
MODE = "exact" if EXACT else f"tolerant (rel_tol {golden.REL_TOL}, abs_tol {golden.ABS_TOL})"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    golden.build_inputs(CASES["inputs"], path)
    return path


def test_every_case_has_an_expected_output():
    assert sorted(EXPECTED["cases"]) == sorted(case["id"] for case in CASES["cases"])


@pytest.mark.parametrize("case", CASES["cases"], ids=[case["id"] for case in CASES["cases"]])
def test_case_matches_expected(workdir, case):
    want, got = EXPECTED["cases"][case["id"]], golden.run_case(case, workdir)
    assert got["exit_code"] == want["exit_code"], f"{MODE} mode: exit code"
    assert sorted(got["files"]) == sorted(want["files"]), f"{MODE} mode: output files"
    texts = [("stdout", want["stdout"], got["stdout"]), ("stderr", want["stderr"], got["stderr"])]
    texts += [(name, want["files"][name], got["files"][name]) for name in want["files"]]
    for name, a, b in texts:
        if EXACT:
            assert b == a, f"{MODE} mode: {name} differs"
        else:
            assert golden.same_text(a, b), f"{MODE} mode: {name} differs beyond the tolerance\n{a}\n{b}"
