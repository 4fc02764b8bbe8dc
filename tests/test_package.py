"""The package API is each library module's ``__all__``, re-exported once by ``quadbin``."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import quadbin
import quadbin.cli

# every module but the command-line entry point is library API
LIBRARY = [name for _, name, _ in pkgutil.iter_modules(quadbin.__path__) if name != "cli"]


def test_no_name_is_exported_twice():
    assert len(quadbin.__all__) == len(set(quadbin.__all__))


def test_every_exported_name_resolves():
    namespace = {}
    exec("from quadbin import *", namespace)
    assert all(name in namespace for name in quadbin.__all__)


@pytest.mark.parametrize("name", LIBRARY)
def test_module_api_is_reachable_from_the_package(name):
    module = importlib.import_module(f"quadbin.{name}")
    assert module.__all__, f"quadbin.{name} declares no __all__"
    for attr in module.__all__:
        assert attr in quadbin.__all__ and getattr(quadbin, attr) is getattr(module, attr), attr


def _modules_loaded_by(code: str, cwd: Path) -> set[str]:
    """The names in ``sys.modules`` after a fresh interpreter has run ``code``."""
    src = str(Path(quadbin.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    report = "\nimport json, sys; sys.stdout.write(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code + report], cwd=cwd, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _scipy(modules: set[str]) -> list[str]:
    return sorted(m for m in modules if m == "scipy" or m.startswith("scipy."))


class TestNoCommandLoadsScipy:
    """No process loads scipy: the sampler's ``ndtri`` is a port of Cephes on ``math.log``.

    The analytic columns of ``three-bin`` and ``sweep-sigma`` on a simulated file
    take the normal CDF from ``math.erfc`` and load no scipy either.
    """

    def test_importing_the_package_and_cli_loads_no_scipy(self, tmp_path):
        assert _scipy(_modules_loaded_by("import quadbin, quadbin.cli", tmp_path)) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["select", "--in", "rec.csv", "--center", "0", "--half-width", "0.5", "--out", "kept.csv"],
            ["moments", "--in", "rec.csv", "--bootstrap", "5"],
            ["simulate", "--r", "0.3", "--delta", "0.1", "--n", "50", "--out", "sim.csv"],
            ["inject", "--in", "rec.csv", "--delta-e", "0.3", "--seed", "9", "--out", "noisy.csv"],
        ],
        ids=["select", "moments", "simulate", "inject"],
    )
    def test_a_command_loads_no_scipy(self, tmp_path, argv):
        rows = "".join(f"{0.1 * i - 1.0!r},{(-1.0) ** i * 0.3 * i!r}\n" for i in range(20))
        (tmp_path / "rec.csv").write_text("theta,x\n" + rows)
        loaded = _modules_loaded_by(f"import quadbin.cli; assert quadbin.cli.main({argv!r}) == 0", tmp_path)
        assert _scipy(loaded) == []

    @pytest.mark.parametrize(
        "argv, analytic",
        [
            (["three-bin", "--in", "sim.csv", "--bootstrap", "5"], "payload['analytic']"),
            (
                ["sweep-sigma", "--in", "sim.csv", "--steps", "3", "--bootstrap", "5", "--out", "sweep.csv"],
                "[row.split(',')[3] for row in open('sweep.csv').read().splitlines()[1:]]",
            ),
        ],
        ids=["three-bin", "sweep-sigma"],
    )
    def test_analytic_columns_load_no_scipy(self, tmp_path, argv, analytic):
        # simulated in this process, so the file has the sidecar that makes the analytic column
        simulate = ["simulate", "--r", "0.5", "--loss", "0.1", "--delta", "0.1", "--n", "400", "--seed", "2"]
        assert quadbin.cli.main([*simulate, "--out", str(tmp_path / "sim.csv")]) == 0
        assert (tmp_path / "sim.meta.json").exists()
        code = (
            "import contextlib, io, json, quadbin.cli\n"
            "out = io.StringIO()\n"
            f"with contextlib.redirect_stdout(out):\n    assert quadbin.cli.main({argv!r}) == 0\n"
            "payload = json.loads(out.getvalue())\n"
            f"values = {analytic}\n"
            "assert values and all(v not in (None, '') for v in (values if isinstance(values, list) else [values]))"
        )
        assert _scipy(_modules_loaded_by(code, tmp_path)) == []
