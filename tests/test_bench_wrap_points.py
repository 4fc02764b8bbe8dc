"""Every function the traced benchmark wraps still exists, so a deletion fails here and not in the bench."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _wrap_points():
    # loaded by path and only read: no wrapper is installed
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAP_POINTS


WRAP_POINTS = _wrap_points()


@pytest.mark.parametrize("name, module, path, callers", WRAP_POINTS, ids=[point[0] for point in WRAP_POINTS])
def test_wrap_point_resolves(name, module, path, callers):
    owner = importlib.import_module(module)
    for attr in path.split("."):
        assert hasattr(owner, attr), f"{name}: {module}.{path} is gone"
        owner = getattr(owner, attr)
    assert callable(owner)
    for caller in callers:
        importlib.import_module(caller)
