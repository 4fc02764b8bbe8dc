"""The package API is each library module's ``__all__``, re-exported once by ``quadbin``."""

import importlib
import pkgutil

import pytest

import quadbin

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
