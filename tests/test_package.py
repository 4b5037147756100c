import importlib
import pkgutil

import pytest

import coopcast

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(coopcast.__path__))


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_lists_only_defined_names(name):
    # A function deleted from a module must not stay in its __all__.
    module = importlib.import_module(f"coopcast.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
