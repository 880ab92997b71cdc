"""The public names: every export resolves and every public definition is
exported, so a deleted definition cannot leave a stale name behind."""

import importlib
import inspect
import pkgutil

import pytest

import mvfrac

_MODULES = [importlib.import_module(f"mvfrac.{m.name}")
            for m in pkgutil.iter_modules(mvfrac.__path__)]


@pytest.mark.parametrize("module", [m for m in _MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_module_all_matches_public_definitions(module):
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    defined = [name for name, obj in vars(module).items()
               if not name.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__]
    assert [n for n in defined if n not in module.__all__] == []


def test_package_all_resolves():
    assert [n for n in mvfrac.__all__ if not hasattr(mvfrac, n)] == []
