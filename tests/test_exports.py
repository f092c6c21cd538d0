"""Every name in a chfkit module's ``__all__`` exists in that module, so
that deleting a function or class cannot leave its export behind."""

import importlib
import pkgutil

import pytest

import chfkit

MODULES = sorted(m.name for m in pkgutil.iter_modules(chfkit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_export_exists(name):
    module = importlib.import_module(f"chfkit.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
