"""Every exported name resolves: a name left in an __all__ after its code is gone fails here."""

import importlib
import pkgutil

import pytest

import frameforms

MODULES = ["frameforms"] + [
    f"frameforms.{info.name}" for info in pkgutil.iter_modules(frameforms.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), name
    assert [n for n in exported if not hasattr(module, n)] == []
