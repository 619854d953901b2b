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


LIBRARY_MODULES = [name for name in MODULES if name not in ("frameforms", "frameforms.cli")]


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_package_reexports_module_names(name):
    """Each library module's public names are the package's, as the same objects."""
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if n not in frameforms.__all__] == []
    assert [n for n in module.__all__ if getattr(frameforms, n) is not getattr(module, n)] == []
