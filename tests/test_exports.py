import importlib
import pkgutil

import pytest

import cet

MODULES = sorted(info.name for info in pkgutil.iter_modules(cet.__path__, "cet."))


@pytest.mark.parametrize("name", ["cet"] + MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{name} has no __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined attributes: {missing}"
