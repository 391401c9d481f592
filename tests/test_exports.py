import importlib
import pkgutil
import subprocess
import sys

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


@pytest.mark.parametrize("name", MODULES)
def test_imports_first_in_a_fresh_interpreter(name):
    # The package's __init__ imports its submodules in one fixed order, which
    # can hide an import cycle. Under a bare package, ``name`` is the first
    # submodule loaded, then every other one follows. cet.cli reads the
    # package's __version__, so the bare package carries it.
    code = "\n".join([
        "import importlib, pkgutil, sys, types",
        "pkg = types.ModuleType('cet')",
        f"pkg.__path__ = {list(cet.__path__)!r}",
        f"pkg.__version__ = {cet.__version__!r}",
        "sys.modules['cet'] = pkg",
        f"importlib.import_module({name!r})",
        "for info in pkgutil.iter_modules(pkg.__path__, 'cet.'):",
        "    importlib.import_module(info.name)",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
