import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import flatclust


def test_every_exported_name_resolves():
    """Each module's __all__ names only what it defines, and the package re-exports only those."""
    modules = [
        importlib.import_module(f"flatclust.{m.name}")
        for m in pkgutil.iter_modules(flatclust.__path__)
        if m.name != "__main__"  # importing it runs the command line
    ]
    assert all(hasattr(mod, "__all__") for mod in modules)
    stale = [f"{mod.__name__}.{name}" for mod in modules for name in mod.__all__ if not hasattr(mod, name)]
    assert stale == []
    exported = {name for mod in modules for name in mod.__all__}
    reexported = [
        name
        for name, value in vars(flatclust).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert reexported and set(reexported) <= exported


@pytest.mark.parametrize("module", ["flatclust", "flatclust.cli"])
def test_import_loads_no_scipy(module):
    """scipy is imported where it is called, so importing the package or the command line skips it."""
    probe = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(flatclust.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=120)
    assert done.stdout.strip() == "[]"
