import importlib
import pkgutil
import types

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
