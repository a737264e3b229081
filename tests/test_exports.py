"""Every name a ``repro`` module lists in ``__all__`` resolves."""

import importlib
import pkgutil

import repro


def test_every_all_name_resolves():
    modules = [repro.__name__] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ]
    missing = []
    for name in modules:
        module = importlib.import_module(name)
        for export in getattr(module, "__all__", ()):
            if not hasattr(module, export):
                missing.append(f"{name}.{export}")
    assert not missing, missing
