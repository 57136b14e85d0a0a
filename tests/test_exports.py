"""Every name a module exports must exist in it."""

from __future__ import annotations

import importlib
import pkgutil

import qmmp132


def test_every_exported_name_resolves():
    modules = [qmmp132] + [
        importlib.import_module(f"qmmp132.{info.name}")
        for info in pkgutil.iter_modules(qmmp132.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names {name}"
