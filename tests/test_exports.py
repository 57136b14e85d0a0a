"""Every name a module exports must exist in it."""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import qmmp132


def test_every_exported_name_resolves():
    modules = [qmmp132] + [
        importlib.import_module(f"qmmp132.{info.name}")
        for info in pkgutil.iter_modules(qmmp132.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names {name}"


def test_dir_lists_every_exported_name():
    assert set(qmmp132.__all__) <= set(dir(qmmp132))


def test_dir_leaves_the_lazy_names_unloaded():
    src = str(Path(qmmp132.__file__).resolve().parents[1])
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    code = (
        "import sys, qmmp132; names = dir(qmmp132); "
        "print('cross_validate' in names, 'qmmp132.analysis' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True False\n", "")
