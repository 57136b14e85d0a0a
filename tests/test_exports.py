"""Every name a module exports must exist in it, and come from the package."""

from __future__ import annotations

import importlib
import os
import pkgutil
import re
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


def test_star_import_binds_exactly_the_exported_names():
    namespace: dict = {}
    exec("from qmmp132 import *", namespace)
    del namespace["__builtins__"]
    assert len(qmmp132.__all__) == len(set(qmmp132.__all__))
    assert namespace.keys() == set(qmmp132.__all__)


def test_every_exported_object_comes_from_the_package():
    # a stray stdlib name bound at the top of __init__ would be exported too
    for name in qmmp132.__all__:
        home = getattr(getattr(qmmp132, name), "__module__", "qmmp132")
        assert home.split(".")[0] == "qmmp132", (name, home)


def test_readme_entry_points_are_exported():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("Key entry points", 1)[1].split("\n\n")[1]
    names = {
        name
        for row in table.splitlines()[2:]
        for name in re.findall(r"`(\w+)`", row.split("|")[1])
    }
    assert len(names) > 10
    assert names <= set(qmmp132.__all__), names - set(qmmp132.__all__)


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
