"""The package's runtime needs numpy only; scipy is a test dependency."""

import os
import pkgutil
import subprocess
import sys

import pitvqe


def test_every_module_imports_without_scipy():
    names = [f"pitvqe.{m.name}" for m in pkgutil.iter_modules(pitvqe.__path__)]
    assert "pitvqe.decomposition" in names
    src = os.path.dirname(os.path.dirname(pitvqe.__file__))
    code = ("import importlib, sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "sys.modules['scipy'] = None  # any import of scipy now fails\n"
            f"for name in {names!r}:\n"
            "    importlib.import_module(name)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
