"""Every script starts and every exported name resolves.

A script or an ``__all__`` entry that still names a removed function fails
here instead of at its first real use.
"""

import pkgutil
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import traceweights

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def test_scripts_start_and_exports_resolve():
    assert SCRIPTS
    for script in SCRIPTS:
        proc = subprocess.run(
            [sys.executable, str(script), "--help"], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, f"{script.name}: {proc.stderr}"

    missing = [n for n in traceweights.__all__ if not hasattr(traceweights, n)]
    for info in pkgutil.iter_modules(traceweights.__path__):
        module = import_module(f"traceweights.{info.name}")
        missing += [
            f"{info.name}.{n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)
        ]
    assert not missing
