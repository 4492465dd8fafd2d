"""Every script under ``scripts/`` still imports.

The scripts import from the package and from the tests' references, and
their sweeps take minutes, so a moved or renamed name would otherwise
show only when one is run.  Importing a script runs its top level, not
``main``.
"""

import importlib.util
import pathlib
import sys

import pytest

SCRIPTS = sorted((pathlib.Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_script_imports_without_running(path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # a script may extend it
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
