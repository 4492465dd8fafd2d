"""Every script under ``scripts/`` still imports, and the sweeps run.

The scripts import from the package and from the tests' references, and
their sweeps take minutes, so a moved or renamed name would otherwise
show only when one is run.  Importing a script runs its top level, not
``main``; the two fast scripts run whole, and the sweeps of
``borel_series_check.py`` run on a catalog small enough for tier-1.
"""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

SCRIPTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "scripts"
SCRIPTS = sorted(SCRIPTS_DIR.glob("*.py"))


def _load(path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # a script may extend it
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_script_imports_without_running(path, monkeypatch):
    assert callable(_load(path, monkeypatch).main)


def test_fast_scripts_run(monkeypatch, capsys):
    # the two scripts that take about 0.1 s run whole, not only import
    for name in ("killing_form_grid", "motive_skeletons"):
        _load(SCRIPTS_DIR / f"{name}.py", monkeypatch).main()
    lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
    for expected in (
        "133-dimensional in all 32 cases; 2 anisotropic configuration(s)",
        "Tate shifts: [0, 6, 15, 21]",
        "Tate shifts: [0, 9, 15, 24]",
    ):
        assert expected in lines


def test_borel_series_check_loads_without_test_extras():
    # the script imports the tests' reference module, never a test module,
    # so it runs where pytest and hypothesis are not installed
    path = str(SCRIPTS_DIR / "borel_series_check.py")
    code = (
        "import runpy, sys\n"
        "sys.modules['pytest'] = sys.modules['hypothesis'] = None\n"
        f"assert callable(runpy.run_path({path!r})['main'])\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr


def test_borel_series_sweeps_on_a_tiny_catalog(monkeypatch, capsys):
    script = _load(SCRIPTS_DIR / "borel_series_check.py", monkeypatch)
    for name, value in (
        ("QUOTIENT_TYPES", ["A3", "B3"]), ("QUOTIENT_MAX_INDEX", 20),
        ("DOUBLE_COSET_TYPES", ["A3", "B3"]), ("DOUBLE_COSET_MAX_INDEX", 20),
        ("TRANSPOSED_TYPES", ["D4"]), ("TRANSPOSED_MAX_LEFT_INDEX", 20),
        ("POINT_COUNT_TYPES", ["2A2", "2D4"]), ("SPLIT_POINT_COUNT_TYPES", ["B2", "C3"]),
    ):
        monkeypatch.setattr(script, name, value)
    script.check_quotients()
    script.check_double_cosets("right")
    script.check_double_cosets("left")
    script.check_point_counts()
    # the timings follow the colon
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()] == [
        "A3     7 quotients ok",
        "B3     4 quotients ok",
        "11 quotients of index <= 20",
        "A3     68 double-coset cases ok",
        "B3     32 double-coset cases ok",
        "100 double-coset cases of index <= 20",
        "D4     48 transposed cases ok",
        "48 double-coset cases of left index <= 20 < right index",
        "2A2    1 point counts ok",
        "2D4    7 point counts ok",
        "8 point counts over F_2",
        "B2     3 point counts ok",
        "C3     7 point counts ok",
        "10 point counts over F_3",
    ]


def test_borel_series_group_and_conormed_sweeps_on_a_tiny_catalog(monkeypatch, capsys):
    script = _load(SCRIPTS_DIR / "borel_series_check.py", monkeypatch)
    for name, value in (
        ("TYPES", ["A1", "A2", "B2", "G2", "A3"]),
        ("TWISTED_TYPES", ["2A2", "2A3", "2D4"]), ("TWISTED_MAX_INDEX", 200),
    ):
        monkeypatch.setattr(script, name, value)
    script.check_groups()
    script.check_conormed()
    # the timings follow the last "(" of a group line and the colon of a total
    lines = capsys.readouterr().out.splitlines()
    assert [line.rpartition("  (")[0] for line in lines[:5]] == [
        "A1   |W| =            2  top degree   1  ok",
        "A2   |W| =            6  top degree   3  ok",
        "B2   |W| =            8  top degree   4  ok",
        "G2   |W| =           12  top degree   6  ok",
        "A3   |W| =           24  top degree   6  ok",
    ]
    assert [line.split(":")[0] for line in lines[5:]] == [
        "2A2    1 sigma-stable varieties ok",
        "2A3    3 sigma-stable varieties ok",
        "2D4    7 sigma-stable varieties ok",
        "11 conormed polynomials of index <= 200",
    ]
