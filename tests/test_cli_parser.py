"""The command-line parser: printed bytes pinned, and built per command.

``data/cli_snapshot.json`` holds stdout, stderr and the exit code of
``magicsq.cli.main`` for a catalog of argv lists (help at every level,
missing and unknown names, bad values, abbreviations, a command name used
as an option value, one success per verb), recorded with ``COLUMNS=80``
from the parser that populated every command, on the CPython version
stored with it.  Building the parser only for the invoked command must not
change any of these bytes, so the file is not re-recorded when the parser
changes.  argparse's wording and layout differ between Python versions, so
on any other version each case is compared with ``main`` run through a
parser that populates every command, built in the same process.
"""

import io
import json
import pathlib
import re
import subprocess
import sys

import pytest

from magicsq import cli

_RECORDING = json.loads(
    (pathlib.Path(__file__).parent / "data" / "cli_snapshot.json").read_text("utf-8")
)
SNAPSHOT = _RECORDING["cases"]


def _runtime_free(text):
    # verify's text report carries each check's wall time
    return re.sub(r"\(\d+ ms\)", "(N ms)", text)


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout, sys.stderr = saved
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "code": code}


def _expected(case, monkeypatch):
    if "%d.%d" % sys.version_info[:2] == _RECORDING["python"]:
        return case
    build = cli._build_parser
    with monkeypatch.context() as m:
        m.setattr(cli, "_build_parser", lambda argv: build(list(cli._COMMANDS)))
        return _run_main(case["argv"])


@pytest.mark.parametrize(
    "case", SNAPSHOT, ids=[" ".join(c["argv"]) or "<none>" for c in SNAPSHOT]
)
def test_cli_output_matches_snapshot(case, monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)  # "--fixtures weyl" must name no file
    want = _expected(case, monkeypatch)
    got = _run_main(case["argv"])
    assert got["code"] == want["code"]
    assert got["stderr"] == want["stderr"]
    assert _runtime_free(got["stdout"]) == _runtime_free(want["stdout"])


def test_cli_console_entry_reads_sys_argv(monkeypatch, tmp_path):
    # main(argv=None) parses sys.argv[1:], as the console script and
    # ``python -m magicsq`` call it
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    for argv in (["--help"], ["weyl", "order", "--type", "E6"], ["--fix", "weyl", "bogus"],
                 ["--fixtures", "weyl"]):
        want = _expected(next(c for c in SNAPSHOT if c["argv"] == argv), monkeypatch)
        proc = subprocess.run([sys.executable, "-m", "magicsq", *argv],
                              capture_output=True, text=True)
        assert (proc.stdout, proc.stderr, proc.returncode) == (
            want["stdout"], want["stderr"], want["code"]), argv


@pytest.mark.parametrize("argv", [["weyl", "order", "--type", "E6"], ["--help"], ["bogus"], []])
def test_build_parser_populates_only_the_named_command(argv):
    # every command is registered, for top-level help and "invalid choice"
    # errors, but only the one argv names gets its verbs and arguments
    top = cli._build_parser(argv)
    commands = next(a for a in top._actions if a.dest == "command")
    assert list(commands.choices) == list(cli._COMMANDS)
    for name, parser in commands.choices.items():
        if name in argv:
            verbs = next(a for a in parser._actions if a.dest == "verb")
            assert {"order", "cosets", "double-cosets"} <= set(verbs.choices)
        else:
            assert [a.dest for a in parser._actions] == ["help"], (argv, name)
