"""The command-line parser: printed bytes pinned, and built per command.

A well-formed argv is parsed straight from the command table
(``cli._parse``); everything else goes to argparse.  Whenever the table's
matcher accepts an argv, its namespace must equal argparse's.

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

import contextlib
import io
import json
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, strategies as st

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


def _argparse_namespace(argv):
    """What argparse makes of argv: its namespace as a dict, or None if it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._build_parser(argv).parse_args(argv))
        except SystemExit:
            return None


_VALUES = ("E6", "F4", "1,3,4", "", "x", "+,+,+", "a=b", "weyl", "order", "none", "json")
_DASHED = ("-1", "-", "-,+,+", "-1+t", "--type", "-h", "--")
_NOISE = ("-h", "--help", "--", "--bogus", "extra", "-x", "--format", "--type")


@st.composite
def _option(draw, name, kw):
    """The tokens of one occurrence of an option, maybe misspelled or misused."""
    if draw(st.integers(0, 6)) == 0 and len(name) > 3:
        name = name[: draw(st.integers(3, len(name) - 1))]  # an abbreviation
    if kw.get("action") == "store_true":
        return [name + "=x"] if draw(st.integers(0, 6)) == 0 else [name]
    pool = (_DASHED if draw(st.integers(0, 4)) == 0
            else kw["choices"] + ("x",) if "choices" in kw else _VALUES)
    value = draw(st.sampled_from(pool))
    return [f"{name}={value}"] if draw(st.booleans()) else [name, value]


@st.composite
def _argvs(draw):
    """argv lists from the command table, most well formed, some perturbed."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    verbs = cli._COMMANDS[command][1]
    verb = draw(st.sampled_from(list(verbs)))

    def occurrences(options):
        groups = []
        for name, kw in options.items():
            # a required option usually once, sometimes missing or repeated
            count = draw(st.sampled_from((1,) * 6 + (0, 2) if kw.get("required")
                                         else (0, 0, 1, 2)))
            groups += [draw(_option(name, kw)) for _ in range(count)]
        return [t for g in draw(st.permutations(groups)) for t in g]

    top = occurrences(cli._TOP_OPTIONS)
    head = [command] if verb is None else [command, verb]
    if draw(st.integers(0, 9)) == 0:
        head = head[:-1]  # verb or command missing
    rest = occurrences(verbs[verb])
    if draw(st.integers(0, 4)) == 0:
        top, rest = [], top + rest  # --format and --fixtures after the command
    argv = top + head + rest
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_NOISE)))
    return argv


@given(_argvs())
@example(["weyl", "order", "--type", "F4", "--type", "E8"])
@example(["tables", "conditions", "--group=--"])
@example(["--format", "csv", "--format", "json", "weyl", "order", "--type", "E6"])
@example(["qform", "af-e7", "--q", "split", "--o", "definite", "--gamma=-,+,+"])
@example(["weyl", "double-cosets", "--type", "E6", "--left", "1", "--right", "1",
          "--star", "x", "--star", "none"])
def test_parse_agrees_with_argparse(argv):
    ns = cli._parse(argv)
    if ns is not None:
        assert vars(ns) == _argparse_namespace(argv)


def test_parse_reads_the_last_of_a_repeated_option():
    ns = cli._parse(["weyl", "order", "--type", "F4", "--type", "E8"])
    assert vars(ns) == {"format": None, "fixtures": None, "command": "weyl",
                        "verb": "order", "type": "E8"}


@pytest.mark.parametrize("argv", [
    ["qform", "af-e7", "--q", "definite", "--o", "definite", "--gamma", "-,+,+"],
    ["poly", "divides", "--p", "-1", "--q", "1+t"],
    ["poly", "divides", "--p", "1", "--q", "1+t", "--semiring=yes"],
    ["verify", "--filter", "-"],
    ["--", "weyl", "order", "--type", "E6"],
    ["weyl", "order", "--", "--type", "E6"],
    ["weyl", "order", "--type", "E6", "-h"],
    ["weyl", "order", "--type", "E6", "--format", "json"],
    ["weyl", "--type", "E6", "order"],
    ["poincare", "--type", "E6"],
    ["weyl", "double-cosets", "--type", "E6", "--left", "1", "--right", "1",
     "--star", "x", "--star", "none"],
    [],
])
def test_parse_declines_what_it_does_not_fully_read(argv):
    assert cli._parse(argv) is None


@pytest.mark.parametrize("argv", [
    ["weyl", "order", "--type=--"],
    ["poly", "eval-rational", "--num=--", "--den=1"],
    ["poly", "divides", "--p=--", "--q=1"],
    ["poincare", "--type=--", "--variety", "1"],
    ["jinv", "enumerate", "--group=--"],
    ["cgmb", "skeleton", "--ambient=--", "--kernel", "3,4,5", "--variety", "2"],
    ["qform", "af-e7", "--q", "definite", "--o", "definite", "--gamma=--"],
    ["tables", "conditions", "--group=--"],
    ["verify", "--filter=--"],
    ["--fixtures=--", "tables", "constructions"],
])
def test_option_given_double_dash_is_a_usage_error(argv):
    # argparse stores ``--name=--`` as an empty list; main refuses it
    got = _run_main(argv)
    name = next(a for a in argv if a.endswith("=--"))[:-3]
    assert got["code"] == 2
    assert got["stdout"] == "" and "Traceback" not in got["stderr"]
    assert got["stderr"].endswith(f"error: argument {name}: expected one argument\n")


def test_parse_accepts_every_snapshot_success():
    # help and abbreviations are argparse's; every other exit-0 case is not
    abbreviated = (["--form", "json", "weyl", "order", "--type", "E6"],
                   ["weyl", "order", "--ty", "E6"])
    for case in SNAPSHOT:
        if case["code"] != 0 or case["stdout"].startswith("usage:"):
            continue
        ns = cli._parse(case["argv"])
        if case["argv"] in abbreviated:
            assert ns is None, case["argv"]
        else:
            assert ns is not None, case["argv"]
            assert vars(ns) == _argparse_namespace(case["argv"]), case["argv"]
