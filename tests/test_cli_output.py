"""Printed output of the commands that argparse takes no part in.

``data/tables_snapshot.json`` holds stdout, stderr and the exit code of
``magicsq.cli.main`` for every listing and every single-row lookup of the
``tables`` verbs, and for ``cgmb blocks``.  It was recorded from the
hand-written payload builders that ``cli._fields`` replaced, and is not
re-recorded when the CLI changes.  None of these bytes come from argparse,
so every Python version is compared with the recording itself.

The README's CLI examples run here too, so the documented commands keep
working as the CLI changes.
"""

import io
import json
import pathlib
import shlex
import sys

import pytest

from magicsq import cli, magictables

_ROOT = pathlib.Path(__file__).parent.parent
TABLES = json.loads(
    (_ROOT / "tests" / "data" / "tables_snapshot.json").read_text("utf-8")
)["cases"]


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


def test_tables_snapshot_covers_every_row():
    rows, cols = magictables.magic_square_labels()
    want = [["tables", "magic"], ["--format", "csv", "tables", "magic"]]
    want += [["tables", "magic", "--row", r, "--col", c] for r in rows for c in cols]
    want.append(["tables", "conditions"])
    want += [["tables", "conditions", "--group", r.group]
             for r in magictables.condition_rows()]
    want.append(["tables", "tits-index"])
    want += [["tables", "tits-index", "--rost", c.value] for c in magictables.RostCondition]
    want += [["tables", "constructions"], ["cgmb", "blocks"]]
    assert [case["argv"] for case in TABLES] == want


@pytest.mark.parametrize("case", TABLES, ids=[" ".join(c["argv"]) for c in TABLES])
def test_tables_output_matches_snapshot(case):
    got = _run_main(case["argv"])
    assert got == {k: case[k] for k in ("stdout", "stderr", "code")}


def _readme_cli_examples():
    text = (_ROOT / "README.md").read_text("utf-8")
    section = text.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]


README_EXAMPLES = _readme_cli_examples()


def test_readme_cli_examples_are_found():
    assert len(README_EXAMPLES) >= 10
    assert all(argv[0] == "magicsq" for argv in README_EXAMPLES)


@pytest.mark.parametrize("argv", README_EXAMPLES, ids=[" ".join(a) for a in README_EXAMPLES])
def test_readme_cli_example_succeeds(argv):
    got = _run_main(argv[1:])
    assert got["code"] == 0, got["stderr"]
    assert got["stdout"] and not got["stderr"]
