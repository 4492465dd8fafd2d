"""How a magicsq process ends: ``cli.run`` flushes, then ``os._exit``.

``run`` is the only process entry point (``python -m magicsq``,
``python -m magicsq.cli``, the console script); ``main`` returns its exit
code and is what the tests and the benchmark tracer call in-process.
These tests start real processes where the exit itself is under test: no
output may be lost at the fast exit, and a stdout closed by its reader
ends the process with 120 and nothing on stderr.
"""

import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from magicsq import cli
from test_weyl import DOUBLE_COSET_DIGESTS

E7_ANCHOR = ["weyl", "double-cosets", "--type", "E7", "--left", "1", "--right", "1,2,3,5,6,7"]


def _env(unbuffered=False):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _magicsq(*argv, module="magicsq", **kw):
    # block-buffered stdout, which holds output until the flush in run
    return subprocess.run([sys.executable, "-m", module, *argv], capture_output=True,
                          env=_env(), **kw)


def test_console_script_targets_run():
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text("utf-8"))["project"]["scripts"]
    assert scripts == {"magicsq": "magicsq.cli:run"}


def test_cli_module_and_package_print_the_same():
    argv = ("weyl", "order", "--type", "E6")
    package, module = _magicsq(*argv), _magicsq(*argv, module="magicsq.cli")
    assert package.returncode == module.returncode == 0
    assert package.stdout == module.stdout == b'{\n  "order": 51840,\n  "type": "E6"\n}\n'
    assert package.stderr == module.stderr == b""


def _no_exit(code):
    raise AssertionError(f"os._exit({code}) reached")


def test_main_never_ends_the_process(monkeypatch, capsys):
    monkeypatch.setattr(os, "_exit", _no_exit)
    for argv, code in ((["weyl", "order", "--type", "E6"], 0),
                       (["weyl", "order", "--type", "E9"], 2),
                       (["--format", "json", "verify", "--filter", "dims-*"], 0)):
        assert cli.main(argv) == code
    assert '"order": 51840' in capsys.readouterr().out


class _Stream(io.StringIO):
    def __init__(self, error=None):
        super().__init__()
        self.error = error

    def flush(self):
        if self.error is not None:
            raise self.error


class _Exited(Exception):
    pass


def _run(monkeypatch, main, stdout_error=None):
    """Call cli.run with main and a stdout whose flush raises stdout_error;
    the code os._exit was given, or the exception that left run."""
    def fast_exit(code):
        raise _Exited(code)

    monkeypatch.setattr(cli, "main", main)
    monkeypatch.setattr(sys, "stdout", _Stream(stdout_error))
    monkeypatch.setattr(sys, "stderr", _Stream())
    monkeypatch.setattr(os, "_exit", fast_exit)
    with pytest.raises(BaseException) as exc:
        cli.run()
    return exc.value.args[0] if exc.type is _Exited else exc.value


def _raise(exc):
    def main():
        raise exc
    return main


def test_run_ends_with_the_code_of_main(monkeypatch):
    assert _run(monkeypatch, lambda: 1) == 1


def test_run_exits_120_on_a_closed_stdout(monkeypatch):
    assert _run(monkeypatch, lambda: 0, BrokenPipeError()) == 120
    assert _run(monkeypatch, _raise(BrokenPipeError())) == 120


def test_run_keeps_the_normal_exit(monkeypatch):
    # argparse's exits, other errors and other failed flushes reach finalization
    exc = _run(monkeypatch, _raise(SystemExit(2)))
    assert isinstance(exc, SystemExit) and exc.code == 2
    assert isinstance(_run(monkeypatch, _raise(KeyError("x"))), KeyError)
    exc = _run(monkeypatch, lambda: 0, OSError(28, "No space left on device"))
    assert isinstance(exc, SystemExit) and exc.code == 0


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["weyl", "order", "--type", "E6"], E7_ANCHOR],
                         ids=["weyl-order", "e7-anchor"])
def test_closed_stdout_exits_120_silently(argv, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader, before the child starts
    try:
        proc = subprocess.run([sys.executable, "-m", "magicsq", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=_env(unbuffered))
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (120, b"")


def test_fast_exit_keeps_the_e7_anchor_output():
    proc = _magicsq(*E7_ANCHOR)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert len(proc.stdout) > 400_000
    digest = dict(DOUBLE_COSET_DIGESTS)[" ".join(["--type", *E7_ANCHOR[3:]])]
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_fast_exit_keeps_the_verify_report():
    proc = _magicsq("--format", "json", "verify", text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads(proc.stdout)
    assert report["all_pass"] is True
    assert len(report["checks"]) == 24
    assert all(c["pass"] for c in report["checks"])


def test_fast_exit_keeps_the_csv_table(capsys):
    proc = _magicsq("--format", "csv", "tables", "magic", text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert cli.main(["--format", "csv", "tables", "magic"]) == 0
    assert proc.stdout == capsys.readouterr().out
