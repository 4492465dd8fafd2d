"""How a magicsq process ends: ``cli.run`` flushes, then ``os._exit``.

``run`` is the only process entry point (``python -m magicsq``,
``python -m magicsq.cli``, the console script); ``main`` returns its exit
code and is what the tests and the benchmark tracer call in-process.
These tests start real processes where the exit itself is under test: no
output may be lost at the fast exit, a stdout closed by its reader ends
the process with 120 and nothing on stderr, a stdout that cannot be
written ends it with 120 and one line on stderr, and a layer file that
cannot be read keeps its traceback and exit 1.
"""

import hashlib
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from magicsq import cli, verify
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
        self.flushes = 0

    def flush(self):
        self.flushes += 1
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


def test_run_exits_120_on_an_unwritable_stdout(monkeypatch):
    # a failed write or flush other than a closed pipe is reported in one line
    full = OSError(28, "No space left on device")
    for main, error in ((lambda: 0, full), (_raise(full), None)):
        assert _run(monkeypatch, main, error) == 120
        assert sys.stderr.getvalue() == "magicsq: cannot write output: No space left on device\n"


def test_run_keeps_the_normal_exit(monkeypatch):
    # argparse's exits (help 0, usage error 2) end like a return from main,
    # after the flush; a SystemExit without an int code, other errors and
    # a layer file that cannot be read reach finalization
    assert _run(monkeypatch, _raise(SystemExit(2))) == 2
    assert sys.stdout.flushes == sys.stderr.flushes == 1
    exc = _run(monkeypatch, _raise(SystemExit("bye")))
    assert isinstance(exc, SystemExit) and exc.code == "bye"
    assert isinstance(_run(monkeypatch, _raise(KeyError("x"))), KeyError)
    layer = str(pathlib.Path(cli.__file__).with_name("poincare.py"))
    missing = FileNotFoundError(2, "No such file or directory", layer)
    assert _run(monkeypatch, _raise(missing)) is missing


def test_unreadable_layer_keeps_its_traceback(tmp_path):
    # a layer is executed on first use inside main; if its file is gone by
    # then, the OSError names that file and is not reported as an output error
    shutil.copytree(pathlib.Path(cli.__file__).parent, tmp_path / "magicsq",
                    ignore=shutil.ignore_patterns("__pycache__"))
    layer = tmp_path / "magicsq" / "poincare.py"
    code = (
        "import os, sys, magicsq.cli\n"
        f"assert magicsq.cli.__file__.startswith({str(tmp_path)!r})\n"
        f"os.remove({str(layer)!r})\n"
        "sys.argv[1:] = ['poincare', '--type', 'E6', '--variety', '2']\n"
        "magicsq.cli.run()\n"
    )
    env = {**_env(), "PYTHONPATH": str(tmp_path), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.splitlines()[-1] == (
        f"FileNotFoundError: [Errno 2] No such file or directory: {str(layer)!r}")
    assert "cannot write output" not in proc.stderr


def _into_closed_stdout(argv, unbuffered=False):
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader, before the child starts
    try:
        proc = subprocess.run([sys.executable, "-m", "magicsq", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=_env(unbuffered))
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr


def _into_full_stdout(argv, unbuffered=False):
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "magicsq", *argv], stdout=full,
                              stderr=subprocess.PIPE, env=_env(unbuffered))
    return proc.returncode, proc.stderr


_CANNOT_WRITE = b"magicsq: cannot write output: No space left on device\n"
needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["weyl", "order", "--type", "E6"], E7_ANCHOR],
                         ids=["weyl-order", "e7-anchor"])
def test_closed_stdout_exits_120_silently(argv, unbuffered):
    assert _into_closed_stdout(argv, unbuffered) == (120, b"")


@needs_dev_full
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["weyl", "order", "--type", "E6"], E7_ANCHOR],
                         ids=["weyl-order", "e7-anchor"])
def test_unwritable_stdout_exits_120_with_one_line(argv, unbuffered):
    assert _into_full_stdout(argv, unbuffered) == (120, _CANNOT_WRITE)


def test_help_into_a_closed_stdout_exits_120_silently():
    assert _into_closed_stdout(["--help"]) == (120, b"")


@needs_dev_full
def test_help_into_an_unwritable_stdout_exits_120_with_one_line():
    assert _into_full_stdout(["--help"]) == (120, _CANNOT_WRITE)


# main writes argparse's help itself, so an unbuffered stdout fails there,
# not in argparse's own write, which would drop the OSError and exit 0
def test_unbuffered_help_into_a_closed_stdout_exits_120_silently():
    assert _into_closed_stdout(["--help"], unbuffered=True) == (120, b"")


@needs_dev_full
def test_unbuffered_help_into_an_unwritable_stdout_exits_120_with_one_line():
    assert _into_full_stdout(["--help"], unbuffered=True) == (120, _CANNOT_WRITE)


@needs_dev_full
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_usage_error_keeps_its_code_and_text_with_an_unwritable_stdout(unbuffered):
    # argparse writes nothing to stdout here, and nothing is written to it
    code, err = _into_full_stdout(["weyl", "order"], unbuffered)
    assert code == 2
    assert err.startswith(b"usage: magicsq weyl order") and err.count(b"\n") == 2


def test_help_and_usage_errors_print_what_argparse_prints(monkeypatch, capsys):
    # the fast exit loses no byte of argparse's output and keeps its codes
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help at the width; _env copies it
    proc = _magicsq("--help")
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.decode() == cli._build_parser(["--help"]).format_help()
    argv = ["weyl", "order"]
    proc = _magicsq(*argv)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == proc.returncode == 2
    assert proc.stdout == b""
    err = capsys.readouterr().err
    assert err.startswith("usage: magicsq weyl order") and "--type" in err
    assert proc.stderr.decode() == err


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
    assert [c["name"] for c in report["checks"]] == verify.check_names()
    assert all(c["pass"] for c in report["checks"])


def test_fast_exit_keeps_the_csv_table(capsys):
    proc = _magicsq("--format", "csv", "tables", "magic", text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert cli.main(["--format", "csv", "tables", "magic"]) == 0
    assert proc.stdout == capsys.readouterr().out
