"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

The file name keeps them out of the repository's own test run: they replay
every anchor command twice, which takes about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for p in (str(HERE), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from magicsq import cli  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _in_process(argv) -> tuple[int, str]:
    for fn in tracer.lru_caches().values():
        fn.cache_clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue()


@pytest.fixture(scope="module")
def digests():
    return checks.load_digests()


@pytest.mark.parametrize("argv", workloads.anchor_argvs(), ids=" ".join)
def test_in_process_replay_matches_subprocess(argv, digests):
    sub = run.run_cli(argv)
    assert sub.rc == 0
    rc, in_out = _in_process(argv)
    assert rc == 0
    assert checks.canonical_stdout(argv, in_out) == checks.canonical_stdout(argv, sub.out)
    assert checks.digest(argv, in_out) == digests[checks.digest_key(argv)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_determines_case_list(workload):
    assert workloads.commands(workload, 7) == workloads.commands(workload, 7)
    assert workloads.commands(workload, 7) != workloads.commands(workload, 8)


@pytest.mark.parametrize("workload", ["flag-quotients", "double-cosets"])
@pytest.mark.parametrize("seed", range(3))
def test_seeded_cases_are_not_refused(workload, seed, digests):
    for cmd in workloads.commands(workload, seed):
        if cmd.anchor:
            continue
        rc, out = _in_process(cmd.argv)
        assert rc == 0, cmd.argv
        assert checks.failure(cmd, out, digests) is None, cmd.argv


def test_metric_names_and_declaration():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared_e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    declared_layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert declared_e2e == list(run.END_TO_END)
    assert declared_layer == list(tracer.PER_LAYER)
    names = [n for n, _ in declared_e2e + declared_layer] + [
        w["name"] for w in bench["workloads"]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_harrell_davis_tail_estimate():
    assert run.beta_cdf(2, 3, 0.4) == pytest.approx(0.5248)  # exact: 0.5248
    assert run.harrell_davis([5.0] * 12, 0.76) == pytest.approx(5.0)
    assert run.harrell_davis(range(1, 101), 0.76) == pytest.approx(76.5, abs=0.5)


def test_verify_check_names_match_the_program():
    verify = sys.modules["magicsq.verify"]
    assert tuple(verify.check_names()) == checks.VERIFY_CHECK_NAMES


def test_checks_reject_a_wrong_output(digests):
    cmd = next(c for c in workloads.commands("flag-quotients", 0) if not c.anchor)
    rc, out = _in_process(cmd.argv)
    assert checks.failure(cmd, out, digests) is None
    doc = json.loads(out)
    if "coeffs" in doc:
        doc["coeffs"][1] = str(int(doc["coeffs"][1]) + 1)
    else:
        doc["length_counts"][1][1] += 1
    assert checks.failure(cmd, json.dumps(doc), digests) is not None
