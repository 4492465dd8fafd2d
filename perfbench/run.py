"""magicsq benchmark: replay one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the program runs from ``src/``
as ``python -m magicsq``, so there is nothing to build.

``--trace 0`` is a closed loop with one client: one child process at a
time, each started only after the previous one exits.  It replays the
workload's command list pass after pass for about ``--seconds`` seconds,
at least three passes, and reports the end-to-end metrics, every time
scaled to a reference host as set out below:

- ``pass_s``, ``pass_cpu_s``: wall time, and the children's user+system
  CPU time, of one pass over the command list; medians over passes.
- ``cmd_p50_ms``, ``cmd_tail_ms``: the median wall time of one command, and
  the highest whole percentile that leaves ten of three passes' samples
  above it (the run record names the percentile).  The percentile is the
  Harrell-Davis estimate, a weighted mean of all the order statistics: a
  single order statistic jumps from one command's samples to the next
  command's as the number of passes in a run changes.
- ``peak_rss_mb``: the largest max RSS of any command's process.
- ``setup_s``: the median wall time of ``magicsq --help``, which only
  starts the interpreter, imports magicsq and builds the parser; five
  samples before each pass.

The host is shared, and its speed drifts by tens of percent within
seconds.  So a probe runs between every two measured children: a child that
imports the standard-library modules magicsq uses and runs a short fixed
loop, and touches nothing of magicsq.  Each child's wall and CPU times are
scaled by ``REF_PROBE_*_S`` over the mean of the probes just before and
just after it: the times are reported in seconds of a reference host on
which the probe takes ``REF_PROBE_WALL_S``.  The run record keeps the raw
medians and the probe times beside them.

``--trace 1`` replays the same list in this process, untraced and traced
in turn, and reports the per-layer metrics (``tracer``).  Every output is
checked (``checks``).  The last line of stdout is the result,
``{"correct", "attempted", "failed", "metrics"}``; the line before it and
``perfbench/results/`` hold the run record.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import checks
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
SETUP_PER_PASS = 5  # startup samples taken before each pass
MIN_PASSES = 3
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
COMMAND_TIMEOUT_S = 120
PROBE_CODE = (
    "import argparse, collections, dataclasses, enum, fnmatch, fractions, functools, "
    "itertools, json, math, random, re, typing\n"
    "d = {}\n"
    "for i in range(20000):\n"
    "    k = (i & 1023, (i * 7) & 511, i % 13)\n"
    "    d[k] = d.get(k, 0) + (i & 3)\n"
)
# the probe's median wall and CPU time on the reference host: 2 cores of an
# Intel Xeon VM, CPython 3.11.7
REF_PROBE_WALL_S = 0.065
REF_PROBE_CPU_S = 0.064

END_TO_END = (
    ("pass_s", "s"),
    ("pass_cpu_s", "s"),
    ("cmd_p50_ms", "ms"),
    ("cmd_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def child_env() -> dict:
    """The caller's environment, running magicsq from src/ with bytecode caching.

    An installed package starts from cached bytecode, so children may write
    src/magicsq/__pycache__ even where the caller's environment forbids it;
    otherwise every start would recompile the package.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    return env


class Run(NamedTuple):
    wall_s: float
    rc: int
    out: str
    err: str
    cpu_s: float  # user + system
    maxrss_kb: int


def run_cli(argv, module: bool = True) -> Run:
    """Run ``python -m magicsq *argv`` (``python *argv`` if not ``module``) to
    completion; a hung child is killed."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *(("-m", "magicsq") if module else ()), *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=child_env(), cwd=ROOT,
    )
    err: list[str] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        # wait4, not wait: it returns this child's own CPU time and max RSS
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(wall, proc.returncode, out, err[0], usage.ru_utime + usage.ru_stime,
               usage.ru_maxrss)


def command_failure(cmd, run: Run, digests) -> str | None:
    if run.rc != 0:
        return f"exit {run.rc}"
    if "Traceback" in run.err:
        return "traceback on stderr"
    return checks.failure(cmd, run.out, digests)


class Scaled(NamedTuple):
    wall_s: float
    cpu_s: float


def run_probe() -> Run:
    run = run_cli(["-c", PROBE_CODE], module=False)
    if run.rc != 0:
        raise RuntimeError(f"host-speed probe failed: {run.err.strip()}")
    return run


class Scaler:
    """Scales each measured child by the probes run just before and after it."""

    def __init__(self):
        self.last = run_probe()
        self.probe_wall: list[float] = []
        self.probe_cpu: list[float] = []

    def __call__(self, run: Run) -> Scaled:
        after = run_probe()
        wall = (self.last.wall_s + after.wall_s) / 2
        cpu = (self.last.cpu_s + after.cpu_s) / 2
        self.last = after
        self.probe_wall.append(after.wall_s)
        self.probe_cpu.append(after.cpu_s)
        return Scaled(run.wall_s * REF_PROBE_WALL_S / wall, run.cpu_s * REF_PROBE_CPU_S / cpu)


def setup_run() -> Run:
    """A startup-only call: interpreter, import, parser build."""
    run = run_cli(["--help"])
    if run.rc != 0 or not run.out.startswith("usage: magicsq"):
        raise RuntimeError("magicsq --help failed")
    return run


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 300):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-14:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def harrell_davis(samples, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of samples, 0 < q < 1."""
    ranked = sorted(samples)
    n = len(ranked)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum(x * (hi - lo) for x, lo, hi in zip(ranked, cdf, cdf[1:]))


def tail_percentile(min_samples: int) -> int:
    """Highest whole percentile that leaves TAIL_BEYOND of min_samples above it.

    It is fixed by the command count and MIN_PASSES, not by how many passes
    fit in the run, so every run of a workload reports the same percentile.
    """
    return 100 * (min_samples - TAIL_BEYOND) // min_samples


def measure(cmds, seconds: float, digests) -> dict:
    setup_run()  # warm-up: writes the bytecode cache once per checkout
    scale = Scaler()
    setups: list[float] = []
    raw_setups: list[float] = []
    percentile = tail_percentile(MIN_PASSES * len(cmds))
    pass_wall, pass_cpu, samples, failures = [], [], [], []
    raw_wall, raw_cpu = [], []
    per_cmd: list[list[float]] = [[] for _ in cmds]
    peak_kb = 0
    t_start = time.perf_counter()
    while True:
        for _ in range(SETUP_PER_PASS):
            run = setup_run()
            raw_setups.append(run.wall_s)
            setups.append(scale(run).wall_s)
        runs, scaled = [], []
        for cmd in cmds:
            run = run_cli(cmd.argv)
            runs.append(run)
            scaled.append(scale(run))
            reason = command_failure(cmd, run, digests)
            if reason:
                failures.append(f"{' '.join(cmd.argv)}: {reason}")
        # the pass time leaves out the probes and the output checks
        pass_wall.append(sum(r.wall_s for r in scaled))
        pass_cpu.append(sum(r.cpu_s for r in scaled))
        raw_wall.append(sum(r.wall_s for r in runs))
        raw_cpu.append(sum(r.cpu_s for r in runs))
        samples += [r.wall_s for r in scaled]
        for times, r in zip(per_cmd, scaled):
            times.append(r.wall_s)
        peak_kb = max([peak_kb] + [r.maxrss_kb for r in runs])
        elapsed = time.perf_counter() - t_start
        if len(pass_wall) >= MIN_PASSES and elapsed * (len(pass_wall) + 1) / len(pass_wall) > seconds:
            break
    tail = harrell_davis(samples, percentile / 100)
    values = {
        "pass_s": statistics.median(pass_wall),
        "pass_cpu_s": statistics.median(pass_cpu),
        "cmd_p50_ms": statistics.median(samples) * 1000.0,
        "cmd_tail_ms": tail * 1000.0,
        "peak_rss_mb": peak_kb / 1024.0,
        "setup_s": statistics.median(setups),
    }
    n = len(pass_wall)
    return {
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END},
        "attempted": len(samples),
        "failures": failures,
        "samples": {
            "pass_s": n, "pass_cpu_s": n, "cmd_p50_ms": len(samples),
            "cmd_tail_ms": len(samples), "peak_rss_mb": len(samples),
            "setup_s": len(setups),
        },
        "cmd_tail_percentile": percentile,
        "passes": n,
        "raw": {
            "pass_s": statistics.median(raw_wall),
            "pass_cpu_s": statistics.median(raw_cpu),
            "setup_s": statistics.median(raw_setups),
            "probe_wall_s": statistics.median(scale.probe_wall),
            "probe_cpu_s": statistics.median(scale.probe_cpu),
            "probes": len(scale.probe_wall),
        },
        "command_s": [statistics.median(times) for times in per_cmd],
        "command_samples_s": per_cmd,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, env=env
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not (SRC / "magicsq" / "__init__.py").is_file():
        sys.stderr.write(f"error: no magicsq sources under {SRC}; run from a checkout root\n")
        return 2

    cmds = workloads.commands(args.workload, args.seed)
    digests = checks.load_digests()
    if args.trace:
        sys.path.insert(0, str(SRC))
        import tracer

        result = tracer.traced_run(cmds, args.seconds, digests, sys.executable, child_env())
    else:
        result = measure(cmds, args.seconds, digests)

    failed = len(result["failures"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "commands": [list(c.argv) for c in cmds],
        "error_rate": failed / result["attempted"],
        **result,
    }
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    brief = {k: v for k, v in record.items() if not k.startswith("command")}
    print(json.dumps({"record": brief}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": result["attempted"],
                "failed": failed,
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
