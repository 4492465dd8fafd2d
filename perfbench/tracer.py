"""Traced in-process replay: per-layer spans and work counts.

The layers are magicsq's modules.  ``Tracer.installed`` wraps each layer's
public functions by setting module attributes, including every copy that a
``from ... import`` bound in another module, and restores them afterwards;
nothing in ``src/`` changes.  A span records its name, start, end and
parent; spans stay in memory until the pass ends.  A layer's self time is
its spans' duration minus what their child spans cover, and its busy time
counts only spans with no open span of the same name above them.  Work
counts come from return values and from ``cache_info()``.

Each command is replayed through ``magicsq.cli.main`` with stdout captured
and every ``lru_cache`` cleared first, because each real CLI process
starts cold.
"""

from __future__ import annotations

import contextlib
import functools
import io
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

import checks
from checks import VERIFY_CHECK_NAMES

# (module, function, span name) for every wrapped function
_MAGICTABLES = (
    "magic_square", "magic_square_labels", "query_magic_square", "condition_rows",
    "conditions_for", "tits_index_cases", "tits_index_for_rost",
    "tits_construction_rows",
)
TARGETS = (
    ("cli", "main", "cli.main"),
    ("_data", "load", "data.load"),
    ("rootsys", "build_root_system", "rootsys.build_root_system"),
    ("rootsys", "opposition_involution", "rootsys.opposition_involution"),
    ("weyl", "coset_length_counts", "weyl.coset_length_counts"),
    ("weyl", "minimal_coset_reps", "weyl.minimal_coset_reps"),
    ("weyl", "double_cosets", "weyl.double_cosets"),
    ("weyl", "parabolic_order", "weyl.parabolic_order"),
    ("poincare", "poincare_poly", "poincare.poincare_poly"),
    ("poincare", "conormed_poincare", "poincare.conormed_poincare"),
    ("poincare", "dim_flag", "poincare.dim_flag"),
    ("polyring", "divides_ring", "polyring.divides_ring"),
    ("polyring", "divides_semiring", "polyring.divides_semiring"),
    ("polyring", "eval_rational", "polyring.eval_rational"),
    ("cgmb", "tate_skeleton", "cgmb.tate_skeleton"),
    ("cgmb", "express_residual", "cgmb.express_residual"),
    ("cgmb", "check_decomposition", "cgmb.check_decomposition"),
    ("jinv", "enumerate_admissible", "jinv.enumerate_admissible"),
    ("jinv", "upper_motive_poly", "jinv.upper_motive_poly"),
    ("qform", "killing_grid", "qform.killing_grid"),
    *(("magictables", f, "magictables") for f in _MAGICTABLES),
    ("verify", "run_verify", "verify.run_verify"),
)

# work counts read off return values
_WORK = {
    "weyl.coset_length_counts": lambda r: {"orbit_vectors": sum(r.values())},
    "weyl.double_cosets": lambda r: {
        "cells": len(r),
        "cosets": sum(c.orbit_size for c in r),
    },
    "cgmb.express_residual": lambda r: {"witness_terms": len(r or ())},
}
# functions returning a lazy stream: each next() is a span, each item counted
_STREAMS = {"weyl.minimal_coset_reps": "reps"}

PER_LAYER = (
    ("cli.import_ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("data.load.busy_ms", "ms"),
    ("rootsys.build_root_system.busy_ms", "ms"),
    ("rootsys.build_root_system.calls", "count"),
    ("rootsys.build_root_system.cache_hit_ratio", "ratio"),
    ("rootsys.opposition_involution.busy_ms", "ms"),
    ("weyl.coset_length_counts.busy_ms", "ms"),
    ("weyl.coset_length_counts.calls", "count"),
    ("weyl.coset_length_counts.orbit_vectors", "count"),
    ("weyl.coset_length_counts.vectors_per_ms", "1/ms"),
    ("weyl.minimal_coset_reps.busy_ms", "ms"),
    ("weyl.minimal_coset_reps.reps", "count"),
    ("weyl.double_cosets.self_ms", "ms"),
    ("weyl.double_cosets.calls", "count"),
    ("weyl.double_cosets.cells", "count"),
    ("weyl.double_cosets.cosets", "count"),
    ("weyl.parabolic_order.busy_ms", "ms"),
    ("weyl.parabolic_order.calls", "count"),
    ("poincare.poincare_poly.self_ms", "ms"),
    ("poincare.poincare_poly.calls", "count"),
    ("poincare.poincare_poly.cache_hit_ratio", "ratio"),
    ("poincare.conormed_poincare.busy_ms", "ms"),
    ("poincare.dim_flag.busy_ms", "ms"),
    ("polyring.divides_ring.busy_ms", "ms"),
    ("polyring.divides_ring.calls", "count"),
    ("polyring.divides_semiring.busy_ms", "ms"),
    ("polyring.divides_semiring.calls", "count"),
    ("polyring.eval_rational.busy_ms", "ms"),
    ("cgmb.tate_skeleton.self_ms", "ms"),
    ("cgmb.express_residual.busy_ms", "ms"),
    ("cgmb.express_residual.calls", "count"),
    ("cgmb.express_residual.witness_terms", "count"),
    ("cgmb.check_decomposition.busy_ms", "ms"),
    ("jinv.enumerate_admissible.busy_ms", "ms"),
    ("jinv.upper_motive_poly.busy_ms", "ms"),
    ("qform.killing_grid.busy_ms", "ms"),
    ("magictables.busy_ms", "ms"),
    ("verify.run_verify.self_ms", "ms"),
    *((f"verify.{name}.cold_ms", "ms") for name in VERIFY_CHECK_NAMES),
    ("trace_overhead_ratio", "ratio"),
)


def magicsq_modules() -> list:
    return [m for n, m in sys.modules.items() if n == "magicsq" or n.startswith("magicsq.")]


def lru_caches() -> dict[str, object]:
    """Every lru_cache-wrapped function of the package, by 'module.function'."""
    out = {}
    for mod in magicsq_modules():
        for val in vars(mod).values():
            if callable(getattr(val, "cache_clear", None)) and hasattr(val, "cache_info"):
                short = val.__module__.removeprefix("magicsq.")
                out[f"{short}.{val.__name__}"] = val
    return out


class Tracer:
    """Spans and counts of one traced pass.

    Span fields live in parallel lists of floats, ints and strings, which
    the garbage collector does not scan, so long passes stay cheap to trace.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self.stack.pop()

    def _stream(self, name: str, it):
        item_count = f"{name}.{_STREAMS[name]}"
        while True:
            i = self._open(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._close(i)
            self.counts[item_count] += 1
            yield item

    def _wrap(self, name: str, fn):
        work = _WORK.get(name)
        stream = name in _STREAMS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            self.counts[f"{name}.calls"] += 1
            if work is not None:
                for key, n in work(result).items():
                    self.counts[f"{name}.{key}"] += n
            return self._stream(name, result) if stream else result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target, in every module that holds a reference to it."""
        modules = magicsq_modules()
        patched = []
        try:
            for home, fname, name in TARGETS:
                orig = getattr(sys.modules[f"magicsq.{home}"], fname)
                wrapper = self._wrap(name, orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, orig))
            yield self
        finally:
            for mod, attr, orig in reversed(patched):
                setattr(mod, attr, orig)

    def stats(self) -> dict[str, float]:
        """busy_ms, self_ms and counts per span name."""
        names, parents = self.names, self.parents
        span = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(span)
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += span[i]
        out: dict[str, float] = defaultdict(float)
        for i, name in enumerate(names):
            out[f"{name}.self_ms"] += (span[i] - child[i]) * 1000.0
            p = parents[i]
            while p >= 0 and names[p] != name:
                p = parents[p]
            if p < 0:
                out[f"{name}.busy_ms"] += span[i] * 1000.0
        out.update(self.counts)
        return out


def replay(cmds, caches, digests) -> tuple[float, list[str], dict[str, list[int]]]:
    """Run each command through cli.main; (wall s, failures, cache hits/misses)."""
    cli = sys.modules["magicsq.cli"]
    failures = []
    cache_use = {name: [0, 0] for name in caches}
    t0 = time.perf_counter()
    for cmd in cmds:
        for fn in caches.values():
            fn.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(cmd.argv))
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a traceback in a real CLI process
                rc = repr(exc)
        for name, fn in caches.items():
            info = fn.cache_info()
            cache_use[name][0] += info.hits
            cache_use[name][1] += info.misses
        reason = f"exit {rc}" if rc != 0 else checks.failure(cmd, out.getvalue(), digests)
        if reason:
            failures.append(f"{' '.join(cmd.argv)}: {reason}")
    return time.perf_counter() - t0, failures, cache_use


def cold_verify_ms(caches) -> tuple[dict[str, float], list[str]]:
    """Each verify check run alone after clearing every cache.

    A check the program no longer has, or one that fails, is a failure of
    the run, not a missing metric.
    """
    verify = sys.modules["magicsq.verify"]
    out, failures = {}, []
    for name in VERIFY_CHECK_NAMES:
        for fn in caches.values():
            fn.cache_clear()
        t0 = time.perf_counter()
        try:
            report = verify.run_verify(name)
        except ValueError:
            failures.append(f"verify check {name}: not found")
            continue
        out[f"verify.{name}.cold_ms"] = (time.perf_counter() - t0) * 1000.0
        if [c.name for c in report.checks] != [name] or not report.all_pass:
            failures.append(f"verify check {name}: did not pass alone")
    return out, failures


def import_ms(python: str, env: dict) -> float:
    """Cumulative import time of the magicsq package in a fresh interpreter."""
    proc = subprocess.run(
        [python, "-X", "importtime", "-c", "import magicsq"],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "magicsq":
            return int(fields[1]) / 1000.0
    raise RuntimeError("magicsq missing from -X importtime output")


def traced_run(cmds, seconds: float, digests, python: str, env: dict) -> dict:
    """Alternate untraced and traced in-process passes for ``seconds``."""
    import magicsq.cli  # noqa: F401  (loads every layer module)

    caches = lru_caches()
    has_verify = any(checks.is_verify(c.argv) for c in cmds)
    # warm-up: lazy imports and first-call costs
    _, failures, _ = replay(cmds, caches, digests)
    attempted = len(cmds)
    rounds, round_s = [], []
    t_start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        tracer = Tracer()
        # alternate which pass goes first, so drift in machine speed does
        # not bias trace_overhead_ratio
        for traced in (False, True) if len(rounds) % 2 == 0 else (True, False):
            if traced:
                with tracer.installed():
                    traced_s, fails, cache_use = replay(cmds, caches, digests)
            else:
                plain_s, fails, _ = replay(cmds, caches, digests)
            failures += fails
        attempted += 2 * len(cmds)
        stats = tracer.stats()
        for name, (hits, misses) in cache_use.items():
            stats[f"{name}.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        busy = stats.get("weyl.coset_length_counts.busy_ms", 0.0)
        if busy:
            stats["weyl.coset_length_counts.vectors_per_ms"] = (
                stats["weyl.coset_length_counts.orbit_vectors"] / busy
            )
        stats["trace_overhead_ratio"] = traced_s / plain_s
        stats["cli.import_ms"] = import_ms(python, env)
        if has_verify:
            cold, fails = cold_verify_ms(caches)
            stats.update(cold)
            failures += fails
            attempted += len(VERIFY_CHECK_NAMES)
        rounds.append(stats)
        round_s.append(time.perf_counter() - r0)
        if time.perf_counter() - t_start + max(round_s) > seconds:
            break
    metrics = {
        name: {"value": statistics.median(r.get(name, 0.0) for r in rounds), "unit": unit}
        for name, unit in PER_LAYER
    }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failures": failures,
        "samples": len(rounds),
    }
