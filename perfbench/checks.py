"""Output checks: recorded digests for anchors, oracle invariants for all.

A command fails its check when its stdout differs from the digest recorded
at a known-good commit (anchors), or breaks an invariant the benchmark
computes on its own (``oracle``): a Poincare polynomial equal to the
closed form, palindromic, of degree dim and value |W|/|W_J| at t=1;
double-coset sizes summing to the index; the pinned Tate skeletons; and
``verify`` running all 24 checks and passing every one.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import oracle
from workloads import Command

DIGESTS_PATH = Path(__file__).with_name("digests.json")
VERIFY_CHECK_NAMES = (
    "cgmb-skeleton-x16-e6", "cgmb-skeleton-x2-e6", "conormed-x16-dichotomy",
    "conormed-x16-shape", "conormed-x2-dichotomy", "conormed-x2-shape",
    "dims-x16-e6", "dims-x2-e6", "dims-y1-e7", "henke-y1",
    "jinv-strongly-inner-e7", "jinv-table-roundtrip", "jinv-upper-borel-2e6",
    "killing-compact-form", "killing-dimension-grid", "killing-split-isotropy",
    "props-coset-counts", "props-double-coset-partition",
    "props-palindromic-flags", "props-semiring-implies-ring",
    "props-upper-poly-identities", "step5-residual-x16", "step5-residual-x2",
    "tables-jinv-consistency",
)
# the verify fields that are facts; runtimes and any later diagnostics are not
_VERIFY_FACT_KEYS = ("name", "claim", "expected", "actual", "pass")


def is_verify(argv) -> bool:
    return "verify" in argv


def digest_key(argv) -> str:
    return json.dumps(list(argv))


def canonical_stdout(argv, stdout: str) -> str:
    """stdout with wall-time fields removed, so equal results hash equally."""
    if not is_verify(argv):
        return stdout
    report = json.loads(stdout)
    facts = {
        "all_pass": report["all_pass"],
        "checks": [{k: c[k] for k in _VERIFY_FACT_KEYS} for c in report["checks"]],
    }
    return json.dumps(facts, sort_keys=True, indent=2) + "\n"


def digest(argv, stdout: str) -> str:
    return hashlib.sha256(canonical_stdout(argv, stdout).encode()).hexdigest()


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def _invariant_failure(cmd: Command, stdout: str) -> str | None:
    if is_verify(cmd.argv):
        report = json.loads(stdout)
        if [c["name"] for c in report["checks"]] != list(VERIFY_CHECK_NAMES):
            return f"verify did not run the {len(VERIFY_CHECK_NAMES)} checks"
        if not report["all_pass"]:
            return "verify reports a failing check"
        return None
    if not cmd.case:
        return None
    kind = cmd.case[0]
    out = json.loads(stdout)
    if kind == "skeleton":
        want = cmd.case[1]
        if want is not None and out["shifts"] != want:
            return f"skeleton {out['shifts']} != {want}"
        return None
    series, rank, nodes = cmd.case[1:]
    if kind in ("poincare", "cosets"):
        if kind == "poincare":
            got = [int(c) for c in out["coeffs"]]
            if out["degree"] != out["dim"] or out["value_at_1"] != sum(got):
                return "payload fields disagree with the polynomial"
        else:
            got = [c for _, c in out["length_counts"]]
            lengths = [l for l, _ in out["length_counts"]]
            if lengths != list(range(len(got))) or out["count"] != sum(got):
                return "length counts are not a full table"
            if out["max_length"] != len(got) - 1:
                return "max_length disagrees with the length counts"
        if sum(got) != oracle.index(series, rank, nodes):
            return "value at t=1 is not |W|/|W_J|"
        if got != got[::-1]:
            return "polynomial is not palindromic"
        if len(got) - 1 != oracle.dim(series, rank, nodes):
            return "degree is not the flag-variety dimension"
        if got != oracle.poincare_coeffs(series, rank, nodes):
            return "polynomial differs from the closed form"
        return None
    if kind == "double-cosets":
        cells = out["cells"]
        if sum(c["orbit_size"] for c in cells) != oracle.index(series, rank, nodes):
            return "double-coset sizes do not sum to the index"
        if cells[0]["length"] != 0:
            return "first double coset is not the identity's"
        if out["star"] == "none" and not all(c["star_invariant"] for c in cells):
            return "a cell is not invariant under the identity"
        return None
    raise ValueError(f"unknown case kind {kind!r}")


def failure(cmd: Command, stdout: str, digests: dict[str, str]) -> str | None:
    """Why the output is wrong, or None when it passes every check."""
    try:
        reason = _invariant_failure(cmd, stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
    if reason is None and cmd.anchor:
        want = digests.get(digest_key(cmd.argv))
        if want is None:
            return "no recorded digest"
        if digest(cmd.argv, stdout) != want:
            return "stdout differs from the recorded digest"
    return reason
