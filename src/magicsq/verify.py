"""Named verification checks over the pinned numeric and polynomial facts.

Every check records the fact it pins (``claim``), the expected value,
the recomputed value, and its runtime.  The suite is deterministic: the
fuzz check uses a fixed seed, and checks are reported sorted by name.
Exit-code convention for the CLI: 0 when everything passes, 1 otherwise.

The 10^4-case semiring fuzz takes most of the suite's time, so when it
runs with other checks on a host with a second usable CPU, a forked
worker runs it beside them (``run_verify``).  The worker sends its
result back as ``marshal`` bytes through a pipe, ends in ``os._exit``,
and is reaped before ``run_verify`` returns or raises; where it cannot
run, or its result does not come back, the fuzz runs in this process.
"""

from __future__ import annotations

import marshal
import os
import sys
import time

from . import cgmb, jinv, magictables, poincare, qform, weyl
from ._data import fixtures as _fixture_doc
from ._record import record
from .polyring import MAX_DEGREE, IntPoly, divides_ring, divides_semiring
from .rootsys import CartanType, build_root_system, opposition_involution


@record
class CheckResult:
    name: str
    claim: str
    expected: object
    actual: object
    passed: bool
    runtime_ms: float


@record
class VerifyReport:
    checks: list[CheckResult]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def exit_code(self) -> int:
        return 0 if self.all_pass else 1

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            mark = "✓" if c.passed else "✗"
            lines.append(f"{mark} {c.name} ({c.runtime_ms:.0f} ms): {c.claim}")
            if not c.passed:
                lines.append(f"    expected: {c.expected}")
                lines.append(f"    actual:   {c.actual}")
        status = "all checks passed" if self.all_pass else "FAILURES present"
        lines.append(f"{sum(c.passed for c in self.checks)}/{len(self.checks)} ok; {status}")
        return "\n".join(lines)


# -- cgmb fixture plumbing ---------------------------------------------------

_FIXTURE_KINDS = ("identity", "residual-expressible")
# bytes of a --fixtures document; the built-in one is under 4 KB
_FIXTURE_DOC_LIMIT = 2**20
_TYPE_NAMES = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def _typed(value, want: type, key: str):
    """value, which must be of type want exactly: a bool is not an int."""
    if type(value) is not want:
        raise ValueError(f"{key} must be {_TYPE_NAMES[want]}")
    return value


def _ints(value, key: str, top: int | None = None) -> list[int]:
    """value as a list of exact ints, each within 0..top if top is given."""
    if not all(
        type(x) is int and (top is None or 0 <= x <= top) for x in _typed(value, list, key)
    ):
        within = "" if top is None else f" in 0..{top}"
        raise ValueError(f"{key} must be a list of integers{within}")
    return value


def _read_fixture(f: dict) -> tuple[
    poincare.FlagVariety, list[cgmb.MotiveTerm], list[IntPoly] | None, int | None
]:
    """The one reader of a fixture: its total, terms, blocks and min_shift.

    The terms are ``terms`` for an identity, which has no blocks or
    min_shift (None), and ``subtract`` otherwise.  Each key is read once,
    and a value that is missing, of the wrong type or refused by the
    record built from it raises ValueError naming it.
    """
    p = _typed(_typed(f.get("total"), dict, "total").get("poincare"), dict, "total.poincare")
    fv = poincare.FlagVariety(
        CartanType.from_string(_typed(p.get("type"), str, "total.poincare.type")),
        frozenset(_ints(p.get("variety"), "total.poincare.variety")),
    )
    key = "terms" if f["kind"] == "identity" else "subtract"
    terms = []
    for i, spec in enumerate(_typed(f.get(key), list, key)):
        where = f"{key}[{i}]"
        kind = _typed(_typed(spec, dict, where).get("kind"), str, f"{where}.kind")
        shifts = _ints(spec.get("shifts"), f"{where}.shifts", MAX_DEGREE)
        block = IntPoly(_ints(spec["coeffs"], f"{where}.coeffs")) if "coeffs" in spec else None
        terms += [cgmb.MotiveTerm(kind, shift, block) for shift in shifts]
    if key == "terms":
        return fv, terms, None, None
    blocks = [
        IntPoly(_ints(b, f"blocks[{i}]"))
        for i, b in enumerate(_typed(f.get("blocks"), list, "blocks"))
    ]
    cgmb.check_blocks(blocks)
    return fv, terms, blocks, _typed(f.get("min_shift"), int, "min_shift")


def _residual(fv: poincare.FlagVariety, terms: list[cgmb.MotiveTerm]) -> IntPoly:
    """The total's Poincare polynomial minus the terms' contributions."""
    total = poincare.poincare_poly(fv)
    return cgmb.check_decomposition(cgmb.Decomposition(total, tuple(terms)))[1]


def load_fixture_doc(path: str) -> dict:
    """Read an alternative fixtures document and check it in full.

    Checked here, for the document as a whole: the JSON read, ``version``
    1, and a ``fixtures`` list of objects with unique string names and
    known kinds.  Each fixture is then read by ``_read_fixture``, the one
    reader of a fixture, which ``run_fixture`` uses too.  Its total is
    computed, so a type with too many positive roots (refused before its
    root system is built) or a polynomial of too high a degree is refused
    here, as its run would refuse it; and the ``subtract`` terms must leave
    a residual with no negative coefficient, small enough for the search
    (``cgmb.check_search_depth``).  At most _FIXTURE_DOC_LIMIT bytes of
    UTF-8 text are read.  Every failure raises ValueError with a
    one-line message.
    """
    import json  # only an alternative fixtures document needs it here

    try:
        with open(path, "rb") as fh:
            data = fh.read(_FIXTURE_DOC_LIMIT + 1)
    except OSError as exc:
        raise ValueError(f"cannot read fixtures {path}: {exc.strerror}") from exc
    if len(data) > _FIXTURE_DOC_LIMIT:
        raise ValueError(f"fixtures {path} is larger than {_FIXTURE_DOC_LIMIT} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        raise ValueError(f"fixtures {path} is not UTF-8 text") from None
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deep a nesting
        raise ValueError(f"fixtures {path} is not valid JSON: {exc}") from exc
    if type(doc) is not dict or type(doc.get("version")) is not int or doc["version"] != 1:
        raise ValueError(f"fixtures {path} must be a document with version 1")
    fixtures = doc.get("fixtures")
    if not isinstance(fixtures, list):
        raise ValueError(f"fixtures {path} has no 'fixtures' list")
    names: set[str] = set()
    for k, f in enumerate(fixtures):
        if not isinstance(f, dict):
            raise ValueError(f"fixture #{k} in {path} is not an object")
        name = f.get("name", f"#{k}")
        try:
            if _typed(f.get("name"), str, "name") in names:
                raise ValueError("another fixture has the same name")
            names.add(name)
            if f.get("kind") not in _FIXTURE_KINDS:
                raise ValueError(f"kind must be one of {', '.join(_FIXTURE_KINDS)}")
            fv, terms, blocks, _ = _read_fixture(f)
            residual = _residual(fv, terms)
            if blocks is not None:
                if any(c < 0 for c in residual.coeffs):
                    raise ValueError("residual must have nonnegative coefficients")
                cgmb.check_search_depth(residual, blocks)
        except (ValueError, ArithmeticError) as exc:
            raise ValueError(f"fixture {name!r} in {path}: {exc}") from exc
    return doc


def fixture_names(doc: dict | None = None) -> list[str]:
    doc = doc or _fixture_doc()
    return [f["name"] for f in doc["fixtures"]]


def run_fixture(name: str, doc: dict | None = None) -> dict:
    """Run one named decomposition fixture; returns a JSON-ready result."""
    doc = doc or _fixture_doc()
    for f in doc["fixtures"]:
        if f["name"] == name:
            break
    else:
        raise ValueError(
            f"unknown fixture {name!r}; available: {', '.join(fixture_names(doc))}"
        )
    fv, terms, blocks, least_shift = _read_fixture(f)
    residual = _residual(fv, terms)
    if blocks is None:
        return {
            "name": name,
            "kind": f["kind"],
            "pass": residual.is_zero,
            "residual": [str(c) for c in residual.coeffs],
        }
    witness = cgmb.express_residual(residual, blocks)
    ok = witness is not None
    details: dict = {"name": name, "kind": f["kind"]}
    if ok:
        roundtrip = cgmb.witness_sum(witness, blocks) == residual
        min_shift = min((s for _, s in witness), default=0)
        ok = roundtrip and min_shift >= least_shift
        details["witness_terms"] = len(witness)
        details["min_shift"] = min_shift
        details["roundtrip"] = roundtrip
    details["pass"] = ok
    return details


# -- individual checks -------------------------------------------------------


def _fv(label: str, nodes) -> poincare.FlagVariety:
    return poincare.FlagVariety(CartanType.from_string(label), frozenset(nodes))


def _dim(label: str, nodes) -> int:
    return poincare.dim_flag(_fv(label, nodes))


def _skeleton(target_nodes) -> list[int]:
    rs = build_root_system(CartanType("E", 6))
    return cgmb.tate_skeleton(rs, {3, 4, 5}, target_nodes, opposition_involution(rs))


def _conormed(nodes) -> IntPoly:
    return poincare.conormed_poincare(_fv("2E6", nodes))


def _conormed_shape(nodes) -> dict:
    p = _conormed(nodes)
    return {
        "degree": p.degree,
        "nonnegative": all(c >= 0 for c in p.coeffs),
        "value_at_1": p(1),
    }


def _conormed_dichotomy(nodes) -> dict:
    p = _conormed(nodes)
    q = IntPoly((1, 0, 0, 1))
    return {"ring": divides_ring(p, q)[0], "semiring": divides_semiring(p, q)[0]}


def _jinv_roundtrip() -> bool:
    for label in jinv.supported_labels():
        mx = jinv.max_profile(label)
        admissible = jinv.enumerate_admissible(label)
        if mx != admissible[-1]:
            return False
        if mx.values != max(p.values for p in admissible):
            return False
    return True


def _tables_jinv_consistency() -> bool:
    # every tabulated J-condition must be an admissible profile with the
    # same degree vector
    for row in magictables.condition_rows():
        if row.j_values is None:
            continue
        prof = jinv.profile(row.group, row.j_values)
        if prof.degrees != row.j_degrees:
            return False
        if prof not in jinv.enumerate_admissible(row.group):
            return False
    return True


def _killing_grid_dims() -> bool:
    return all(form.dim == 133 for *_init, form in qform.killing_grid())


def _killing_compact() -> dict:
    form = qform.af_killing_form_e7(
        qform.CompositionAlgebraR(qform.QUATERNION, True),
        qform.CompositionAlgebraR(qform.OCTONION, True),
        (1, 1, 1),
    )
    return {"signature": form.signature, "witt_index": form.witt_index}


def _killing_split_isotropic() -> bool:
    return all(
        form.witt_index > 0
        for q_def, o_def, _gamma, form in qform.killing_grid()
        if not q_def and not o_def
    )


# palindromicity / counting catalog: every maximal parabolic of these types,
# plus the two E8 quotients that stay small
def _flag_catalog() -> list[poincare.FlagVariety]:
    out = []
    for label in ("A3", "D4", "F4", "G2", "E6", "E7"):
        ct = CartanType.from_string(label)
        for i in range(1, ct.rank + 1):
            out.append(_fv(label, {i}))
    out.append(_fv("E6", {1, 6}))
    out.append(_fv("E8", {1}))
    out.append(_fv("E8", {8}))
    return out


def _palindromic_flags() -> bool:
    return all(poincare.poincare_poly(fv).is_palindromic() for fv in _flag_catalog())


def _coset_count_identity() -> bool:
    # the closed form against the independent orbit walk, coefficient by
    # coefficient; the walk itself asserts its orbit size is |W|/|W_J|
    for fv in _flag_catalog():
        rs = build_root_system(fv.ambient)
        walk = weyl.length_counts_to_poly(weyl.coset_length_counts(rs, fv.levi_nodes))
        if poincare.poincare_poly(fv) != walk:
            return False
    return True


def _double_coset_partition() -> bool:
    cases = [
        ("E6", {3, 4, 5}, {1, 3, 4, 5, 6}),
        ("E6", {3, 4, 5}, {2, 3, 4, 5}),
        ("A3", {1}, {3}),
        ("D4", {2}, {1, 3, 4}),
    ]
    for label, left, right in cases:
        rs = build_root_system(CartanType.from_string(label))
        cells = weyl.double_cosets(rs, left, right)
        index = weyl.weyl_order(rs) // weyl.parabolic_order(rs, right)
        if sum(c.orbit_size for c in cells) != index:
            return False
    return True


_FUZZ_CASES = 10_000
_FUZZ_SEED = 20260808


def _fuzz_cases(bits):
    """Each fuzz case's style and the coefficients of q and of r (styles 0, 1) or p.

    ``bits`` is ``Random.getrandbits``; the draws are the ones
    ``Random.randint`` makes.  ``randint(a, b)`` is a plus the first
    ``getrandbits(k)`` below n, where n = b - a + 1 and k = n.bit_length()
    (CPython 3.10 to 3.13).  Every range here has k = 3 (n = 4, 6, 7) or
    k = 4 (n = 9, 10), and the rejection loops run inline.
    """
    for case in range(_FUZZ_CASES):
        while (c := bits(3)) >= 4:  # randint(1, 4)
            pass
        q = [1 + c]
        while (size := bits(3)) >= 6:  # randint(0, 5) more terms
            pass
        for _ in range(size):
            while (c := bits(3)) >= 4:  # randint(0, 3)
                pass
            q.append(c)
        style = case % 4
        other = []
        if style < 2:
            while (size := bits(3)) >= 6:  # randint(1, 6) terms
                pass
            # randint(0, 3) in style 0, randint(-3, 3) in style 1
            n, low = (4, 0) if style == 0 else (7, -3)
            for _ in range(size + 1):
                while (c := bits(3)) >= n:
                    pass
                other.append(low + c)
        else:
            while (size := bits(4)) >= 10:  # randint(0, 9) terms
                pass
            for _ in range(size):
                while (c := bits(4)) >= 9:  # randint(-4, 4)
                    pass
                other.append(c - 4)
        yield style, q, other


def _bottom_up_quotient(p: tuple, q: tuple) -> tuple | None:
    """Coefficients of p/q in Z[t] by division from the constant term, or None.

    ``p`` and ``q`` are canonical coefficient tuples with q[0] != 0.  The
    quotient's coefficients come out lowest first,
    r_k = (p_k - sum_{i>=1} q_i r_{k-i}) / q_0 for k up to deg p - deg q,
    and there is a quotient only if every division is exact and q*r also
    matches p's higher coefficients.  ``polyring`` divides from the top,
    so this route checks its verdicts without sharing its code.
    """
    if not p:
        return ()
    n = len(p) - len(q) + 1  # number of quotient coefficients
    if n < 1:
        return None
    q0, high = q[0], q[1:]
    rem = list(p)
    r = [0] * n
    for k in range(n):
        c = rem[k]
        if c:
            if c % q0:
                return None
            c //= q0
            r[k] = c
            for i, qi in enumerate(high, k + 1):
                rem[i] -= c * qi
    if any(rem[n:]):
        return None
    return tuple(r)


def _semiring_fuzz() -> dict:
    import random  # only this check draws random cases

    violations = 0
    for style, q_coeffs, other in _fuzz_cases(random.Random(_FUZZ_SEED).getrandbits):
        q = IntPoly(q_coeffs)
        if style < 2:
            r = IntPoly(other)
            p = q * r
            quot = r.coeffs  # p = q*r by construction
        else:
            p = IntPoly(other)
            quot = _bottom_up_quotient(p.coeffs, q.coeffs)
        semi, semi_quot = divides_semiring(p, q)
        ring, ring_quot = divides_ring(p, q)
        # each verdict must be "yes" exactly when the independent quotient
        # allows it, and a "yes" must return that quotient
        if ring != (quot is not None) or (ring and ring_quot.coeffs != quot):
            violations += 1
        if semi != (quot is not None and min(quot, default=0) >= 0) or (
            semi and semi_quot.coeffs != quot
        ):
            violations += 1
    return {"cases": _FUZZ_CASES, "violations": violations}


def _eq1_identities() -> bool:
    for label in jinv.supported_labels():
        for prof in jinv.enumerate_admissible(label):
            p = jinv.upper_motive_poly(prof)
            want_deg = sum(d * (2**j - 1) for d, j in zip(prof.degrees, prof.values))
            want_val = 1
            for j in prof.values:
                want_val *= 2**j
            if p.degree != want_deg or p(1) != want_val:
                return False
    return True


def _e7_upper_poly() -> IntPoly:
    prof = jinv.profile("E7", (0, 1, 1, 1))
    return jinv.upper_motive_poly(prof)


_R2_E7 = IntPoly((1, 0, 0, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 0, 0, 1))

_CHECKS: list[tuple[str, str, object]] = [
    (
        "dims-x2-e6",
        "the (2)-flag variety of E6 has dimension 21",
        lambda: (21, _dim("E6", {2})),
    ),
    (
        "dims-x16-e6",
        "the (1,6)-flag variety of E6 has dimension 24",
        lambda: (24, _dim("E6", {1, 6})),
    ),
    (
        "dims-y1-e7",
        "the (1)-flag variety of E7 has dimension 33",
        lambda: (33, _dim("E7", {1})),
    ),
    (
        "cgmb-skeleton-x2-e6",
        "kernel {3,4,5} against the (2)-variety Levi gives Tate shifts 0,6,15,21",
        lambda: ([0, 6, 15, 21], _skeleton({1, 3, 4, 5, 6})),
    ),
    (
        "cgmb-skeleton-x16-e6",
        "kernel {3,4,5} against the (1,6)-variety Levi gives Tate shifts 0,9,15,24",
        lambda: ([0, 9, 15, 24], _skeleton({2, 3, 4, 5})),
    ),
    (
        "conormed-x2-shape",
        "the conormed (2)-variety polynomial has degree 21, nonnegative coefficients, value 24 at t=1",
        lambda: (
            {"degree": 21, "nonnegative": True, "value_at_1": 24},
            _conormed_shape({2}),
        ),
    ),
    (
        "conormed-x16-shape",
        "the conormed (1,6)-variety polynomial has degree 24, nonnegative coefficients, value 24 at t=1",
        lambda: (
            {"degree": 24, "nonnegative": True, "value_at_1": 24},
            _conormed_shape({1, 6}),
        ),
    ),
    (
        "conormed-x2-dichotomy",
        "1 + t^3 divides the conormed (2)-variety polynomial in Z[t] but not in N0[t]",
        lambda: ({"ring": True, "semiring": False}, _conormed_dichotomy({2})),
    ),
    (
        "conormed-x16-dichotomy",
        "1 + t^3 divides the conormed (1,6)-variety polynomial in Z[t] but not in N0[t]",
        lambda: ({"ring": True, "semiring": False}, _conormed_dichotomy({1, 6})),
    ),
    (
        "henke-y1",
        "the split E7 (1)-variety polynomial decomposes as the pinned degree-33 block plus upper Borel blocks at shifts 2..14",
        lambda: (True, run_fixture("henke-y1")["pass"]),
    ),
    (
        "step5-residual-x2",
        "split (2)-variety minus the binary motive at shifts 0,6 is a positive-shift block sum",
        lambda: (True, run_fixture("step5-x2")["pass"]),
    ),
    (
        "step5-residual-x16",
        "split (1,6)-variety minus the binary motive at shifts 0,9 is a positive-shift block sum",
        lambda: (True, run_fixture("step5-x16")["pass"]),
    ),
    (
        "jinv-upper-borel-2e6",
        "profile (1,0,0) for 2E6 has upper Borel polynomial 1 + t^3",
        lambda: (
            [1, 0, 0, 1],
            list(jinv.upper_motive_poly(jinv.profile("2E6", (1, 0, 0))).coeffs),
        ),
    ),
    (
        "jinv-strongly-inner-e7",
        "profile (0,1,1,1) for E7 has upper Borel polynomial (1+t^3)(1+t^5)(1+t^9)",
        lambda: (list(_R2_E7.coeffs), list(_e7_upper_poly().coeffs)),
    ),
    (
        "jinv-table-roundtrip",
        "every tabulated maximal profile validates and tops its admissible enumeration",
        lambda: (True, _jinv_roundtrip()),
    ),
    (
        "tables-jinv-consistency",
        "every J-condition in the group-condition table is admissible with matching degrees",
        lambda: (True, _tables_jinv_consistency()),
    ),
    (
        "killing-dimension-grid",
        "the Killing form has dimension 133 for all 32 input configurations",
        lambda: (True, _killing_grid_dims()),
    ),
    (
        "killing-compact-form",
        "definite algebras with gamma (+,+,+) give the negative definite form",
        lambda: ({"signature": -133, "witt_index": 0}, _killing_compact()),
    ),
    (
        "killing-split-isotropy",
        "split algebras give an isotropic Killing form for every gamma",
        lambda: (True, _killing_split_isotropic()),
    ),
    (
        "props-palindromic-flags",
        "every cataloged flag Poincare polynomial is palindromic",
        lambda: (True, _palindromic_flags()),
    ),
    (
        "props-coset-counts",
        "every cataloged flag polynomial evaluates at t=1 to the coset count",
        lambda: (True, _coset_count_identity()),
    ),
    (
        "props-double-coset-partition",
        "double-coset orbit sizes always sum to the coset index",
        lambda: (True, _double_coset_partition()),
    ),
    (
        "props-semiring-implies-ring",
        "semiring divisibility implies ring divisibility over deterministic fuzzing",
        lambda: ({"cases": _FUZZ_CASES, "violations": 0}, _semiring_fuzz()),
    ),
    (
        "props-upper-poly-identities",
        "upper polynomial degree and value at 1 match the profile data for every admissible profile",
        lambda: (True, _eq1_identities()),
    ),
]


def check_names() -> list[str]:
    return sorted(name for name, _, _ in _CHECKS)


def _timed(thunk) -> tuple[object, object, float]:
    """A check's (expected, actual) and its wall time in ms, run here."""
    t0 = time.perf_counter()
    expected, actual = thunk()
    return expected, actual, (time.perf_counter() - t0) * 1000.0


def _result(check, timed: tuple | None = None) -> CheckResult:
    """The result of a check, from its timed values or by running it here."""
    name, claim, thunk = check
    expected, actual, ms = timed or _timed(thunk)
    return CheckResult(name, claim, expected, actual, expected == actual, ms)


_FUZZ = "props-semiring-implies-ring"


def _can_fork() -> bool:
    """Whether a forked worker can run beside this process: a second CPU, one thread."""
    if not hasattr(os, "fork"):
        return False
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    threading = sys.modules.get("threading")
    return cpus > 1 and (threading is None or threading.active_count() == 1)


def _fork_worker(thunk) -> tuple[int, int] | None:
    """Fork a child that runs thunk and sends ``_timed(thunk)`` back as marshal bytes.

    Returns the child's pid and the read end of its pipe, or None if the
    fork fails.  The child ends in ``os._exit``, 0 once everything is
    written and 1 on any exception, so it never returns into the caller
    and never flushes the stdio buffers it inherited.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no memory or process left for a child: run it here
        os.close(r)
        os.close(w)
        return None
    if pid:
        os.close(w)
        return pid, r
    code = 1
    try:
        os.close(r)
        data = memoryview(marshal.dumps(_timed(thunk)))
        while data:
            data = data[os.write(w, data) :]
        code = 0
    finally:
        os._exit(code)


def _reap(pid: int, r: int) -> tuple | None:
    """What the worker sent, once it has exited; None if nothing readable came back."""
    chunks = []
    try:
        while chunk := os.read(r, 65536):
            chunks.append(chunk)
    finally:
        os.close(r)
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:  # reaped already: this process ignores SIGCHLD
            pass
    try:
        return marshal.loads(b"".join(chunks))
    except (EOFError, ValueError, TypeError):  # the worker raised before it wrote
        return None


def run_verify(pattern: str | None = None) -> VerifyReport:
    """Run all checks (or those matching a glob), sorted by name.

    When the semiring fuzz, by far the slowest check, is selected with
    another check, and ``_can_fork`` (``os.fork`` exists, at least 2 CPUs
    are usable, one thread is alive), a forked worker runs the fuzz while
    this process runs the others in name order.  The worker is reaped
    before this returns or raises.  If its result is missing or
    unreadable, the fuzz runs here, so a failure or exception is the one
    the sequential run gives, and an exception of a check after the fuzz
    is raised only once the fuzz has run without one.  ``runtime_ms`` is
    each check's own wall time, in the process that ran it.
    """
    selected = sorted(_CHECKS, key=lambda c: c[0])
    if pattern is not None:
        import fnmatch  # only a --filter needs it

        selected = [c for c in selected if fnmatch.fnmatch(c[0], pattern)]
        if not selected:
            raise ValueError(
                f"no checks match {pattern!r}; available: {', '.join(check_names())}"
            )
    names = [name for name, _, _ in selected]
    worker = None
    if _FUZZ in names and len(names) > 1 and _can_fork():
        k = names.index(_FUZZ)
        worker = _fork_worker(selected[k][2])
    if worker is None:
        return VerifyReport([_result(c) for c in selected])
    pid, r = worker
    held = None
    try:
        head = [_result(c) for c in selected[:k]]
        try:
            tail = [_result(c) for c in selected[k + 1 :]]
        except BaseException as exc:  # the sequential run raises it after the fuzz
            held, tail = exc, []
    finally:
        sent = _reap(pid, r)
    fuzz = _result(selected[k], sent)
    if held is not None:
        raise held
    return VerifyReport([*head, fuzz, *tail])
