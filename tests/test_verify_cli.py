import ast
import collections
import contextlib
import copy
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

import magicsq
from magicsq import _data, cgmb, jinv, magictables, poincare, qform, verify, weyl
from magicsq.cli import _emit_json, main
from magicsq.polyring import MAX_DEGREE, IntPoly, format_poly, parse_poly
from magicsq.rootsys import build_root_system
from magicsq.verify import CheckResult, VerifyReport, fixture_names, run_fixture, run_verify

from _reference import from_json_dict


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_run_verify_all_pass():
    report = run_verify()
    assert report.all_pass
    assert report.exit_code == 0
    assert len(report.checks) >= 20
    for check in report.checks:
        assert check.claim  # every check carries a nonempty claim
        assert check.runtime_ms >= 0


def test_run_verify_filter():
    report = run_verify("dims-*")
    assert [c.name for c in report.checks] == ["dims-x16-e6", "dims-x2-e6", "dims-y1-e7"]
    assert report.all_pass


def test_every_check_gives_the_same_result_alone():
    # no check may lean on what an earlier one computed: each runs alone,
    # with the one package cache (root systems) emptied first
    full = {c.name: c for c in run_verify().checks}
    assert sorted(full) == verify.check_names()
    for name in verify.check_names():
        build_root_system.cache_clear()
        (alone,) = run_verify(name).checks
        assert (alone.name, alone.expected, alone.actual, alone.passed) == (
            name, full[name].expected, full[name].actual, full[name].passed,
        )
        assert alone.passed


# a Killing-form grid of one anisotropic form of the wrong dimension, from
# split algebras: it fails both the dimension and the isotropy check
_WRONG_GRID = [(False, False, (1, 1, 1), SimpleNamespace(dim=0, witt_index=0))]


def _outranked(label):
    # the true maximal profile, last as enumerated, and a profile before it
    # with larger values
    return [SimpleNamespace(values=(99,)), jinv.max_profile(label)]


# each check name -> ways to make it fail: a module attribute the check
# reads, and a wrong stand-in for it
WRONG = {
    "cgmb-skeleton-x16-e6": [(cgmb, "tate_skeleton", lambda *args: [])],
    "cgmb-skeleton-x2-e6": [(cgmb, "tate_skeleton", lambda *args: [])],
    "conormed-x16-dichotomy": [(poincare, "conormed_poincare", lambda fv: IntPoly([1, 0, 0, 1]))],
    "conormed-x16-shape": [(poincare, "conormed_poincare", lambda fv: IntPoly([1, 0, 0, 1]))],
    "conormed-x2-dichotomy": [(verify, "divides_ring", lambda p, q: (False, None))],
    "conormed-x2-shape": [(poincare, "conormed_poincare", lambda fv: IntPoly([1, -1]))],
    "dims-x16-e6": [(poincare, "dim_flag", lambda fv: 0)],
    "dims-x2-e6": [(poincare, "dim_flag", lambda fv: 0)],
    "dims-y1-e7": [(poincare, "dim_flag", lambda fv: 0)],
    "henke-y1": [(poincare, "poincare_poly", lambda fv: IntPoly([1, 1]))],
    "jinv-strongly-inner-e7": [(jinv, "upper_motive_poly", lambda prof: IntPoly([1]))],
    "jinv-table-roundtrip": [
        (jinv, "enumerate_admissible", lambda label: [None]),
        (jinv, "enumerate_admissible", _outranked),
    ],
    "jinv-upper-borel-2e6": [(jinv, "upper_motive_poly", lambda prof: IntPoly([1]))],
    "killing-compact-form": [
        (qform, "af_killing_form_e7", lambda *args: SimpleNamespace(signature=0, witt_index=1))
    ],
    "killing-dimension-grid": [(qform, "killing_grid", lambda: _WRONG_GRID)],
    "killing-split-isotropy": [(qform, "killing_grid", lambda: _WRONG_GRID)],
    "props-coset-counts": [(weyl, "coset_length_counts", lambda rs, levi: {0: 1})],
    "props-double-coset-partition": [(weyl, "double_cosets", lambda *args: [])],
    "props-palindromic-flags": [(poincare, "poincare_poly", lambda fv: IntPoly([1, 2]))],
    "props-semiring-implies-ring": [(verify, "divides_ring", lambda p, q: (False, None))],
    "props-upper-poly-identities": [(jinv, "upper_motive_poly", lambda prof: IntPoly([1]))],
    "step5-residual-x16": [(cgmb, "express_residual", lambda residual, blocks: None)],
    "step5-residual-x2": [(cgmb, "express_residual", lambda residual, blocks: None)],
    "tables-jinv-consistency": [
        (jinv, "profile", lambda group, values: SimpleNamespace(degrees=None)),
        (jinv, "enumerate_admissible", lambda group: []),
    ],
}


def test_every_check_has_a_way_to_fail():
    assert sorted(WRONG) == verify.check_names()


@pytest.mark.parametrize(
    "name,module,attr,wrong",
    [(name, *way) for name, ways in WRONG.items() for way in ways],
    ids=[f"{name}-{way[1]}" for name, ways in WRONG.items() for way in ways],
)
def test_every_check_fails_on_a_wrong_value(monkeypatch, name, module, attr, wrong):
    # the check reports the failure with exit code 1; it does not raise
    monkeypatch.setattr(module, attr, wrong)
    report = run_verify(name)
    assert [(c.name, c.passed) for c in report.checks] == [(name, False)]
    assert report.exit_code == 1


def _randint_fuzz_cases(randint):
    # the fuzz's cases as first written, one Random.randint call per draw
    for case in range(verify._FUZZ_CASES):
        q = [randint(1, 4)] + [randint(0, 3) for _ in range(randint(0, 5))]
        style = case % 4
        if style == 0:
            other = [randint(0, 3) for _ in range(randint(1, 6))]
        elif style == 1:
            other = [randint(-3, 3) for _ in range(randint(1, 6))]
        else:
            other = [randint(-4, 4) for _ in range(randint(0, 9))]
        yield style, q, other


def test_semiring_fuzz_draws_the_cases_randint_draws():
    # the fuzz reads getrandbits directly; on this interpreter its 10,000
    # cases must be the ones random.Random.randint draws from the same seed
    want = list(_randint_fuzz_cases(random.Random(verify._FUZZ_SEED).randint))
    got = list(verify._fuzz_cases(random.Random(verify._FUZZ_SEED).getrandbits))
    assert len(got) == verify._FUZZ_CASES
    assert got == want


def _drop_yes(divides, coefficient):
    # a faulty divisibility test: "no" whenever the true quotient has the
    # given coefficient
    def faulty(p, q):
        ok, quot = divides(p, q)
        if ok and coefficient in quot.coeffs:
            return False, None
        return ok, quot

    return faulty


def test_semiring_fuzz_catches_a_wrong_ring_no(monkeypatch):
    # random p (styles 2, 3) with a quotient holding -4: the semiring side
    # rightly says no, so only the independent quotient exposes the ring's "no"
    monkeypatch.setattr(verify, "divides_ring", _drop_yes(verify.divides_ring, -4))
    assert verify._semiring_fuzz() == {"cases": verify._FUZZ_CASES, "violations": 100}


def test_semiring_fuzz_catches_a_wrong_semiring_no(monkeypatch):
    # style 0's known quotients stay below 4, so only the converse leg
    # (ring "yes" with a nonnegative quotient forces a semiring "yes") sees it
    monkeypatch.setattr(verify, "divides_semiring", _drop_yes(verify.divides_semiring, 4))
    assert verify._semiring_fuzz() == {"cases": verify._FUZZ_CASES, "violations": 13}


def test_run_verify_unknown_filter_lists_names():
    with pytest.raises(ValueError, match="dims-x2-e6"):
        run_verify("nonexistent-*")


def test_report_rendering_failure_path():
    report = VerifyReport(
        [CheckResult("fake", "a fake failing check", 1, 2, False, 0.5)]
    )
    assert report.exit_code == 1
    text = report.to_text()
    assert "✗" in text and "expected" in text


def test_cli_verify_json_payload_of_a_failing_report(monkeypatch, capsys):
    # the verify handler alone shapes the report: "passed" prints as "pass",
    # runtime_ms rounded to the microsecond, every other field as it is
    report = VerifyReport([
        CheckResult("fake", "a fake failing check", [1, 2], {"n": 2}, False, 0.123456),
        CheckResult("ok", "a passing check", 3, 3, True, 2.0),
    ])
    monkeypatch.setattr(verify, "run_verify", lambda pattern: report)
    code, out = run_cli(capsys, "--format", "json", "verify")
    assert code == 1
    assert json.loads(out) == {
        "all_pass": False,
        "checks": [
            {"name": "fake", "claim": "a fake failing check", "expected": [1, 2],
             "actual": {"n": 2}, "pass": False, "runtime_ms": 0.123},
            {"name": "ok", "claim": "a passing check", "expected": 3,
             "actual": 3, "pass": True, "runtime_ms": 2.0},
        ],
    }


def test_fixture_registry():
    assert set(fixture_names()) == {"henke-y1", "step5-x2", "step5-x16"}
    assert run_fixture("henke-y1")["pass"]
    with pytest.raises(ValueError, match="henke-y1"):
        run_fixture("no-such-fixture")


def test_cli_verify_text_and_exit_code(capsys):
    code, out = run_cli(capsys, "verify", "--filter", "dims-*")
    assert code == 0
    assert out.count("✓") == 3
    assert "3/3 ok" in out


def test_cli_verify_json(capsys):
    code, out = run_cli(capsys, "--format", "json", "verify", "--filter", "cgmb-*")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    assert [c["name"] for c in payload["checks"]] == [
        "cgmb-skeleton-x16-e6", "cgmb-skeleton-x2-e6",
    ]


def test_cli_unknown_fixture_is_usage_error(capsys):
    code, _ = run_cli(capsys, "cgmb", "check", "--fixture", "nope")
    assert code == 2


def test_cli_fixture_override_and_failure_exit_code(tmp_path, capsys):
    # a deliberately wrong identity: total minus one lone Tate-like term
    doc = {
        "version": 1,
        "fixtures": [
            {
                "name": "broken",
                "kind": "identity",
                "claim": "a wrong decomposition for exercising exit code 1",
                "total": {"poincare": {"type": "A1", "variety": [1]}},
                "terms": [{"kind": "upper", "shifts": [0], "coeffs": [1]}],
            }
        ],
    }
    path = tmp_path / "fixtures.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(
        capsys, "--fixtures", str(path), "cgmb", "check", "--fixture", "broken"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["pass"] is False
    assert payload["residual"] == ["0", "1"]  # leftover t
    # the pinned fixtures are not visible through the override
    code, _ = run_cli(
        capsys, "--fixtures", str(path), "cgmb", "check", "--fixture", "henke-y1"
    )
    assert code == 2


def test_cli_fixture_with_a_5040_term_witness(tmp_path, capsys):
    # the A6 Borel variety is 5040 Tate terms, one placement each
    doc = {
        "version": 1,
        "fixtures": [
            {
                "name": "deep",
                "kind": "residual-expressible",
                "claim": "the split A6 Borel variety is a sum of Tate motives",
                "total": {"poincare": {"type": "A6", "variety": [1, 2, 3, 4, 5, 6]}},
                "subtract": [],
                "blocks": [[1]],
                "min_shift": 0,
            }
        ],
    }
    path = tmp_path / "fixtures.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "--fixtures", str(path), "cgmb", "check", "--fixture", "deep")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["witness_terms"] == 5040


def test_cli_poincare_round_trip(capsys):
    code, out = run_cli(capsys, "poincare", "--type", "E6", "--variety", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 21
    poly = from_json_dict(payload)
    assert poly.degree == 21 and poly(1) == 72
    assert payload["value_at_1"] == 72


def test_cli_polynomial_payload_keeps_big_coefficients_exact(capsys):
    # coefficients print as decimal strings, so 10^30 survives a float parser
    p = IntPoly([10**30, -5, 0, 3])
    code, out = run_cli(capsys, "poly", "eval-rational", "--num", format_poly(p), "--den", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"coeffs": [str(10**30), "-5", "0", "3"], "degree": 3,
                       "pretty": format_poly(p), "value_at_1": 10**30 - 2}
    assert from_json_dict(payload) == p


def test_cli_poincare_conormed(capsys):
    code, out = run_cli(capsys, "poincare", "--type", "2E6", "--variety", "1,6", "--conormed")
    payload = json.loads(out)
    assert code == 0 and payload["degree"] == 24
    code, _ = run_cli(capsys, "poincare", "--type", "2E6", "--variety", "3", "--conormed")
    assert code == 2
    # every sigma-stable variety gets its polynomial, not just the two in the paper
    code, out = run_cli(capsys, "poincare", "--type", "2E6", "--variety", "4", "--conormed")
    assert code == 0 and json.loads(out)["degree"] == 29


def test_cli_conormed_2a12_borel(capsys):
    # W(A12) has 6227020800 elements, too many to walk; the closed form
    # counts the sigma-fixed ones, W(C6).  2A90 is the largest twisted
    # Borel variety whose answer stays within the degree cap of 4096; its
    # numerator has degree 4139, within the cap plus the denominator's 44.
    # Both 2A89 and 2A90 have |W(C45)| points at 1
    w_c45 = 2**45 * math.factorial(45)
    for rank, dim, value in ((12, 78, 46080), (89, 4005, w_c45), (90, 4095, w_c45)):
        nodes = ",".join(map(str, range(1, rank + 1)))
        code, out = run_cli(
            capsys, "poincare", "--type", f"2A{rank}", "--variety", nodes, "--conormed"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["degree"] == payload["dim"] == dim
        assert payload["value_at_1"] == value


def test_cli_weyl_verbs(capsys):
    code, out = run_cli(capsys, "weyl", "order", "--type", "E6")
    assert code == 0 and json.loads(out)["order"] == 51840
    code, out = run_cli(capsys, "weyl", "cosets", "--type", "E6", "--parabolic", "1,3,4,5,6")
    payload = json.loads(out)
    assert payload["count"] == 72 and payload["max_length"] == 21
    code, out = run_cli(
        capsys, "weyl", "double-cosets", "--type", "E6",
        "--left", "3,4,5", "--right", "1,3,4,5,6", "--star", "opposition",
    )
    payload = json.loads(out)
    assert sum(c["orbit_size"] for c in payload["cells"]) == 72
    tate = [c["length"] for c in payload["cells"] if c["orbit_size"] == 1 and c["star_invariant"]]
    assert sorted(tate) == [0, 6, 15, 21]


def test_cli_weyl_double_cosets_isotropic_e8(capsys):
    # |W/W_J| = 348364800 is above the enumeration limit; the kernel side,
    # 2160 cosets of W(D7), is walked instead
    code, out = run_cli(
        capsys, "weyl", "double-cosets", "--type", "E8",
        "--left", "2,3,4,5,6,7,8", "--right", "1",
    )
    assert code == 0
    cells = json.loads(out)["cells"]
    assert len(cells) == 1458
    assert sum(c["orbit_size"] for c in cells) == 348_364_800


def test_cli_cgmb_skeleton(capsys):
    code, out = run_cli(
        capsys, "cgmb", "skeleton", "--ambient", "E6", "--kernel", "3,4,5", "--variety", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["shifts"] == [0, 6, 15, 21]
    assert payload["levi"] == [1, 3, 4, 5, 6]


def test_cli_poly_verbs(capsys):
    code, out = run_cli(
        capsys, "poly", "eval-rational",
        "--num", "t^8-1,t^12-1,t^9+1", "--den", "t-1,t^4-1,t^3+1",
    )
    payload = json.loads(out)
    assert code == 0 and payload["degree"] == 21
    code, out = run_cli(capsys, "poly", "divides", "--p", "1+t^3+t^5+t^8", "--q", "1+t^3", "--semiring")
    payload = json.loads(out)
    assert payload["divides"] is True
    assert parse_poly(payload["quotient"]["pretty"]) == parse_poly("1+t^5")
    # non-exact division is a usage error, not a crash
    code, _ = run_cli(capsys, "poly", "eval-rational", "--num", "t^2+1", "--den", "t-1")
    assert code == 2


def test_cli_tables_csv_has_16_rows(capsys):
    code, out = run_cli(capsys, "--format", "csv", "tables", "magic")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "row,col,group,degree"
    assert len(lines) == 17  # header + 16 cells


def test_cli_tables_queries(capsys):
    code, out = run_cli(capsys, "tables", "conditions", "--group", "2E6")
    payload = json.loads(out)
    assert payload["rows"][0]["parabolic"] == "P_1,6"
    code, out = run_cli(capsys, "tables", "tits-index", "--rost", "not-pure-symbol")
    payload = json.loads(out)
    assert payload["cases"][0]["circled_nodes"] == [2]
    code, out = run_cli(capsys, "tables", "constructions")
    assert len(json.loads(out)["rows"]) == 9


def test_cli_qform(capsys):
    code, out = run_cli(capsys, "qform", "af-e7", "--q", "split", "--o", "split", "--gamma", "+,-,+")
    payload = json.loads(out)
    assert code == 0
    assert payload["dim"] == 133 and payload["witt_index"] > 0


def test_cli_jinv(capsys):
    code, out = run_cli(capsys, "jinv", "enumerate", "--group", "E7")
    payload = json.loads(out)
    assert len(payload["values"]) == 8
    assert payload["constraints_pinned"] is True
    code, out = run_cli(capsys, "jinv", "enumerate", "--group", "E8")
    payload = json.loads(out)
    assert len(payload["values"]) == 48
    assert payload["constraints_pinned"] is False
    code, out = run_cli(capsys, "jinv", "table")
    payload = json.loads(out)
    assert payload["max_profiles"]["E8"]["caps"] == [3, 2, 1, 1]


def test_cli_json_is_deterministic():
    cmd = [sys.executable, "-m", "magicsq", "cgmb", "skeleton",
           "--ambient", "E6", "--kernel", "3,4,5", "--variety", "1,6"]
    a = subprocess.run(cmd, capture_output=True, text=True)
    b = subprocess.run(cmd, capture_output=True, text=True)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def _written(obj) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit_json(obj)
    return out.getvalue()


def _dumped(obj) -> str:
    # the oracle: json's own key-sorted, indented output
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@given(_JSON_VALUES)
def test_emit_json_matches_json_dumps(obj):
    assert _written(obj) == _dumped(obj)


@pytest.mark.parametrize(
    "obj",
    [
        {"a": {}, "b": [], "c": [{}, [[]], ()], "d": {"e": {"f": []}}},
        [{}], [], {}, (),
        ['quote"', "back\\slash", "new\nline", "del\x7f", "é", "😀", "", "plain ascii ~"],
        {'quote"': 1, "é": 2, "😀": 3, "new\nline": 4},
        [-0.0, 0.0, 1e16, 1e-7, 0.1, float("nan"), float("inf"), float("-inf")],
        [10**40, -(10**40), 0, -1],
        [True, 1, False, 0, None],
        {"one": 1, "true": True},
        "top-level string", 7, 2.5, None, True,
    ],
)
def test_emit_json_cases(obj):
    assert _written(obj) == _dumped(obj)


def test_emit_json_writes_node_sets_and_enum_members():
    # the two non-json types records carry: a frozenset as its sorted list,
    # an enum member as its value, at the top, in a list and as a dict value
    rost = magictables.RostCondition.ZERO
    obj = {"nodes": frozenset({6, 1, 3}), "rost": rost, "both": [frozenset(), rost]}
    assert _written(obj) == _dumped({"nodes": [1, 3, 6], "rost": "zero", "both": [[], "zero"]})
    assert _written(frozenset({2, 1})) == _dumped([1, 2])
    assert _written(rost) == _dumped("zero")


@pytest.mark.parametrize(
    "obj", [{1, 2}, b"bytes", parse_poly("1+t"), [set()], {"a": [{(1, 2): 3}]},
            # json would write this key as "1"; no command prints a non-str key
            {1: "a"},
            # a set where node sets are frozensets; what a frozenset holds
            {"nodes": {1, 2}}, frozenset({b"x"}), [frozenset({parse_poly("t")})]]
)
def test_emit_json_rejects_other_types(obj):
    with pytest.raises(TypeError):
        _written(obj)


def _probe(code: str):
    # a fresh interpreter without site, so only magicsq's own imports count
    src = os.path.dirname(os.path.dirname(os.path.abspath(magicsq.__file__)))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LAYERS = ("_data", "_record", "cgmb", "jinv", "magictables", "poincare", "polyring", "qform",
          "rootsys", "verify", "weyl")
# a module that LazyLoader registered but has not executed is a subclass
_EXECUTED = ("sorted(m.removeprefix('magicsq.') for m, mod in sys.modules.items() "
             "if m.startswith('magicsq.') and type(mod) is types.ModuleType)")


def test_cli_import_registers_every_layer():
    # the benchmark tracer finds the layers in sys.modules after this import
    out = _probe("import sys, magicsq.cli; "
                 "print(sorted(m for m in sys.modules if m.startswith('magicsq.')))")
    assert ast.literal_eval(out) == sorted(f"magicsq.{m}" for m in (*LAYERS, "cli"))


def test_layers_import_no_heavy_stdlib():
    # Every command is a new process: no layer may pull in dataclasses/inspect
    # (code generation), fractions/decimal (only the inexact-division error
    # path needs them), random (only the semiring fuzz), fnmatch (only verify
    # --filter), json (only reading a user's --fixtures document) or argparse
    # (only help and usage errors).  vars() executes every lazily registered
    # layer first.
    heavy = ("argparse", "dataclasses", "decimal", "fnmatch", "fractions", "inspect", "json",
             "random")
    out = _probe(
        "import sys, types, magicsq.cli; "
        "[vars(mod) for m, mod in list(sys.modules.items()) if m.startswith('magicsq.')]; "
        f"print({_EXECUTED}, [m for m in {heavy!r} if m in sys.modules])"
    )
    assert out == f"{sorted((*LAYERS, 'cli'))!r} []\n"


@pytest.mark.parametrize("argv, executed", [
    (["poincare", "--type", "E7", "--variety", "2"],
     ("_record", "poincare", "polyring", "rootsys", "weyl")),
    (["weyl", "cosets", "--type", "E6", "--parabolic", "1,3,4,5,6"],
     ("_record", "polyring", "rootsys", "weyl")),
    (["tables", "magic"], ("_record", "magictables")),
    (["qform", "af-e7", "--q", "split", "--o", "definite", "--gamma=-,+,+"],
     ("_record", "qform")),
    (["cgmb", "blocks"], ("_record", "cgmb", "polyring")),
    (["jinv", "enumerate", "--group", "E8"], ("_record", "jinv", "polyring")),
])
def test_cli_command_executes_only_its_layers(argv, executed):
    out = _probe(
        "import io, sys, types, magicsq.cli; "
        f"sys.stdout = io.StringIO(); code = magicsq.cli.main({argv!r}); "
        f"sys.stdout = sys.__stdout__; print(code, {_EXECUTED})"
    )
    assert out == f"0 {sorted((*executed, 'cli'))!r}\n"


def test_cli_command_without_data_never_imports_json():
    out = _probe(
        "import sys, magicsq.cli; "
        "code = magicsq.cli.main(['weyl', 'order', '--type', 'E6']); "
        "print(code, 'json' in sys.modules)"
    )
    assert out == '{\n  "order": 51840,\n  "type": "E6"\n}\n0 False\n'


@pytest.mark.parametrize("argv", [
    ["poincare", "--type", "E7", "--variety", "2"],
    ["qform", "af-e7", "--q", "split", "--o", "definite", "--gamma=-,+,+"],
])
def test_cli_well_formed_command_never_imports_argparse(argv, capsys):
    # the command table parses it; argparse (and gettext, locale) stay unloaded
    out = _probe(
        f"import sys, magicsq.cli; code = magicsq.cli.main({argv!r}); "
        "print(code, [m for m in ('argparse', 'gettext', 'locale') if m in sys.modules])"
    )
    assert out == run_cli(capsys, *argv)[1] + "0 []\n"


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["weyl", "order"], 2)])
def test_cli_help_and_usage_errors_still_use_argparse(argv, code):
    out = _probe(
        f"import sys, magicsq.cli\n"
        f"try:\n    magicsq.cli.main({argv!r})\n"
        "except SystemExit as exc:\n    print(exc.code, 'argparse' in sys.modules)"
    )
    assert out.endswith(f"{code} True\n")
    assert out.startswith("usage: magicsq") == (code == 0)


# runtime_ms is wall time, the one field that differs between two runs
_RUNTIME = re.compile(r'"runtime_ms": [0-9.e-]+')


@pytest.mark.parametrize("argv", [
    ["tables", "magic", "--row", "octonion", "--col", "F4"],
    ["jinv", "poly", "--group", "E7", "--j", "0,1,1,1"],
    ["cgmb", "check", "--fixture", "henke-y1"],
    ["--format", "json", "verify", "--filter", "jinv-*"],
], ids=["tables", "jinv", "cgmb", "verify"])
def test_cli_command_with_data_never_imports_json(argv, capsys):
    # the built-in documents are Python literals: no data command parses json
    out = _probe(
        f"import sys, magicsq.cli; code = magicsq.cli.main({argv!r}); "
        "print(code, 'json' in sys.modules)"
    )
    expected = run_cli(capsys, *argv)[1] + "0 False\n"
    assert _RUNTIME.sub("", out) == _RUNTIME.sub("", expected)


def test_cli_fixtures_option_still_reads_json(tmp_path, capsys):
    # a user's --fixtures document is the one JSON file a command reads
    path = tmp_path / "fixtures.json"
    path.write_text(json.dumps(_data.FIXTURES))
    argv = ["--fixtures", str(path), "cgmb", "check", "--fixture", "henke-y1"]
    out = _probe(
        f"import sys, magicsq.cli; code = magicsq.cli.main({argv!r}); "
        "print(code, 'json' in sys.modules)"
    )
    assert out == run_cli(capsys, *argv)[1] + "0 True\n"


def test_cli_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "magicsq", "weyl", "order"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2


def test_cli_refuses_oversized_root_system_at_once():
    # building A3000 would take hours; the size guard answers before it starts
    proc = subprocess.run(
        [sys.executable, "-m", "magicsq", "weyl", "order", "--type", "A3000"],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 2
    assert proc.stderr == (
        "error: root system A3000 has 4501500 positive roots, above the limit of 20000\n"
    )


def test_cli_validation_errors_map_to_exit_2(capsys):
    for argv, message in (
        (["weyl", "order", "--type", "E9"], None),
        (["weyl", "order", "--type", "E6x"], "cannot parse Dynkin type 'E6x'"),
        # 348364800 cosets: over the permutation enumeration cap
        (["weyl", "double-cosets", "--type", "E8", "--left", "1", "--right", "1"], None),
        (["jinv", "poly", "--group", "2E6", "--j", "0,1,0"], None),
        (["jinv", "poly", "--group", "F4", "--j", "0,0,0,0"], None),
        (
            ["jinv", "poly", "--group", "2E6", "--j", "a,b"],
            "value vector must be comma-separated integers, got 'a,b'",
        ),
        (["qform", "af-e7", "--q", "definite", "--o", "definite", "--gamma", "+,0,+"], None),
        (["qform", "af-e7", "--q", "round", "--o", "definite", "--gamma", "+,+,+"], None),
        (
            ["qform", "af-e7", "--q", "split", "--o", "split", "--gamma=+,+"],
            "gamma needs exactly three entries, e.g. +,+,-",
        ),
        (["tables", "magic", "--row", "octonion"], None),  # --col missing
        (
            ["tables", "tits-index", "--rost", "nope"],
            "unknown Rost condition 'nope'; known conditions: zero, "
            "pure-symbol-divisible-by-k, symbol-not-divisible-by-k, not-pure-symbol, "
            "impossible-with-split-tits",
        ),
        (["poly", "divides", "--p", "1+t", "--q", "t-1", "--semiring"], None),
        (
            ["poly", "eval-rational", "--num", "t+1", "--den", "2"],
            "quotient is not in Z[t]; rational coefficients 1/2, 1/2",
        ),
        (
            ["poly", "divides", "--p", "1+", "--q", "1+t"],
            "a sign with no term after it in '1+'",
        ),
        (
            ["poly", "eval-rational", "--num", "t^2+1", "--den", "t-1"],
            "denominator does not divide numerator; remainder has coefficients 2",
        ),
        (
            ["jinv", "poly", "--group", "E7", "--j", "1,1"],
            "E7 takes 4 values (degrees 1,3,5,9), got 2",
        ),
        (
            ["cgmb", "skeleton", "--ambient", "E6", "--kernel", "3,4,5", "--variety", "2,9"],
            "nodes [2, 9] not within 1..6",
        ),
        (
            ["cgmb", "skeleton", "--ambient", "E6", "--kernel", "3,4,5", "--variety", "2,-4"],
            "nodes [-4, 2] not within 1..6",
        ),
        (
            ["poincare", "--type", "E6", "--variety", "1", "--conormed"],
            "conormed Poincare polynomial for (E6, X_1) needs an outer form "
            "(2A_n, 2D_n, 2E6)",
        ),
        (
            ["poincare", "--type", "2E6", "--variety", "1", "--conormed"],
            "conormed Poincare polynomial for (2E6, X_1): X_1 is not stable under "
            "the diagram twist (1 <-> 6)",
        ),
        # json is every command's format; text only verify's, csv only the
        # full tables magic listing's
        (["--format", "csv", "weyl", "order", "--type", "E6"], "weyl order prints json, not csv"),
        (
            ["--format", "text", "poincare", "--type", "E6", "--variety", "1"],
            "poincare prints json, not text",
        ),
        (["--format", "csv", "verify"], "verify prints text or json, not csv"),
        (
            ["--format", "csv", "tables", "magic", "--row", "octonion", "--col", "F4"],
            "tables magic with --row/--col prints json, not csv",
        ),
        (["--format", "text", "tables", "magic"], "tables magic prints json or csv, not text"),
    ):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2, argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv
        if message is not None:
            assert err == f"error: {message}\n"


def test_cli_weyl_cosets_large_e8_quotient(capsys):
    code, out = run_cli(capsys, "weyl", "cosets", "--type", "E8", "--parabolic", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 348_364_800
    assert payload["max_length"] == 119
    assert [l for l, _ in payload["length_counts"]] == list(range(120))


def test_cli_degree_caps_map_to_exit_2(capsys):
    for argv in (
        ["poly", "divides", "--p", "t^1000000000", "--q", "1+t"],
        ["poly", "eval-rational", "--num", "t^3000,t^3000", "--den", "t-1"],
    ):
        code = main(argv)
        assert code == 2, argv
        assert "maximum" in capsys.readouterr().err


def test_cli_fixture_load_errors_map_to_exit_2(tmp_path, capsys):
    bad_docs = {
        "not-json.json": "{",
        "no-version.json": json.dumps({"fixtures": []}),
        "wrong-version.json": json.dumps({"version": 2, "fixtures": []}),
        "version-true.json": json.dumps(dict(_data.FIXTURES, version=True)),
        "no-fixtures.json": json.dumps({"version": 1}),
        "no-total.json": json.dumps(
            {"version": 1, "fixtures": [{"name": "x", "kind": "identity", "terms": []}]}
        ),
        "no-terms.json": json.dumps(
            {"version": 1, "fixtures": [{"name": "x", "kind": "identity", "total": {}}]}
        ),
        "bad-total.json": json.dumps(
            {
                "version": 1,
                "fixtures": [{"name": "x", "kind": "identity", "total": {}, "terms": []}],
            }
        ),
        "shift-above-the-maximum-degree.json": json.dumps(
            {
                "version": 1,
                "fixtures": [
                    {
                        "name": "x",
                        "kind": "identity",
                        "total": {"poincare": {"type": "E7", "variety": [1]}},
                        "terms": [{"kind": "tate", "shifts": [MAX_DEGREE + 1]}],
                    }
                ],
            }
        ),
        "term-without-shifts.json": json.dumps(
            {
                "version": 1,
                "fixtures": [
                    {
                        "name": "x",
                        "kind": "identity",
                        "total": {"poincare": {"type": "E7", "variety": [1]}},
                        "terms": [{"kind": "upper"}],
                    }
                ],
            }
        ),
    }
    # a residual-expressible fixture named "x" with one key of the wrong type
    residual = {
        "name": "x", "kind": "residual-expressible",
        "total": {"poincare": {"type": "E6", "variety": [2]}},
        "subtract": [], "blocks": [[1, 0, 0, 1], [2]], "min_shift": 1,
    }
    for key, value in (
        ("blocks", "x"), ("blocks", [1, 2]), ("min_shift", "z"),
        ("name", ["a"]),  # "--fixture x" is then unknown, and the names are listed
        ("kind", ["a"]), ("kind", "other"),
        ("total", {"poincare": {"type": 5, "variety": [2]}}),
        ("total", {"poincare": {"type": "E6", "variety": "2"}}),
    ):
        bad_docs[f"bad-{key}-{value!r}.json"] = json.dumps(
            {"version": 1, "fixtures": [dict(residual, **{key: value})]}
        )
    bad_docs["same-name-twice.json"] = json.dumps({"version": 1, "fixtures": [residual, residual]})
    # nesting too deep for the decoder: a bare one, and one in a fixture's claim
    bad_docs["nested-too-deep.json"] = "[" * 100_000 + "]" * 100_000
    bad_docs["nested-too-deep-claim.json"] = json.dumps(
        {"version": 1, "fixtures": [dict(residual, claim="CLAIM")]}
    ).replace('"CLAIM"', "[" * 5_000 + "]" * 5_000)
    whole_document = {
        "version-true.json": "must be a document with version 1",
        "nested-too-deep.json": "is not valid JSON: ",
        "nested-too-deep-claim.json": "is not valid JSON: ",
    }
    paths = [str(tmp_path / "missing.json")]
    for name, text in bad_docs.items():
        (tmp_path / name).write_text(text)
        paths.append(str(tmp_path / name))
    for path in paths:
        code = main(["--fixtures", path, "cgmb", "check", "--fixture", "x"])
        captured = capsys.readouterr()
        assert code == 2, path
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, path
        why = whole_document.get(os.path.basename(path))
        if why:
            assert captured.err.startswith(f"error: fixtures {path} {why}"), path


def test_cli_fixture_that_is_not_an_object_maps_to_exit_2(tmp_path, capsys):
    path = tmp_path / "fixtures.json"
    path.write_text(json.dumps({"version": 1, "fixtures": [["x"]]}))
    code = main(["--fixtures", str(path), "cgmb", "check", "--fixture", "x"])
    assert code == 2
    assert capsys.readouterr().err == f"error: fixture #0 in {path} is not an object\n"


@pytest.mark.parametrize(
    "broken,message",
    [
        ({"terms": [{"kind": "bogus", "shifts": [0]}]}, "unknown motive term kind 'bogus'"),
        ({"total": {"poincare": {"type": "Q9", "variety": [1]}}}, "invalid Dynkin type Q9"),
        ({"total": {"poincare": {"type": "A3", "variety": [4]}}}, "not within 1..3"),
        ({"terms": [{"kind": "tate", "shifts": [0], "coeffs": [1]}]},
         "tate term carries no polynomial"),
        ({"terms": [{"kind": "upper", "shifts": [0]}]}, "upper block requires a nonzero"),
        ({"kind": "residual-expressible", "subtract": [], "blocks": [[0]], "min_shift": 0},
         "blocks must be nonzero"),
        ({"kind": "residual-expressible", "subtract": [], "blocks": [[1, -1]],
          "min_shift": 0}, "blocks must have nonnegative coefficients"),
        ({"kind": "residual-expressible", "subtract": [], "blocks": [], "min_shift": 0},
         "at least one block is required"),
        # the total is too large to build, or the subtracted terms leave a
        # negative residual: refusals of the run, not of reading the keys
        ({"total": {"poincare": {"type": "A250", "variety": [1]}}},
         "root system A250 has 31375 positive roots, above the limit of 20000"),
        ({"kind": "residual-expressible", "subtract": [{"kind": "tate", "shifts": [0, 0, 0]}],
          "blocks": [[1]], "min_shift": 0}, "residual must have nonnegative coefficients"),
        ({"total": {"poincare": {"type": "A91", "variety": list(range(1, 92))}}},
         "numerator product has degree 4186, above the maximum 4096"),
    ],
)
def test_cli_fixture_document_is_checked_in_full_when_read(tmp_path, capsys, broken, message):
    # a fixture that only its run would refuse fails the whole document when
    # it is read, naming the fixture and the file, even though the command
    # runs another fixture of the document
    fixture = {
        "name": "broken", "kind": "identity",
        "total": {"poincare": {"type": "A1", "variety": [1]}},
        "terms": [{"kind": "tate", "shifts": [0, 1]}],
    }
    fixture.update(broken)
    path = tmp_path / "fixtures.json"
    doc = {"version": 1, "fixtures": [*_data.FIXTURES["fixtures"], fixture]}
    path.write_text(json.dumps(doc))
    code = main(["--fixtures", str(path), "cgmb", "check", "--fixture", "henke-y1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(f"error: fixture 'broken' in {path}: ")
    assert message in captured.err and captured.err.count("\n") == 1


def _substituted_fixture_docs():
    """Built-in documents with one value of one fixture replaced.

    Every key of each built-in fixture, of its total's ``poincare`` and of
    each of its term entries takes each value in turn.
    """
    values = [None, True, 0, -1, MAX_DEGREE + 1, "x", [], {}, [True], [-1], ["1"]]
    builtin = _data.FIXTURES["fixtures"]
    for i, fixture in enumerate(builtin):
        slots = [(key,) for key in fixture]
        slots += [("total", "poincare", key) for key in fixture["total"]["poincare"]]
        for key in ("terms", "subtract"):
            for j, entry in enumerate(fixture.get(key, [])):
                slots += [(key, j, k) for k in entry]
        for *outer, last in slots:
            for value in values:
                fixtures = copy.deepcopy(builtin)
                obj = fixtures[i]
                for k in outer:
                    obj = obj[k]
                obj[last] = value
                yield fixture["name"], {"version": 1, "fixtures": fixtures}


def test_cli_substituted_fixture_values_never_raise(tmp_path, capsys):
    # a value of the wrong type or range anywhere in a fixture either runs
    # (exit 0 or 1, nothing on stderr) or is refused with one error line
    path = str(tmp_path / "fixtures.json")
    codes = collections.Counter()
    for name, doc in _substituted_fixture_docs():
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code = main(["--fixtures", path, "cgmb", "check", "--fixture", name])
        captured = capsys.readouterr()
        codes[code] += 1
        if code == 2:
            assert captured.out == "" and captured.err.startswith("error: "), doc
            assert captured.err.count("\n") == 1, doc
        else:
            assert code in (0, 1) and captured.err == "", doc
            assert json.loads(captured.out)["pass"] is (code == 0), doc
    # 37 slots times 11 values; those run are a claim of any value, a term
    # list or shift list emptied, a term's coeffs [-1] and any integer min_shift
    assert codes == {0: 37, 1: 13, 2: 357}


def test_builtin_documents_are_json_documents(tmp_path):
    # tuples, sets or non-str keys would print the same but compare differently
    assert json.loads(json.dumps(_data.FIXTURES)) == _data.FIXTURES
    # the built-in fixtures meet the rules of a user's --fixtures document
    path = tmp_path / "fixtures.json"
    path.write_text(json.dumps(_data.FIXTURES))
    assert verify.load_fixture_doc(str(path)) == _data.FIXTURES


def test_no_command_mutates_the_builtin_documents(capsys):
    # every in-process caller shares the fixtures document; the tables are
    # tuples of frozen records
    before = copy.deepcopy(_data.FIXTURES)
    argvs = [*(["cgmb", "check", "--fixture", f] for f in fixture_names()), ["verify"]]
    for argv in argvs:
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert _data.FIXTURES == before


def test_cli_weyl_cosets_empty_parabolic(capsys):
    code, out = run_cli(capsys, "weyl", "cosets", "--type", "A2", "--parabolic", "")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 6
    assert payload["length_counts"] == [[0, 1], [1, 2], [2, 2], [3, 1]]
