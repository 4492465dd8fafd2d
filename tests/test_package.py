"""The package surface: its public names, and the layers it loads lazily.

``magicsq/__init__`` registers every layer through ``LazyLoader`` and
resolves its public names through a module ``__getattr__``; these tests
pin the names it exports and what the benchmark tracer reads off the
package.
"""

import importlib
import pathlib
import subprocess
import sys

import pytest

import magicsq

# every public name, by the layer that defines it
PUBLIC = {
    "cgmb": ("BlockDescriptor", "Decomposition", "MotiveTerm", "check_decomposition",
             "express_residual", "karpenko_blocks", "tate_skeleton", "witness_sum"),
    "jinv": ("JProfile", "enumerate_admissible", "max_profile", "profile",
             "upper_motive_poly"),
    "magictables": ("GroupConditionRow", "MagicCell", "RostCondition", "TitsConstructionRow",
                    "TitsIndexCase", "condition_rows", "conditions_for", "magic_square",
                    "query_magic_square", "tits_construction_rows", "tits_index_cases",
                    "tits_index_for_rost"),
    "poincare": ("FlagVariety", "NotSpecifiedError", "conormed_poincare", "dim_flag",
                 "poincare_poly"),
    "polyring": ("InexactDivision", "IntPoly", "divides_ring", "divides_semiring",
                 "eval_rational", "format_poly", "parse_poly"),
    "qform": ("CompositionAlgebraR", "DiagFormR", "af_killing_form_e7", "killing_grid",
              "norm_form", "sign_form"),
    "rootsys": ("CartanType", "DiagramAut", "RootSystem", "build_root_system", "diagram_aut",
                "identity_aut", "opposition_involution", "twist_aut", "sub_diagram_type"),
    "verify": ("VerifyReport", "run_fixture", "run_verify"),
    "weyl": ("DoubleCosetCell", "coset_length_counts", "double_cosets",
             "fundamental_degrees", "longest_element_length", "minimal_coset_reps",
             "parabolic_order", "quotient_poly", "weyl_order"),
}
ROOT = pathlib.Path(__file__).resolve().parent.parent


def _python(*argv):
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, cwd=ROOT)


def test_public_names_resolve_to_their_layers():
    star = {}
    exec("from magicsq import *", star)
    names = [(layer, name) for layer, names in PUBLIC.items() for name in names]
    assert sorted(magicsq.__all__) == sorted([*PUBLIC, *(name for _, name in names)])
    listed = dir(magicsq)
    for layer, name in names:
        obj = getattr(importlib.import_module(f"magicsq.{layer}"), name)
        assert getattr(magicsq, name) is obj, name
        assert star[name] is obj, name
        assert name in listed, name
    for layer in PUBLIC:
        assert star[layer] is sys.modules[f"magicsq.{layer}"]


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'magicsq' has no attribute 'nope'$"):
        magicsq.nope  # noqa: B018


def test_cli_module_runs_without_warnings():
    # runpy warns if magicsq.cli were in sys.modules before it runs it
    proc = _python("-W", "error", "-m", "magicsq.cli", "weyl", "order", "--type", "E6")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert '"order": 51840' in proc.stdout


TRACER_PROBE = """
import contextlib, io, sys
sys.path.insert(0, "perfbench")
import magicsq.cli, tracer
caches = tracer.lru_caches()
assert "rootsys.build_root_system" in caches, sorted(caches)

def homes():
    return [getattr(sys.modules[f"magicsq.{home}"], f) for home, f, _ in tracer.TARGETS]

originals = homes()
t = tracer.Tracer()
with t.installed(), contextlib.redirect_stdout(io.StringIO()) as out:
    assert all(w.__wrapped__ is o for w, o in zip(homes(), originals))
    code = sys.modules["magicsq.cli"].main(["weyl", "order", "--type", "E6"])
assert homes() == originals
print(code, t.counts["cli.main.calls"], t.counts["rootsys.build_root_system.calls"],
      '"order": 51840' in out.getvalue())
"""


def test_tracer_finds_and_wraps_every_layer():
    proc = _python("-c", TRACER_PROBE)
    assert (proc.stdout, proc.stderr) == ("0 1 1 True\n", "")
