"""Exact combinatorics for the exceptional groups of the magic square.

Root systems and Weyl cosets in Bourbaki numbering, flag-variety
Poincare polynomials, J-invariant profiles and their upper Borel
polynomials, double-coset motive skeletons, exact N0[t]/Z[t]
divisibility, and the real Killing form of the quaternion-octonion
construction.  Everything is exact integer arithmetic; a `verify`
suite pins the headline values.

The layers are loaded lazily.  Every command is a process of its own,
and executing the layers it never calls was the largest part of its
start-up that magicsq controls: ``poincare`` and ``weyl`` need only
``_record``, ``polyring``, ``rootsys``, ``weyl`` and ``poincare``.  So
this module registers every layer through ``importlib.util.LazyLoader``:
each one is in ``sys.modules`` and an attribute of the package from the
start, and its body runs on the first attribute access to it.  That
covers ``from .rootsys import ...``, ``import magicsq.weyl`` (the import
system reads the module's ``__spec__``), ``vars(module)`` and a public
name read from the package, which the PEP 562 ``__getattr__`` below
looks up in its layer; ``from magicsq import weyl`` binds the module
without running it.  ``cli`` and ``__main__`` are imported as usual.

``LazyLoader`` is not thread-safe before Python 3.12; magicsq starts no
thread.  A layer that fails while executing now fails at its first use
instead of at ``import magicsq``: the same exception and exit code, with
the line that used it and the loader's frames above the layer's own in
the traceback.  A command that never uses that layer runs as before.
Unlike a failed import, the failed layer stays in ``sys.modules`` half
executed, so a later use in the same process does not raise again.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# every public name, by the layer that defines it
_PUBLIC = {
    "cgmb": (
        "BlockDescriptor", "Decomposition", "MotiveTerm", "check_decomposition",
        "express_residual", "karpenko_blocks", "tate_skeleton", "witness_sum",
    ),
    "jinv": ("JProfile", "enumerate_admissible", "max_profile", "profile", "upper_motive_poly"),
    "magictables": (
        "GroupConditionRow", "MagicCell", "RostCondition", "TitsConstructionRow",
        "TitsIndexCase", "condition_rows", "conditions_for", "magic_square",
        "query_magic_square", "tits_construction_rows", "tits_index_cases",
        "tits_index_for_rost",
    ),
    "poincare": (
        "FlagVariety", "NotSpecifiedError", "conormed_poincare", "dim_flag", "poincare_poly",
    ),
    "polyring": (
        "InexactDivision", "IntPoly", "divides_ring", "divides_semiring", "eval_rational",
        "format_poly", "parse_poly",
    ),
    "qform": (
        "CompositionAlgebraR", "DiagFormR", "af_killing_form_e7", "killing_grid", "norm_form",
        "sign_form",
    ),
    "rootsys": (
        "CartanType", "DiagramAut", "RootSystem", "build_root_system", "diagram_aut",
        "identity_aut", "opposition_involution", "twist_aut", "sub_diagram_type",
    ),
    "verify": ("VerifyReport", "run_fixture", "run_verify"),
    "weyl": (
        "DoubleCosetCell", "coset_length_counts", "double_cosets", "fundamental_degrees",
        "longest_element_length", "minimal_coset_reps", "parabolic_order", "quotient_poly",
        "weyl_order",
    ),
}
_LAYER_OF = {name: layer for layer, names in _PUBLIC.items() for name in names}
# the public names and the public layers, as `from magicsq import *` bound them
__all__ = [*_LAYER_OF, *_PUBLIC]


def _register(layer: str):
    """Put the layer in sys.modules unexecuted; its first attribute access runs it."""
    name = f"{__name__}.{layer}"
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


for _layer in ("_data", "_record", *_PUBLIC):
    globals()[_layer] = _register(_layer)
del _layer


def __getattr__(name: str):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)


def __dir__():
    return sorted({*globals(), *_LAYER_OF})
