"""Exact combinatorics for the exceptional groups of the magic square.

Root systems and Weyl cosets in Bourbaki numbering, flag-variety
Poincare polynomials, J-invariant profiles and their upper Borel
polynomials, double-coset motive skeletons, exact N0[t]/Z[t]
divisibility, and the real Killing form of the quaternion-octonion
construction.  Everything is exact integer arithmetic; a `verify`
suite pins the headline values.
"""

from .cgmb import (
    BlockDescriptor,
    Decomposition,
    MotiveTerm,
    check_decomposition,
    express_residual,
    karpenko_blocks,
    tate_skeleton,
    witness_sum,
)
from .jinv import (
    JProfile,
    enumerate_admissible,
    max_profile,
    profile,
    upper_motive_poly,
)
from .magictables import (
    GroupConditionRow,
    MagicCell,
    RostCondition,
    TitsConstructionRow,
    TitsIndexCase,
    condition_rows,
    conditions_for,
    magic_square,
    query_magic_square,
    tits_construction_rows,
    tits_index_cases,
    tits_index_for_rost,
)
from .poincare import (
    FlagVariety,
    NotSpecifiedError,
    conormed_poincare,
    dim_flag,
    poincare_poly,
)
from .polyring import (
    InexactDivision,
    IntPoly,
    divides_ring,
    divides_semiring,
    eval_rational,
    format_poly,
    parse_poly,
)
from .qform import (
    CompositionAlgebraR,
    DiagFormR,
    af_killing_form_e7,
    killing_grid,
    norm_form,
    sign_form,
)
from .rootsys import (
    CartanType,
    DiagramAut,
    RootSystem,
    build_root_system,
    diagram_aut,
    identity_aut,
    opposition_involution,
    twist_aut,
    root_system_to_json,
    sub_diagram_type,
)
from .verify import VerifyReport, run_fixture, run_verify
from .weyl import (
    CosetRep,
    DoubleCosetCell,
    WeylElement,
    coset_length_counts,
    double_cosets,
    fundamental_degrees,
    longest_element_length,
    minimal_coset_reps,
    parabolic_order,
    quotient_poly,
    reduced_word,
    weyl_order,
    weyl_order_by_cosets,
)

__version__ = "0.1.0"
