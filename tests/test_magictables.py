import pytest

from magicsq import jinv
from magicsq.cgmb import karpenko_blocks
from magicsq.magictables import (
    GroupConditionRow,
    MagicCell,
    RostCondition,
    TitsConstructionRow,
    TitsIndexCase,
    condition_rows,
    conditions_for,
    magic_square,
    magic_square_labels,
    query_magic_square,
    tits_construction_rows,
    tits_index_cases,
    tits_index_for_rost,
)
from magicsq.rootsys import CartanType, build_root_system, opposition_involution, sub_diagram_type

PINNED_GROUP_GRID = [
    ["A1", "2A2", "C3", "F4"],
    ["2A2", "2x2A2", "2A5", "2E6"],
    ["C3", "2A5", "1D6", "E7"],
    ["F4", "2E6", "E7", "E8"],
]
PINNED_DEGREE_GRID = [
    [2, 3, 4, 5],
    [3, 3, 4, 5],
    [4, 4, 4, 5],
    [5, 5, 5, 5],
]


def test_magic_square_has_16_cells_matching_the_pinned_grids():
    rows, cols = magic_square_labels()
    cells = magic_square()
    assert len(cells) == 16
    for r, row_label in enumerate(rows):
        for c, col_label in enumerate(cols):
            cell = query_magic_square(row_label, col_label)
            assert cell.group_type == PINNED_GROUP_GRID[r][c]
            assert cell.invariant_degree == PINNED_DEGREE_GRID[r][c]


@pytest.mark.parametrize("table, rec", [
    (magic_square, MagicCell),
    (condition_rows, GroupConditionRow),
    (tits_index_cases, TitsIndexCase),
    (tits_construction_rows, TitsConstructionRow),
], ids=["magic", "conditions", "tits-index", "constructions"])
def test_table_functions_return_tuples_of_their_records(table, rec):
    rows = table()
    assert type(rows) is tuple and rows
    assert all(type(row) is rec for row in rows)
    hash(rows)  # every field is immutable: tuples and frozensets, not lists and sets


def test_magic_square_labels_are_tuples_of_str():
    labels = magic_square_labels()
    assert [type(x) for x in labels] == [tuple, tuple]
    assert all(type(label) is str for axis in labels for label in axis)


# The dimension of each cell's group against Tits's construction
# T(A, J) = Der A + (A_0 x J_0) + Der J (Tits, Indag. Math. 28, 1966): the row
# is a composition algebra A, the column the Jordan algebra J = H_3(C) over a
# composition algebra C; both are named by their dimension 1, 2, 4 or 8.
ALGEBRA_DIM = {
    "base": 1, "quadratic_ext": 2, "quaternion": 4, "octonion": 8,
    "A1": 1, "2A2": 2, "C3": 4, "F4": 8,
}
DER_COMPOSITION = {1: 0, 2: 0, 4: 3, 8: 14}  # 0, 0, sp_1, g_2
DER_JORDAN = {1: 3, 2: 8, 4: 21, 8: 52}  # so_3, sl_3, sp_3, f_4
# a label CartanType cannot parse yet: A2 x A2, rank 4 and 2 x 3 positive roots
HAND_DIMENSION = {"2x2A2": 4 + 2 * 6}


def test_magic_square_dimensions_match_tits_construction():
    for cell in magic_square():
        a, b = ALGEBRA_DIM[cell.row_label], ALGEBRA_DIM[cell.col_label]
        dim_j = 3 * b + 3
        tits = DER_COMPOSITION[a] + (a - 1) * (dim_j - 1) + DER_JORDAN[b]
        if cell.group_type in HAND_DIMENSION:
            dim = HAND_DIMENSION[cell.group_type]
        else:
            rs = build_root_system(CartanType.from_string(cell.group_type))
            dim = rs.rank + 2 * rs.num_positive
        assert dim == tits, cell


def test_degree_grid_is_max_of_row_and_column_degrees():
    # visible symmetry of the grid: degree = max(row degree, column degree)
    row_deg = {"base": 2, "quadratic_ext": 3, "quaternion": 4, "octonion": 5}
    col_deg = {"A1": 2, "2A2": 3, "C3": 4, "F4": 5}
    for cell in magic_square():
        assert cell.invariant_degree == max(
            row_deg[cell.row_label], col_deg[cell.col_label]
        )


def test_query_examples():
    assert query_magic_square("quaternion", "F4").group_type == "E7"
    assert query_magic_square("quaternion", "F4").invariant_degree == 5
    assert query_magic_square("base", "A1") == query_magic_square("base", "A1")
    assert query_magic_square("quadratic_ext", "2A2").group_type == "2x2A2"
    with pytest.raises(ValueError):
        query_magic_square("sedenion", "F4")


def test_condition_rows_pinned():
    rows = condition_rows()
    assert len(rows) == 10
    e7 = conditions_for("E7")
    assert e7.degree == 5
    assert e7.j_values == (1, 0, 0, 0)
    assert e7.j_degrees == (1, 3, 5, 9)
    assert e7.parabolic == (1,)
    e8 = conditions_for("E8")
    assert e8.j_values == (0, 0, 0, 1)
    assert e8.j_degrees == (3, 5, 9, 15)
    assert e8.parabolic is None and e8.parabolic_label == "any"
    f4 = conditions_for("F4")
    assert f4.j_values is None
    assert f4.parabolic == (4,)
    assert conditions_for("2E6").parabolic == (1, 6)
    with pytest.raises(ValueError):
        conditions_for("E9")


def test_square_groups_and_condition_rows_are_in_bijection():
    square_groups = {c.group_type for c in magic_square()}
    row_groups = {r.group for r in condition_rows()}
    assert square_groups == row_groups
    # degrees agree wherever a group appears in the square
    degree_of = {r.group: r.degree for r in condition_rows()}
    for cell in magic_square():
        assert cell.invariant_degree == degree_of[cell.group_type]


def test_condition_rows_cross_link_into_jinv():
    # every printed J-condition is an admissible profile with matching degrees
    for row in condition_rows():
        if row.j_values is None:
            continue
        prof = jinv.profile(row.group, row.j_values)
        assert prof.degrees == row.j_degrees
        assert prof in jinv.enumerate_admissible(row.group)


def test_binary_motive_dimension_rule():
    # 2^(degree-1) - 1; for 2E6 this is 15, the degree of the pinned
    # binary upper-motive polynomial
    row = conditions_for("2E6")
    assert row.binary_motive_dim == 15
    upper = next(b for b in karpenko_blocks() if b.name == "upper-x16")
    assert upper.poly.degree == row.binary_motive_dim
    assert conditions_for("A1").binary_motive_dim == 1
    assert conditions_for("E8").binary_motive_dim == 15


def test_tits_index_cases_cover_all_conditions():
    cases = tits_index_cases()
    assert len(cases) == 5
    assert {c.rost_condition for c in cases} == set(RostCondition)


def test_tits_index_quasi_split_case():
    case = tits_index_for_rost(RostCondition.ZERO)
    assert case.quasi_split and not case.impossible
    assert case.circled_nodes == frozenset({1, 2, 3, 4, 5, 6})
    assert case.kernel_type == "trivial"


def test_tits_index_partial_cases():
    by_cond = {c.rost_condition: c for c in tits_index_cases()}
    pure = by_cond[RostCondition.PURE_SYMBOL_DIVISIBLE_BY_K]
    assert pure.circled_nodes == frozenset({1, 2, 6})
    assert pure.kernel_type == "2A3"
    nodiv = by_cond[RostCondition.SYMBOL_NOT_DIVISIBLE_BY_K]
    assert nodiv.circled_nodes == frozenset({1, 6})
    assert nodiv.kernel_type == "2D4"
    notpure = by_cond[RostCondition.NOT_PURE_SYMBOL]
    assert notpure.circled_nodes == frozenset({2})
    assert notpure.kernel_type == "2A5"


def test_tits_index_impossible_case():
    case = tits_index_for_rost("impossible-with-split-tits")
    assert case.impossible
    assert case.circled_nodes == frozenset({2, 4})
    assert case.kernel_type == "2x2A2"


def test_tits_index_kernels_match_sub_diagram_classification():
    rs = build_root_system(CartanType("E", 6))
    star = opposition_involution(rs)
    inner_label = {
        "trivial": [],
        "2A3": ["A3"],
        "2D4": ["D4"],
        "2A5": ["A5"],
        "2x2A2": ["A2", "A2"],
    }
    for case in tits_index_cases():
        kernel_nodes = rs.node_set() - case.circled_nodes
        comps = [str(t) for t in sub_diagram_type(rs, kernel_nodes)]
        assert comps == inner_label[case.kernel_type]
        # the star action must stabilize the kernel node set
        assert star.stabilizes(kernel_nodes)


def test_tits_construction_rows():
    rows = tits_construction_rows()
    assert len(rows) == 9
    by_group = {}
    for r in rows:
        by_group.setdefault(r.group, []).append(r)
    assert len(by_group["2A5"]) == 2
    assert len(by_group["E7"]) == 2
    assert len(by_group["2E6"]) == 2
    e8 = by_group["E8"][0]
    assert e8.construction == "G2 x F4"
    assert (e8.condition_lhs, e8.condition_relation, e8.condition_rhs) == (
        "octonions", "divides", "f3",
    )
    assert e8.invariant_degree == 3
    c3g2 = next(r for r in by_group["E7"] if r.construction == "C3 x G2")
    assert (c3g2.condition_lhs, c3g2.condition_relation, c3g2.condition_rhs) == (
        "f2", "divides", "octonions",
    )
    for r in rows:
        assert r.condition_relation in ("equals", "divides", "divisible_by")
        assert r.condition_text
