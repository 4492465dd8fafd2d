"""Queryable static classification tables for the magic-square groups.

Everything here is pinned data, held as tuples of the records below: the
4x4 magic square with its grid of invariant degrees, the per-group
condition rows (degree, J-condition, parabolic column), the isotropy
classification of outer E6 with split Tits algebras keyed by the shape
of the degree-3 invariant, and the construction-condition rows.  A row's
shape is its record class; the functions return the shared tuples, which
the frozen records keep immutable.
"""

from __future__ import annotations

import enum

from ._record import record


class RostCondition(enum.Enum):
    ZERO = "zero"
    PURE_SYMBOL_DIVISIBLE_BY_K = "pure-symbol-divisible-by-k"
    SYMBOL_NOT_DIVISIBLE_BY_K = "symbol-not-divisible-by-k"
    NOT_PURE_SYMBOL = "not-pure-symbol"
    IMPOSSIBLE_WITH_SPLIT_TITS = "impossible-with-split-tits"


@record
class MagicCell:
    row_label: str
    col_label: str
    group_type: str
    invariant_degree: int


@record
class GroupConditionRow:
    group: str
    degree: int
    j_values: tuple[int, ...] | None
    j_degrees: tuple[int, ...] | None
    condition: str
    equivalent_condition: str
    parabolic: tuple[int, ...] | None  # None means "any"

    @property
    def parabolic_label(self) -> str:
        if self.parabolic is None:
            return "any"
        return "P_" + ",".join(str(n) for n in self.parabolic)

    @property
    def binary_motive_dim(self) -> int:
        """Top Tate twist of the associated binary motive: 2^(degree-1) - 1."""
        return 2 ** (self.degree - 1) - 1


@record
class TitsIndexCase:
    rost_condition: RostCondition
    circled_nodes: frozenset[int]
    kernel_type: str
    quasi_split: bool
    impossible: bool


@record
class TitsConstructionRow:
    group: str
    construction: str
    inputs: str
    condition_lhs: str
    condition_relation: str
    condition_rhs: str
    invariant_degree: int
    condition_text: str


_ROW_LABELS = ("base", "quadratic_ext", "quaternion", "octonion")
_COL_LABELS = ("A1", "2A2", "C3", "F4")

# MagicCell(row_label, col_label, group_type, invariant_degree)
_MAGIC_SQUARE = (
    MagicCell("base", "A1", "A1", 2),
    MagicCell("base", "2A2", "2A2", 3),
    MagicCell("base", "C3", "C3", 4),
    MagicCell("base", "F4", "F4", 5),
    MagicCell("quadratic_ext", "A1", "2A2", 3),
    MagicCell("quadratic_ext", "2A2", "2x2A2", 3),
    MagicCell("quadratic_ext", "C3", "2A5", 4),
    MagicCell("quadratic_ext", "F4", "2E6", 5),
    MagicCell("quaternion", "A1", "C3", 4),
    MagicCell("quaternion", "2A2", "2A5", 4),
    MagicCell("quaternion", "C3", "1D6", 4),
    MagicCell("quaternion", "F4", "E7", 5),
    MagicCell("octonion", "A1", "F4", 5),
    MagicCell("octonion", "2A2", "2E6", 5),
    MagicCell("octonion", "C3", "E7", 5),
    MagicCell("octonion", "F4", "E8", 5),
)

_CONDITION_ROWS = (
    GroupConditionRow(
        group="A1", degree=2, j_values=None, j_degrees=None, condition="no conditions",
        equivalent_condition="no conditions", parabolic=None,
    ),
    GroupConditionRow(
        group="2A2", degree=3, j_values=None, j_degrees=None, condition="no conditions",
        equivalent_condition="no conditions", parabolic=(1, 2),
    ),
    GroupConditionRow(
        group="2x2A2", degree=3, j_values=(1, 0), j_degrees=(3, 3),
        condition="J = (1,0) in degrees (3,3)",
        equivalent_condition="the group is a product of two isomorphic unitary rank-2 factors",
        parabolic=None,
    ),
    GroupConditionRow(
        group="C3", degree=4, j_values=None, j_degrees=None, condition="no conditions",
        equivalent_condition="no conditions", parabolic=(2,),
    ),
    GroupConditionRow(
        group="2A5", degree=4, j_values=(0, 1, 0, 0), j_degrees=(2, 1, 3, 5),
        condition="splits over a quadratic extension; J = (0,1,0,0) in degrees (2,1,3,5)",
        equivalent_condition=(
            "splits over a quadratic extension and over the function field of its Tits algebra"
        ),
        parabolic=(1, 5),
    ),
    GroupConditionRow(
        group="1D6", degree=4, j_values=(0, 1, 0, 0), j_degrees=(1, 1, 3, 5),
        condition="J = (0,1,0,0) in degrees (1,1,3,5)",
        equivalent_condition="the group belongs to an excellent 12-dimensional quadratic form",
        parabolic=(1,),
    ),
    GroupConditionRow(
        group="F4", degree=5, j_values=None, j_degrees=None, condition="no conditions",
        equivalent_condition="no conditions", parabolic=(4,),
    ),
    GroupConditionRow(
        group="2E6", degree=5, j_values=(1, 0, 0), j_degrees=(3, 5, 9),
        condition="splits over a quadratic extension; J = (1,0,0) in degrees (3,5,9)",
        equivalent_condition=(
            "splits over a quadratic extension and the mod-2 part of the degree-3 invariant is a "
            "pure symbol"
        ),
        parabolic=(1, 6),
    ),
    GroupConditionRow(
        group="E7", degree=5, j_values=(1, 0, 0, 0), j_degrees=(1, 3, 5, 9),
        condition="J = (1,0,0,0) in degrees (1,3,5,9)",
        equivalent_condition="splits over the function field of its Tits algebra", parabolic=(1,),
    ),
    GroupConditionRow(
        group="E8", degree=5, j_values=(0, 0, 0, 1), j_degrees=(3, 5, 9, 15),
        condition="J = (0,0,0,1) in degrees (3,5,9,15)",
        equivalent_condition="the even part of the degree-3 invariant vanishes", parabolic=None,
    ),
)

# Isotropy classification for outer E6 with split Tits algebras. Circled-node
# sets are transcribed from folded-diagram pictures (single nodes 2 and 4,
# pairs {3,5} and {1,6}); independent double-checking of the transcription is
# advised.
_TITS_INDEX_CASES = (
    TitsIndexCase(
        rost_condition=RostCondition.ZERO, circled_nodes=frozenset({1, 2, 3, 4, 5, 6}),
        kernel_type="trivial", quasi_split=True, impossible=False,
    ),
    TitsIndexCase(
        rost_condition=RostCondition.PURE_SYMBOL_DIVISIBLE_BY_K,
        circled_nodes=frozenset({1, 2, 6}), kernel_type="2A3", quasi_split=False, impossible=False,
    ),
    TitsIndexCase(
        rost_condition=RostCondition.SYMBOL_NOT_DIVISIBLE_BY_K, circled_nodes=frozenset({1, 6}),
        kernel_type="2D4", quasi_split=False, impossible=False,
    ),
    TitsIndexCase(
        rost_condition=RostCondition.NOT_PURE_SYMBOL, circled_nodes=frozenset({2}),
        kernel_type="2A5", quasi_split=False, impossible=False,
    ),
    TitsIndexCase(
        rost_condition=RostCondition.IMPOSSIBLE_WITH_SPLIT_TITS, circled_nodes=frozenset({2, 4}),
        kernel_type="2x2A2", quasi_split=False, impossible=True,
    ),
)

_CONSTRUCTION_ROWS = (
    TitsConstructionRow(
        group="2x2A2", construction="mu2 x 2A2",
        inputs="scalar x 9-dimensional Freudenthal algebra", condition_lhs="scalar",
        condition_relation="equals", condition_rhs="f1", invariant_degree=1,
        condition_text=(
            "the scalar class equals the degree-1 invariant of the 9-dimensional Freudenthal "
            "algebra"
        ),
    ),
    TitsConstructionRow(
        group="2A5", construction="mu2 x C3", inputs="scalar x 15-dimensional Freudenthal algebra",
        condition_lhs="scalar", condition_relation="divides", condition_rhs="f2",
        invariant_degree=2,
        condition_text=(
            "the scalar class divides the degree-2 invariant of the 15-dimensional Freudenthal "
            "algebra"
        ),
    ),
    TitsConstructionRow(
        group="2A5", construction="A1 x 2A2",
        inputs="quaternions x 9-dimensional Freudenthal algebra", condition_lhs="quaternions",
        condition_relation="divisible_by", condition_rhs="f1", invariant_degree=1,
        condition_text=(
            "the quaternion class is divisible by the degree-1 invariant of the 9-dimensional "
            "Freudenthal algebra"
        ),
    ),
    TitsConstructionRow(
        group="1D6", construction="A1 x C3",
        inputs="quaternions x 15-dimensional Freudenthal algebra", condition_lhs="quaternions",
        condition_relation="divides", condition_rhs="f2", invariant_degree=2,
        condition_text=(
            "the quaternion class divides (equivalently, equals) the degree-2 invariant of the "
            "15-dimensional Freudenthal algebra"
        ),
    ),
    TitsConstructionRow(
        group="2E6", construction="mu2 x F4", inputs="scalar x Albert algebra",
        condition_lhs="scalar", condition_relation="divides", condition_rhs="f3",
        invariant_degree=3,
        condition_text="the scalar class divides the degree-3 invariant of the Albert algebra",
    ),
    TitsConstructionRow(
        group="2E6", construction="G2 x 2A2",
        inputs="octonions x 9-dimensional Freudenthal algebra", condition_lhs="octonions",
        condition_relation="divisible_by", condition_rhs="f1", invariant_degree=1,
        condition_text=(
            "the octonion class is divisible by the degree-1 invariant of the 9-dimensional "
            "Freudenthal algebra"
        ),
    ),
    TitsConstructionRow(
        group="E7", construction="A1 x F4", inputs="quaternions x Albert algebra",
        condition_lhs="quaternions", condition_relation="divides", condition_rhs="f3",
        invariant_degree=3,
        condition_text="the quaternion class divides the degree-3 invariant of the Albert algebra",
    ),
    TitsConstructionRow(
        group="E7", construction="C3 x G2",
        inputs="15-dimensional Freudenthal algebra x octonions", condition_lhs="f2",
        condition_relation="divides", condition_rhs="octonions", invariant_degree=2,
        condition_text=(
            "the degree-2 invariant of the 15-dimensional Freudenthal algebra divides the "
            "octonion class"
        ),
    ),
    TitsConstructionRow(
        group="E8", construction="G2 x F4", inputs="octonions x Albert algebra",
        condition_lhs="octonions", condition_relation="divides", condition_rhs="f3",
        invariant_degree=3,
        condition_text=(
            "the octonion class divides (equivalently, equals) the degree-3 invariant of the "
            "Albert algebra"
        ),
    ),
)


def magic_square() -> tuple[MagicCell, ...]:
    return _MAGIC_SQUARE


def magic_square_labels() -> tuple[tuple[str, ...], tuple[str, ...]]:
    return _ROW_LABELS, _COL_LABELS


def query_magic_square(row: str, col: str) -> MagicCell:
    for cell in _MAGIC_SQUARE:
        if cell.row_label == row and cell.col_label == col:
            return cell
    raise ValueError(
        f"no magic square cell ({row!r}, {col!r}); rows: {_ROW_LABELS}, columns: {_COL_LABELS}"
    )


def condition_rows() -> tuple[GroupConditionRow, ...]:
    return _CONDITION_ROWS


def conditions_for(group: str) -> GroupConditionRow:
    for row in _CONDITION_ROWS:
        if row.group == group:
            return row
    names = ", ".join(r.group for r in _CONDITION_ROWS)
    raise ValueError(f"unknown group {group!r}; known groups: {names}")


def tits_index_cases() -> tuple[TitsIndexCase, ...]:
    return _TITS_INDEX_CASES


def tits_index_for_rost(cond: RostCondition | str) -> TitsIndexCase:
    if isinstance(cond, str):
        try:
            cond = RostCondition(cond)
        except ValueError:
            names = ", ".join(c.value for c in RostCondition)
            raise ValueError(
                f"unknown Rost condition {cond!r}; known conditions: {names}"
            ) from None
    for case in _TITS_INDEX_CASES:
        if case.rost_condition is cond:
            return case
    raise AssertionError(f"case table has no row for {cond}")


def tits_construction_rows() -> tuple[TitsConstructionRow, ...]:
    return _CONSTRUCTION_ROWS
