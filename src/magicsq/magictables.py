"""Queryable static classification tables for the magic-square groups.

Everything here is pinned data loaded from the versioned JSON document:
the 4x4 magic square with its grid of invariant degrees, the per-group
condition rows (degree, J-condition, parabolic column), the isotropy
classification of outer E6 with split Tits algebras keyed by the shape
of the degree-3 invariant, and the construction-condition rows.
"""

from __future__ import annotations

import enum

from ._data import tables
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


def magic_square() -> tuple[MagicCell, ...]:
    return tuple(
        MagicCell(c["row"], c["col"], c["group"], c["degree"])
        for c in tables()["magic_square"]["cells"]
    )


def magic_square_labels() -> tuple[tuple[str, ...], tuple[str, ...]]:
    ms = tables()["magic_square"]
    return tuple(ms["row_labels"]), tuple(ms["col_labels"])


def query_magic_square(row: str, col: str) -> MagicCell:
    for cell in magic_square():
        if cell.row_label == row and cell.col_label == col:
            return cell
    rows, cols = magic_square_labels()
    raise ValueError(
        f"no magic square cell ({row!r}, {col!r}); rows: {rows}, columns: {cols}"
    )


def condition_rows() -> tuple[GroupConditionRow, ...]:
    out = []
    for r in tables()["group_conditions"]:
        j = r["j_condition"]
        parabolic = r["parabolic"]
        out.append(
            GroupConditionRow(
                group=r["group"],
                degree=r["degree"],
                j_values=tuple(j["values"]) if j else None,
                j_degrees=tuple(j["degrees"]) if j else None,
                condition=r["condition"],
                equivalent_condition=r["equivalent_condition"],
                parabolic=None if parabolic == "any" else tuple(parabolic),
            )
        )
    return tuple(out)


def conditions_for(group: str) -> GroupConditionRow:
    for row in condition_rows():
        if row.group == group:
            return row
    names = ", ".join(r.group for r in condition_rows())
    raise ValueError(f"unknown group {group!r}; known groups: {names}")


def tits_index_cases() -> tuple[TitsIndexCase, ...]:
    out = []
    for c in tables()["tits_index_2e6"]["cases"]:
        out.append(
            TitsIndexCase(
                rost_condition=RostCondition(c["rost_condition"]),
                circled_nodes=frozenset(c["circled_nodes"]),
                kernel_type=c["kernel_type"],
                quasi_split=c["quasi_split"],
                impossible=c["impossible"],
            )
        )
    return tuple(out)


def tits_index_for_rost(cond: RostCondition | str) -> TitsIndexCase:
    if isinstance(cond, str):
        try:
            cond = RostCondition(cond)
        except ValueError:
            names = ", ".join(c.value for c in RostCondition)
            raise ValueError(
                f"unknown Rost condition {cond!r}; known conditions: {names}"
            ) from None
    for case in tits_index_cases():
        if case.rost_condition is cond:
            return case
    raise AssertionError(f"case table has no row for {cond}")


def tits_construction_rows() -> tuple[TitsConstructionRow, ...]:
    out = []
    for r in tables()["tits_constructions"]:
        c = r["condition"]
        out.append(
            TitsConstructionRow(
                group=r["group"],
                construction=r["construction"],
                inputs=r["inputs"],
                condition_lhs=c["lhs"],
                condition_relation=c["relation"],
                condition_rhs=c["rhs"],
                invariant_degree=c["invariant_degree"],
                condition_text=r["condition_text"],
            )
        )
    return tuple(out)
