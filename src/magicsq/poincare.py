"""Poincare polynomials and dimensions of flag varieties X_I.

Convention (locked by the dimension fixtures 21/24/33): X_I is the
variety of parabolic subgroups of type I, I being the circled nodes;
the Levi root system lives on the complement of I, and the cells of the
split variety are the minimal coset representatives of W/W_Levi counted
by length.

The split Poincare polynomial is computed in closed form by
``weyl.quotient_poly`` (Solomon's degree-product quotient); the orbit
walk ``weyl.coset_length_counts`` cross-checks it in the tests and in
``verify``.

The two conormed Poincare polynomials are pinned per-instance data for
the quasi-split outer E6 varieties X_2 and X_{1,6}; no general conormed
algorithm is provided (only those two closed formulas are available).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import weyl
from .polyring import IntPoly, eval_rational, parse_poly
from .rootsys import CartanType, build_root_system


class NotSpecifiedError(ValueError):
    """Requested quantity has no pinned formula ("not specified by source")."""


@dataclass(frozen=True, slots=True)
class FlagVariety:
    """Flag variety X_I: ambient group type plus the circled node set I."""

    ambient: CartanType
    parabolic_type: frozenset[int]

    def __post_init__(self):
        nodes = frozenset(self.parabolic_type)
        object.__setattr__(self, "parabolic_type", nodes)
        all_nodes = frozenset(range(1, self.ambient.rank + 1))
        if not nodes:
            raise ValueError("parabolic type must be a nonempty node set")
        if not nodes <= all_nodes:
            raise ValueError(
                f"nodes {sorted(nodes)} not within 1..{self.ambient.rank}"
            )

    @property
    def levi_nodes(self) -> frozenset[int]:
        return frozenset(range(1, self.ambient.rank + 1)) - self.parabolic_type


@lru_cache(maxsize=None)
def poincare_poly(fv: FlagVariety) -> IntPoly:
    """Sum of t^l(w) over minimal coset representatives of W/W_Levi."""
    return weyl.quotient_poly(build_root_system(fv.ambient), fv.levi_nodes)


def dim_flag(fv: FlagVariety) -> int:
    """deg poincare_poly(fv): positive roots outside the Levi."""
    rs = build_root_system(fv.ambient)
    return weyl.longest_element_length(rs, fv.levi_nodes)


# Pinned conormed data: quasi-split outer E6, varieties X_2 and X_{1,6}.
_CONORMED: dict[frozenset[int], tuple[tuple[str, ...], tuple[str, ...]]] = {
    frozenset({2}): (
        ("t^8-1", "t^12-1", "t^9+1"),
        ("t-1", "t^4-1", "t^3+1"),
    ),
    frozenset({1, 6}): (
        ("t^8-1", "t^12-1", "t^5+1", "t^9+1"),
        ("t-1", "t+1", "t^4-1", "t^4+1"),
    ),
}


@lru_cache(maxsize=None)
def conormed_poincare(fv: FlagVariety) -> IntPoly:
    """Conormed Poincare polynomial for the two pinned outer-E6 varieties."""
    key = frozenset(fv.parabolic_type)
    if (
        fv.ambient.series != "E"
        or fv.ambient.rank != 6
        or fv.ambient.outer_twist != 2
        or key not in _CONORMED
    ):
        raise NotSpecifiedError(
            f"conormed Poincare polynomial for ({fv.ambient}, X_"
            f"{','.join(map(str, sorted(fv.parabolic_type)))}) "
            "not specified by source"
        )
    nums, dens = _CONORMED[key]
    return eval_rational(
        [parse_poly(s) for s in nums], [parse_poly(s) for s in dens]
    )
