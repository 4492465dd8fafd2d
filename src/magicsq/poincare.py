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

The conormed Poincare polynomial of a sigma-stable variety X_I of a
quasi-split outer form (2A_n, 2D_n, 2E6), sigma being the diagram twist,
sums t^l(w) over the sigma-fixed minimal coset reps w of W/W_Levi.  It
counts the F_q-points of the quasi-split variety: each sigma-stable
Schubert cell is a connected unipotent group with q^l(w) rational points.
So it is |G(F_q)| / |P(F_q)| with the powers of q cancelled, which
``weyl.quotient_poly`` computes in closed form from Steinberg's orders of
the finite groups of Lie type when given the twist.  The tests check it
against the sigma-fixed reps of a permutation search and against point
counts of Hermitian and quadratic spaces over finite fields.
"""

from __future__ import annotations

from . import weyl
from ._record import record
from .polyring import IntPoly
from .rootsys import CartanType, build_root_system, twist_aut


class NotSpecifiedError(ValueError):
    """Requested quantity is not defined: a conormed Poincare polynomial of a
    type that is not an outer form, or of a variety the twist moves."""


@record
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


def poincare_poly(fv: FlagVariety) -> IntPoly:
    """Sum of t^l(w) over minimal coset representatives of W/W_Levi."""
    return weyl.quotient_poly(build_root_system(fv.ambient), fv.levi_nodes)


def dim_flag(fv: FlagVariety) -> int:
    """deg poincare_poly(fv): positive roots outside the Levi."""
    rs = build_root_system(fv.ambient)
    return weyl.longest_element_length(rs, fv.levi_nodes)


def conormed_poincare(fv: FlagVariety) -> IntPoly:
    """Sum of t^l(w) over the sigma-fixed minimal coset reps of W/W_Levi.

    Defined for a sigma-stable variety of an outer form (twist label 2);
    anything else raises NotSpecifiedError, naming which of the two fails.
    """
    nodes = sorted(fv.parabolic_type)
    variety = f"X_{','.join(map(str, nodes))}"
    what = f"conormed Poincare polynomial for ({fv.ambient}, {variety})"
    if fv.ambient.outer_twist != 2:
        raise NotSpecifiedError(f"{what} needs an outer form (2A_n, 2D_n, 2E6)")
    rs = build_root_system(fv.ambient)
    sigma = twist_aut(rs)
    moved = [f"{i} <-> {sigma(i)}" for i in nodes if sigma(i) not in fv.parabolic_type]
    if moved:
        raise NotSpecifiedError(
            f"{what}: {variety} is not stable under the diagram twist ({', '.join(moved)})"
        )
    return weyl.quotient_poly(rs, fv.levi_nodes, sigma)
