"""Diagonal quadratic forms over the reals, as sign multisets.

Over R a diagonal entry only matters up to positive scaling, so a form
is a pair of counts (positive entries, negative entries).  Signature,
Witt index and anisotropy are read off directly; <2> acts as <+1>.

Composition algebras come in two real flavors per dimension: definite
(division algebra, positive definite norm) and split (hyperbolic norm).
The split pure part is the full norm minus one positive entry; only
signature and Witt index are consumed downstream, and those are
convention independent.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import product

from ._record import record

QUATERNION = "quaternion"
OCTONION = "octonion"
_NORM_DIM = {QUATERNION: 4, OCTONION: 8}


@record
class DiagFormR:
    pos: int
    neg: int

    def __post_init__(self):
        if self.pos < 0 or self.neg < 0:
            raise ValueError("entry counts must be nonnegative")

    @property
    def dim(self) -> int:
        return self.pos + self.neg

    @property
    def signature(self) -> int:
        return self.pos - self.neg

    @property
    def witt_index(self) -> int:
        return min(self.pos, self.neg)

    @property
    def is_anisotropic(self) -> bool:
        return self.witt_index == 0

    def perp(self, other: "DiagFormR") -> "DiagFormR":
        return DiagFormR(self.pos + other.pos, self.neg + other.neg)

    __add__ = perp

    def tensor(self, other: "DiagFormR") -> "DiagFormR":
        return DiagFormR(
            self.pos * other.pos + self.neg * other.neg,
            self.pos * other.neg + self.neg * other.pos,
        )

    def scaled(self, sign: int) -> "DiagFormR":
        if sign > 0:
            return self
        return DiagFormR(self.neg, self.pos)

    def times(self, n: int) -> "DiagFormR":
        if n < 0:
            raise ValueError("multiplicity must be nonnegative")
        return DiagFormR(n * self.pos, n * self.neg)

    def __rmul__(self, n: int) -> "DiagFormR":
        return self.times(n)


def sign_form(signs: Iterable[int]) -> DiagFormR:
    """Form <s1, ..., sk> from a sequence of +-1 entries."""
    pos = neg = 0
    for s in signs:
        if s > 0:
            pos += 1
        elif s < 0:
            neg += 1
        else:
            raise ValueError("entries must be nonzero signs")
    return DiagFormR(pos, neg)


@record
class CompositionAlgebraR:
    kind: str
    definite: bool

    def __post_init__(self):
        if self.kind not in _NORM_DIM:
            raise ValueError(f"unknown composition algebra kind {self.kind!r}")


def norm_form(alg: CompositionAlgebraR, pure_part: bool = False) -> DiagFormR:
    """Norm form of the algebra, or its pure part (one dimension less)."""
    n = _NORM_DIM[alg.kind]
    if alg.definite:
        full = DiagFormR(n, 0)
    else:
        full = DiagFormR(n // 2, n // 2)
    if not pure_part:
        return full
    return DiagFormR(full.pos - 1, full.neg)


def af_killing_form_e7(
    quaternion: CompositionAlgebraR,
    octonion: CompositionAlgebraR,
    gamma_signs: tuple[int, int, int],
) -> DiagFormR:
    """Killing form of the quaternion x octonion construction over R:

        <-1> (4 n'_O  perp  3 <2> n'_Q  perp  <g1/g2, g2/g3, g3/g1> n_O n_Q)

    Over R an inverse has the same sign, and <2> is a positive scaling,
    so the middle scaling drops out and the gamma entries reduce to the
    pairwise products of signs.  The dimension is always
    4*7 + 3*3 + 3*32 = 133.
    """
    if quaternion.kind != QUATERNION:
        raise ValueError("first algebra must be a quaternion algebra")
    if octonion.kind != OCTONION:
        raise ValueError("second algebra must be an octonion algebra")
    g1, g2, g3 = gamma_signs
    for g in (g1, g2, g3):
        if g not in (1, -1):
            raise ValueError("gamma entries must be +1 or -1")
    gammas = sign_form((g1 * g2, g2 * g3, g3 * g1))
    inner = (
        4 * norm_form(octonion, pure_part=True)
        + 3 * norm_form(quaternion, pure_part=True)
        + gammas.tensor(norm_form(octonion)).tensor(norm_form(quaternion))
    )
    return inner.scaled(-1)


def killing_grid() -> list[tuple[bool, bool, tuple[int, int, int], DiagFormR]]:
    """All 2 x 2 x 8 input configurations with their Killing forms."""
    out = []
    for q_def, o_def in product((True, False), repeat=2):
        q = CompositionAlgebraR(QUATERNION, q_def)
        o = CompositionAlgebraR(OCTONION, o_def)
        for gamma in product((1, -1), repeat=3):
            out.append((q_def, o_def, gamma, af_killing_form_e7(q, o, gamma)))
    return out
