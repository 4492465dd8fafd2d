"""Motive skeletons of isotropic flag varieties via double cosets.

The double-coset method: cells of the split variety are grouped into
orbits of the kernel Weyl group, and the Tate summands of the twisted
motive sit exactly at the cells that form a single right coset and are
fixed by the star action.  ``tate_skeleton`` returns those shifts.

Decomposition identities are checked as exact polynomial equations: a
Tate term contributes t^shift, an upper block contributes t^shift times
its splitting-field polynomial, and the class of a quadratic point
contributes 2 * t^shift (two rational points after the quadratic base
change).  ``express_residual`` decides whether a leftover polynomial is
a nonnegative combination of shifted blocks, by exhaustive lowest-
exponent-first backtracking with memoization; it returns one witness,
found in a fixed search order, so reruns reproduce it bit for bit.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from . import weyl
from ._record import record
from .polyring import IntPoly
from .rootsys import DiagramAut, RootSystem

KIND_TATE = "tate"
KIND_UPPER = "upper"
KIND_COR_QUADRATIC = "cor-quadratic"

_KINDS = (KIND_TATE, KIND_UPPER, KIND_COR_QUADRATIC)


@record
class MotiveTerm:
    """One summand: kind, Tate shift, and (for upper blocks) a polynomial."""

    kind: str
    shift: int
    block: IntPoly | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown motive term kind {self.kind!r}")
        if self.shift < 0:
            raise ValueError("shift must be nonnegative")
        if self.kind == KIND_UPPER:
            if self.block is None or self.block.is_zero:
                raise ValueError("upper block requires a nonzero polynomial")
        elif self.block is not None:
            raise ValueError(f"{self.kind} term carries no polynomial")

    def contribution(self) -> IntPoly:
        if self.kind == KIND_TATE:
            return IntPoly.monomial(self.shift)
        if self.kind == KIND_COR_QUADRATIC:
            return IntPoly.monomial(self.shift, 2)
        return self.block.shift(self.shift)


@record
class Decomposition:
    total: IntPoly
    terms: tuple[MotiveTerm, ...]


def check_decomposition(d: Decomposition) -> tuple[bool, IntPoly]:
    """Exact check: residual = total - sum of contributions; True iff zero."""
    residual = d.total
    for term in d.terms:
        residual = residual - term.contribution()
    return residual.is_zero, residual


def tate_skeleton(
    rs: RootSystem,
    kernel: Iterable[int],
    target: Iterable[int],
    star: DiagramAut | None = None,
) -> list[int]:
    """Shifts of the Tate summands: lengths of the singleton, star-fixed cells."""
    cells = weyl.double_cosets(rs, kernel, target, star)
    return sorted(
        c.min_rep.length for c in cells if c.orbit_size == 1 and c.star_invariant
    )


_MISS = object()


def express_residual(
    residual: IntPoly, blocks: Sequence[IntPoly]
) -> list[tuple[int, int]] | None:
    """Write residual as a nonnegative sum of shifted blocks, if possible.

    Returns a sorted list of (block index, shift) with multiplicity, or
    None when no expression exists.  Search order is fixed: lowest
    uncovered exponent first, larger block first, so the witness is
    reproducible.  The residual and every block must have nonnegative
    coefficients; blocks must be nonzero.
    """
    if any(c < 0 for c in residual.coeffs):
        raise ValueError("residual must have nonnegative coefficients")
    if not blocks:
        raise ValueError("at least one block is required")
    normalized = []
    for b in blocks:
        if b.is_zero:
            raise ValueError("blocks must be nonzero")
        if any(c < 0 for c in b.coeffs):
            raise ValueError("blocks must have nonnegative coefficients")
        v = b.valuation()
        normalized.append((v, b.shift(-v).coeffs))
    order = sorted(
        range(len(blocks)), key=lambda i: (-(len(normalized[i][1]) - 1), i)
    )

    memo: dict[tuple[int, ...], tuple | None] = {}

    def solve(res: tuple[int, ...]) -> tuple | None:
        res = _strip(res)
        if not res:
            return ()
        hit = memo.get(res, _MISS)
        if hit is not _MISS:
            return hit
        e = next(i for i, c in enumerate(res) if c)
        result = None
        for bi in order:
            val, bc = normalized[bi]
            if e < val:
                continue  # shift would be negative
            if len(res) < e + len(bc):
                continue  # block overshoots the residual degree
            nxt = list(res)
            ok = True
            for k, c in enumerate(bc):
                nxt[e + k] -= c
                if nxt[e + k] < 0:
                    ok = False
                    break
            if not ok:
                continue
            sub = solve(tuple(nxt))
            if sub is not None:
                result = ((bi, e - val),) + sub
                break
        memo[res] = result
        return result

    witness = solve(residual.coeffs)
    if witness is None:
        return None
    return sorted(witness)


def _strip(res: tuple[int, ...]) -> tuple[int, ...]:
    n = len(res)
    while n and res[n - 1] == 0:
        n -= 1
    return res[:n]


def witness_sum(
    witness: Iterable[tuple[int, int]], blocks: Sequence[IntPoly]
) -> IntPoly:
    """Recompute the polynomial a witness describes (round-trip check)."""
    out = IntPoly.zero()
    for bi, shift in witness:
        out = out + blocks[bi].shift(shift)
    return out


@record
class BlockDescriptor:
    """Catalog entry: block name, term kind, splitting-field polynomial."""

    name: str
    kind: str
    poly: IntPoly


def karpenko_blocks() -> tuple[BlockDescriptor, ...]:
    """Allowed indecomposable blocks for the quadratic-splitting outer-E6 case.

    Splitting-field polynomials: the upper motive of the (1,6)-variety
    (binary, 1 + t^15, under the anisotropy hypotheses), the upper Borel
    block (1 + t^3, the profile-(1,0,0) polynomial), and the class of a
    quadratic point (2).
    """
    return (
        BlockDescriptor(
            "upper-x16", KIND_UPPER, IntPoly((1,) + (0,) * 14 + (1,))
        ),
        BlockDescriptor("upper-borel", KIND_UPPER, IntPoly((1, 0, 0, 1))),
        BlockDescriptor("cor-quadratic", KIND_COR_QUADRATIC, IntPoly((2,))),
    )
