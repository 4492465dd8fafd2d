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
exponent-first backtracking that remembers the residuals that failed; it
returns one witness, found in a fixed search order, so reruns reproduce
it bit for bit.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from . import rootsys, weyl
from ._record import record
from .polyring import IntPoly

# placed blocks, the scale of weyl's enumeration limit
_DEPTH_LIMIT = 100_000

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
    rs: rootsys.RootSystem,
    kernel: Iterable[int],
    target: Iterable[int],
    star: rootsys.DiagramAut | None = None,
) -> list[int]:
    """Shifts of the Tate summands: lengths of the singleton, star-fixed cells."""
    cells = weyl.double_cosets(rs, kernel, target, star)
    return sorted(
        c.length for c in cells if c.orbit_size == 1 and c.star_invariant
    )


def check_blocks(blocks: Sequence[IntPoly]) -> None:
    """The blocks ``express_residual`` takes: at least one, each nonzero, none negative."""
    if not blocks:
        raise ValueError("at least one block is required")
    for b in blocks:
        if b.is_zero:
            raise ValueError("blocks must be nonzero")
        if any(c < 0 for c in b.coeffs):
            raise ValueError("blocks must have nonnegative coefficients")


def check_search_depth(residual: IntPoly, blocks: Sequence[IntPoly]) -> None:
    """Refuse a residual that ``express_residual`` could place too many blocks in.

    Every coefficient is nonnegative, so each placed block lowers the
    residual's value at 1 by at least the least value of a block at 1,
    and the search is at most residual(1) // min b(1) blocks deep.
    """
    depth = residual(1) // min(b(1) for b in blocks)
    if depth > _DEPTH_LIMIT:
        raise ValueError(
            f"the residual may take {depth} blocks, above the search depth limit "
            f"of {_DEPTH_LIMIT}"
        )


def express_residual(
    residual: IntPoly, blocks: Sequence[IntPoly]
) -> list[tuple[int, int]] | None:
    """Write residual as a nonnegative sum of shifted blocks, if possible.

    Returns a sorted list of (block index, shift) with multiplicity, or
    None when no expression exists.  Search order is fixed: lowest
    uncovered exponent first, larger block first, so the witness is
    reproducible.  The residual and every block must have nonnegative
    coefficients; blocks must be nonzero.

    The search is depth-first on one residual, placing a block by
    subtracting it and backtracking by adding it back; an explicit stack
    keeps one frame per placed block, its position in the search order
    and the exponent it covers, from which the scan for the next
    uncovered exponent restarts.  A residual that has no expression is
    remembered, as its coefficient tuple, and never searched again.  A
    residual that could take more than _DEPTH_LIMIT blocks raises
    ValueError (``check_search_depth``).
    """
    if any(c < 0 for c in residual.coeffs):
        raise ValueError("residual must have nonnegative coefficients")
    check_blocks(blocks)
    check_search_depth(residual, blocks)
    normalized = []
    for b in blocks:
        v = b.valuation()
        normalized.append((v, b.shift(-v).coeffs))
    order = sorted(
        range(len(blocks)), key=lambda i: (-(len(normalized[i][1]) - 1), i)
    )

    res = list(residual.coeffs)
    n = len(res)
    failed: set[tuple[int, ...]] = set()
    stack: list[tuple[int, int]] = []  # (position in order, exponent) per placed block
    start, e = 0, 0  # the first position in order to try, the exponent the scan starts at
    while True:
        while e < n and not res[e]:
            e += 1
        if e == n:
            return sorted((order[pos], at - normalized[order[pos]][0]) for pos, at in stack)
        for pos in range(start, len(order)):
            val, bc = normalized[order[pos]]
            if e < val or n < e + len(bc):
                continue  # shift would be negative, or block overshoots the degree
            if any(res[e + j] < c for j, c in enumerate(bc)):
                continue
            for j, c in enumerate(bc):
                res[e + j] -= c
            if failed and tuple(res) in failed:
                for j, c in enumerate(bc):
                    res[e + j] += c
                continue
            stack.append((pos, e))
            start = 0
            break
        else:
            failed.add(tuple(res))
            if not stack:
                return None
            pos, e = stack.pop()
            for j, c in enumerate(normalized[order[pos]][1]):
                res[e + j] += c
            start = pos + 1


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
