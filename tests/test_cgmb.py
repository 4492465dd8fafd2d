import contextlib
import io
import itertools
import pathlib
import runpy
import tracemalloc

import pytest

from magicsq.cgmb import (
    KIND_COR_QUADRATIC,
    KIND_TATE,
    KIND_UPPER,
    Decomposition,
    MotiveTerm,
    check_decomposition,
    express_residual,
    karpenko_blocks,
    tate_skeleton,
    witness_sum,
)
from magicsq.poincare import FlagVariety, poincare_poly
from magicsq.polyring import IntPoly, parse_poly
from magicsq.rootsys import (
    CartanType,
    build_root_system,
    identity_aut,
    opposition_involution,
)
from magicsq.weyl import parabolic_order, weyl_order

ONE_PLUS_T3 = IntPoly([1, 0, 0, 1])
TWO = IntPoly([2])
BINARY_15 = IntPoly([1] + [0] * 14 + [1])


def _e6():
    return build_root_system(CartanType("E", 6))


def test_tate_skeleton_x2():
    rs = _e6()
    shifts = tate_skeleton(rs, {3, 4, 5}, {1, 3, 4, 5, 6}, opposition_involution(rs))
    assert shifts == [0, 6, 15, 21]


def test_tate_skeleton_x16():
    rs = _e6()
    shifts = tate_skeleton(rs, {3, 4, 5}, {2, 3, 4, 5}, opposition_involution(rs))
    assert shifts == [0, 9, 15, 24]


def test_tate_skeleton_contains_point_and_fundamental_class():
    rs = _e6()
    star = opposition_involution(rs)
    for levi, dim in (({1, 3, 4, 5, 6}, 21), ({2, 3, 4, 5}, 24)):
        shifts = tate_skeleton(rs, {3, 4, 5}, levi, star)
        assert shifts[0] == 0 and shifts[-1] == dim


def test_motive_skeletons_script():
    # the script prints every cell of both outer-E6 skeletons; run it as
    # ``python scripts/motive_skeletons.py`` would, in this process
    script = pathlib.Path(__file__).parent.parent / "scripts" / "motive_skeletons.py"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(script), run_name="__main__")
    shifts = [line.strip() for line in out.getvalue().splitlines() if "Tate shifts" in line]
    assert shifts == ["Tate shifts: [0, 6, 15, 21]", "Tate shifts: [0, 9, 15, 24]"]


def test_tate_skeleton_trivial_kernel():
    # empty kernel, identity star: every cell is a Tate cell
    rs = build_root_system(CartanType("A", 2))
    shifts = tate_skeleton(rs, (), {1}, identity_aut(rs))
    assert shifts == [0, 1, 2]


def test_tate_skeleton_reads_no_star_as_the_identity():
    # the pairs whose smaller quotient has at most 100 cosets: all 4,096
    # pairs would walk 1.3e7 orbit vectors, minutes of tier-1
    rs = _e6()
    ident = identity_aut(rs)
    subsets = [J for k in range(7) for J in itertools.combinations(range(1, 7), k)]
    index = {J: weyl_order(rs) // parabolic_order(rs, J) for J in subsets}
    pairs = [(I, J) for I in subsets for J in subsets if min(index[I], index[J]) <= 100]
    assert len(pairs) == 496
    for I, J in pairs:
        assert tate_skeleton(rs, I, J, None) == tate_skeleton(rs, I, J, ident), (I, J)


def test_motive_term_contributions():
    assert MotiveTerm(KIND_TATE, 4).contribution() == IntPoly.monomial(4)
    assert MotiveTerm(KIND_COR_QUADRATIC, 2).contribution() == IntPoly.monomial(2, 2)
    up = MotiveTerm(KIND_UPPER, 1, ONE_PLUS_T3)
    assert up.contribution() == IntPoly([0, 1, 0, 0, 1])


def test_motive_term_validation():
    with pytest.raises(ValueError):
        MotiveTerm("mystery", 0)
    with pytest.raises(ValueError):
        MotiveTerm(KIND_TATE, -1)
    with pytest.raises(ValueError):
        MotiveTerm(KIND_UPPER, 0)  # missing block
    with pytest.raises(ValueError):
        MotiveTerm(KIND_TATE, 0, ONE_PLUS_T3)  # spurious block


def test_check_decomposition_trivial():
    ok, residual = check_decomposition(
        Decomposition(IntPoly([1, 1]), (MotiveTerm(KIND_TATE, 0), MotiveTerm(KIND_TATE, 1)))
    )
    assert ok and residual.is_zero
    ok, residual = check_decomposition(
        Decomposition(ONE_PLUS_T3, (MotiveTerm(KIND_TATE, 0),))
    )
    assert not ok
    assert residual == IntPoly.monomial(3)


def test_check_decomposition_henke_identity():
    total = poincare_poly(FlagVariety(CartanType("E", 7), frozenset({1})))
    block = parse_poly("1+t+t^4+t^6+t^8+t^12+t^16+t^18+t^20+t^23+t^24") * parse_poly(
        "1+t^9"
    )
    r2 = ONE_PLUS_T3 * IntPoly([1, 0, 0, 0, 0, 1]) * IntPoly([1] + [0] * 8 + [1])
    terms = [MotiveTerm(KIND_UPPER, 0, block)]
    terms += [MotiveTerm(KIND_UPPER, i, r2) for i in range(2, 15)]
    ok, residual = check_decomposition(Decomposition(total, tuple(terms)))
    assert ok, residual


def test_express_residual_constructed_witness():
    residual = IntPoly([0, 1, 2, 0, 1])  # t + 2t^2 + t^4
    witness = express_residual(residual, [ONE_PLUS_T3, TWO])
    assert witness == [(0, 1), (1, 2)]
    assert witness_sum(witness, [ONE_PLUS_T3, TWO]) == residual


def test_express_residual_no_witness():
    assert express_residual(IntPoly([0, 1]), [ONE_PLUS_T3]) is None
    assert express_residual(IntPoly([1, 0, 0, 2]), [ONE_PLUS_T3]) is None


def test_express_residual_zero_residual():
    assert express_residual(IntPoly(), [ONE_PLUS_T3]) == []


def test_express_residual_preconditions():
    with pytest.raises(ValueError):
        express_residual(IntPoly([-1, 1]), [ONE_PLUS_T3])
    with pytest.raises(ValueError):
        express_residual(IntPoly([1]), [])
    with pytest.raises(ValueError):
        express_residual(IntPoly([1]), [IntPoly()])
    with pytest.raises(ValueError):
        express_residual(IntPoly([1]), [IntPoly([1, -1])])


def test_express_residual_places_more_blocks_than_the_recursion_limit():
    # one small frame per placed block, on an explicit stack, and one
    # residual for the whole search, so memory grows with the depth alone
    tracemalloc.start()
    try:
        witness = express_residual(IntPoly([1] * 6000), [IntPoly([1])])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert witness == [(0, shift) for shift in range(6000)]
    assert peak < 10 * 2**20


def test_express_residual_refuses_a_search_deeper_than_the_limit():
    # the D7 Borel variety is 322,560 Tate terms, more placed blocks than
    # the limit, so the search refuses before it starts
    borel = poincare_poly(FlagVariety(CartanType("D", 7), frozenset(range(1, 8))))
    with pytest.raises(
        ValueError,
        match=r"^the residual may take 322560 blocks, above the search depth limit of 100000$",
    ):
        express_residual(borel, [IntPoly([1])])
    # the bound is the residual's value at 1 over the least block value at 1
    assert len(express_residual(IntPoly([200_000]), [IntPoly([2]), IntPoly([3])])) == 100_000
    with pytest.raises(ValueError, match="may take 100001 blocks"):
        express_residual(IntPoly([200_002]), [IntPoly([3]), IntPoly([2])])


def test_express_residual_shift_normalized_block():
    # block t^2 * (1 + t) placed at effective shift e - valuation
    block = IntPoly([0, 0, 1, 1])
    residual = IntPoly([0, 0, 0, 1, 1])
    witness = express_residual(residual, [block])
    assert witness == [(0, 1)]
    assert witness_sum(witness, [block]) == residual
    # residual starting below the block valuation is inexpressible
    assert express_residual(IntPoly([0, 1, 1]), [block]) is None


def test_step5_residuals_have_positive_shift_witnesses():
    blocks = [ONE_PLUS_T3, TWO]
    for nodes, tate_shifts in (({2}, (0, 6)), ({1, 6}, (0, 9))):
        total = poincare_poly(FlagVariety(CartanType("E", 6), frozenset(nodes)))
        residual = total
        for s in tate_shifts:
            residual = residual - BINARY_15.shift(s)
        assert all(c >= 0 for c in residual.coeffs)
        witness = express_residual(residual, blocks)
        assert witness is not None
        assert witness_sum(witness, blocks) == residual
        assert min(s for _, s in witness) >= 1


def test_express_residual_deterministic():
    blocks = [ONE_PLUS_T3, TWO]
    total = poincare_poly(FlagVariety(CartanType("E", 6), frozenset({2})))
    residual = total - BINARY_15 - BINARY_15.shift(6)
    assert express_residual(residual, blocks) == express_residual(residual, blocks)


def test_karpenko_blocks_catalog():
    blocks = karpenko_blocks()
    assert [b.name for b in blocks] == ["upper-x16", "upper-borel", "cor-quadratic"]
    assert {b.poly for b in blocks} == {BINARY_15, ONE_PLUS_T3, TWO}
    assert all(b.poly(1) == 2 for b in blocks)
    kinds = {b.name: b.kind for b in blocks}
    assert kinds["cor-quadratic"] == KIND_COR_QUADRATIC
    assert kinds["upper-borel"] == KIND_UPPER


def test_skeleton_size_matches_cell_filter():
    from magicsq.weyl import double_cosets

    rs = _e6()
    star = opposition_involution(rs)
    cells = double_cosets(rs, {3, 4, 5}, {1, 3, 4, 5, 6}, star)
    filtered = [c for c in cells if c.orbit_size == 1 and c.star_invariant]
    shifts = tate_skeleton(rs, {3, 4, 5}, {1, 3, 4, 5, 6}, star)
    assert len(shifts) == len(filtered)
