#!/usr/bin/env python3
"""Print the double-coset cell structure behind the two outer-E6 motive
skeletons, then the residual block expressions for the split varieties."""

from magicsq.cgmb import express_residual, witness_sum
from magicsq.poincare import FlagVariety, poincare_poly
from magicsq.polyring import IntPoly, format_poly
from magicsq.rootsys import CartanType, build_root_system, opposition_involution
from magicsq.weyl import double_cosets

KERNEL = {3, 4, 5}
INSTANCES = [
    ("X_2", {2}, {1, 3, 4, 5, 6}, 6),
    ("X_{1,6}", {1, 6}, {2, 3, 4, 5}, 9),
]


def main():
    rs = build_root_system(CartanType("E", 6))
    star = opposition_involution(rs)
    print(f"ambient E6, kernel {sorted(KERNEL)}, star {star.node_permutation}")

    binary = IntPoly([1] + [0] * 14 + [1])
    blocks = [IntPoly([1, 0, 0, 1]), IntPoly([2])]

    for name, variety, levi, low_shift in INSTANCES:
        cells = double_cosets(rs, KERNEL, levi, star)
        tate = [c for c in cells if c.orbit_size == 1 and c.star_invariant]
        print(f"\n== {name}: Levi {sorted(levi)}, {len(cells)} cells, "
              f"{sum(c.orbit_size for c in cells)} cosets")
        for c in cells:
            mark = " <- Tate" if c.orbit_size == 1 and c.star_invariant else ""
            print(f"   length {c.length:2d}  orbit {c.orbit_size:3d}  "
                  f"star={'y' if c.star_invariant else 'n'}{mark}")
        print(f"   Tate shifts: {sorted(c.length for c in tate)}")

        total = poincare_poly(FlagVariety(CartanType("E", 6), frozenset(variety)))
        residual = total - binary - binary.shift(low_shift)
        witness = express_residual(residual, blocks)
        assert witness is not None and witness_sum(witness, blocks) == residual
        upper = sorted(s for b, s in witness if b == 0)
        points = sorted(s for b, s in witness if b == 1)
        print(f"   residual  = {format_poly(residual)}")
        print(f"   (1+t^3) blocks at shifts {upper}")
        print(f"   quadratic-point classes at shifts {points}")


if __name__ == "__main__":
    main()
