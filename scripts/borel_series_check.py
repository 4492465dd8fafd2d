#!/usr/bin/env python3
"""Cross-check the closed-form length generating functions against walks.

First, for every supported type, the length generating function of W by
coset-chain enumeration against the fundamental-degree product; this
covers E8 without materializing the group.  Second, for every parabolic
quotient W/W_J of index <= 2e5 over QUOTIENT_TYPES (316 quotients), the
closed form ``quotient_poly`` against the orbit walk
``coset_length_counts``, coefficient by coefficient.  The sweep takes
about half a minute, which is why it is a script and not a test.

    PYTHONPATH=src python3 scripts/borel_series_check.py
"""

import itertools
import time

from magicsq.polyring import IntPoly
from magicsq.rootsys import CartanType, build_root_system
from magicsq.weyl import (
    chain_length_polynomial,
    coset_length_counts,
    fundamental_degrees,
    length_counts_to_poly,
    parabolic_order,
    quotient_poly,
    weyl_order,
)

TYPES = [
    "A1", "A2", "A3", "A4", "A5",
    "B2", "B3", "C3",
    "D4", "D5", "D6",
    "F4", "G2",
    "E6", "E7", "E8",
]
QUOTIENT_TYPES = [
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "C4",
    "D4", "D5", "F4", "G2", "E6", "E7",
]
QUOTIENT_MAX_INDEX = 200_000


def check_groups():
    for label in TYPES:
        rs = build_root_system(CartanType.from_string(label))
        t0 = time.perf_counter()
        by_chain = chain_length_polynomial(rs)
        elapsed = time.perf_counter() - t0
        by_degrees = IntPoly.one()
        for d in fundamental_degrees(rs):
            by_degrees = by_degrees * IntPoly((1,) * d)
        ok = by_chain == by_degrees and by_chain(1) == weyl_order(rs)
        print(f"{label:3}  |W| = {weyl_order(rs):>12,}  top degree {by_chain.degree:3}  "
              f"{'ok' if ok else 'MISMATCH'}  ({elapsed:.2f}s)")
        assert ok


def check_quotients():
    cases = 0
    formula_s = walk_s = 0.0
    for label in QUOTIENT_TYPES:
        rs = build_root_system(CartanType.from_string(label))
        checked = 0
        for k in range(rs.rank + 1):
            for levi in itertools.combinations(range(1, rs.rank + 1), k):
                if weyl_order(rs) // parabolic_order(rs, levi) > QUOTIENT_MAX_INDEX:
                    continue
                t0 = time.perf_counter()
                by_formula = quotient_poly(rs, levi)
                t1 = time.perf_counter()
                by_walk = length_counts_to_poly(coset_length_counts(rs, levi))
                t2 = time.perf_counter()
                formula_s += t1 - t0
                walk_s += t2 - t1
                if by_formula != by_walk:
                    raise AssertionError(f"{label} W_{list(levi)}: formula != walk")
                checked += 1
        print(f"{label:3}  {checked:3} quotients ok")
        cases += checked
    print(f"{cases} quotients of index <= {QUOTIENT_MAX_INDEX:,}: formula "
          f"{formula_s:.2f}s, orbit walk {walk_s:.2f}s")


def main():
    check_groups()
    check_quotients()


if __name__ == "__main__":
    main()
