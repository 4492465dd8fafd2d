#!/usr/bin/env python3
"""Cross-check the closed-form length generating functions against walks.

The references are the permutation side of ``tests/_reference.py``,
which enumerates signed-root permutations breadth-first and shares no
code with the orbit walk; the script imports nothing else from the
tests, so it runs without pytest and hypothesis.

First, for every supported type, the length generating function of W by
coset-chain enumeration against the fundamental-degree product; this
covers E8 without materializing the group.  Second, for every parabolic
quotient W/W_J of index <= 2e5 over QUOTIENT_TYPES (316 quotients), the
closed form ``quotient_poly`` against the orbit walk
``coset_length_counts``, coefficient by coefficient.  Third, for every
pair (I, J) of index |W/W_J| <= 2e4 over DOUBLE_COSET_TYPES, with the
opposition involution as star wherever it fixes I and J, the double
cosets of the weight-orbit route ``double_cosets`` against the Kilmoyer
reference, cell by cell: minimal representative (rebuilt from the
cell's images of the simple roots by ``full_action``), size and star
invariance.  Fourth, for every sigma-stable variety of index <= 2e4
over TWISTED_TYPES, the conormed polynomial (Steinberg's closed form,
``quotient_poly`` with the twist) against the sigma-fixed reference
(the minimal coset reps whose sigma-mapped reduced word multiplies back
to them).
Fifth, the third sweep with the bound on I: for every pair (I, J) with
|W/W_I| <= 2e4 < |W/W_J| over TRANSPOSED_TYPES, with the opposition
involution as star wherever it fixes I and J, the double cosets, which
walk the left orbit W.lambda_I, against the transposed Kilmoyer
reference: the cells of W_J\\W/W_I with inverted representatives and
sizes rescaled by |W_I| / |W_J|.  The sweeps take minutes, which is why
this is a script and not a test; ``tests/test_scripts.py`` runs them on
a tiny catalog.

    PYTHONPATH=src python3 scripts/borel_series_check.py
"""

import itertools
import pathlib
import sys
import time

from magicsq.poincare import conormed_poincare
from magicsq.polyring import IntPoly
from magicsq.rootsys import CartanType, build_root_system, opposition_involution
from magicsq.weyl import (
    coset_length_counts,
    double_cosets,
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
DOUBLE_COSET_TYPES = [
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "C4",
    "D4", "D5", "F4", "G2", "E6",
]
DOUBLE_COSET_MAX_INDEX = 20_000
TWISTED_TYPES = ["2A2", "2A3", "2A4", "2A5", "2D4", "2D5", "2E6"]
TWISTED_MAX_INDEX = 20_000
# the types of TYPES with quotients on both sides of the bound, but E8,
# whose 1,500 pairs would walk 10^7 orbit vectors
TRANSPOSED_TYPES = ["D6", "E6", "E7"]
TRANSPOSED_MAX_LEFT_INDEX = 20_000

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from _reference import (  # noqa: E402
    _kilmoyer_cells,
    _kilmoyer_table,
    _transposed_cells,
    chain_length_polynomial,
    full_action,
    sigma_fixed_reference,
    sigma_stable_varieties,
)


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


def check_double_cosets(bounded):
    """The third sweep, bounded="right" (on J), or the fifth, bounded="left" (on I)."""
    transposed = bounded == "left"
    if transposed:
        types, bound = TRANSPOSED_TYPES, TRANSPOSED_MAX_LEFT_INDEX
        name, reference, scope = "transposed", "transposed", f"left index <= {bound:,} < right index"
    else:
        types, bound = DOUBLE_COSET_TYPES, DOUBLE_COSET_MAX_INDEX
        name, reference, scope = "double-coset", "Kilmoyer", f"index <= {bound:,}"
    cases = 0
    orbit_s = reference_s = 0.0
    for label in types:
        rs = build_root_system(CartanType.from_string(label))
        opp = opposition_involution(rs)
        subsets = [
            frozenset(s)
            for k in range(rs.rank + 1)
            for s in itertools.combinations(range(1, rs.rank + 1), k)
        ]
        index = {s: weyl_order(rs) // parabolic_order(rs, s) for s in subsets}
        checked = 0
        for inside in subsets:
            if index[inside] > bound:
                continue
            stars = [None]
            if not opp.is_identity and opp.stabilizes(inside):
                stars.append(opp)
            for star in stars:
                t0 = time.perf_counter()
                table = _kilmoyer_table(rs, inside, star)
                reference_s += time.perf_counter() - t0
                for other in subsets:
                    if transposed and index[other] <= bound:
                        continue
                    if star is not None and not star.stabilizes(other):
                        continue
                    left, right = (inside, other) if transposed else (other, inside)
                    t0 = time.perf_counter()
                    cells = double_cosets(rs, left, right, star)
                    t1 = time.perf_counter()
                    if transposed:
                        expected = _transposed_cells(rs, table, left, right)
                    else:
                        expected = _kilmoyer_cells(rs, table, left)
                    t2 = time.perf_counter()
                    orbit_s += t1 - t0
                    reference_s += t2 - t1
                    got = [
                        (c.length, full_action(rs, c.simple_images), c.orbit_size,
                         c.star_invariant)
                        for c in cells
                    ]
                    if got != expected:
                        raise AssertionError(
                            f"{label} I={sorted(left)} J={sorted(right)} "
                            f"star={star is not None}: orbit route != {reference} reference"
                        )
                    checked += 1
        print(f"{label:3}  {checked:4} {name} cases ok")
        cases += checked
    print(f"{cases} double-coset cases of {scope}: orbit route {orbit_s:.2f}s, "
          f"{reference} reference {reference_s:.2f}s")


def check_conormed():
    cases = 0
    formula_s = reference_s = 0.0
    for label in TWISTED_TYPES:
        checked = 0
        for fv in sigma_stable_varieties(label, TWISTED_MAX_INDEX):
            t0 = time.perf_counter()
            by_formula = conormed_poincare(fv)
            t1 = time.perf_counter()
            by_reference = sigma_fixed_reference(fv)
            t2 = time.perf_counter()
            formula_s += t1 - t0
            reference_s += t2 - t1
            if by_formula != by_reference:
                raise AssertionError(
                    f"{label} X_{sorted(fv.parabolic_type)}: formula != reference"
                )
            checked += 1
        print(f"{label:3}  {checked:3} sigma-stable varieties ok")
        cases += checked
    print(f"{cases} conormed polynomials of index <= {TWISTED_MAX_INDEX:,}: formula "
          f"{formula_s:.2f}s, permutation reference {reference_s:.2f}s")


def main():
    check_groups()
    check_quotients()
    check_double_cosets("right")
    check_conormed()
    check_double_cosets("left")


if __name__ == "__main__":
    main()
