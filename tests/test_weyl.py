import hashlib
import itertools
import math
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from magicsq import weyl
from magicsq.cli import main
from magicsq.polyring import IntPoly
from magicsq.rootsys import (
    CartanType,
    build_root_system,
    opposition_involution,
    sub_diagram_type,
)
from magicsq.weyl import (
    coset_length_counts,
    double_cosets,
    fundamental_degrees,
    longest_element_length,
    minimal_coset_reps,
    parabolic_order,
    weyl_order,
)

from _reference import (
    WeylElement,
    _kilmoyer_cells,
    _kilmoyer_table,
    _transposed_cells,
    chain_length_polynomial,
    coset_actions,
    full_action,
    identity,
    reduced_word,
    right_descents,
    simple_reflection,
    simple_root_index,
)

DEGREES = {
    "A1": [2],
    "A2": [2, 3],
    "A3": [2, 3, 4],
    "A5": [2, 3, 4, 5, 6],
    "B3": [2, 4, 6],
    "C3": [2, 4, 6],
    "D4": [2, 4, 4, 6],
    "D5": [2, 4, 5, 6, 8],
    "D6": [2, 4, 6, 6, 8, 10],
    "E6": [2, 5, 6, 8, 9, 12],
    "E7": [2, 6, 8, 10, 12, 14, 18],
    "E8": [2, 8, 12, 14, 18, 20, 24, 30],
    "F4": [2, 6, 8, 12],
    "G2": [2, 6],
}

ORDERS = {"E6": 51840, "E7": 2903040, "E8": 696729600, "F4": 1152, "D6": 23040}


def _rs(label):
    return build_root_system(CartanType.from_string(label))


@pytest.mark.parametrize("label", sorted(DEGREES))
def test_fundamental_degrees(label):
    rs = _rs(label)
    degs = fundamental_degrees(rs)
    assert degs == DEGREES[label]
    # |positive roots| = sum (d_i - 1)
    assert rs.num_positive == sum(d - 1 for d in degs)


@pytest.mark.parametrize("label,order", sorted(ORDERS.items()))
def test_weyl_order(label, order):
    assert weyl_order(_rs(label)) == order


@pytest.mark.parametrize("label", sorted(DEGREES))
def test_order_cross_checked_by_coset_enumeration(label):
    # chain of parabolic quotients, all enumerated explicitly; covers E8
    # without ever materializing the full group
    rs = _rs(label)
    assert chain_length_polynomial(rs)(1) == weyl_order(rs)


@pytest.mark.parametrize("label", ["A1", "A3", "B3", "D4", "F4", "G2", "E6", "E7", "E8"])
def test_chain_polynomial_equals_degree_product(label):
    # full polynomial identity, not just the order; E8 runs through coset
    # quotients only
    rs = _rs(label)
    product = IntPoly.one()
    for d in fundamental_degrees(rs):
        product = product * IntPoly((1,) * d)
    assert chain_length_polynomial(rs) == product


def test_identity_and_simple_reflections():
    rs = _rs("A3")
    e = identity(rs)
    assert e.length == 0 and e.is_identity
    for i in (1, 2, 3):
        s = simple_reflection(rs, i)
        assert s.length == 1
        assert (s * s).is_identity
        assert s.inverse() == s


def _group(rs):
    """W as reference elements, in (length, action) order."""
    return [WeylElement(action) for _, action in coset_actions(rs, ())]


def test_length_changes_by_one_under_simple_multiplication():
    rs = _rs("A3")
    elements = _group(rs)
    assert len(elements) == 24
    for w in elements:
        for i in (1, 2, 3):
            ws = w * simple_reflection(rs, i)
            assert abs(ws.length - w.length) == 1


def test_reduced_words_reconstruct_elements():
    rs = _rs("D4")
    for w in _group(rs):
        word = reduced_word(rs, w)
        assert len(word) == w.length
        acc = identity(rs)
        for i in word:
            acc = acc * simple_reflection(rs, i)
        assert acc == w


def test_descent_bookkeeping():
    rs = _rs("A3")
    s1, s2 = simple_reflection(rs, 1), simple_reflection(rs, 2)
    w = s1 * s2
    assert right_descents(rs, w) == frozenset({2})
    assert right_descents(rs, w.inverse()) == frozenset({1})


def test_minimal_coset_reps_trivial_parabolic():
    rs = _rs("A1")
    reps = list(minimal_coset_reps(rs, ()))
    # the identity fixes the simple root, s_1 negates it
    assert reps == [(0, (0,)), (1, (~0,))]


def test_minimal_coset_reps_e6():
    rs = _rs("E6")
    reps = list(minimal_coset_reps(rs, {1, 3, 4, 5, 6}))
    assert len(reps) == 72
    assert weyl_order(rs) // parabolic_order(rs, {1, 3, 4, 5, 6}) == 72
    assert max(length for length, _ in reps) == 21
    for length, images in reps:
        w = WeylElement(full_action(rs, images))
        assert w.length == length
        # every representative is J-reduced
        assert not (right_descents(rs, w) & {1, 3, 4, 5, 6})
    # deterministic stream: sorted by (length, simple_images)
    assert reps == sorted(reps)


def test_minimal_coset_reps_e8_quotient():
    rs = _rs("E8")
    reps = list(minimal_coset_reps(rs, {1, 2, 3, 4, 5, 6, 7}))
    assert len(reps) == 240
    assert max(length for length, _ in reps) == 57


def _no_walk(*args):
    raise AssertionError("orbit walk started before the index guard")


def test_full_group_guards(monkeypatch):
    # guards are eager: they trip at call time, before any walk starts
    monkeypatch.setattr(weyl, "_Packing", _no_walk)
    for label, parabolic, count in (
        ("E8", (), 696729600),
        ("E7", (), 2903040),  # above the enumeration limit
        ("E8", {1}, 348364800),
    ):
        with pytest.raises(
            ValueError,
            match=f"^W/W_J has {count} cosets, above the enumeration limit of 100000$",
        ):
            minimal_coset_reps(_rs(label), parabolic)
    with pytest.raises(ValueError):
        minimal_coset_reps(_rs("A3"), {5})  # bad node set fails eagerly


def test_quotient_enumeration_guard(monkeypatch, capsys):
    # the index is checked at call time, before any orbit vector is built
    monkeypatch.setattr(weyl, "_orbit_levels", _no_walk)
    monkeypatch.setattr(weyl, "_Packing", _no_walk)
    with pytest.raises(ValueError, match="348364800 cosets"):
        double_cosets(_rs("E8"), {1}, {1})
    # the full group gets the same guard, which the CLI reports as is
    assert main(["weyl", "double-cosets", "--type", "E7", "--left", "1", "--right", ""]) == 2
    assert capsys.readouterr().err == (
        "error: W/W_J has 2903040 cosets, above the enumeration limit of 100000\n"
    )
    monkeypatch.undo()
    # E7 / W_{2..6}: 1512 cosets stays under the limit
    assert next(minimal_coset_reps(_rs("E7"), {2, 3, 4, 5, 6})) == (0, tuple(range(7)))


# every J of these types with index <= 1,000: 71 quotients, 8,473 cosets
REFERENCE_BFS_TYPES = ("A3", "B3", "C3", "D4", "F4", "G2", "E6")


def test_minimal_coset_reps_match_reference_bfs():
    # the walk's reps against the permutation BFS: lengths, order, and the
    # whole action rebuilt from the images of the simple roots
    quotients = cosets = 0
    for label in REFERENCE_BFS_TYPES:
        rs = _rs(label)
        for k in range(rs.rank + 1):
            for J in itertools.combinations(range(1, rs.rank + 1), k):
                if weyl._index(rs, J) > 1000:
                    continue
                got = [
                    (length, full_action(rs, images))
                    for length, images in minimal_coset_reps(rs, J)
                ]
                assert got == list(coset_actions(rs, J)), (label, J)
                quotients += 1
                cosets += len(got)
    assert (quotients, cosets) == (71, 8473)


def test_coset_length_counts_matches_reps():
    rs = _rs("E6")
    counts = coset_length_counts(rs, {2, 3, 4, 5})
    assert sum(counts.values()) == 270
    by_len = {}
    for length, _ in minimal_coset_reps(rs, {2, 3, 4, 5}):
        by_len[length] = by_len.get(length, 0) + 1
    assert counts == by_len


def test_coset_length_counts_size_guard():
    with pytest.raises(ValueError):
        coset_length_counts(_rs("E8"), {8})


def _borel_orbit(label):
    """The root system, its packing and the levels of its rho-orbit."""
    rs = _rs(label)
    packing = weyl._Packing(rs)
    return rs, packing, list(weyl._orbit_levels(rs, frozenset(), packing))


@pytest.mark.parametrize("label", ["B4", "C4", "F4", "G2", "D5", "A5"])
def test_orbit_walk_makes_each_vector_once(label):
    # each vector comes from one parent only, so no level needs a dedup
    rs, _, levels = _borel_orbit(label)
    assert all(len(set(level)) == len(level) for level in levels)
    assert sum(map(len, levels)) == weyl_order(rs)


@pytest.mark.parametrize("label,bound", [("G2", 5), ("F4", 11), ("B4", 7), ("D5", 7)])
def test_packed_fields_reach_the_highest_coroot_height(label, bound):
    # |mu_i| on the rho-orbit peaks at h - 1, which _Packing's biased
    # bytes must hold; h - 1 >= 2 * rank on G2 and F4
    rs, packing, levels = _borel_orbit(label)
    assert bound == max(fundamental_degrees(rs)) - 1
    assert max(
        abs(f - packing.BIAS)
        for level in levels for u in level for f in u.to_bytes(rs.rank, "little")
    ) == bound


@pytest.mark.parametrize(
    "label,levi,expected",
    [
        ("E6", {1, 3, 4, 5, 6}, 21),
        ("E6", {2, 3, 4, 5}, 24),
        ("E7", {2, 3, 4, 5, 6, 7}, 33),
        ("E6", set(), 36),
        ("E6", {1, 2, 3, 4, 5, 6}, 0),
    ],
)
def test_longest_element_length(label, levi, expected):
    assert longest_element_length(_rs(label), levi) == expected


def test_double_cosets_partition_and_minimality():
    rs = _rs("E6")
    star = opposition_involution(rs)
    left, right = {3, 4, 5}, {1, 3, 4, 5, 6}
    cells = double_cosets(rs, left, right, star)
    assert sum(c.orbit_size for c in cells) == 72
    for c in cells:
        w = WeylElement(full_action(rs, c.simple_images))
        assert w.length == c.length
        assert not (right_descents(rs, w) & right)
        assert not (right_descents(rs, w.inverse()) & left)
    tate = sorted(
        c.length for c in cells if c.orbit_size == 1 and c.star_invariant
    )
    assert tate == [0, 6, 15, 21]


def test_double_cosets_x16_instance():
    rs = _rs("E6")
    star = opposition_involution(rs)
    cells = double_cosets(rs, {3, 4, 5}, {2, 3, 4, 5}, star)
    assert sum(c.orbit_size for c in cells) == 270
    tate = sorted(
        c.length for c in cells if c.orbit_size == 1 and c.star_invariant
    )
    assert tate == [0, 9, 15, 24]


def test_double_cosets_empty_left_is_cell_per_coset():
    rs = _rs("A3")
    cells = double_cosets(rs, (), {2, 3})
    assert len(cells) == 4
    assert all(c.orbit_size == 1 and c.star_invariant for c in cells)
    lengths = sorted(c.length for c in cells)
    assert lengths == [0, 1, 2, 3]


def test_double_cosets_star_must_stabilize():
    rs = _rs("E6")
    star = opposition_involution(rs)  # (1 6)(3 5)
    with pytest.raises(ValueError):
        double_cosets(rs, {1}, {3, 4, 5}, star)
    with pytest.raises(ValueError):
        double_cosets(rs, {3, 4, 5}, {1, 2}, star)


def test_double_cosets_deterministic_order():
    rs = _rs("E6")
    cells = double_cosets(rs, {3, 4, 5}, {1, 3, 4, 5, 6})
    keys = [(c.length, full_action(rs, c.simple_images)) for c in cells]
    assert keys == sorted(keys)


# every type the tests build a root system for
BUILT_TYPES = [
    "A1", "A2", "A3", "A4", "A5", "A6", "A8", "B2", "B3", "B4", "B5", "B17",
    "C2", "C3", "C4", "C5", "D3", "D4", "D5", "D6", "D7", "E6", "E7", "E8", "F4", "G2",
    "2A2", "2A3", "2A4", "2A5", "2A12", "2D4", "2D5", "2E6", "1D6",
]


@pytest.mark.parametrize("label", BUILT_TYPES)
def test_simple_roots_lead_the_positive_roots(label):
    # the cells' sort key rests on this: positive_roots[:rank] are the
    # simple roots, a_rank first
    rs = _rs(label)
    n = rs.rank
    units = [tuple(int(k == i) for k in range(n)) for i in reversed(range(n))]
    assert list(rs.positive_roots[:n]) == units
    assert [simple_root_index(rs, i) for i in range(n, 0, -1)] == list(range(n))


@pytest.mark.parametrize("label", ["F4", "D5", "B4"])
def test_simple_images_order_like_full_actions(label):
    # over the whole group, the images of the simple roots tell elements
    # apart and sort them as the full permutations do
    rs = _rs(label)
    group = _group(rs)
    assert len(group) == weyl_order(rs)
    assert len({w.action[: rs.rank] for w in group}) == len(group)
    by_action = sorted(group, key=lambda w: (w.length, w.action))
    assert by_action == sorted(group, key=lambda w: (w.length, w.action[: rs.rank]))
    assert all(full_action(rs, w.action[: rs.rank]) == w.action for w in group)


# sha256 of stdout, recorded before the cells dropped their permutations:
# most cells of these outputs share their length with cells whose printed
# fields differ, so the digests pin the order within each length
DOUBLE_COSET_DIGESTS = [
    (
        "--type E7 --left 1 --right 1,2,3,5,6,7",
        "32e473ae540195969cd4ef6198ae6e7cc36f98697aaa0d4405f98cd9aa653f2f",
    ),
    (
        "--type E8 --left 2,3,4,5,6,7,8 --right 1",
        "3f70f50a14fe0c00ddb9f533729949b5007b56f33e1422a140411367276d22d9",
    ),
    (
        "--type E6 --left 4,5 --right 1,2 --star none",
        "27d78d75dfe2beb1dae195b77fd5fd8da440f44301856de0a79fc7783839f4c2",
    ),
    (
        "--type D7 --left 1,2,3 --right 1,2,4,5 --star opposition",
        "543ec7ac0aeb0234b2f7730faa302654e29646a770f1313e71cbe10c638e7c75",
    ),
]


@pytest.mark.parametrize("args,digest", DOUBLE_COSET_DIGESTS)
def test_double_cosets_output_digest(args, digest, capsys):
    assert main(["weyl", "double-cosets", *args.split()]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_double_cosets_compute_weyl_order_once(monkeypatch):
    # both indices and every cell size come from one |W| and one |W_I|
    calls = []
    real = weyl.fundamental_degrees
    monkeypatch.setattr(weyl, "fundamental_degrees", lambda rs: calls.append(1) or real(rs))
    rs = _rs("E6")
    for left, right in (({3, 4, 5}, {1, 3, 4, 5, 6}), ({1, 3, 4, 5, 6}, {3, 4, 5}), ((), ())):
        calls.clear()
        cells = double_cosets(rs, left, right)
        assert sum(c.orbit_size for c in cells) == 51840 // parabolic_order(rs, right)
        assert len(calls) <= 1, (left, right)


def test_small_rank_double_coset_partitions():
    for label, left, right in [
        ("A3", {1}, {3}),
        ("A3", {1, 2}, {2, 3}),
        ("B3", {1}, {2, 3}),
        ("D4", {2}, {1, 3, 4}),
        ("F4", {1, 2}, {2, 3, 4}),
        ("G2", {1}, {2}),
    ]:
        rs = _rs(label)
        cells = double_cosets(rs, left, right)
        index = weyl_order(rs) // parabolic_order(rs, right)
        assert sum(c.orbit_size for c in cells) == index
        # each orbit is a union of cosets of a stabilizer inside W_left
        left_order = parabolic_order(rs, left)
        assert all(left_order % c.orbit_size == 0 for c in cells)


@given(
    st.sampled_from(["A3", "B3", "C3", "D4"]),
    st.sets(st.integers(1, 4), max_size=3),
    st.sets(st.integers(1, 4), min_size=1, max_size=3),
)
def test_double_coset_partition_property(label, left, right):
    rs = _rs(label)
    left = {i for i in left if i <= rs.rank}
    right = {i for i in right if i <= rs.rank} or {1}
    cells = double_cosets(rs, left, right)
    index = weyl_order(rs) // parabolic_order(rs, right)
    assert sum(c.orbit_size for c in cells) == index
    lengths = [c.length for c in cells]
    assert lengths == sorted(lengths)
    assert lengths[0] == 0  # the identity double coset


def _kilmoyer_catalog(max_index=200):
    cases = []
    for label in ("A3", "B3", "C3", "D4", "G2", "F4"):
        rs = _rs(label)
        opp = opposition_involution(rs)
        subsets = [
            frozenset(s)
            for k in range(rs.rank + 1)
            for s in itertools.combinations(range(1, rs.rank + 1), k)
        ]
        for right in subsets:
            if weyl_order(rs) // parabolic_order(rs, right) > max_index:
                continue
            for left in subsets:
                cases.append((label, left, right, None))
                if not opp.is_identity and opp.stabilizes(left) and opp.stabilizes(right):
                    cases.append((label, left, right, "opposition"))
    for right in ({1, 3, 4, 5, 6}, {2, 3, 4, 5}):
        cases.append(("E6", frozenset({3, 4, 5}), frozenset(right), "opposition"))
    # E6 pairs that walk the left orbit: |W/W_I| < |W/W_J| <= 720
    rs = _rs("E6")
    opp = opposition_involution(rs)
    subsets = [
        frozenset(s) for k in range(7) for s in itertools.combinations(range(1, 7), k)
    ]
    for right in subsets:
        if weyl._index(rs, right) > 720:
            continue
        for left in subsets:
            if weyl._index(rs, left) < weyl._index(rs, right):
                cases.append(("E6", left, right, None))
                if opp.stabilizes(left) and opp.stabilizes(right):
                    cases.append(("E6", left, right, "opposition"))
    return cases


def test_double_cosets_match_kilmoyer_reference():
    cases = _kilmoyer_catalog()
    assert len(cases) == 674
    # both routes run: these walk W.lambda_I, the rest W.lambda_J
    swapped = [
        case for case in cases
        if weyl._index(_rs(case[0]), case[1]) < weyl._index(_rs(case[0]), case[2])
    ]
    assert len(swapped) == 279
    tables = {}
    for label, left, right, star_name in cases:
        rs = _rs(label)
        star = opposition_involution(rs) if star_name else None
        if (label, right, star_name) not in tables:
            tables[label, right, star_name] = _kilmoyer_table(rs, right, star)
        cells = double_cosets(rs, left, right, star)
        got = [
            (c.length, full_action(rs, c.simple_images), c.orbit_size, c.star_invariant)
            for c in cells
        ]
        expected = _kilmoyer_cells(rs, tables[label, right, star_name], left)
        assert got == expected, (label, sorted(left), sorted(right), star_name)


# left kernels of small index against right sets whose quotient is above
# the enumeration limit, so only the left orbit can be walked
TRANSPOSED_CASES = [
    ("E7", range(2, 8), (), None),
    ("E7", range(2, 8), (7,), None),
    ("E7", range(1, 7), (), None),
    ("E8", range(1, 8), (), None),
    ("E8", range(1, 8), (8,), None),
    ("D7", range(2, 8), (), "opposition"),
    ("D7", range(2, 8), (1,), "opposition"),
    ("A8", range(2, 8), (), "opposition"),
    ("A8", range(2, 8), (1,), None),
]


@pytest.mark.parametrize("label,left,right,star_name", TRANSPOSED_CASES)
def test_double_cosets_match_transposed_reference(label, left, right, star_name):
    rs = _rs(label)
    left, right = frozenset(left), frozenset(right)
    star = opposition_involution(rs) if star_name else None
    assert weyl._index(rs, left) <= 240 and weyl._index(rs, right) > 100_000
    got = [
        (c.length, full_action(rs, c.simple_images), c.orbit_size, c.star_invariant)
        for c in double_cosets(rs, left, right, star)
    ]
    table = _kilmoyer_table(rs, left, star)
    assert got == _transposed_cells(rs, table, left, right)


def test_transposed_reference_matches_direct_reference():
    for label in ("A4", "B3"):
        rs = _rs(label)
        opp = opposition_involution(rs)
        star = None if opp.is_identity else opp
        subsets = [
            frozenset(s)
            for k in range(rs.rank + 1)
            for s in itertools.combinations(range(1, rs.rank + 1), k)
            if star is None or star.stabilizes(s)
        ]
        tables = {J: _kilmoyer_table(rs, J, star) for J in subsets}
        for left in subsets:
            for right in subsets:
                direct = _kilmoyer_cells(rs, tables[right], left)
                assert direct == _transposed_cells(rs, tables[left], left, right)


def test_double_cosets_answer_isotropic_kernels():
    # W/W_J is above the enumeration limit; the left orbit is small
    for label, left, right, count in (
        ("E7", range(2, 8), (), 126),  # kernel D6 against the Borel variety
        ("E8", range(1, 8), (), 240),  # kernel E7
        ("E8", range(2, 9), (1,), 1458),  # kernel D7
        ("E8", range(1, 7), (), 13440),  # kernel E6
    ):
        rs = _rs(label)
        cells = double_cosets(rs, left, right)
        assert len(cells) == count
        assert sum(c.orbit_size for c in cells) == weyl_order(rs) // parabolic_order(rs, right)
        if label == "E7":
            assert {c.orbit_size for c in cells} == {23040}


def test_only_the_walk_of_w_lambda_j_builds_reflection_tables(monkeypatch):
    def no_tables(rs):
        raise AssertionError("the walk of W.lambda_I built reflection tables")

    real = weyl._signed_reflections
    # kernel D6 against the Borel variety: the left orbit is walked
    monkeypatch.setattr(weyl, "_signed_reflections", no_tables)
    cells = double_cosets(_rs("E7"), range(2, 8), ())
    assert len(cells) == 126 and {c.orbit_size for c in cells} == {23040}
    # |W/W_I| = 2160 against |W/W_J| = 72: the right orbit is walked
    built = []
    monkeypatch.setattr(weyl, "_signed_reflections", lambda rs: built.append(rs) or real(rs))
    double_cosets(_rs("E6"), {3, 4, 5}, {1, 3, 4, 5, 6})
    assert built == [_rs("E6")]


def test_reflection_tables_share_one_pool_of_index_objects():
    # A60: 60 tables of 2 * 1830 entries, 1.76 MB of pointers.  Separate ints
    # per entry peaked at 9.3 MB (CPython 3.11); one pool of 3660 ints keeps
    # the tables, and the reps gathered from them, near their pointers
    rs = _rs("A60")
    n = rs.num_positive
    tracemalloc.start()
    try:
        tables = weyl._signed_reflections(rs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * rs.rank * 2 * n * 8
    assert len({id(x) for table in tables for x in table}) == 2 * n


def test_f4_quotients_match_classical_counts():
    rs = _rs("F4")
    for levi, count, dim in (({1, 2, 3}, 24, 15), ({2, 3, 4}, 24, 15)):
        reps = list(minimal_coset_reps(rs, levi))
        assert len(reps) == count
        assert max(length for length, _ in reps) == dim
        assert longest_element_length(rs, levi) == dim


def test_odd_quadric_style_counts():
    # rank-1 cells all the way up: 5-dimensional quadrics for B3/P1 and G2/P1
    b3 = coset_length_counts(_rs("B3"), {2, 3})
    g2 = coset_length_counts(_rs("G2"), {2})
    assert b3 == {l: 1 for l in range(6)}
    assert g2 == {l: 1 for l in range(6)}


def test_parabolic_order():
    rs = _rs("E6")
    assert parabolic_order(rs, {1, 3, 4, 5, 6}) == 720
    assert parabolic_order(rs, {2, 3, 4, 5}) == 192
    assert parabolic_order(rs, ()) == 1
    assert parabolic_order(_rs("E7"), {2, 3, 4, 5, 6, 7}) == 23040


SUBSET_CATALOG = [
    f"{s}{n}" for s, lo, hi in (("A", 1, 6), ("B", 2, 5), ("C", 2, 5), ("D", 3, 6))
    for n in range(lo, hi + 1)
] + ["E6", "E7", "E8", "F4", "G2"]


@pytest.mark.parametrize("label", SUBSET_CATALOG)
def test_parabolic_degrees_match_component_route(label):
    # the degrees of W_J come from the root heights on J; the independent
    # route classifies J's components and builds each one's root system
    rs = _rs(label)
    top = math.prod(IntPoly((1,) * d) for d in fundamental_degrees(rs))
    for k in range(rs.rank + 1):
        for J in itertools.combinations(range(1, rs.rank + 1), k):
            degrees = sorted(
                d
                for ct in sub_diagram_type(rs, J)
                for d in fundamental_degrees(build_root_system(ct))
            )
            assert weyl._degrees(rs, J) == degrees, (label, J)
            assert parabolic_order(rs, J) == math.prod(degrees), (label, J)
            levi = math.prod(IntPoly((1,) * d) for d in degrees)
            assert weyl.quotient_poly(rs, J) * levi == top, (label, J)
            supported = sum(
                all(v[i - 1] == 0 for i in rs.node_set() - set(J))
                for v in rs.positive_roots
            )
            assert longest_element_length(rs, J) == rs.num_positive - supported


def test_weyl_element_inverse_and_product():
    rs = _rs("B3")
    s1, s2, s3 = (simple_reflection(rs, i) for i in (1, 2, 3))
    w = s1 * s2 * s3 * s2
    assert (w * w.inverse()).is_identity
    assert w.length == len(reduced_word(rs, w))
