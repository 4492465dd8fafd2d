import itertools

import pytest

from magicsq import rootsys, weyl
from magicsq.rootsys import (
    CartanType,
    build_root_system,
    cartan_matrix,
    components,
    diagram_aut,
    identity_aut,
    opposition_involution,
    sub_diagram_type,
    twist_aut,
)

from _reference import reflection_tables, root_system_to_json, signed_table, simple_root_index

# classical positive-root counts
COUNTS = {
    "A1": 1, "A2": 3, "A3": 6, "A5": 15,
    "B2": 4, "B3": 9, "C3": 9,
    "D4": 12, "D5": 20, "D6": 30,
    "E6": 36, "E7": 63, "E8": 120,
    "F4": 24, "G2": 6,
}


@pytest.mark.parametrize("label,count", sorted(COUNTS.items()))
def test_positive_root_counts(label, count):
    rs = build_root_system(CartanType.from_string(label))
    assert rs.num_positive == count


def test_closed_form_root_counts_match_construction():
    labels = [
        f"{s}{n}" for s, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)) for n in range(lo, 10)
    ]
    for label in labels + ["E6", "E7", "E8", "F4", "G2"]:
        ct = CartanType.from_string(label)
        expected = rootsys._POSITIVE_ROOTS[ct.series](ct.rank)
        assert build_root_system(ct).num_positive == expected, label


def test_oversized_root_system_refused_before_building(monkeypatch):
    def no_build(*args):
        raise AssertionError("root closure started before the size guard")

    monkeypatch.setattr(rootsys, "_close_positive_roots", no_build)
    for label, count in (("A200", 20100), ("B142", 20164), ("C142", 20164), ("D142", 20022)):
        with pytest.raises(ValueError, match=f"root system {label} has {count} positive roots"):
            rootsys.RootSystem(CartanType.from_string(label))
    # A199, B141 and D141 stay buildable
    counts = rootsys._POSITIVE_ROOTS
    assert max(counts["A"](199), counts["B"](141), counts["D"](141)) <= 20000


@pytest.mark.parametrize("label", sorted(COUNTS))
def test_roots_are_nonnegative_and_contain_simples(label):
    rs = build_root_system(CartanType.from_string(label))
    for v in rs.positive_roots:
        assert all(c >= 0 for c in v)
    for i in range(1, rs.rank + 1):
        v = rs.positive_roots[simple_root_index(rs, i)]
        assert sum(v) == 1 and v[i - 1] == 1


@pytest.mark.parametrize("label", sorted(COUNTS))
def test_deterministic_graded_lex_order(label):
    rs = build_root_system(CartanType.from_string(label))
    keys = [(sum(v), v) for v in rs.positive_roots]
    assert keys == sorted(keys)


@pytest.mark.parametrize("label", sorted(COUNTS))
def test_reflection_tables_are_signed_permutations(label):
    rs = build_root_system(CartanType.from_string(label))
    n = rs.num_positive
    tables = reflection_tables(rs)
    # the package builds the same tables for the walk of double_cosets
    assert weyl._signed_reflections(rs) == [signed_table(tab) for tab in tables]
    for i, tab in enumerate(tables):
        # bijective on the signed set, and an involution
        images = {x for x in tab} | {~x for x in tab}
        assert len(images) == 2 * n
        for r in range(n):
            y = tab[r]
            back = tab[y] if y >= 0 else ~tab[~y]
            assert back == r
        # s_i negates exactly its own simple root among the positives
        negated = [r for r in range(n) if tab[r] < 0]
        assert negated == [simple_root_index(rs, i + 1)]


def test_cartan_matrices_match_standard_tables():
    assert cartan_matrix(CartanType("F", 4)) == (
        (2, -1, 0, 0),
        (-1, 2, -2, 0),
        (0, -1, 2, -1),
        (0, 0, -1, 2),
    )
    assert cartan_matrix(CartanType("G", 2)) == ((2, -1), (-3, 2))
    assert cartan_matrix(CartanType("B", 3)) == (
        (2, -1, 0),
        (-1, 2, -2),
        (0, -1, 2),
    )
    assert cartan_matrix(CartanType("C", 3)) == (
        (2, -1, 0),
        (-1, 2, -1),
        (0, -2, 2),
    )
    e6 = cartan_matrix(CartanType("E", 6))
    assert e6[0][2] == e6[2][0] == -1  # edge 1-3
    assert e6[1][3] == e6[3][1] == -1  # edge 2-4
    assert e6[0][1] == e6[1][0] == 0  # nodes 1,2 not adjacent


@pytest.mark.parametrize("label", sorted(COUNTS))
def test_cartan_invariants(label):
    a = cartan_matrix(CartanType.from_string(label))
    for i, row in enumerate(a):
        assert row[i] == 2
        for j, entry in enumerate(row):
            if i != j:
                assert entry <= 0


@pytest.mark.parametrize(
    "label",
    ["E9", "F5", "G3", "A0", "D2", "H3"],
)
def test_invalid_types_rejected(label):
    with pytest.raises(ValueError):
        CartanType.from_string(label)


def test_outer_twist_validation():
    assert CartanType.from_string("2E6").outer_twist == 2
    assert CartanType.from_string("1D6") == CartanType("D", 6, 1)
    CartanType("A", 5, 2)
    CartanType("D", 4, 2)
    with pytest.raises(ValueError):
        CartanType("E", 7, 2)
    with pytest.raises(ValueError):
        CartanType("B", 3, 2)
    with pytest.raises(ValueError):
        CartanType("A", 1, 2)
    with pytest.raises(ValueError):
        CartanType("E", 6, 3)


def test_twist_does_not_change_root_data():
    inner = build_root_system(CartanType("E", 6))
    outer = build_root_system(CartanType("E", 6, 2))
    assert inner.positive_roots == outer.positive_roots
    assert inner.cartan == outer.cartan


@pytest.mark.parametrize(
    "label,perm",
    [
        ("A1", (1,)),
        ("A3", (3, 2, 1)),
        ("A5", (5, 4, 3, 2, 1)),
        ("B3", (1, 2, 3)),
        ("C3", (1, 2, 3)),
        ("D4", (1, 2, 3, 4)),
        ("D5", (1, 2, 3, 5, 4)),
        ("E6", (6, 2, 5, 4, 3, 1)),
        ("E7", (1, 2, 3, 4, 5, 6, 7)),
        ("E8", (1, 2, 3, 4, 5, 6, 7, 8)),
        ("F4", (1, 2, 3, 4)),
        ("G2", (1, 2)),
    ],
)
def test_opposition_involution(label, perm):
    rs = build_root_system(CartanType.from_string(label))
    aut = opposition_involution(rs)
    assert aut.node_permutation == perm
    # involutive
    assert all(aut(aut(i)) == i for i in range(1, rs.rank + 1))


def _minus_w0_from_longest_element(rs):
    """-w0 as a node permutation, read off w0 built as a root permutation.

    w0 is built greedily: keep multiplying on the right by any s_i that
    does not yet negate its simple root, until every simple root is
    negated.
    """
    simple = [simple_root_index(rs, i) for i in range(1, rs.rank + 1)]
    act = list(range(rs.num_positive))
    while True:
        for r, table in zip(simple, reflection_tables(rs)):
            if act[r] >= 0:
                act = [act[x] if x >= 0 else ~act[~x] for x in table]
                break
        else:
            break
    perm = []
    for r in simple:
        assert act[r] < 0, "w0 must negate every simple root"
        target = rs.positive_roots[~act[r]]
        assert sum(target) == 1, "w0 must map a simple root to a negative simple root"
        perm.append(target.index(1) + 1)
    return tuple(perm)


@pytest.mark.parametrize(
    "label",
    [f"{s}{n}" for s, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)) for n in range(lo, 10)]
    + ["E6", "E7", "E8", "F4", "G2"],
)
def test_opposition_involution_matches_longest_element(label):
    rs = build_root_system(CartanType.from_string(label))
    assert opposition_involution(rs).node_permutation == _minus_w0_from_longest_element(rs)


@pytest.mark.parametrize(
    "label,perm",
    [
        ("2A2", (2, 1)),
        ("2A5", (5, 4, 3, 2, 1)),
        ("2D4", (1, 2, 4, 3)),  # while -w0 is the identity on D4
        ("2D5", (1, 2, 3, 5, 4)),
        ("2E6", (6, 2, 5, 4, 3, 1)),
        ("E6", (1, 2, 3, 4, 5, 6)),  # split: Frobenius acts trivially
    ],
)
def test_twist_aut(label, perm):
    rs = build_root_system(CartanType.from_string(label))
    assert twist_aut(rs).node_permutation == perm


def test_diagram_aut_validation():
    rs = build_root_system(CartanType("E", 6))
    diagram_aut(rs, (6, 2, 5, 4, 3, 1))
    with pytest.raises(ValueError):
        diagram_aut(rs, (2, 1, 3, 4, 5, 6))  # breaks the Cartan matrix
    with pytest.raises(ValueError):
        diagram_aut(rs, (1, 1, 3, 4, 5, 6))  # not a permutation
    assert identity_aut(rs).is_identity


@pytest.mark.parametrize(
    "ambient,nodes,expected",
    [
        ("E6", {3, 4, 5}, ["A3"]),
        ("E6", {2, 3, 4, 5}, ["D4"]),
        ("E6", {1, 3, 4, 5, 6}, ["A5"]),
        ("E6", set(), []),
        ("E6", {1, 3, 5, 6}, ["A2", "A2"]),
        ("E6", {2}, ["A1"]),
        ("E7", {2, 3, 4, 5, 6, 7}, ["D6"]),
        ("E7", {1, 3, 4, 5, 6, 7}, ["A6"]),
        ("E8", {1, 2, 3, 4, 5, 6, 7}, ["E7"]),
        ("E8", {2, 3, 4, 5, 6, 7, 8}, ["D7"]),
        ("F4", {1, 2, 3}, ["B3"]),
        ("F4", {2, 3, 4}, ["C3"]),
        ("F4", {2, 3}, ["B2"]),
        ("F4", {1, 2}, ["A2"]),
        ("F4", {1, 3, 4}, ["A1", "A2"]),
        ("F4", {1, 2, 3, 4}, ["F4"]),
        ("G2", {1}, ["A1"]),
        ("B3", {2, 3}, ["B2"]),
        ("C3", {2, 3}, ["B2"]),
        ("G2", {1, 2}, ["G2"]),
        ("D6", {1, 2, 3, 4}, ["A4"]),
        ("D6", {3, 4, 5, 6}, ["D4"]),
    ],
)
def test_sub_diagram_type(ambient, nodes, expected):
    rs = build_root_system(CartanType.from_string(ambient))
    assert [str(t) for t in sub_diagram_type(rs, nodes)] == expected


@pytest.mark.parametrize(
    "ambient,nodes,expected",
    [
        ("E6", set(), []),
        ("E6", {1, 2, 3, 4, 5, 6}, [[1, 3, 4, 2, 5, 6]]),
        ("E6", {1, 3, 5, 6}, [[1, 3], [5, 6]]),
        ("E6", {2, 3, 5}, [[2], [3], [5]]),
        ("D6", {1, 5, 6}, [[1], [5], [6]]),
        ("D6", {6, 2, 3, 4, 5}, [[2, 3, 4, 5, 6]]),
    ],
)
def test_components(ambient, nodes, expected):
    rs = build_root_system(CartanType.from_string(ambient))
    assert components(rs, nodes) == expected
    with pytest.raises(ValueError, match="not within"):
        components(rs, {0})


def test_sub_diagram_rejects_bad_nodes():
    rs = build_root_system(CartanType("A", 3))
    with pytest.raises(ValueError):
        sub_diagram_type(rs, {0, 1})
    with pytest.raises(ValueError):
        sub_diagram_type(rs, {4})


@pytest.mark.parametrize("label", [f"{s}{n}" for s in "BC" for n in range(2, 7)] + ["F4", "G2"])
def test_sub_diagram_type_of_a_path_interval_has_its_cartan_matrix(label):
    # degrees cannot tell B_k from C_k, the Cartan matrix can: the
    # component's submatrix read along the path, one way or the other
    rs = build_root_system(CartanType.from_string(label))
    for lo in range(1, rs.rank + 1):
        for hi in range(lo, rs.rank + 1):
            nodes = range(lo, hi + 1)
            (ct,) = sub_diagram_type(rs, nodes)
            sub = tuple(tuple(rs.cartan[p - 1][q - 1] for q in nodes) for p in nodes)
            flipped = tuple(row[::-1] for row in sub[::-1])
            assert cartan_matrix(ct) in (sub, flipped), (label, lo, hi)


SUB_DIAGRAM_CATALOG = [
    f"{s}{n}" for s, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)) for n in range(lo, 9)
] + ["E6", "E7", "E8", "F4", "G2"]


@pytest.mark.parametrize("label", SUB_DIAGRAM_CATALOG)
def test_sub_diagram_components_add_up_to_the_subset(label):
    # the components of J partition J, and their positive roots are the
    # ambient positive roots supported on J
    rs = build_root_system(CartanType.from_string(label))
    for k in range(rs.rank + 1):
        for J in itertools.combinations(range(1, rs.rank + 1), k):
            types = sub_diagram_type(rs, J)
            outside = [i - 1 for i in rs.node_set() - set(J)]
            supported = sum(not any(v[i] for i in outside) for v in rs.positive_roots)
            assert sum(ct.rank for ct in types) == k, (label, J)
            assert sum(
                rootsys._POSITIVE_ROOTS[ct.series](ct.rank) for ct in types
            ) == supported, (label, J)


def test_json_serialization():
    rs = build_root_system(CartanType("A", 2))
    doc = root_system_to_json(rs)
    assert doc["type"] == "A2"
    assert doc["cartan"] == [[2, -1], [-1, 2]]
    assert doc["positive_roots"] == [[0, 1], [1, 0], [1, 1]]


def test_e6_against_golden_file():
    import json
    import pathlib

    golden = json.loads(
        (pathlib.Path(__file__).parent / "data" / "e6_root_system.json").read_text()
    )
    doc = root_system_to_json(build_root_system(CartanType("E", 6)))
    assert doc == golden
    # classical anchors of the golden data itself
    assert golden["positive_roots"][-1] == [1, 2, 2, 3, 2, 1]
    assert len(golden["positive_roots"]) == 36


def test_build_is_memoized():
    a = build_root_system(CartanType("D", 4))
    b = build_root_system(CartanType("D", 4))
    assert a is b
