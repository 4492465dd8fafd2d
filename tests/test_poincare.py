"""Flag variety Poincare polynomials against independently expanded forms.

The frozen coefficient tuples were produced by expanding the quotient of
degree products in a computer algebra system.  The closed form computes
them; the orbit walk of W must agree with it on every small quotient.
"""

import itertools

import pytest

from magicsq.poincare import (
    FlagVariety,
    NotSpecifiedError,
    conormed_poincare,
    dim_flag,
    poincare_poly,
)
from magicsq.polyring import IntPoly, eval_rational
from magicsq.rootsys import CartanType, build_root_system, identity_aut, twist_aut
from magicsq.weyl import (
    coset_length_counts,
    fundamental_degrees,
    length_counts_to_poly,
    parabolic_order,
    quotient_poly,
    weyl_order,
)

from _reference import (
    coefficient,
    orthogonal_flag_count,
    sigma_fixed_reference,
    sigma_stable_varieties,
    symplectic_flag_count,
    unitary_flag_count,
)

P_X2_SPLIT = (1, 1, 1, 2, 3, 3, 4, 5, 5, 5, 6, 6, 5, 5, 5, 4, 3, 3, 2, 1, 1, 1)
P_X16_SPLIT = (
    1, 2, 3, 4, 7, 9, 11, 13, 17, 18, 19, 20, 22,
    20, 19, 18, 17, 13, 11, 9, 7, 4, 3, 2, 1,
)
P_Y1 = (
    1, 1, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 6, 6, 7,
    7, 6, 6, 6, 6, 5, 5, 4, 4, 3, 3, 2, 2, 1, 1, 1, 1,
)
PN_X2 = (1, 1, 1, 0, 1, 1, 2, 1, 1, 1, 2, 2, 1, 1, 1, 2, 1, 1, 0, 1, 1, 1)
PN_X16 = (1, 0, 1, 0, 1, 1, 1, 1, 1, 2, 1, 2, 0, 2, 1, 2, 1, 1, 1, 1, 1, 0, 1, 0, 1)


def _fv(label, nodes):
    return FlagVariety(CartanType.from_string(label), frozenset(nodes))


def test_projective_line():
    assert poincare_poly(_fv("A1", {1})) == IntPoly([1, 1])


def test_e6_x2():
    p = poincare_poly(_fv("E6", {2}))
    assert p.coeffs == P_X2_SPLIT
    assert p.degree == 21
    assert p(1) == 72
    assert p.is_palindromic()


def test_e6_x16():
    p = poincare_poly(_fv("E6", {1, 6}))
    assert p.coeffs == P_X16_SPLIT
    assert p.degree == 24
    assert p(1) == 270


def test_e7_y1():
    p = poincare_poly(_fv("E7", {1}))
    assert p.coeffs == P_Y1
    assert p.degree == 33
    assert p(1) == 126


@pytest.mark.parametrize(
    "label,nodes,dim",
    [
        ("E6", {2}, 21),
        ("E6", {1, 6}, 24),
        ("E7", {1}, 33),
        ("A1", {1}, 1),
        ("E8", {8}, 57),
    ],
)
def test_dim_flag(label, nodes, dim):
    fv = _fv(label, nodes)
    assert dim_flag(fv) == dim
    assert poincare_poly(fv).degree == dim


@pytest.mark.parametrize("label", ["A2", "A3", "B3", "C3", "D4", "F4", "G2", "E6"])
def test_borel_formula_matches_enumeration(label):
    # cross-algorithm: degree-product expansion vs explicit orbit walk of W
    rs = build_root_system(CartanType.from_string(label))
    fv = _fv(label, set(range(1, rs.rank + 1)))
    by_formula = poincare_poly(fv)
    by_walk = length_counts_to_poly(coset_length_counts(rs, ()))
    assert by_formula == by_walk
    assert by_formula.degree == rs.num_positive
    assert by_formula.is_palindromic()


CROSS_CHECK_TYPES = [
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "C4",
    "D4", "D5", "F4", "G2", "E6", "E7", "E8",
]
CROSS_CHECK_MAX_INDEX = 5_000


def _small_parabolics(rs, max_index):
    for k in range(rs.rank + 1):
        for levi in itertools.combinations(range(1, rs.rank + 1), k):
            if weyl_order(rs) // parabolic_order(rs, levi) <= max_index:
                yield levi


@pytest.mark.parametrize("label", CROSS_CHECK_TYPES)
def test_formula_matches_orbit_walk(label):
    # every parabolic quotient of index <= 5000 (234 over these types)
    rs = build_root_system(CartanType.from_string(label))
    levis = list(_small_parabolics(rs, CROSS_CHECK_MAX_INDEX))
    assert levis
    for levi in levis:
        by_walk = length_counts_to_poly(coset_length_counts(rs, levi))
        assert quotient_poly(rs, levi) == by_walk, (label, levi)


@pytest.mark.parametrize(
    "circled,count,dim",
    [
        ({3, 5}, 2_419_200, 110),  # beyond the orbit walk's 2e6 limit
        (set(range(1, 8)), 348_364_800, 119),  # W/W_{8}: `weyl cosets --parabolic 8`
    ],
)
def test_large_e8_quotients(circled, count, dim):
    p = poincare_poly(_fv("E8", circled))
    assert p(1) == count
    assert p.degree == dim == dim_flag(_fv("E8", circled))
    assert p.is_palindromic()
    # one length-1 coset per simple reflection outside the Levi
    assert coefficient(p, 1) == len(circled)
    assert all(c > 0 for c in p.coeffs)


def test_small_quotient_of_a_large_group():
    # A95 X_{1,95}, the point-in-hyperplane flags of P^95: the product of
    # [d]_t over the degrees 2..96 of W has degree 4560, above MAX_DEGREE,
    # but the Levi A93 shares every degree but 95 and 96
    fv = _fv("A95", {1, 95})
    p = poincare_poly(fv)
    assert p.degree == dim_flag(fv) == 189
    assert p(1) == 96 * 95
    assert p.is_palindromic()
    # the split polynomial and its conormed twin both come out
    assert conormed_poincare(_fv("2A95", {1, 95})).degree == 189


def test_quotient_identity_for_proper_parabolic():
    # P(W) = P(W^J) * P(W_J) with lengths adding
    rs = build_root_system(CartanType("E", 6))
    borel = poincare_poly(_fv("E6", {1, 2, 3, 4, 5, 6}))
    levi_factor = IntPoly.one()
    for d in fundamental_degrees(build_root_system(CartanType("A", 5))):
        levi_factor = levi_factor * IntPoly((1,) * d)
    assert poincare_poly(_fv("E6", {2})) * levi_factor == borel


@pytest.mark.parametrize("label", ["E6", "E7", "F4"])
def test_maximal_flags_palindromic(label):
    ct = CartanType.from_string(label)
    for i in range(1, ct.rank + 1):
        p = poincare_poly(_fv(label, {i}))
        assert p.is_palindromic()
        assert coefficient(p, 0) == 1
        assert coefficient(p, p.degree) == 1


def test_flag_variety_validation():
    with pytest.raises(ValueError):
        _fv("E6", set())
    with pytest.raises(ValueError):
        _fv("E6", {7})


def test_conormed_pinned_instances():
    p2 = conormed_poincare(_fv("2E6", {2}))
    assert p2.coeffs == PN_X2
    p16 = conormed_poincare(_fv("2E6", {1, 6}))
    assert p16.coeffs == PN_X16
    assert p2.degree == 21 and p16.degree == 24
    assert p2(1) == 24 and p16(1) == 24


def test_conormed_unsupported_instances():
    with pytest.raises(NotSpecifiedError, match=r"not stable under the diagram twist \(1 <-> 6\)"):
        conormed_poincare(_fv("2E6", {1}))
    with pytest.raises(NotSpecifiedError, match=r"needs an outer form"):
        conormed_poincare(_fv("E6", {2}))  # inner form: no twist to fix cells
    with pytest.raises(NotSpecifiedError, match=r"needs an outer form"):
        conormed_poincare(_fv("E7", {1}))


TWISTED_TYPES = ["2A2", "2A3", "2A4", "2A5", "2D4", "2D5", "2E6"]
TWISTED_MAX_INDEX = 6_000


def test_conormed_matches_permutation_reference():
    cases = [
        fv for label in TWISTED_TYPES for fv in sigma_stable_varieties(label, TWISTED_MAX_INDEX)
    ]
    assert len(cases) == 42
    for fv in cases:
        assert conormed_poincare(fv) == sigma_fixed_reference(fv), fv


# F_2-points of every sigma-stable variety of 2A2..2A6: flags of totally
# isotropic subspaces of F_4^(n+1) under sum x_i conj(x_i)
UNITARY_FLAG_COUNTS = {
    ("2A2", (1, 2)): 9,
    ("2A3", (2,)): 27,
    ("2A3", (1, 3)): 45,
    ("2A3", (1, 2, 3)): 135,
    ("2A4", (1, 4)): 165,
    ("2A4", (2, 3)): 297,
    ("2A4", (1, 2, 3, 4)): 1485,
    ("2A5", (3,)): 891,  # 3 * 9 * 33 maximal totally isotropic subspaces
    ("2A5", (1, 5)): 693,
    ("2A5", (2, 4)): 6237,
    ("2A5", (1, 3, 5)): 18711,
    ("2A5", (2, 3, 4)): 18711,
    ("2A5", (1, 2, 4, 5)): 31185,
    ("2A5", (1, 2, 3, 4, 5)): 93555,
    ("2A6", (1, 6)): 2709,
    ("2A6", (2, 5)): 89397,
    ("2A6", (3, 4)): 38313,
    ("2A6", (1, 2, 5, 6)): 446985,
    ("2A6", (1, 3, 4, 6)): 804573,
    ("2A6", (2, 3, 4, 5)): 804573,
    ("2A6", (1, 2, 3, 4, 5, 6)): 4022865,
}


def test_conormed_counts_the_points_of_the_unitary_flag_varieties():
    cases = [
        fv
        for label in ("2A2", "2A3", "2A4", "2A5", "2A6")
        for fv in sigma_stable_varieties(label, 10**6)
    ]
    assert sorted((str(fv.ambient), tuple(sorted(fv.parabolic_type))) for fv in cases) == sorted(
        UNITARY_FLAG_COUNTS
    )
    for fv in cases:
        circled = tuple(sorted(fv.parabolic_type))
        points = unitary_flag_count(fv.ambient.rank, circled)
        assert points == UNITARY_FLAG_COUNTS[str(fv.ambient), circled]
        assert conormed_poincare(fv)(2) == points, fv


# F_2-points of every sigma-stable variety of 2D4 and 2D5: flags of totally
# singular subspaces of a minus-type quadratic form on F_2^(2n), node
# i <= n - 2 naming dimension i and the pair {n - 1, n} dimension n - 1
ORTHOGONAL_FLAG_COUNTS = {
    ("2D4", (1,)): 119,  # 17 * 7 singular points
    ("2D4", (2,)): 1071,
    ("2D4", (1, 2)): 3213,
    ("2D4", (3, 4)): 765,  # 5 * 9 * 17 maximal totally singular subspaces
    ("2D4", (1, 3, 4)): 5355,
    ("2D4", (2, 3, 4)): 5355,
    ("2D4", (1, 2, 3, 4)): 16065,
    ("2D5", (1,)): 495,  # 33 * 15 singular points
    ("2D5", (2,)): 19635,
    ("2D5", (3,)): 75735,
    ("2D5", (1, 2)): 58905,
    ("2D5", (1, 3)): 530145,
    ("2D5", (2, 3)): 530145,
    ("2D5", (4, 5)): 25245,  # 5 * 9 * 17 * 33 maximal totally singular subspaces
    ("2D5", (1, 2, 3)): 1590435,
    ("2D5", (1, 4, 5)): 378675,
    ("2D5", (2, 4, 5)): 883575,
    ("2D5", (3, 4, 5)): 378675,
    ("2D5", (1, 2, 4, 5)): 2650725,
    ("2D5", (1, 3, 4, 5)): 2650725,
    ("2D5", (2, 3, 4, 5)): 2650725,
    ("2D5", (1, 2, 3, 4, 5)): 7952175,
}


def test_conormed_counts_the_points_of_the_orthogonal_flag_varieties():
    # 2D4 is the only check of the sign on one degree 2m of 2D_2m that no
    # 2A_n reaches
    cases = [fv for label in ("2D4", "2D5") for fv in sigma_stable_varieties(label, 10**6)]
    assert sorted((str(fv.ambient), tuple(sorted(fv.parabolic_type))) for fv in cases) == sorted(
        ORTHOGONAL_FLAG_COUNTS
    )
    for fv in cases:
        circled = tuple(sorted(fv.parabolic_type))
        points = orthogonal_flag_count(fv.ambient.rank, circled)
        assert points == ORTHOGONAL_FLAG_COUNTS[str(fv.ambient), circled]
        assert conormed_poincare(fv)(2) == points, fv


def test_split_counts_are_the_points_of_the_symplectic_flag_varieties():
    # the only point count of a non-simply-laced quotient; W(B_n) = W(C_n),
    # so the same count checks B_n's closed form
    for n in (2, 3):
        for k in range(1, n + 1):
            for circled in itertools.combinations(range(1, n + 1), k):
                points = symplectic_flag_count(n, circled)
                for family in ("C", "B"):
                    assert poincare_poly(_fv(f"{family}{n}", circled))(3) == points, circled
    # Borel: (3^4 - 1) / 2 lines, then 4 in each line's perp mod the line
    assert symplectic_flag_count(2, (1, 2)) == 40 * 4 == 160
    assert symplectic_flag_count(3, (1, 2, 3)) == 364 * 40 * 4 == 58240


def test_twisted_quotient_with_the_identity_is_the_split_one():
    # sigma = 1 fixes every rep, and every factor is t^d - 1
    for label in ("A4", "D5", "E6", "B3", "G2"):
        rs = build_root_system(CartanType.from_string(label))
        for levi in _small_parabolics(rs, 10**6):
            assert quotient_poly(rs, levi, identity_aut(rs)) == quotient_poly(rs, levi), levi


def test_twisted_quotient_refuses_a_parabolic_sigma_moves():
    rs = build_root_system(CartanType.from_string("2E6"))
    with pytest.raises(ValueError, match=r"does not stabilize the parabolic nodes \[1, 2\]"):
        quotient_poly(rs, {1, 2}, twist_aut(rs))


# Steinberg: the degree-d invariant of W is an eigenvector of sigma with
# eigenvalue eps_d; the eps_d = -1 degrees are listed here.
NEGATIVE_EPSILON_DEGREES = {
    "2A2": [3], "2A3": [3], "2A4": [3, 5], "2A5": [3, 5],
    "2D4": [4], "2D5": [5], "2E6": [5, 9],
}


@pytest.mark.parametrize("label", sorted(NEGATIVE_EPSILON_DEGREES))
def test_conormed_borel_matches_steinberg(label):
    # |G(F_q)/B(F_q)| = prod (q^d - eps_d) / prod over sigma-orbits O of
    # nodes of (q^|O| - 1), the quasi-split torus being a product of
    # restrictions of scalars
    rs = build_root_system(CartanType.from_string(label))
    sigma = twist_aut(rs)
    negative = list(NEGATIVE_EPSILON_DEGREES[label])
    num = []
    for d in fundamental_degrees(rs):
        eps = 1
        if d in negative:  # once only: 2D4 has two degree-4 invariants
            negative.remove(d)
            eps = -1
        num.append(IntPoly([-eps] + [0] * (d - 1) + [1]))
    orbits = {frozenset({i, sigma(i)}) for i in range(1, rs.rank + 1)}
    den = [IntPoly([-1] + [0] * (len(o) - 1) + [1]) for o in orbits]
    borel = conormed_poincare(_fv(label, range(1, rs.rank + 1)))
    assert borel == eval_rational(num, den)
    if label == "2E6":
        assert borel(1) == 1152  # |W(F4)|: sigma-fixed points of W(E6)
