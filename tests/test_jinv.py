import pytest
from hypothesis import given, strategies as st

from magicsq.jinv import (
    JProfile,
    enumerate_admissible,
    has_pinned_chain,
    max_profile,
    profile,
    supported_labels,
    upper_motive_poly,
)
from magicsq.poincare import FlagVariety, conormed_poincare
from magicsq.polyring import IntPoly, divides_semiring, eval_rational
from magicsq.rootsys import CartanType, build_root_system
from magicsq.weyl import quotient_poly

MAX_TABLE = {
    "2x2A2": ((3, 3), (1, 1)),
    "2A5": ((2, 1, 3, 5), (0, 1, 1, 1)),
    "1D6": ((1, 1, 3, 5), (1, 3, 1, 1)),
    "2E6": ((3, 5, 9), (1, 1, 1)),
    "E7": ((1, 3, 5, 9), (1, 1, 1, 1)),
    "E8": ((3, 5, 9, 15), (3, 2, 1, 1)),
}


def test_supported_labels():
    assert set(supported_labels()) == set(MAX_TABLE)


@pytest.mark.parametrize("label", sorted(MAX_TABLE))
def test_max_profile_table(label):
    degrees, caps = MAX_TABLE[label]
    p = max_profile(label)
    assert p.degrees == degrees
    assert p.caps == caps
    assert p.values == caps


@pytest.mark.parametrize("label", ["A1", "2A2", "C3", "F4", "B17"])
def test_omitted_labels_rejected(label):
    with pytest.raises(ValueError):
        max_profile(label)


def test_label_aliases():
    assert max_profile("2.2A2") == max_profile("2x2A2")
    assert max_profile("2*2A2").group_label == "2x2A2"


def test_upper_motive_poly_pinned_values():
    assert upper_motive_poly(profile("2E6", (1, 0, 0))) == IntPoly([1, 0, 0, 1])
    expected = (
        IntPoly([1, 0, 0, 1])
        * IntPoly([1, 0, 0, 0, 0, 1])
        * IntPoly([1] + [0] * 8 + [1])
    )
    assert upper_motive_poly(profile("E7", (0, 1, 1, 1))) == expected
    for label in sorted(MAX_TABLE):
        zero = profile(label, (0,) * len(MAX_TABLE[label][0]))
        assert upper_motive_poly(zero) == IntPoly.one()


def test_upper_motive_poly_agrees_with_rational_route():
    # independent route: expand prod (t^(d 2^j) - 1) / (t^d - 1) by division
    for label in sorted(MAX_TABLE):
        for prof in enumerate_admissible(label):
            nums, dens = [], []
            for d, j in zip(prof.degrees, prof.values):
                nums.append(IntPoly([-1] + [0] * (d * 2**j - 1) + [1]))
                dens.append(IntPoly([-1] + [0] * (d - 1) + [1]))
            assert upper_motive_poly(prof) == eval_rational(nums, dens)


def test_enumerate_2e6():
    values = [p.values for p in enumerate_admissible("2E6")]
    assert values == [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)]
    assert has_pinned_chain("2E6")


def test_enumerate_e7():
    values = [p.values for p in enumerate_admissible("E7")]
    chains = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)]
    expected = sorted((j1, *rest) for j1 in (0, 1) for rest in chains)
    assert values == expected
    assert len(values) == 8
    assert has_pinned_chain("E7")


@pytest.mark.parametrize(
    "label,count",
    [("2x2A2", 4), ("2A5", 8), ("1D6", 32), ("E8", 48)],
)
def test_enumerate_box_only_labels(label, count):
    profiles = enumerate_admissible(label)
    assert len(profiles) == count
    assert not has_pinned_chain(label)
    values = [p.values for p in profiles]
    assert values == sorted(values)  # lexicographic stream


def test_max_profile_tops_enumeration():
    for label in sorted(MAX_TABLE):
        admissible = enumerate_admissible(label)
        assert admissible[-1] == max_profile(label)


def test_profile_validation():
    with pytest.raises(ValueError):
        profile("2E6", (2, 0, 0))  # above cap
    with pytest.raises(ValueError):
        profile("2E6", (0, 1, 0))  # chain violation
    with pytest.raises(ValueError):
        profile("E7", (0, 0, 1, 0))  # chain violation in positions 2..4
    with pytest.raises(ValueError):
        profile("E7", (1, 1, 1))  # wrong arity
    with pytest.raises(ValueError):
        profile("2A5", (1, 0, 0, 0))  # k1 = 0 forces j1 = 0
    # j1 is unchained for E7: (0,1,1,1) and (1,0,0,0) both admissible
    profile("E7", (0, 1, 1, 1))
    profile("E7", (1, 0, 0, 0))


def test_direct_jprofile_construction_checks_lengths():
    with pytest.raises(ValueError):
        JProfile("2E6", (3, 5, 9), (1, 1), (0, 0, 0))
    with pytest.raises(ValueError):
        JProfile("2E6", (3, 5, 0), (1, 1, 1), (0, 0, 0))


def test_all_zero_caps_admit_only_the_zero_vector():
    zero = JProfile("2E6", (3, 5, 9), (0, 0, 0), (0, 0, 0))
    assert upper_motive_poly(zero) == IntPoly.one()
    with pytest.raises(ValueError):
        JProfile("2E6", (3, 5, 9), (0, 0, 0), (1, 0, 0))


@given(st.sampled_from(sorted(MAX_TABLE)))
def test_degree_and_value_identities(label):
    # deg = sum d_i (2^j_i - 1); value at 1 = prod 2^j_i
    for prof in enumerate_admissible(label):
        p = upper_motive_poly(prof)
        assert p.degree == sum(
            d * (2**j - 1) for d, j in zip(prof.degrees, prof.values)
        )
        value = 1
        for j in prof.values:
            value *= 2**j
        assert p(1) == value
        assert all(c >= 0 for c in p.coeffs)


def _non_dividing(borel, label):
    """Value vectors of the admissible profiles whose upper polynomial does
    not divide ``borel`` in N0[t]."""
    return [p.values for p in enumerate_admissible(label)
            if not divides_semiring(borel, upper_motive_poly(p))[0]]


@pytest.mark.parametrize("label, count", [("1D6", 32), ("E7", 8), ("E8", 48)])
def test_upper_motive_divides_the_borel_polynomial(label, count):
    # Petrov-Semenov-Zainoulline (Ann. Sci. ENS 41, 2008, Thm 5.13): M(G/B)
    # is a sum of Tate twists of the upper motive R_2(G), so its polynomial
    # divides P(G/B) in N0[t]
    borel = quotient_poly(build_root_system(CartanType.from_string(label)), ())
    assert len(enumerate_admissible(label)) == count
    assert _non_dividing(borel, label) == []


@pytest.mark.parametrize("label, split_misses", [
    ("2A5", [(0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 1)]),
    ("2E6", [(1, 1, 0), (1, 1, 1)]),
])
def test_upper_motive_and_the_quasi_split_borel_polynomial(label, split_misses):
    # An identity observed on this catalog, not a theorem quoted from the
    # sources: every admissible profile of these outer labels divides the
    # conormed Borel polynomial (every node circled) in N0[t], while some
    # miss the split one.  2x2A2 needs the twist of a product type.
    ctype = CartanType.from_string(label)
    rs = build_root_system(ctype)
    conormed = conormed_poincare(FlagVariety(ctype, rs.node_set()))
    assert _non_dividing(conormed, label) == []
    assert _non_dividing(quotient_poly(rs, ()), label) == split_misses
