import collections

import pytest
from hypothesis import given, strategies as st

from magicsq.qform import (
    OCTONION,
    QUATERNION,
    CompositionAlgebraR,
    DiagFormR,
    af_killing_form_e7,
    killing_grid,
    norm_form,
    sign_form,
)


def test_norm_forms():
    dq = CompositionAlgebraR(QUATERNION, True)
    sq = CompositionAlgebraR(QUATERNION, False)
    do = CompositionAlgebraR(OCTONION, True)
    so = CompositionAlgebraR(OCTONION, False)
    assert norm_form(dq) == DiagFormR(4, 0)
    assert norm_form(dq, pure_part=True) == DiagFormR(3, 0)
    assert norm_form(do, pure_part=True) == DiagFormR(7, 0)
    assert norm_form(sq) == DiagFormR(2, 2)
    assert norm_form(so) == DiagFormR(4, 4)
    assert norm_form(so).signature == 0
    assert norm_form(so).witt_index == 4
    assert norm_form(so, pure_part=True) == DiagFormR(3, 4)


def test_form_operations():
    f = sign_form((1, -1)) + sign_form((1,))
    assert f.signature == 1 and f.dim == 3
    assert DiagFormR(2, 0).tensor(DiagFormR(0, 1)) == DiagFormR(0, 2)
    assert DiagFormR(7, 0).scaled(-1) == DiagFormR(0, 7)
    assert DiagFormR(7, 0).scaled(+1) == DiagFormR(7, 0)
    assert 3 * DiagFormR(1, 2) == DiagFormR(3, 6)
    assert DiagFormR(7, 0).witt_index == 0
    assert DiagFormR(1, 1).witt_index == 1


def test_sign_form_validation():
    with pytest.raises(ValueError):
        sign_form((1, 0))
    with pytest.raises(ValueError):
        DiagFormR(-1, 0)
    with pytest.raises(ValueError):
        CompositionAlgebraR("sedenion", True)


def test_killing_form_dimension_is_always_133():
    grid = killing_grid()
    assert len(grid) == 32
    assert all(form.dim == 133 for *_cfg, form in grid)


def test_killing_form_compact_case():
    form = af_killing_form_e7(
        CompositionAlgebraR(QUATERNION, True),
        CompositionAlgebraR(OCTONION, True),
        (1, 1, 1),
    )
    assert form == DiagFormR(0, 133)
    assert form.signature == -133
    assert form.witt_index == 0
    assert form.is_anisotropic


def test_killing_form_split_inputs_are_isotropic():
    for gamma in [(1, 1, 1), (1, -1, 1), (-1, -1, -1), (1, 1, -1)]:
        form = af_killing_form_e7(
            CompositionAlgebraR(QUATERNION, False),
            CompositionAlgebraR(OCTONION, False),
            gamma,
        )
        assert form.witt_index > 0


def test_killing_form_gamma_signs_enter_through_pairwise_products():
    q = CompositionAlgebraR(QUATERNION, True)
    o = CompositionAlgebraR(OCTONION, True)
    # flipping every gamma sign leaves the pairwise products unchanged
    assert af_killing_form_e7(q, o, (1, 1, 1)) == af_killing_form_e7(q, o, (-1, -1, -1))
    mixed = af_killing_form_e7(q, o, (1, 1, -1))
    # two of the three products turn negative: 64 entries flip sign before
    # the global negation
    assert mixed == DiagFormR(64, 69)
    assert mixed.witt_index == 64


# dim k of a maximal compact subalgebra of each real form of E7 (Helgason,
# Differential Geometry, Lie Groups, and Symmetric Spaces, 1978, ch. X):
# E V su(8), E VI so(12) + su(2), E VII e6 + R, and the compact form
E7_MAXIMAL_COMPACT_DIMS = {"E7(7)": 63, "E7(-5)": 66 + 3, "E7(-25)": 78 + 1, "E7(-133)": 133}


def test_killing_form_signatures_are_the_characters_of_the_real_forms_of_e7():
    # the Killing form is negative on k and positive on p, so its signature
    # is the character dim p - dim k = 133 - 2 dim k of the real form
    characters = {
        name: 133 - 2 * dim_k for name, dim_k in E7_MAXIMAL_COMPACT_DIMS.items()
    }
    assert characters == {"E7(7)": 7, "E7(-5)": -5, "E7(-25)": -25, "E7(-133)": -133}
    by_algebras = collections.defaultdict(collections.Counter)
    for q_definite, o_definite, gamma, form in killing_grid():
        by_algebras[q_definite, o_definite][form.signature] += 1
        if form.signature == -133:
            assert gamma in {(1, 1, 1), (-1, -1, -1)}
    assert by_algebras == {
        (False, False): {7: 8},
        (True, False): {-5: 8},
        (False, True): {-25: 8},
        (True, True): {-5: 6, -133: 2},
    }
    assert {s for counts in by_algebras.values() for s in counts} == set(characters.values())


def test_killing_form_argument_validation():
    q = CompositionAlgebraR(QUATERNION, True)
    o = CompositionAlgebraR(OCTONION, True)
    with pytest.raises(ValueError):
        af_killing_form_e7(o, o, (1, 1, 1))
    with pytest.raises(ValueError):
        af_killing_form_e7(q, q, (1, 1, 1))
    with pytest.raises(ValueError):
        af_killing_form_e7(q, o, (1, 0, 1))


forms = st.builds(DiagFormR, st.integers(0, 12), st.integers(0, 12))


@given(forms, forms)
def test_signature_additive_under_perp(f, g):
    assert (f + g).signature == f.signature + g.signature
    assert (f + g).dim == f.dim + g.dim


@given(forms, forms)
def test_signature_multiplicative_under_tensor(f, g):
    assert f.tensor(g).signature == f.signature * g.signature
    assert f.tensor(g).dim == f.dim * g.dim


@given(forms)
def test_anisotropy_criterion(f):
    assert f.is_anisotropic == (f.witt_index == 0)
    assert f.is_anisotropic == (abs(f.signature) == f.dim)
