"""Polynomial ring: exact arithmetic, rational evaluation, divisibility.

Expected coefficient tuples for the two conormed flag polynomials and
the degree-33 product were computed independently by expanding the
factored forms with a computer algebra system and are frozen here.
"""

import pytest
from hypothesis import given, strategies as st

from magicsq.polyring import (
    MAX_DEGREE,
    InexactDivision,
    IntPoly,
    divides_ring,
    divides_semiring,
    eval_rational,
    format_poly,
    from_json_dict,
    parse_poly,
    to_json_dict,
)

ONE_PLUS_T3 = IntPoly([1, 0, 0, 1])

# (t^8-1)(t^12-1)(t^9+1) / (t-1)(t^4-1)(t^3+1)
PN_X2 = (1, 1, 1, 0, 1, 1, 2, 1, 1, 1, 2, 2, 1, 1, 1, 2, 1, 1, 0, 1, 1, 1)
# (t^8-1)(t^12-1)(t^5+1)(t^9+1) / (t-1)(t+1)(t^4-1)(t^4+1)
PN_X16 = (1, 0, 1, 0, 1, 1, 1, 1, 1, 2, 1, 2, 0, 2, 1, 2, 1, 1, 1, 1, 1, 0, 1, 0, 1)
# Z[t] quotients by 1 + t^3; both carry negative coefficients
QUOT_X2 = (1, 1, 1, -1, 0, 0, 3, 1, 1, -2, 1, 1, 3, 0, 0, -1, 1, 1, 1)
QUOT_X16 = (1, 0, 1, -1, 1, 0, 2, 0, 1, 0, 1, 1, 0, 1, 0, 2, 0, 1, -1, 1, 0, 1)
# (1+t^9)(1 + t + t^4 + t^6 + t^8 + t^12 + t^16 + t^18 + t^20 + t^23 + t^24)
DEG33_BLOCK = (
    1, 1, 0, 0, 1, 0, 1, 0, 1, 1, 1, 0, 1, 1, 0, 1, 1,
    1, 1, 0, 1, 1, 0, 1, 1, 1, 0, 1, 0, 1, 0, 0, 1, 1,
)


def test_canonical_form():
    assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPoly([0, 0, 0]).coeffs == ()
    assert IntPoly().is_zero
    assert IntPoly().degree == -1
    assert IntPoly([5]).degree == 0


def test_basic_products():
    assert (ONE_PLUS_T3 * IntPoly([1, 0, 0, 0, 0, 1])).coeffs == (
        1, 0, 0, 1, 0, 1, 0, 0, 1,
    )
    assert (IntPoly([1, 1]) * IntPoly()).is_zero
    deg9 = IntPoly([1] + [0] * 8 + [1])
    deg24 = parse_poly("1+t+t^4+t^6+t^8+t^12+t^16+t^18+t^20+t^23+t^24")
    assert (deg9 * deg24).coeffs == DEG33_BLOCK
    assert (deg9 * deg24).degree == 33


def test_eval_rational_conormed_instances():
    p2 = eval_rational(
        [parse_poly("t^8-1"), parse_poly("t^12-1"), parse_poly("t^9+1")],
        [parse_poly("t-1"), parse_poly("t^4-1"), parse_poly("t^3+1")],
    )
    assert p2.coeffs == PN_X2
    assert p2.degree == 21
    assert p2(1) == 24
    assert all(c >= 0 for c in p2.coeffs)

    p16 = eval_rational(
        [parse_poly(s) for s in ("t^8-1", "t^12-1", "t^5+1", "t^9+1")],
        [parse_poly(s) for s in ("t-1", "t+1", "t^4-1", "t^4+1")],
    )
    assert p16.coeffs == PN_X16
    assert p16.degree == 24
    assert p16(1) == 24
    assert all(c >= 0 for c in p16.coeffs)


def test_eval_rational_trivial_and_errors():
    assert eval_rational([parse_poly("t^2-1")], [parse_poly("t-1")]) == IntPoly([1, 1])
    with pytest.raises(InexactDivision) as exc:
        eval_rational([parse_poly("t^2+1")], [parse_poly("t-1")])
    assert exc.value.remainder is not None
    # the message prints plain numbers; the remainder keeps its Fractions
    assert str(exc.value).endswith("remainder has coefficients 2")
    assert repr(exc.value.remainder) == "(Fraction(2, 1),)"
    # remainder zero but the quotient leaves Z[t]
    with pytest.raises(InexactDivision):
        eval_rational([parse_poly("t+1")], [IntPoly([2])])
    with pytest.raises(ZeroDivisionError):
        eval_rational([IntPoly([1])], [IntPoly()])


def test_parse_poly_exponent_cap():
    assert MAX_DEGREE > 120  # the E8 Borel variety, the largest degree in use
    assert parse_poly(f"1+t^{MAX_DEGREE}").degree == MAX_DEGREE
    with pytest.raises(ValueError, match="maximum degree"):
        parse_poly(f"t^{MAX_DEGREE + 1}")
    # refused from the exponent alone, before a coefficient list exists
    with pytest.raises(ValueError, match="maximum degree"):
        parse_poly("t^1000000000-1")


def test_eval_rational_degree_cap():
    top = IntPoly.monomial(MAX_DEGREE)
    assert eval_rational([top], [IntPoly.monomial(1)]) == IntPoly.monomial(MAX_DEGREE - 1)
    with pytest.raises(ValueError, match="numerator product has degree"):
        eval_rational([top, parse_poly("1+t")], [IntPoly.one()])
    with pytest.raises(ValueError, match="denominator product has degree"):
        eval_rational([top], [top, parse_poly("t")])


def test_divides_ring():
    ok, quot = divides_ring(IntPoly(PN_X2), ONE_PLUS_T3)
    assert ok and quot.coeffs == QUOT_X2
    ok, quot = divides_ring(IntPoly(PN_X16), ONE_PLUS_T3)
    assert ok and quot.coeffs == QUOT_X16
    assert divides_ring(IntPoly([1, 0, 0, 0, 0, 1]), ONE_PLUS_T3) == (False, None)
    p = parse_poly("3-2t+7t^4")
    assert divides_ring(p, p) == (True, IntPoly.one())
    with pytest.raises(ZeroDivisionError):
        divides_ring(p, IntPoly())


def test_divides_semiring():
    # divisible in Z[t], not in N0[t]: the load-bearing dichotomy
    assert divides_semiring(IntPoly(PN_X2), ONE_PLUS_T3) == (False, None)
    assert divides_semiring(IntPoly(PN_X16), ONE_PLUS_T3) == (False, None)
    prod = ONE_PLUS_T3 * IntPoly([1, 0, 0, 0, 0, 1])
    ok, quot = divides_semiring(prod, ONE_PLUS_T3)
    assert ok and quot == IntPoly([1, 0, 0, 0, 0, 1])


def test_divides_semiring_shift_normalization():
    # q = t^2 (1 + t^3), p = q * t
    q = IntPoly([0, 0, 1, 0, 0, 1])
    p = IntPoly([0, 0, 0, 1, 0, 0, 1])
    ok, quot = divides_semiring(p, q)
    assert ok and quot == IntPoly([0, 1])
    assert divides_semiring(IntPoly([0, 1]), IntPoly([0, 0, 1])) == (False, None)


def test_divides_semiring_preconditions():
    with pytest.raises(ZeroDivisionError):
        divides_semiring(IntPoly([1]), IntPoly())
    with pytest.raises(ValueError):
        divides_semiring(IntPoly([1]), IntPoly([-1, 1]))
    # zero dividend divides trivially
    assert divides_semiring(IntPoly(), ONE_PLUS_T3) == (True, IntPoly())


def test_is_palindromic():
    assert ONE_PLUS_T3.is_palindromic()
    assert not parse_poly("1+t+t^3").is_palindromic()
    assert IntPoly().is_palindromic()
    assert IntPoly([7]).is_palindromic()


def test_parse_and_format_round_trip():
    for text in ("t^8-1", "1+t^3", "2", "t", "3*t^2 - t + 1", "-t+1"):
        p = parse_poly(text)
        assert parse_poly(format_poly(p)) == p
    with pytest.raises(ValueError):
        parse_poly("t^-1")
    with pytest.raises(ValueError):
        parse_poly("")
    with pytest.raises(ValueError):
        parse_poly("x+1")


def test_json_round_trip():
    p = IntPoly([10**30, -5, 0, 3])
    d = to_json_dict(p)
    assert d["coeffs"][0] == str(10**30)
    assert from_json_dict(d) == p


def test_shift_and_monomial():
    assert IntPoly.monomial(3, 2) == IntPoly([0, 0, 0, 2])
    assert IntPoly([1, 1]).shift(2) == IntPoly([0, 0, 1, 1])
    assert IntPoly([0, 0, 1, 1]).shift(-2) == IntPoly([1, 1])
    with pytest.raises(ValueError):
        IntPoly([1, 1]).shift(-1)


polys = st.lists(st.integers(-9, 9), max_size=8).map(IntPoly)
nonneg_polys = st.lists(st.integers(0, 5), min_size=1, max_size=8).map(IntPoly)
semiring_divisors = st.tuples(
    st.integers(1, 5), st.lists(st.integers(0, 5), max_size=5)
).map(lambda t: IntPoly([t[0], *t[1]]))


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a - b) + b == a


@given(semiring_divisors, nonneg_polys)
def test_semiring_round_trip(q, r):
    ok, quot = divides_semiring(q * r, q)
    assert ok and quot == r


@given(polys, semiring_divisors)
def test_semiring_implies_ring(p, q):
    semi, semi_quot = divides_semiring(p, q)
    if semi:
        ring, ring_quot = divides_ring(p, q)
        assert ring and ring_quot == semi_quot
        assert q * semi_quot == p


@given(polys, semiring_divisors)
def test_eval_rational_succeeds_iff_divisible(p, q):
    divisible, _ = divides_ring(p, q)
    if divisible:
        assert eval_rational([p], [q]) * q == p
    else:
        with pytest.raises(InexactDivision):
            eval_rational([p], [q])
