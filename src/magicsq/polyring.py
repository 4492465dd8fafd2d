"""Exact arithmetic for univariate integer polynomials.

A polynomial is an immutable sequence of Python int coefficients indexed
by exponent: ``IntPoly([1, 0, 0, 1])`` is 1 + t^3.  Trailing zeros are
stripped, the zero polynomial has an empty coefficient tuple, and all
arithmetic is exact (no overflow, no rounding).

Beyond ring arithmetic the module decides two divisibility questions
that must stay separate:

* ``divides_ring``     -- divisibility in Z[t];
* ``divides_semiring`` -- divisibility in N0[t]: the quotient must have
  nonnegative coefficients.  A polynomial can divide in Z[t] while no
  nonnegative quotient exists, and downstream consumers rely on exactly
  that gap.

``divides_semiring`` requires a nonzero divisor with nonnegative
coefficients.  A quotient in Z[t] is unique, so it is the only candidate
quotient, and the semiring decision reduces to one exact division plus a
sign scan.
It answers "no" without dividing when p has a negative coefficient: a
product q*r of polynomials with nonnegative coefficients has none.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence


# Largest degree parse_poly accepts and eval_rational takes for a
# denominator or gives a quotient: far above any degree the commands need
# (120, the E8 Borel variety), low enough that no input allocates or
# divides without bound.
MAX_DEGREE = 4096


class InexactDivision(ArithmeticError):
    """Polynomial quotient left Z[t] (nonzero remainder or fractional quotient)."""

    def __init__(self, message: str, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class IntPoly:
    """Immutable polynomial in one variable t over the integers."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = tuple(coeffs)
        for c in cs:
            if c.__class__ is not int and not isinstance(c, int):
                raise TypeError(f"integer coefficient expected, got {c!r}")
        n = len(cs)
        while n and cs[n - 1] == 0:
            n -= 1
        self._coeffs = cs[:n]

    @classmethod
    def zero(cls) -> "IntPoly":
        return cls()

    @classmethod
    def one(cls) -> "IntPoly":
        return cls((1,))

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> "IntPoly":
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        return cls((0,) * exponent + (coefficient,))

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def valuation(self) -> int:
        """Smallest exponent with a nonzero coefficient."""
        if not self._coeffs:
            raise ValueError("the zero polynomial has no valuation")
        for i, c in enumerate(self._coeffs):
            if c:
                return i
        raise AssertionError("unreachable: canonical form broken")

    def shift(self, k: int) -> "IntPoly":
        """Multiply by t^k; negative k divides exactly by t^(-k)."""
        if self.is_zero:
            return self
        if k >= 0:
            return IntPoly((0,) * k + self._coeffs)
        if self.valuation() < -k:
            raise ValueError(f"t^{-k} does not divide {self}")
        return IntPoly(self._coeffs[-k:])

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        out = list(self._coeffs) + [0] * max(0, len(other._coeffs) - len(self._coeffs))
        for i, c in enumerate(other._coeffs):
            out[i] -= c
        return IntPoly(out)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(tuple(other * c for c in self._coeffs))
        if not isinstance(other, IntPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return IntPoly()
        out = [0] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a:
                for j, b in enumerate(other._coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __call__(self, x: int) -> int:
        out = 0
        for c in reversed(self._coeffs):
            out = out * x + c
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, IntPoly):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def is_palindromic(self) -> bool:
        """True iff the coefficients of t^i and t^(deg - i) agree for all i."""
        return self._coeffs == self._coeffs[::-1]

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"IntPoly({list(self._coeffs)!r})"


def format_poly(p: IntPoly) -> str:
    """Human form, ascending exponents: ``1 + 2*t + t^3``."""
    if p.is_zero:
        return "0"
    parts = []
    for e, c in enumerate(p.coeffs):
        if c == 0:
            continue
        if e == 0:
            term = str(abs(c))
        else:
            var = "t" if e == 1 else f"t^{e}"
            term = var if abs(c) == 1 else f"{abs(c)}*{var}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


# compiled on first use, through re's own cache, not at import
_TERM_RE = r"^([+-]?)(\d+)?(\*?t(\^(\d+))?)?$"


def parse_poly(text: str) -> IntPoly:
    """Parse strings like ``t^8-1``, ``1+t^3``, ``2``, ``3*t^2 - t``."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial string")
    terms = re.findall(r"[+-]?[^+-]+", s)
    if "".join(terms) != s:
        raise ValueError(f"a sign with no term after it in {text!r}")
    coeffs: dict[int, int] = {}
    for term in terms:
        m = re.match(_TERM_RE, term)
        if not m or (m.group(2) is None and m.group(3) is None):
            raise ValueError(f"cannot parse term {term!r} in {text!r}")
        sign = -1 if m.group(1) == "-" else 1
        coef = int(m.group(2)) if m.group(2) is not None else 1
        exp = 0
        if m.group(3):
            exp = int(m.group(5)) if m.group(5) is not None else 1
        if exp > MAX_DEGREE:
            raise ValueError(
                f"exponent {exp} in {text!r} exceeds the maximum degree {MAX_DEGREE}"
            )
        coeffs[exp] = coeffs.get(exp, 0) + sign * coef
    if not coeffs:
        return IntPoly()
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return IntPoly(out)


def _try_exact_div(p: IntPoly, q: IntPoly) -> IntPoly | None:
    """Quotient p/q when q divides p in Z[t], else None.

    Schoolbook division from the top.  When q | p the rational quotient
    is the integer one, so every leading-coefficient division must come
    out exact; any failure proves indivisibility.
    """
    qc = q._coeffs
    if not qc:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(p._coeffs)
    if not rem:
        return IntPoly()
    dq = len(qc) - 1
    n = len(rem) - dq  # number of quotient coefficients
    if n < 1:
        return None
    lead = qc[-1]
    low = qc[:-1]
    out = [0] * n
    for k in range(n - 1, -1, -1):
        c = rem[k + dq]
        if c == 0:
            continue
        if c % lead:
            return None
        f = c // lead
        out[k] = f
        # lead * f cancels rem[k + dq] exactly; only q's lower terms move
        for i, qi in enumerate(low, k):
            rem[i] -= f * qi
    if any(rem[:dq]):
        return None
    return IntPoly(out)


def _rational_divmod(p: IntPoly, q: IntPoly):
    """Division in Q[t]; returns (quotient, remainder) as Fraction tuples."""
    # imported here: only a failed exact division gets this far, and
    # fractions (with decimal and numbers) costs every start about 3 ms
    from fractions import Fraction

    rem = [Fraction(c) for c in p.coeffs]
    qc = [Fraction(c) for c in q.coeffs]
    dq = q.degree
    lead = qc[-1]
    out = [Fraction(0)] * max(0, len(rem) - dq)
    for k in range(len(rem) - dq - 1, -1, -1):
        f = rem[k + dq] / lead
        out[k] = f
        if f:
            for i, qi in enumerate(qc):
                rem[k + i] -= f * qi
    while rem and rem[-1] == 0:
        rem.pop()
    return tuple(out), tuple(rem)


def divides_ring(p: IntPoly, q: IntPoly) -> tuple[bool, IntPoly | None]:
    """Decide q | p in Z[t]; on success also return the quotient."""
    if q.is_zero:
        raise ZeroDivisionError("divisor must be nonzero")
    quot = _try_exact_div(p, q)
    if quot is None:
        return False, None
    return True, quot


def divides_semiring(p: IntPoly, q: IntPoly) -> tuple[bool, IntPoly | None]:
    """Decide p = q*r with r in N0[t]; on success also return r.

    The divisor must be nonzero with nonnegative coefficients.  A
    quotient in Z[t] is unique, so the decision is: exact division, then
    a nonnegativity scan.  A p with a negative coefficient is refused
    first, since q*r has none.
    """
    qc, pc = q._coeffs, p._coeffs
    if not qc:
        raise ZeroDivisionError("semiring divisor must be nonzero")
    if min(qc) < 0:
        raise ValueError("semiring divisor must have nonnegative coefficients")
    if not pc:
        return True, IntPoly()
    if min(pc) < 0:
        return False, None
    quot = _try_exact_div(p, q)
    if quot is None or min(quot._coeffs) < 0:
        return False, None
    return True, quot


def eval_rational(
    numerator_factors: Sequence[IntPoly], denominator_factors: Sequence[IntPoly]
) -> IntPoly:
    """Expand a product quotient exactly; raise InexactDivision otherwise.

    Multiplies out both factor lists and divides.  The quotient must be
    a polynomial with integer coefficients; anything else signals a
    mistranscribed formula and raises, carrying the rational remainder.
    A denominator product above MAX_DEGREE, or a numerator product above
    MAX_DEGREE plus the denominator's degree, raises ValueError before
    anything is multiplied out: the work stays within 2 * MAX_DEGREE and
    a quotient within MAX_DEGREE.
    """
    limit = MAX_DEGREE
    for side, factors in (
        ("denominator", denominator_factors),
        ("numerator", numerator_factors),
    ):
        degree = sum(max(f.degree, 0) for f in factors)
        if degree > limit:
            raise ValueError(f"{side} product has degree {degree}, above the maximum {limit}")
        limit += degree
    num = IntPoly.one()
    for f in numerator_factors:
        num = num * f
    den = IntPoly.one()
    for f in denominator_factors:
        den = den * f
    if den.is_zero:
        raise ZeroDivisionError("denominator product is zero")
    quot = _try_exact_div(num, den)
    if quot is not None:
        return quot
    qfrac, rem = _rational_divmod(num, den)
    if any(rem):
        raise InexactDivision(
            "denominator does not divide numerator; remainder has coefficients "
            + ", ".join(map(str, rem)),
            remainder=rem,
        )
    raise InexactDivision(
        "quotient is not in Z[t]; rational coefficients " + ", ".join(map(str, qfrac)),
        remainder=rem,
    )
