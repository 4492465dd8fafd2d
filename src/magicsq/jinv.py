"""J-invariant profiles at the prime 2 for the magic-square groups.

A profile carries the combinatorial data (d_i, k_i) for a group label
together with a value vector (j_i), 0 <= j_i <= k_i.  The upper Borel
motive polynomial attached to a profile is

    prod_i (t^(d_i * 2^(j_i)) - 1) / (t^(d_i) - 1),

a product of geometric sums with step d_i and 2^(j_i) terms.

Value vectors for 2E6 must satisfy the chain 1 >= j1 >= j2 >= j3 >= 0;
for E7 the chain is 1 >= j2 >= j3 >= j4 >= 0 with j1 in {0, 1}.  The
remaining labels carry only the box bounds j_i <= k_i: no further chain
is pinned for them, and enumeration flags them as unconstrained.

The (d, k) table is shipped in the versioned data document; labels A1,
2A2, C3 and F4 are deliberately absent.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable

from ._data import tables
from ._record import record
from .polyring import IntPoly

PRIME = 2

# positions (0-based) that must form a weakly decreasing chain
_CHAINS: dict[str, tuple[int, ...]] = {
    "2E6": (0, 1, 2),
    "E7": (1, 2, 3),
}

_ALIASES = {
    "2.2A2": "2x2A2",
    "2*2A2": "2x2A2",
    "2X2A2": "2x2A2",
    "D6": "1D6",
}


def normalize_label(label: str) -> str:
    s = label.strip()
    return _ALIASES.get(s, _ALIASES.get(s.upper(), s))


def _table() -> dict[str, dict]:
    return tables()["jinv_max"]


def supported_labels() -> tuple[str, ...]:
    return tuple(_table().keys())


def _lookup(label: str) -> tuple[str, tuple[int, ...], tuple[int, ...]]:
    key = normalize_label(label)
    row = _table().get(key)
    if row is None:
        raise ValueError(
            f"no J-invariant data for {label!r}; supported labels: "
            f"{', '.join(supported_labels())}"
        )
    return key, tuple(row["degrees"]), tuple(row["caps"])


@record
class JProfile:
    group_label: str
    degrees: tuple[int, ...]
    caps: tuple[int, ...]
    values: tuple[int, ...]

    def __post_init__(self):
        r = len(self.degrees)
        if len(self.caps) != r or len(self.values) != r:
            raise ValueError("degrees, caps and values must have equal length")
        for d in self.degrees:
            if d < 1:
                raise ValueError("degrees must be positive")
        for j, k in zip(self.values, self.caps):
            if not 0 <= j <= k:
                raise ValueError(
                    f"value vector {self.values} violates bounds {self.caps}"
                )
        chain = _CHAINS.get(self.group_label)
        if chain:
            for a, b in zip(chain, chain[1:]):
                if self.values[a] < self.values[b]:
                    raise ValueError(
                        f"value vector {self.values} violates the "
                        f"{self.group_label} monotonicity chain"
                    )


def profile(label: str, values: Iterable[int]) -> JProfile:
    """Validated profile for a supported label and value vector."""
    key, degrees, caps = _lookup(label)
    values = tuple(values)
    if len(values) != len(degrees):
        raise ValueError(
            f"{key} takes {len(degrees)} values (degrees "
            f"{','.join(map(str, degrees))}), got {len(values)}"
        )
    return JProfile(key, degrees, caps, values)


def max_profile(label: str) -> JProfile:
    """The tabulated maximal profile (j = k)."""
    key, degrees, caps = _lookup(label)
    return JProfile(key, degrees, caps, caps)


def has_pinned_chain(label: str) -> bool:
    """Whether a monotonicity chain beyond j <= k is pinned for the label."""
    return normalize_label(label) in _CHAINS


def upper_motive_poly(p: JProfile) -> IntPoly:
    """Exact expansion of prod (t^(d 2^j) - 1)/(t^d - 1)."""
    out = IntPoly.one()
    for d, j in zip(p.degrees, p.values):
        terms = PRIME**j
        factor = [0] * (d * (terms - 1) + 1)
        for m in range(terms):
            factor[m * d] = 1
        out = out * IntPoly(factor)
    return out


def enumerate_admissible(label: str) -> list[JProfile]:
    """All admissible value vectors, in lexicographic order."""
    key, degrees, caps = _lookup(label)
    chain = _CHAINS.get(key, ())
    out = []
    for values in itertools.product(*(range(k + 1) for k in caps)):
        if any(values[a] < values[b] for a, b in zip(chain, chain[1:])):
            continue
        out.append(JProfile(key, degrees, caps, values))
    return out
