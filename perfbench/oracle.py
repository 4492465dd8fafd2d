"""Independent Weyl-group facts that the benchmark checks outputs against.

Nothing here imports magicsq.  The Dynkin diagrams (Bourbaki numbering),
the table of fundamental degrees and the closed-form Poincare polynomial
of W/W_J (Solomon's product of q-integers) are the benchmark's own, so a
check never trusts the layer it checks.
"""

from __future__ import annotations

import math

# fundamental degrees of the exceptional types
_EXCEPTIONAL_DEGREES = {
    ("E", 6): (2, 5, 6, 8, 9, 12),
    ("E", 7): (2, 6, 8, 10, 12, 14, 18),
    ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
    ("F", 4): (2, 6, 8, 12),
    ("G", 2): (2, 6),
}
# arm lengths (sorted) at the branch node of a simply-laced E diagram
_E_ARMS = {(1, 2, 2): 6, (1, 2, 3): 7, (1, 2, 4): 8}


def parse_type(label: str) -> tuple[str, int]:
    """'E8' -> ('E', 8); an outer-twist prefix such as '2E6' is dropped."""
    body = label.lstrip("0123456789")
    return body[0], int(body[1:])


def edges(series: str, rank: int) -> dict[frozenset[int], int]:
    """Dynkin edges in Bourbaki numbering, each with its bond multiplicity."""
    out: dict[frozenset[int], int] = {}
    if series in "ABC":
        for i in range(1, rank):
            out[frozenset((i, i + 1))] = 1
        if series != "A":
            out[frozenset((rank - 1, rank))] = 2
    elif series == "D":
        for i in range(1, rank - 1):
            out[frozenset((i, i + 1))] = 1
        out[frozenset((rank - 2, rank))] = 1
    elif series == "E":
        path = [1, 3] + list(range(4, rank + 1))
        for a, b in zip(path, path[1:]):
            out[frozenset((a, b))] = 1
        out[frozenset((2, 4))] = 1
    elif series == "F":
        out = {frozenset((1, 2)): 1, frozenset((2, 3)): 2, frozenset((3, 4)): 1}
    elif series == "G":
        out = {frozenset((1, 2)): 3}
    else:
        raise ValueError(f"unknown series {series!r}")
    return out


def _components(nodes: frozenset[int], bonds: dict[frozenset[int], int]):
    seen: set[int] = set()
    for start in sorted(nodes):
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            p = stack.pop()
            for e in bonds:
                if p in e:
                    (q,) = e - {p}
                    if q in nodes and q not in comp:
                        comp.add(q)
                        stack.append(q)
        seen |= comp
        yield frozenset(comp)


def _component_degrees(series, comp, bonds) -> tuple[int, ...]:
    k = len(comp)
    inside = {e: m for e, m in bonds.items() if e <= comp}
    mults = set(inside.values())
    if 3 in mults:
        return _EXCEPTIONAL_DEGREES[("G", 2)]
    if 2 in mults:
        if series == "F" and k == 4:
            return _EXCEPTIONAL_DEGREES[("F", 4)]
        return tuple(2 * i for i in range(1, k + 1))  # B_k and C_k
    valence = {v: sum(1 for e in inside if v in e) for v in comp}
    branch = [v for v in comp if valence[v] == 3]
    if not branch:
        return tuple(range(2, k + 2))  # A_k
    (b,) = branch
    arms = []
    for e in inside:
        if b not in e:
            continue
        (prev, cur), length = (b, next(iter(e - {b}))), 1
        while True:
            nxt = [v for f in inside if cur in f for v in f - {cur} if v != prev]
            if not nxt:
                break
            prev, cur, length = cur, nxt[0], length + 1
        arms.append(length)
    arms.sort()
    if arms[:2] == [1, 1]:
        return tuple(range(2, 2 * k - 1, 2)) + (k,)  # D_k
    return _EXCEPTIONAL_DEGREES[("E", _E_ARMS[tuple(arms)])]


def degrees(series: str, rank: int, nodes) -> list[int]:
    """Fundamental degrees of the parabolic subgroup W_nodes, all components."""
    bonds = edges(series, rank)
    out: list[int] = []
    for comp in _components(frozenset(nodes), bonds):
        out.extend(_component_degrees(series, comp, bonds))
    return sorted(out)


def all_nodes(rank: int) -> frozenset[int]:
    return frozenset(range(1, rank + 1))


def index(series: str, rank: int, levi) -> int:
    """|W| / |W_levi|."""
    return math.prod(degrees(series, rank, all_nodes(rank))) // math.prod(
        degrees(series, rank, levi)
    )


def num_positive(series: str, rank: int, nodes) -> int:
    return sum(d - 1 for d in degrees(series, rank, nodes))


def dim(series: str, rank: int, levi) -> int:
    """Positive roots outside the Levi: the dimension of the flag variety."""
    return num_positive(series, rank, all_nodes(rank)) - num_positive(
        series, rank, levi
    )


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _div_monic(a: list[int], b: list[int]) -> list[int]:
    """Exact quotient a / b for a monic b (coefficients low to high)."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = a[k + len(b) - 1]
        q[k] = c
        if c:
            for j, y in enumerate(b):
                a[k + j] -= c * y
    if any(a):
        raise ArithmeticError("inexact division")
    return q


def poincare_coeffs(series: str, rank: int, levi) -> list[int]:
    """Coefficients of prod [d]_t over W divided by prod [d]_t over W_levi."""
    poly = [1]
    for d in degrees(series, rank, all_nodes(rank)):
        poly = _mul(poly, [1] * d)
    for d in degrees(series, rank, levi):
        poly = _div_monic(poly, [1] * d)
    return poly


def opposition(series: str, rank: int) -> dict[int, int]:
    """Node permutation induced by -w0."""
    perm = {i: i for i in range(1, rank + 1)}
    if series == "A":
        perm = {i: rank + 1 - i for i in perm}
    elif series == "D" and rank % 2:
        perm[rank - 1], perm[rank] = rank, rank - 1
    elif (series, rank) == ("E", 6):
        perm.update({1: 6, 6: 1, 3: 5, 5: 3})
    return perm
