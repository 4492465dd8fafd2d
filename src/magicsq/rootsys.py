"""Root systems for the finite Dynkin types, in Bourbaki numbering.

Roots live in simple-root coordinates (small signed integer vectors);
no Euclidean embedding is ever constructed.  The Cartan matrix is stored
with the convention

    cartan[i][j] = 2 (a_i, a_j) / (a_j, a_j)

(pairing of the i-th simple root against the j-th simple coroot), which
reproduces the commonly printed matrices for F4 ([-2] in row 2, column 3,
0-indexed row 1/col 2) and G2 ([-3] in row 2, column 1).  The simple
reflection s_j therefore acts through column j:

    s_j(v)_j = v_j - sum_i cartan[i][j] * v_i,   other coordinates fixed.

Bourbaki node numbering, pinned here once and for all:

    A_n : path 1-2-...-n
    B_n : path 1-...-n, a_n short
    C_n : path 1-...-n, a_n long
    D_n : path 1-...-(n-1), node n attached to node n-2
    E_n : path 1-3-4-5-6(-7)(-8), node 2 attached to node 4
    F_4 : path 1-2-3-4, a_1 a_2 long, a_3 a_4 short
    G_2 : a_1 short, a_2 long
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import lru_cache

from ._record import record

_SERIES_RANKS = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 3,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


def _has_involution(series: str, rank: int) -> bool:
    """Whether the diagram has a nontrivial involution: A_n (n >= 2), D_n, E6."""
    return (series == "A" and rank > 1) or series == "D" or (series, rank) == ("E", 6)


# Number of positive roots, in closed form.
_POSITIVE_ROOTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": {6: 36, 7: 63, 8: 120}.get,
    "F": lambda n: 24,
    "G": lambda n: 6,
}

# The series of each lacing, in the order sub_diagram_type tries them.
_SERIES_BY_LACING = {1: "ADE", 2: "BCF", 3: "G"}

# Root systems with more positive roots are refused before construction,
# which costs about rank times the number of positive roots in time and
# memory: A60 (1,830 roots) takes about 0.05 s, and `weyl order` on the
# largest type accepted, A199 (19,900 roots), about 1.5 s and 49 MB of
# peak RSS on a 2-core x86-64 VM under CPython 3.11; every refused type
# takes more.
_MAX_POSITIVE_ROOTS = 20_000


@record
class CartanType:
    """A Dynkin type (series, rank) with an optional outer-twist label.

    The twist label records quasi-split outer forms such as 2E6; it is
    metadata only and has no effect on the root data.
    """

    series: str
    rank: int
    outer_twist: int = 1

    def __post_init__(self):
        ok = _SERIES_RANKS.get(self.series)
        if ok is None or not ok(self.rank):
            raise ValueError(f"invalid Dynkin type {self.series}{self.rank}")
        if self.outer_twist not in (1, 2):
            raise ValueError(f"outer twist must be 1 or 2, got {self.outer_twist}")
        if self.outer_twist == 2 and not _has_involution(self.series, self.rank):
            raise ValueError(f"type {self.series}{self.rank} has no diagram involution")

    @classmethod
    def from_string(cls, label: str) -> "CartanType":
        """Parse labels like ``E6``, ``2E6``, ``A3``, ``1D6``."""
        s = label.strip()
        twist = 1
        if s and s[0] in "12" and len(s) > 1 and s[1].isalpha():
            twist = int(s[0])
            s = s[1:]
        if len(s) < 2 or not s[0].isalpha() or not s[1:].isdecimal():
            raise ValueError(f"cannot parse Dynkin type {label!r}")
        return cls(s[0].upper(), int(s[1:]), twist)

    def __str__(self) -> str:
        prefix = "2" if self.outer_twist == 2 else ""
        return f"{prefix}{self.series}{self.rank}"


def _edges(series: str, rank: int) -> list[tuple[int, int]]:
    # 1-based node pairs; single edges only, multiplicities handled separately
    if series in ("A", "B", "C", "F", "G"):
        return [(i, i + 1) for i in range(1, rank)]
    if series == "D":
        return [(i, i + 1) for i in range(1, rank - 1)] + [(rank - 2, rank)]
    if series == "E":
        return [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)] + [
            (i, i + 1) for i in range(6, rank)
        ]
    raise AssertionError(series)


def cartan_matrix(ctype: CartanType) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix with cartan[i][j] = 2(a_i,a_j)/(a_j,a_j), 0-indexed."""
    n = ctype.rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for (p, q) in _edges(ctype.series, n):
        a[p - 1][q - 1] = -1
        a[q - 1][p - 1] = -1
    s = ctype.series
    if s == "B":
        # a_n short: the long root row n-1 pairs to -2 against coroot n
        a[n - 2][n - 1] = -2
    elif s == "C":
        # a_n long
        a[n - 1][n - 2] = -2
    elif s == "F":
        # a_2 long, a_3 short
        a[1][2] = -2
    elif s == "G":
        # a_2 long
        a[1][0] = -3
    return tuple(tuple(row) for row in a)


class RootSystem:
    """Immutable root system: its type, Cartan matrix and ordered positive roots."""

    __slots__ = ("ctype", "cartan", "positive_roots", "rank", "num_positive")

    def __init__(self, ctype: CartanType):
        count = _POSITIVE_ROOTS[ctype.series](ctype.rank)
        if count > _MAX_POSITIVE_ROOTS:
            raise ValueError(
                f"root system {ctype} has {count} positive roots, above the "
                f"limit of {_MAX_POSITIVE_ROOTS}"
            )
        self.ctype = ctype
        self.cartan = cartan_matrix(ctype)
        self.rank = ctype.rank
        self.positive_roots = _close_positive_roots(self.cartan)
        self.num_positive = len(self.positive_roots)

    def node_set(self) -> frozenset[int]:
        return frozenset(range(1, self.rank + 1))

    def check_nodes(self, nodes: Iterable[int]) -> frozenset[int]:
        ns = frozenset(nodes)
        if not ns <= self.node_set():
            raise ValueError(f"nodes {sorted(ns)} not within 1..{self.rank}")
        return ns

    def __repr__(self) -> str:
        return f"RootSystem({self.ctype}, {self.num_positive} positive roots)"


def raising_reflections(
    cartan: Sequence[Sequence[int]],
) -> Callable[[tuple[int, ...]], Iterator[tuple[int, tuple[int, ...]]]]:
    """v -> (j, s_j(v)) for each wall j whose reflection raises the root v.

    s_j changes only coordinate j, by minus the pairing of v with coroot
    j, which reads the nonzero entries of Cartan column j; so s_j(v) is
    higher than v iff that coordinate grows.  Every positive root of
    height above one is raised from a lower one, and s_j lowers every
    positive root it does not raise or fix, bar a_j itself, which it
    negates.
    """
    columns = [
        [(i, row[j]) for i, row in enumerate(cartan) if row[j]] for j in range(len(cartan))
    ]

    def raised(v):
        for j, column in enumerate(columns):
            x = v[j]
            for i, c in column:
                x -= c * v[i]
            if x > v[j]:
                yield j, v[:j] + (x,) + v[j + 1 :]

    return raised


def _close_positive_roots(cartan) -> tuple[tuple[int, ...], ...]:
    """The positive roots in graded-lex order: the simple roots closed
    under the raising simple reflections."""
    n = len(cartan)
    raised = raising_reflections(cartan)
    found = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    seen = set(found)
    for v in found:  # the loop also walks the roots appended to found
        for _, w in raised(v):
            if w not in seen:
                seen.add(w)
                found.append(w)
    # graded lexicographic: height first, then coordinates
    return tuple(sorted(found, key=lambda v: (sum(v), v)))


@lru_cache(maxsize=None)
def build_root_system(ctype: CartanType) -> RootSystem:
    """Construct (and memoize) the root system for a valid Cartan type."""
    return RootSystem(ctype)


@record
class DiagramAut:
    """Permutation of Dynkin nodes; node_permutation[i-1] is the image of node i."""

    node_permutation: tuple[int, ...]

    def __call__(self, node: int) -> int:
        return self.node_permutation[node - 1]

    @property
    def is_identity(self) -> bool:
        return all(p == i + 1 for i, p in enumerate(self.node_permutation))

    def stabilizes(self, nodes: Iterable[int]) -> bool:
        ns = set(nodes)
        return {self(n) for n in ns} == ns


def identity_aut(rs: RootSystem) -> DiagramAut:
    return DiagramAut(tuple(range(1, rs.rank + 1)))


def diagram_aut(rs: RootSystem, node_permutation: Sequence[int]) -> DiagramAut:
    """Validated diagram automorphism: must preserve the Cartan matrix."""
    perm = tuple(node_permutation)
    if sorted(perm) != list(range(1, rs.rank + 1)):
        raise ValueError(f"{perm} is not a permutation of 1..{rs.rank}")
    a = rs.cartan
    for i in range(rs.rank):
        for j in range(rs.rank):
            if a[perm[i] - 1][perm[j] - 1] != a[i][j]:
                raise ValueError(f"{perm} does not preserve the Cartan matrix")
    return DiagramAut(perm)


def _diagram_involution(rs: RootSystem) -> DiagramAut:
    """The nontrivial involution of an A_n, D_n or E6 diagram.

    i -> n+1-i on A_n, the swap of n-1 and n on D_n, (1 6)(3 5) on E6.
    """
    n = rs.rank
    if rs.ctype.series == "A":
        return diagram_aut(rs, range(n, 0, -1))
    if rs.ctype.series == "D":
        return diagram_aut(rs, [*range(1, n - 1), n, n - 1])
    return diagram_aut(rs, (6, 2, 5, 4, 3, 1))


def twist_aut(rs: RootSystem) -> DiagramAut:
    """Diagram automorphism sigma named by the outer-twist label of rs.

    Frobenius acts on the Dynkin diagram of the quasi-split form through
    the diagram involution on 2A_n, 2D_n and 2E6, and trivially on a
    split type.  On D_2k sigma is not -w0, which is the identity there.
    """
    return _diagram_involution(rs) if rs.ctype.outer_twist == 2 else identity_aut(rs)


def opposition_involution(rs: RootSystem) -> DiagramAut:
    """Node permutation induced by -w0.

    -w0 is the diagram involution on A_n, D_n with n odd and E6, and the
    identity on every other type, where w0 = -1 (Bourbaki, Lie VI, Plates
    I-IX).
    """
    series, n = rs.ctype.series, rs.rank
    if _has_involution(series, n) and not (series == "D" and n % 2 == 0):
        return _diagram_involution(rs)
    return identity_aut(rs)


def sub_diagram_type(rs: RootSystem, nodes: Iterable[int]) -> list[CartanType]:
    """Connected components of the induced sub-diagram, classified by type.

    Components are reported in order of their smallest node.  A component
    is typed by its rank, its lacing (the largest a_pq * a_qp over its
    edges) and the number of positive roots of its Cartan submatrix,
    trying A, D, E, then B, C, F, then G: a path of three nodes is A3, and
    the rank-2 double-edge component is B2 (B2 and C2 coincide).  Those
    three leave only B_k against C_k for k >= 3, and B_k has the short
    end of its double edge at a leaf.
    """
    ns = sorted(rs.check_nodes(nodes))
    a = rs.cartan
    adj = {
        p: [q for q in ns if q != p and a[p - 1][q - 1] != 0] for p in ns
    }
    seen: set[int] = set()
    out = []
    for start in ns:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        for p in comp:  # the loop also walks the nodes appended to comp
            for q in adj[p]:
                if q not in seen:
                    seen.add(q)
                    comp.append(q)
        sub = [[a[p - 1][q - 1] for q in comp] for p in comp]
        k = len(comp)
        lacing = max((sub[i][j] * sub[j][i] for j in range(k) for i in range(j)), default=1)
        roots = len(_close_positive_roots(sub))
        series = next(
            s for s in _SERIES_BY_LACING[lacing]
            if _SERIES_RANKS[s](k) and _POSITIVE_ROOTS[s](k) == roots
        )
        if series == "B" and k > 2:
            # cartan[i][j] = -2 puts the short root in column j
            short = next(j for row in sub for j, x in enumerate(row) if x == -2)
            if len(adj[comp[short]]) > 1:
                series = "C"
        out.append(CartanType(series, k))
    return out
