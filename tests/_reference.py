"""The permutation side of the Weyl group, which the tests compare against.

magicsq names a Weyl group element w only by l(w) and its images of the
simple roots.  Here an element is its whole action on the signed root
set (see weyl for the encoding: nonnegative index = positive root,
bitwise complement = its negative), with the length, descents, products
and reduced words read off that action.  The simple reflections are
built here from the roots and the Cartan matrix (``reflection_tables``)
and composed by this module's own gather (``_compose``), with no table
or gather code from the package.  The minimal coset reps of a
quotient come from a breadth-first search over these permutations
(``_coset_bfs``), which shares nothing with the package's orbit walk.
The chain polynomial, the Kilmoyer and transposed double-coset
references and the sigma-fixed conormed reference build on it; the
tests and ``scripts/borel_series_check.py`` compare the package against
them.  Outside W altogether, ``unitary_flag_count`` and
``orthogonal_flag_count`` count the F_2-points of the flag varieties of
2A_n and 2D_n as flags of totally isotropic subspaces of a Hermitian
space over F_4 and of a minus-type quadratic space over F_2.  This
module imports only magicsq, so the script runs without the test
extras.  Also here: the golden-file forms of a root system and a
polynomial, a simple root's index and a polynomial's coefficient, which
only the tests read.
"""

import functools
import itertools
import operator
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence

from magicsq._record import record
from magicsq.poincare import FlagVariety
from magicsq.polyring import IntPoly
from magicsq.rootsys import (
    CartanType,
    RootSystem,
    build_root_system,
    twist_aut,
)
from magicsq.weyl import length_counts_to_poly, parabolic_order, weyl_order


def signed_table(table: tuple[int, ...]) -> tuple[int, ...]:
    """A signed permutation of the positive roots, indexable by ~r too."""
    return table + tuple(map(operator.invert, reversed(table)))


def _compose(signed: tuple[int, ...], action: tuple[int, ...]) -> tuple[int, ...]:
    """The action of u * w, given u's signed table and w's action."""
    return tuple(map(signed.__getitem__, action))


@functools.cache
def reflection_tables(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    """s_j on the positive roots as signed indices, one table per node j.

    s_j(v) = v - <v, a_j^v> a_j, with <v, a_j^v> = sum_i v_i cartan[i][j].
    """
    roots = rs.positive_roots
    where = {v: r for r, v in enumerate(roots)}
    where.update({tuple(-c for c in v): ~r for r, v in enumerate(roots)})
    tables = []
    for j in range(rs.rank):
        table = []
        for v in roots:
            pairing = sum(c * row[j] for c, row in zip(v, rs.cartan))
            table.append(where[tuple(c - pairing * (k == j) for k, c in enumerate(v))])
        tables.append(tuple(table))
    return tuple(tables)


@record
class WeylElement:
    """Group element as its action on positive-root indices (signed)."""

    action: tuple[int, ...]

    @property
    def length(self) -> int:
        """The number of positive roots sent to negative ones."""
        return len([a for a in self.action if a < 0])

    @property
    def is_identity(self) -> bool:
        return self.length == 0

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        # (self * other)(r) = self(other(r))
        return WeylElement(_compose(signed_table(self.action), other.action))

    def inverse(self) -> "WeylElement":
        inv = [0] * len(self.action)
        for r, y in enumerate(self.action):
            if y >= 0:
                inv[y] = r
            else:
                inv[~y] = ~r
        return WeylElement(tuple(inv))


def simple_root_index(rs: RootSystem, node: int) -> int:
    """Index of simple root a_node (1-based node) in positive_roots."""
    # the height-one roots come first in graded-lex order, a_rank first
    return rs.rank - node


def coefficient(p: IntPoly, exponent: int) -> int:
    """The coefficient of t^exponent in p, 0 beyond its degree."""
    return p.coeffs[exponent] if 0 <= exponent < len(p.coeffs) else 0


def identity(rs: RootSystem) -> WeylElement:
    return WeylElement(tuple(range(rs.num_positive)))


def simple_reflection(rs: RootSystem, node: int) -> WeylElement:
    if not 1 <= node <= rs.rank:
        raise ValueError(f"node {node} out of range")
    return WeylElement(reflection_tables(rs)[node - 1])


def right_descents(rs: RootSystem, w: WeylElement) -> frozenset[int]:
    """Nodes i with l(w s_i) < l(w), i.e. w(a_i) negative."""
    return frozenset(
        i + 1 for i in range(rs.rank) if w.action[simple_root_index(rs, i + 1)] < 0
    )


def reduced_word(rs: RootSystem, w: WeylElement) -> list[int]:
    """One reduced word for w, by repeatedly peeling the smallest right descent."""
    word: list[int] = []
    act = w.action
    tables = reflection_tables(rs)
    while True:
        for i in range(rs.rank):
            if act[simple_root_index(rs, i + 1)] < 0:
                word.append(i + 1)
                act = _compose(signed_table(act), tables[i])
                break
        else:
            break
    word.reverse()
    return word


def _coset_bfs(
    rs: RootSystem,
    generator_nodes: Sequence[int],
    reduced_nodes: frozenset[int],
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield (length, action) for minimal reps, breadth-first, sorted per level.

    Generators are left-multiplied; an element stays iff it has no right
    descent inside reduced_nodes.  Every minimal representative of length
    l+1 arises from one of length l this way, so levels are complete.
    """
    tables = [signed_table(reflection_tables(rs)[i - 1]) for i in generator_nodes]
    reduced = [simple_root_index(rs, j) for j in sorted(reduced_nodes)]
    ident = tuple(range(rs.num_positive))
    seen = {ident}
    level = [ident]
    length = 0
    while level:
        for act in level:
            yield length, act
        nxt = set()
        for act in level:
            for tab in tables:
                u = _compose(tab, act)
                if u in seen or u in nxt:
                    continue
                if min(map(u.__getitem__, reduced), default=0) >= 0:
                    nxt.add(u)
        seen.update(nxt)
        level = sorted(nxt)
        length += 1


def coset_actions(
    rs: RootSystem, parabolic: Iterable[int]
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(length, action) for the minimal reps of W/W_parabolic, in that order.

    No index limit: the callers keep to small quotients.
    """
    return _coset_bfs(rs, range(1, rs.rank + 1), frozenset(parabolic))


def chain_length_polynomial(rs: RootSystem) -> IntPoly:
    """Length generating function of W, by a parabolic chain of quotients.

    W factors as nested quotients W_{J_0}/W_{J_1} * ... with lengths
    adding, so the product of the quotient generating functions equals
    sum_w t^l(w).  Each quotient is a small coset enumeration; the full
    group is never materialized (works for E8).
    """
    nodes = sorted(rs.node_set())
    poly = IntPoly.one()
    for k in range(len(nodes)):
        counts = Counter(
            length for length, _ in _coset_bfs(rs, nodes[k:], frozenset(nodes[k + 1 :]))
        )
        poly = poly * length_counts_to_poly(counts)
    return poly


def _pack(vector):
    """A root vector as one int, linear in the vector: sum of v_k 2^(16k)."""
    return sum(c << (16 * k) for k, c in enumerate(vector))


@functools.cache
def _root_chains(rs):
    """Each non-simple positive root as an earlier root plus a simple root.

    Returns ((index of the earlier root, k) for roots rank.., with the
    root equal to the earlier one plus a_(k+1)), and the packed signed
    roots mapped to their signed indices.
    """
    roots = rs.positive_roots
    where = {root: r for r, root in enumerate(roots)}
    chains = []
    for root in roots[rs.rank :]:
        chains.append(next(
            (where[prev], k)
            for k in range(rs.rank)
            if (prev := root[:k] + (root[k] - 1,) + root[k + 1 :]) in where
        ))
    lookup = {_pack(root): r for r, root in enumerate(roots)}
    lookup.update({-_pack(root): ~r for r, root in enumerate(roots)})
    return chains, lookup


def full_action(rs, simple_images):
    """w's action on every positive root, from its images of the simple roots.

    ``simple_images[k]`` is w(positive_roots[k]) for k < rank, the simple
    roots.  w is linear: a root b = c + a_j with c an earlier root has
    w(b) = w(c) + w(a_j), read back as a signed root index.
    """
    chains, lookup = _root_chains(rs)
    roots = rs.positive_roots
    images = [_pack(roots[s]) if s >= 0 else -_pack(roots[~s]) for s in simple_images]
    simple = [images[simple_root_index(rs, k + 1)] for k in range(rs.rank)]
    for prev, k in chains:
        images.append(images[prev] + simple[k])
    return tuple(lookup[v] for v in images)


def _kilmoyer_table(rs, right, star):
    """Per minimal coset rep w of W/W_right, what the reference needs.

    Built on the permutation side alone: w's left descents; the nodes i
    with w^-1(a_i) a simple root of J; and whether conjugating by the
    star, i.e. multiplying out the star-mapped reduced word, gives w back.
    """
    simple_in_right = {simple_root_index(rs, j) for j in right}
    table = []
    for _, action in coset_actions(rs, right):
        w = WeylElement(action)
        w_inv = w.inverse()
        to_simple = frozenset(
            i
            for i in range(1, rs.rank + 1)
            if w_inv.action[simple_root_index(rs, i)] in simple_in_right
        )
        fixed = True
        if star is not None:
            conj = identity(rs)
            for i in reduced_word(rs, w):
                conj = conj * simple_reflection(rs, star(i))
            fixed = conj == w
        table.append((w, right_descents(rs, w_inv), to_simple, fixed))
    return table


def _kilmoyer_cells(rs, table, left):
    """Double cosets W_I\\W/W_J, sorted like double_cosets.

    The minimal double coset reps are the w in W^J with no left descent
    in I.  By Kilmoyer's theorem W_I meets w W_J w^-1 in W_K, with
    K = {i in I : w^-1(a_i) is a simple root of J}, so the cell holds
    |W_I| / |W_K| cosets.  The star maps w to a minimal rep again, so the
    cell is fixed iff the star fixes w.
    """
    left_order = parabolic_order(rs, left)
    return sorted(
        (w.length, w.action, left_order // parabolic_order(rs, to_simple & left), fixed)
        for w, descents, to_simple, fixed in table
        if not descents & left
    )


def _transposed_cells(rs, table, left, right):
    """W_I\\W/W_J from the Kilmoyer cells of W_J\\W/W_I (table over W/W_I).

    Inversion maps the cells of W_J\\W/W_I onto those of W_I\\W/W_J and
    keeps minimal representatives, lengths and star invariance; a cell of
    |W_J| / |W_K| cosets of W_I there holds |W_I| / |W_K| cosets of W_J.
    """
    left_order, right_order = parabolic_order(rs, left), parabolic_order(rs, right)
    return sorted(
        (length, WeylElement(action).inverse().action, size * left_order // right_order, fixed)
        for length, action, size, fixed in _kilmoyer_cells(rs, table, right)
    )


def sigma_stable_varieties(label, max_index):
    """Every sigma-stable circled set of label whose quotient is small enough."""
    ctype = CartanType.from_string(label)
    rs = build_root_system(ctype)
    sigma = twist_aut(rs)
    for k in range(1, rs.rank + 1):
        for circled in itertools.combinations(range(1, rs.rank + 1), k):
            fv = FlagVariety(ctype, frozenset(circled))
            if (
                sigma.stabilizes(circled)
                and weyl_order(rs) // parabolic_order(rs, fv.levi_nodes) <= max_index
            ):
                yield fv


def sigma_fixed_reference(fv):
    """Conormed polynomial on the permutation side alone.

    Counts by length the minimal coset reps w of W/W_Levi whose
    sigma-mapped reduced word multiplies back to w.
    """
    rs = build_root_system(fv.ambient)
    sigma = twist_aut(rs)
    sigma_tables = [reflection_tables(rs)[sigma(i) - 1] for i in range(1, rs.rank + 1)]
    counts = {}
    for _, action in coset_actions(rs, fv.levi_nodes):
        w = WeylElement(action)
        conj = tuple(range(rs.num_positive))
        for i in reduced_word(rs, w):
            conj = tuple(conj[x] if x >= 0 else ~conj[~x] for x in sigma_tables[i - 1])
        if conj == w.action:
            counts[w.length] = counts.get(w.length, 0) + 1
    return length_counts_to_poly(counts)


def _subspace_levels(points, perp, span, top):
    """The totally isotropic subspaces of dimension <= top, as their covers.

    ``points`` is the set of nonzero isotropic vectors, ``perp[v]`` the
    points orthogonal to v, and ``span(space, v)`` the subspace that
    space and v span, as a sorted tuple of vectors, zero included.  Level d
    holds, for each subspace of dimension d, the indices in level d - 1
    of its subspaces of dimension d - 1.  Each d-subspace T is grown once
    from every (d - 1)-subspace S it contains: the vectors of each T
    grown from S are covered before the next point is tried, and two
    such T meet in S.  Only two levels of vector sets live at a time.
    """
    frontier = [(0,)]
    levels = [[[]]]
    for _ in range(top):
        grown = {}
        for s, space in enumerate(frontier):
            covered = set(space)
            for v in points.intersection(*(perp[u] for u in space if u)):
                if v not in covered:
                    new = span(space, v)
                    covered.update(new)
                    grown.setdefault(new, []).append(s)
        frontier = list(grown)
        levels.append(list(grown.values()))
    return levels


def _flag_count(levels, dims) -> int:
    """Flags of subspaces of the dimensions dims, from ``_subspace_levels``.

    Each subspace of a named dimension sums the chain counts of its own
    subspaces of the previous named dimension, found by walking down its
    covers, so no two subspaces are compared.
    """
    chains = [1] * len(levels[dims[0]])
    for low, high in zip(dims, dims[1:]):
        counts = []
        for below in levels[high]:
            subs = set(below)
            for d in range(high - 1, low, -1):
                subs = set().union(*(levels[d][s] for s in subs))
            counts.append(sum(chains[s] for s in subs))
        chains = counts
    return sum(chains)


@functools.cache
def _unitary_levels(n):
    """``_subspace_levels`` of the Hermitian form on F_4^(n+1), to dimension (n + 1) // 2.

    A vector is an int, coordinate i in bits 2i and 2i + 1 as b0 + b1 a
    with a^2 = a + 1, so addition is xor and every coordinate is read at
    once through the masks of its low and high bits.
    """
    low = sum(1 << (2 * i) for i in range(n + 1))

    def times_a(v):  # a (b0 + b1 a) = b1 + (b0 + b1) a
        b0, b1 = v & low, v >> 1 & low
        return b1 | (b0 ^ b1) << 1

    def orthogonal(u, v):
        # sum u_i conj(v_i), conj(b0 + b1 a) = (b0 + b1) + b1 a, is zero
        a0, a1 = u & low, u >> 1 & low
        c1 = v >> 1 & low
        c0 = v & low ^ c1
        real = (a0 & c0 ^ a1 & c1).bit_count()
        imaginary = (a0 & c1 ^ a1 & c0 ^ a1 & c1).bit_count()
        return real % 2 == imaginary % 2 == 0

    def span(space, v):
        a_v = times_a(v)
        return tuple(sorted({u ^ c for u in space for c in (0, v, a_v, a_v ^ v)}))

    points = {v for v in range(1, 4 ** (n + 1)) if orthogonal(v, v)}
    perp = {}
    for u in points:
        if u not in perp:  # one set for the three nonzero multiples of u
            a_u = times_a(u)
            perp[u] = perp[a_u] = perp[a_u ^ u] = {v for v in points if orthogonal(u, v)}
    return _subspace_levels(points, perp, span, (n + 1) // 2)


def unitary_flag_count(n: int, circled: Iterable[int]) -> int:
    """F_2-points of the flag variety X_I of 2A_n, counted as linear algebra.

    The quasi-split unitary group of 2A_n over F_2 preserves the Hermitian
    form sum x_i conj(x_i) on F_4^(n+1), with conj(x) = x^2.  A sigma-stable
    circled set I names the flags of totally isotropic subspaces of the
    dimensions min(i, n + 1 - i), i in I; this counts them, subspace by
    subspace, with no root system and no Weyl group.  The subspaces of
    each n are grown once (``_unitary_levels``).
    """
    return _flag_count(_unitary_levels(n), sorted({min(i, n + 1 - i) for i in circled}))


@functools.cache
def _orthogonal_levels(n):
    """``_subspace_levels`` of the minus-type form on F_2^(2n), to dimension n - 1.

    A vector is an int, bit k holding x(k+1), so addition is xor.  Two
    singular vectors u, v are orthogonal iff u + v is singular, since the
    polar form is Q(u + v) - Q(u) - Q(v).
    """

    def form(v):
        pairs = sum((v >> (2 * i) & 1) & (v >> (2 * i + 1) & 1) for i in range(n))
        return (pairs + (v >> (2 * n - 2) & 1) + (v >> (2 * n - 1) & 1)) % 2

    points = {v for v in range(1, 1 << (2 * n)) if form(v) == 0}
    perp = {u: {v for v in points if u ^ v in points} for u in points}
    return _subspace_levels(
        points, perp, lambda space, v: tuple(sorted({*space, *(u ^ v for u in space)})), n - 1
    )


def orthogonal_flag_count(n: int, circled: Iterable[int]) -> int:
    """F_2-points of the flag variety X_I of 2D_n, counted as linear algebra.

    The quasi-split orthogonal group of 2D_n over F_2 preserves the
    minus-type quadratic form x1 x2 + ... + x(2n-3) x(2n-2) + x(2n-1)^2 +
    x(2n-1) x(2n) + x(2n)^2 on F_2^(2n), whose totally singular subspaces
    have dimension at most n - 1.  A sigma-stable circled set I names the
    flags of totally singular subspaces of the dimensions i for the nodes
    i <= n - 2 in I, and n - 1 for the pair {n - 1, n}; this counts them,
    with no root system and no Weyl group.  The subspaces of each n are
    grown once (``_orthogonal_levels``).
    """
    return _flag_count(_orthogonal_levels(n), sorted({min(i, n - 1) for i in circled}))


@functools.cache
def _symplectic_levels(n):
    """``_subspace_levels`` of the alternating form on F_3^(2n), to dimension n.

    A vector is an int, coordinate k in bits 3k to 3k + 2, so adding two
    vectors adds every coordinate at once; a sum of 3 or 4 loses 3.  The
    form is the sum of x(2i-1) y(2i) - x(2i) y(2i-1), and every vector is
    isotropic.
    """
    low = sum(1 << (3 * k) for k in range(2 * n))

    def add(u, v):
        x = u + v
        return x - 3 * ((x >> 2 | x >> 1 & x) & low)

    coords = {
        sum(c << (3 * k) for k, c in enumerate(x)): x
        for x in itertools.product(range(3), repeat=2 * n)
    }
    del coords[0]
    perp = {}
    for u, x in coords.items():
        if u not in perp:  # one set for u and -u = u + u
            # B(u, y) as the dot product of y with J x
            jx = [c for i in range(n) for c in (-x[2 * i + 1], x[2 * i])]
            perp[u] = perp[add(u, u)] = {
                v for v, y in coords.items() if sum(map(operator.mul, jx, y)) % 3 == 0
            }

    def span(space, v):
        twice = add(v, v)
        return tuple(sorted({w for u in space for w in (u, add(u, v), add(u, twice))}))

    return _subspace_levels(set(coords), perp, span, n)


def symplectic_flag_count(n: int, circled: Iterable[int]) -> int:
    """F_3-points of the flag variety X_I of C_n, counted as linear algebra.

    Sp(2n) over F_3 preserves the standard alternating form on F_3^(2n),
    whose totally isotropic subspaces have dimension at most n.  A circled
    set I names the flags of totally isotropic subspaces of the dimensions
    i in I; this counts them, with no root system and no Weyl group.
    W(B_n) = W(C_n), so the count is also that of B_n's quotient
    polynomial at 3.  The subspaces of each n are grown once
    (``_symplectic_levels``).
    """
    return _flag_count(_symplectic_levels(n), sorted(set(circled)))


def root_system_to_json(rs: RootSystem) -> dict:
    """Golden-file form: type label, Cartan matrix, ordered positive roots."""
    return {
        "type": str(rs.ctype),
        "cartan": [list(row) for row in rs.cartan],
        "positive_roots": [list(v) for v in rs.positive_roots],
    }


def from_json_dict(obj: dict) -> IntPoly:
    """The polynomial of a polynomial payload's decimal ``coeffs``."""
    return IntPoly([int(c) for c in obj["coeffs"]])
