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
space over F_4 and of a minus-type quadratic space over F_2, and
``symplectic_flag_count`` the F_3-points of those of C_n (and so of
B_n) as flags of a symplectic space over F_3.  All three take one walk
of the reduced echelon bases of the totally isotropic subspaces over
F_q (``_isotropic_subspace_counts``) and one product of its counts
with those of the plain flags (``_flag_product``).  This module
imports only magicsq, so the script runs without the test extras.
Also here: the golden-file forms of a root system and a polynomial, a
simple root's index and a polynomial's coefficient, which only the
tests read.
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


def _minus(q, x, y):
    """x - y in F_q, q = 2, 3 or 4, an element being an int below q.

    F_2 and F_3 are the integers mod q; F_4 is b0 + b1 a with a^2 = a + 1,
    the int b0 + 2 b1, so its subtraction, like its addition, is xor.
    """
    return x ^ y if q == 4 else (x - y) % q


def _times(q, x, y):
    """x y in F_q, as in ``_minus``.

    In F_4, (x0 + x1 a)(y0 + y1 a) = (x0 y0 + x1 y1) + (x0 y1 + x1 y0 + x1 y1) a.
    """
    if q != 4:
        return x * y % q
    x0, x1, y0, y1 = x & 1, x >> 1, y & 1, y >> 1
    return (x0 & y0 ^ x1 & y1) | (x0 & y1 ^ x1 & y0 ^ x1 & y1) << 1


# conj(x) = x^2 on F_4: conj(b0 + b1 a) = (b0 + b1) + b1 a swaps a and a + 1
_F4_CONJ = (0, 1, 3, 2)


def _digits(v, q, size):
    """The coordinates of the vector of index v = sum v_k q^k of F_q^size."""
    return [v // q**k % q for k in range(size)]


def _kernel_mask(f, q) -> int:
    """Bit mask of the vectors v of F_q^len(f) with sum f_k v_k = 0.

    A vector is its index sum v_k q^k, and bit v of the mask is set iff v
    is in the kernel.  The vectors of each value are built digit by digit:
    v + c q^k has the value of v plus c f_k.
    """
    by_value = [1] + [0] * (q - 1)  # the zero vector of F_q^0 has value 0
    width = 1
    for fk in f:
        by_value = [
            functools.reduce(
                operator.or_,
                (by_value[_minus(q, r, _times(q, c, fk))] << c * width for c in range(q)),
            )
            for r in range(q)
        ]
        width *= q
    return by_value[0]


def _isotropic_subspace_counts(size, q, perp, isotropic, top):
    """The number of totally isotropic subspaces of F_q^size of each dimension <= top.

    ``perp(v)`` is the bit mask of the vectors orthogonal to the vector of
    index v, and ``isotropic`` the mask of the vectors isotropic
    themselves (see ``_kernel_mask``).  Each subspace is walked once,
    depth first, as its reduced row echelon basis: rows r_1, ..., r_d
    with leading entry 1 at increasing columns and zeros at the other
    rows' leading columns.  Its first d - 1 rows are the basis of a
    subspace one dimension down, so a subspace grows by each isotropic
    row v orthogonal to every row so far (the common mask) whose leading
    1 lies at a column p after the last leading column, where every row
    so far is zero.  Isotropic rows orthogonal to each other span a
    totally isotropic subspace, for a Hermitian form as for a quadratic
    one, whose polar form is Q(u + v) - Q(u) - Q(v).  A frame keeps its
    rows only as the mask of the columns where one of them is nonzero,
    and the subspaces of dimension top are counted, not walked.
    """
    leading = [  # the vectors whose first nonzero coordinate is a 1 at p
        sum(1 << (q**p + q ** (p + 1) * t) for t in range(q ** (size - p - 1)))
        for p in range(size)
    ]

    @functools.cache
    def columns(v):  # the columns where v is nonzero, as a bit mask
        return sum(1 << k for k, c in enumerate(_digits(v, q, size)) if c)

    counts = [1] + [0] * top
    # dimension, the vectors the rows leave, last leading column, the rows' columns
    stack = [(0, isotropic, -1, 0)]
    while stack:
        d, common, last, used = stack.pop()
        d += 1
        for p in range(last + 1, size):
            if used >> p & 1:
                continue
            grow = common & leading[p]
            counts[d] += grow.bit_count()
            while d < top and grow:
                low = grow & -grow
                grow ^= low
                v = low.bit_length() - 1
                stack.append((d, common & perp(v), p, used | columns(v)))
    return counts


def _alternating_perp(n, q):
    """``perp`` of the form sum x(2i-1) y(2i) - x(2i) y(2i-1) on F_q^(2n), q prime.

    B(x, .) is the functional J x.
    """

    @functools.cache
    def perp(v):
        x = _digits(v, q, 2 * n)
        return _kernel_mask([c for i in range(n) for c in (-x[2 * i + 1] % q, x[2 * i])], q)

    return perp


@functools.cache
def _subspace_counts(m, q):
    """The number of subspaces of F_q^m of each dimension: the zero form's counts."""
    everything = (1 << q**m) - 1
    return _isotropic_subspace_counts(m, q, lambda v: everything, everything, m)


def _flag_product(counts, q, dims) -> int:
    """Flags of totally isotropic subspaces of the dimensions dims, from their counts.

    Every subspace of a totally isotropic space is totally isotropic, so
    a flag is a totally isotropic subspace of the top dimension m of
    dims and a flag of the dimensions below m in it, a plain space
    F_q^m, and so on down.
    """
    dims = sorted(set(dims))
    flags = 1
    while dims:
        top = dims.pop()
        flags *= counts[top]
        counts = _subspace_counts(top, q)
    return flags


@functools.cache
def _unitary_counts(n):
    """``_isotropic_subspace_counts`` of the Hermitian form on F_4^(n+1).

    The walk goes to dimension (n + 1) // 2.  h(u, v) = sum u_i conj(v_i)
    is zero iff v is in the kernel of the functional sum conj(u_i) x_i,
    and h(v, v) is the number of nonzero coordinates of v mod 2, as
    x conj(x) = x^3 = 1 for x != 0.
    """

    @functools.cache
    def perp(v):
        return _kernel_mask([_F4_CONJ[c] for c in _digits(v, 4, n + 1)], 4)

    isotropic = sum(
        1 << v for v in range(4 ** (n + 1)) if sum(map(bool, _digits(v, 4, n + 1))) % 2 == 0
    )
    return _isotropic_subspace_counts(n + 1, 4, perp, isotropic, (n + 1) // 2)


def unitary_flag_count(n: int, circled: Iterable[int]) -> int:
    """F_2-points of the flag variety X_I of 2A_n, counted as linear algebra.

    The quasi-split unitary group of 2A_n over F_2 preserves the Hermitian
    form sum x_i conj(x_i) on F_4^(n+1), with conj(x) = x^2.  A sigma-stable
    circled set I names the flags of totally isotropic subspaces of the
    dimensions min(i, n + 1 - i), i in I; this counts them, with no root
    system and no Weyl group, from the counts of totally isotropic
    subspaces walked once per n (``_unitary_counts``).
    """
    return _flag_product(_unitary_counts(n), 4, {min(i, n + 1 - i) for i in circled})


@functools.cache
def _orthogonal_counts(n):
    """``_isotropic_subspace_counts`` of the minus-type form on F_2^(2n), to dimension n - 1.

    A vector is an int, bit k holding x(k+1).  The polar form
    Q(u + v) - Q(u) - Q(v) is the alternating form of ``_alternating_perp``
    over F_2, so a vector is isotropic itself iff it is singular, Q(v) = 0.
    """

    def form(v):
        pairs = sum((v >> (2 * i) & 1) & (v >> (2 * i + 1) & 1) for i in range(n))
        return (pairs + (v >> (2 * n - 2) & 1) + (v >> (2 * n - 1) & 1)) % 2

    singular = sum(1 << v for v in range(1 << (2 * n)) if form(v) == 0)
    return _isotropic_subspace_counts(2 * n, 2, _alternating_perp(n, 2), singular, n - 1)


def orthogonal_flag_count(n: int, circled: Iterable[int]) -> int:
    """F_2-points of the flag variety X_I of 2D_n, counted as linear algebra.

    The quasi-split orthogonal group of 2D_n over F_2 preserves the
    minus-type quadratic form x1 x2 + ... + x(2n-3) x(2n-2) + x(2n-1)^2 +
    x(2n-1) x(2n) + x(2n)^2 on F_2^(2n), whose totally singular subspaces
    have dimension at most n - 1.  A sigma-stable circled set I names the
    flags of totally singular subspaces of the dimensions i for the nodes
    i <= n - 2 in I, and n - 1 for the pair {n - 1, n}; this counts them,
    with no root system and no Weyl group, from the counts of totally
    singular subspaces walked once per n (``_orthogonal_counts``).
    """
    return _flag_product(_orthogonal_counts(n), 2, {min(i, n - 1) for i in circled})


@functools.cache
def _symplectic_counts(n):
    """``_isotropic_subspace_counts`` of the alternating form on F_3^(2n), to dimension n.

    Every vector of an alternating form is isotropic.
    """
    return _isotropic_subspace_counts(2 * n, 3, _alternating_perp(n, 3), (1 << 9**n) - 1, n)


def symplectic_flag_count(n: int, circled: Iterable[int]) -> int:
    """F_3-points of the flag variety X_I of C_n, counted as linear algebra.

    Sp(2n) over F_3 preserves the standard alternating form on F_3^(2n),
    whose totally isotropic subspaces have dimension at most n.  A circled
    set I names the flags of totally isotropic subspaces of the dimensions
    i in I; this counts them, with no root system and no Weyl group, from
    the counts of totally isotropic subspaces walked once per n
    (``_symplectic_counts``).  W(B_n) = W(C_n), so the count is also that
    of B_n's quotient polynomial at 3.
    """
    return _flag_product(_symplectic_counts(n), 3, circled)


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
