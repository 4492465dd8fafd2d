"""Weyl group orders, quotient polynomials, coset counts and double cosets.

What the commands and ``verify`` enumerate, they walk on one
representation, the W-orbit of a weight (below).  Where a representative
w must be named, it is named by l(w) and its images of the simple roots,
as signed root indices; the simple roots are a basis, so they fix w.
Signed-root encoding: a nonnegative index r denotes the positive root
positive_roots[r]; the bitwise complement ~r denotes its negative.
Whole elements as signed-root permutations, with their descents and
reduced words, are the tests' reference (``tests/_reference.py``), not
part of the package.

The length generating function of a quotient W/W_J is computed in closed
form by ``quotient_poly``: Solomon's product of [d]_t over the degrees of
W divided by the same product over the degrees of W_J, read off the
heights of the roots supported on J.  Given a diagram automorphism
sigma, the same function counts only the sigma-fixed minimal coset reps,
the cells of the quasi-split flag variety, by Steinberg's product of
t^d - eps_d, with each sign eps_d read off the degrees of one
sigma-stable component of J at a time.  It enumerates nothing, so it
answers every quotient, E8 included.

``coset_length_counts`` and ``double_cosets`` walk the W-orbit of the
weight lambda_J with stabilizer W_J on weight coordinates, breadth-first,
two levels at a time, each vector packed into one int, a coordinate per
byte (``_Packing``), so a vector's coordinates are its own bytes.  The
packing is linear, so a reflection s_i is one multiply-subtract,
u - mu_i * row_i with row_i the packed Cartan row of node i.  Both walks
make each vector once, from its parent across its first negative
coordinate (``_orbit_levels``), so a level is a list with no dedup.
The counts cross-check the split ``quotient_poly`` in the tests and in
``verify``.  ``double_cosets`` walks whichever of W.lambda_I and
W.lambda_J is smaller: a cell of W_I\\W/W_J is an orbit vector of
W.lambda_J dominant on the left nodes I, or, through the inversion
w -> w^-1 onto W_J\\W/W_I, an orbit vector of W.lambda_I dominant on J.
Each walked vector carries its rep's images of the simple roots: on
W.lambda_J gathered through the simple reflections as signed root
permutations (``_signed_reflections``, built for that walk alone), on
W.lambda_I packed into one int (``_InversePacking``).

Every enumeration of a quotient, the full group included, checks the
index |W|/|W_J| at call time (``_check_index``) and refuses one beyond
its limit; ``double_cosets`` refuses only when both |W/W_I| and |W/W_J|
are beyond it.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence

from ._record import record
from .polyring import IntPoly, eval_rational
from .rootsys import DiagramAut, RootSystem, components, raising_reflections

# Index limits of _check_index: the enumerations that return an item per
# coset or cell (minimal_coset_reps, double_cosets) and the bare orbit count.
_ENUMERATION_LIMIT = 100_000
_ORBIT_COUNT_LIMIT = 2_000_000


@record
class DoubleCosetCell:
    """One double coset W_I w W_J, recorded through its W^J orbit; its minimal
    representative w as l(w) and as its images of ``positive_roots[:rank]``,
    the simple roots (a_rank first), which fix w."""

    length: int
    simple_images: tuple[int, ...]
    orbit_size: int
    star_invariant: bool


def _signed_reflections(rs: RootSystem) -> list[tuple[int, ...]]:
    """Each simple reflection s_j as a signed permutation of the roots.

    ``table + (~table[n-1], ..., ~table[0])``, with table[r] the signed
    index of s_j(positive_roots[r]): Python's negative indexing then sends
    ~r to ~table[r], so one lookup maps a signed root.  s_j swaps each
    root it raises with the raised image, negates a_j and fixes the rest.
    Every entry, and so every rep the walk gathers from the tables, is an
    object of one pool with an int per signed index, so the tables hold
    2N ints in all, not rank * 2N (A199: 140 MB peak RSS, 378 MB with an
    int per entry).
    """
    roots = rs.positive_roots
    n = len(roots)
    pool = tuple(range(n)) + tuple(range(-n, 0))  # pool[x] == x for -n <= x < n
    index = dict(zip(roots, pool))
    identity = pool[:n]
    tables = [list(identity) for _ in range(rs.rank)]
    raised = raising_reflections(rs.cartan)
    for r, v in zip(pool, roots):
        for j, w in raised(v):
            up = index[w]
            tables[j][r], tables[j][up] = up, r
    for j, table in enumerate(tables):
        a_j = rs.rank - 1 - j  # the height-one roots come first, a_rank first
        table[a_j] = pool[~a_j]
    inverted = pool[::-1]  # inverted[x] is pool[~x]
    return [tuple(t) + _compose(inverted, t[::-1]) for t in tables]


def _compose(signed: tuple[int, ...], action: tuple[int, ...]) -> tuple[int, ...]:
    """The action of u * w, given u's signed table and w's action.

    One C-level gather; itemgetter returns a bare item, not a 1-tuple,
    for a single index (A1).
    """
    if len(action) == 1:
        return (signed[action[0]],)
    return operator.itemgetter(*action)(signed)


def _picker(positions: Sequence[int]) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """seq -> (seq[p] for p in positions) as a tuple, in one C-level call.

    itemgetter returns a bare item for a single index, so a single
    position, or none, is taken as a slice.
    """
    if len(positions) > 1:
        return operator.itemgetter(*positions)
    if positions:
        return operator.itemgetter(slice(positions[0], positions[0] + 1))
    return operator.itemgetter(slice(0))


def _degrees(rs: RootSystem, nodes: Iterable[int]) -> list[int]:
    """Degrees of W_J, sorted, from the heights of the roots supported on J.

    The partition counting positive roots by height is conjugate to the
    partition of the exponents (Kostant); this holds on each component of
    J, so on W_J.  Degrees are exponents plus one.
    """
    J = rs.check_nodes(nodes)
    off = _picker([i for i in range(rs.rank) if i + 1 not in J])
    m = Counter(sum(v) for v in rs.positive_roots if not any(off(v))).values()
    return sorted(1 + sum(h >= k for h in m) for k in range(1, len(J) + 1))


def fundamental_degrees(rs: RootSystem) -> list[int]:
    """Degrees d_1 <= ... <= d_rank, from the root-height partition."""
    return _degrees(rs, rs.node_set())


def weyl_order(rs: RootSystem) -> int:
    """|W|, the product of the fundamental degrees."""
    return math.prod(fundamental_degrees(rs))


def parabolic_order(rs: RootSystem, nodes: Iterable[int]) -> int:
    """Order of the parabolic subgroup W_J, the product of its degrees."""
    return math.prod(_degrees(rs, nodes))


def _factors(rs: RootSystem, nodes: Iterable[int], sigma: DiagramAut | None) -> Counter:
    """The sigma-fixed elements of W_J counted by length, as factors.

    Steinberg: prod (t^d - eps_d) over the degrees d of W_J divided by
    t^|O| - 1 for each sigma-orbit O of J.  The factors t - 1 above and
    below match in number, since the value at 1 counts the fixed
    elements, so each t^d - 1 enters as [d]_t, counted under key d, and
    each t^d + 1 under key -d; a negative count is a factor below.
    Without sigma every eps_d is 1 and every orbit one node: Solomon's
    prod [d]_t.  With it, eps comes from the degrees of one connected
    component K of J at a time: 1 where sigma fixes every node of K;
    (-1)^d where sigma moves K and W_K has an odd degree, since sigma is
    -w0 there (A_k, D_odd, E6); on a D_2m whose end nodes sigma swaps,
    -1 on one degree 2m; and a pair of components that sigma swaps gives
    (t^d - 1)(t^d + 1) for each degree d of one of them.
    """
    if sigma is None:
        return Counter(_degrees(rs, nodes))
    out: Counter = Counter()
    for comp in components(rs, nodes):
        degrees = _degrees(rs, comp)
        image = [sigma(i) for i in comp]
        out.update(degrees)
        out[2] -= sum(sigma(i) > i for i in comp)  # t^2 - 1 per orbit {i, sigma(i)}
        if image == comp or min(image) > comp[0]:
            continue  # sigma fixes every node of K, or K is the first of a swapped pair
        if image[0] not in comp:  # the second of a swapped pair
            negative = degrees
        else:  # sigma is -w0 on K if W_K has an odd degree; K is D_2m otherwise
            negative = [d for d in degrees if d % 2] or [len(comp)]
        out.subtract(negative)
        out.update(-d for d in negative)
    return out


def quotient_poly(
    rs: RootSystem, parabolic: Iterable[int], sigma: DiagramAut | None = None
) -> IntPoly:
    """Length generating function of the minimal coset reps of W/W_J.

    Solomon's formula: prod [d]_t over the degrees d of W divided by the
    same product over the degrees of W_J, read off the root heights on J,
    where [d]_t = 1 + t + ... + t^(d-1).  With a diagram automorphism
    sigma that stabilizes J, only the sigma-fixed reps count, and the sum
    is |G(F_q)/P(F_q)| at t = q for the quasi-split form (Steinberg,
    Mem. AMS 80, 1968): the sigma-fixed elements of W by length divided
    by those of W_J (``_factors``), that is prod (t^d - eps_d) over W,
    divided by the same over W_J and by t^|O| - 1 for each sigma-orbit O
    of nodes off J.  The factors the two sides share cancel before
    anything is multiplied out, so only the two multiset differences
    count against MAX_DEGREE.  The division is exact; a remainder would
    mean corrupt root data and raises InexactDivision.
    """
    J = rs.check_nodes(parabolic)
    if sigma is not None and not sigma.stabilizes(J):
        raise ValueError(f"sigma does not stabilize the parabolic nodes {sorted(J)}")
    net = _factors(rs, rs.node_set(), sigma)
    net.subtract(_factors(rs, J, sigma))

    def factor(k):  # [k]_t, or t^-k + 1 for k < 0
        return IntPoly((1,) * k if k > 0 else (1,) + (0,) * (-k - 1) + (1,))

    return eval_rational(
        [factor(k) for k in (+net).elements()], [factor(k) for k in (-net).elements()]
    )


def _index(rs: RootSystem, J: frozenset[int]) -> int:
    return weyl_order(rs) // parabolic_order(rs, J)


def _check_index(index: int, limit: int) -> int:
    """The index |W|/|W_J|, refused above limit before anything is built."""
    if index > limit:
        raise ValueError(
            f"W/W_J has {index} cosets, above the enumeration limit of {limit}"
        )
    return index


def minimal_coset_reps(
    rs: RootSystem, parabolic: Iterable[int]
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(length, simple_images) for each minimal representative of W / W_parabolic.

    Read off ``double_cosets`` with I empty, where each orbit vector of
    W.lambda_J is its own cell; that orbit is the one walked, since
    |W| >= |W/W_J|.  Deterministic order: by (length, simple_images),
    which is the (length, action) order of the representatives as
    permutations (see ``double_cosets``).  All of it runs at call time,
    so a quotient with more than _ENUMERATION_LIMIT cosets is refused,
    the full group (empty parabolic) included, before an iterator is
    returned.
    """
    return iter([(c.length, c.simple_images) for c in double_cosets(rs, (), parabolic)])


class _Packing:
    """Weight vectors packed into one int: mu_i + 2^7 in byte i.

    The walks read the coordinates back as ``u.to_bytes(rank, "little")``.
    The packing is linear, so reflecting in wall i is one multiply-subtract:
    s_i(u) = u - mu_i * rows[i], where rows[i] is the Cartan row of a_i
    packed without the bias.  No byte ever carries: an orbit vector of
    lambda_J has |mu_i| = |<lambda_J, b^v>| for a root b, at most
    <lambda_J, theta^v> for the highest coroot theta^v, the sum of its
    coefficients off J.  Those are at most 2 on A-D, so the bound is at
    most 2 per node off J there, and at most h - 1 <= 29 (E8) on the
    exceptional types, for the Coxeter number h.  |W/W_J| >= 2^k for k
    nodes off J, so below either index limit (_check_index) |mu_i| <= 40
    < 2^7; only an index of 2^64 or more could overflow a byte.
    """

    BIAS = 1 << 7

    def __init__(self, rs: RootSystem):
        self.rows = [sum(r << (8 * j) for j, r in enumerate(row)) for row in rs.cartan]

    def pack(self, mu: Iterable[int]) -> int:
        return sum((m + self.BIAS) << (8 * i) for i, m in enumerate(mu))

    @staticmethod
    def sign_mask(positions: Iterable[int]) -> int:
        """u & mask == mask iff mu_i >= 0 at every position."""
        return sum(1 << (8 * i + 7) for i in positions)


class _InversePacking:
    """A Weyl element w by its images of the simple roots, packed into one int.

    A root x (simple-root coordinates, each below 2^7 in absolute value: at
    most 6, on E8) packs linearly as sum x_j 2^(8j), in a field of
    W = 8 * rank bits; slot r of the element's int holds the field of
    w(positive_roots[r]), the simple root a_(rank - r).  Every packing is
    linear, so w s_i, with images w(a_k) - <a_k, a_i^v> w(a_i), is one
    multiply-subtract (``reflect``): the field of w(a_i) times the packed
    Cartan column i.  A field is read biased by 2^(W-1), so no field borrows
    from the next.
    """

    def __init__(self, rs: RootSystem):
        rank = rs.rank
        width = 8 * rank
        self.nbytes = rank * rank
        self.slots = [slice(n, n + rank) for n in range(0, rank * rank, rank)]
        self.field = (1 << width) - 1
        self.half = 1 << (width - 1)
        self.bias = sum(self.half << (width * r) for r in range(rank))
        # wall i: the shift of slot rank - 1 - i, and the packed column i
        self.walls = [
            (width * (rank - 1 - i),
             sum(rs.cartan[rank - 1 - r][i] << (width * r) for r in range(rank)))
            for i in range(rank)
        ]
        roots = [sum(c << (8 * j) for j, c in enumerate(v)) for v in rs.positive_roots]
        self.identity = sum(x << (width * r) for r, x in enumerate(roots[:rank]))
        # the biased bytes of a root's field -> its signed root index
        self.index = {}
        for r, x in enumerate(roots):
            self.index[(self.half + x).to_bytes(rank, "little")] = r
            self.index[(self.half - x).to_bytes(rank, "little")] = ~r

    def reflect(self, w: int, i: int) -> int:
        """w s_i, for the reflection in wall i (node i + 1)."""
        shift, column = self.walls[i]
        return w - ((((w + self.bias) >> shift) & self.field) - self.half) * column

    def images(self, w: int) -> tuple[int, ...]:
        """w on positive_roots[:rank], as signed root indices."""
        raw = (w + self.bias).to_bytes(self.nbytes, "little")
        return tuple(map(self.index.__getitem__, map(raw.__getitem__, self.slots)))


def _orbit_levels(
    rs: RootSystem, J: frozenset[int], packing: _Packing
) -> Iterator[list[int]]:
    """Yield the W-orbit of lambda_J (1 off J, 0 on J) level by level.

    Coordinates are mu_i = <mu, a_i^v>, and the orbit vectors are the
    images w.lambda_J of the minimal coset reps w of W/W_J.  Crossing
    wall i from the positive side (mu_i > 0) adds exactly one inversion,
    so level l holds the images of the reps of length l, and only two
    levels live in memory at a time.  A vector v of the next level has a
    parent s_i v for every i with v_i < 0; v is made only from the parent
    across its first such wall, so each vector is made once and a level
    needs no dedup: v = s_i u is kept iff v_j >= 0 for every j < i, one
    test of v's sign bits.  Vectors are packed by ``packing``.
    """
    bias, rows, rank = packing.BIAS, packing.rows, rs.rank
    firsts = [packing.sign_mask(range(i)) for i in range(rank)]
    level = [packing.pack(0 if (i + 1) in J else 1 for i in range(rank))]
    while level:
        yield level
        nxt = []
        for u in level:
            for i, f in enumerate(u.to_bytes(rank, "little")):
                if f > bias:
                    v = u - (f - bias) * rows[i]
                    if v & firsts[i] == firsts[i]:
                        nxt.append(v)
        level = nxt


def coset_length_counts(rs: RootSystem, parabolic: Iterable[int]) -> dict[int, int]:
    """Count minimal coset representatives of W/W_J by length.

    Walks the W-orbit of the dominant weight vector whose stabilizer is
    W_J (``_orbit_levels``); never builds a permutation.
    """
    J = rs.check_nodes(parabolic)
    index = _check_index(_index(rs, J), _ORBIT_COUNT_LIMIT)
    counts = dict(enumerate(map(len, _orbit_levels(rs, J, _Packing(rs)))))
    if sum(counts.values()) != index:
        raise AssertionError(
            f"orbit size {sum(counts.values())} != |W|/|W_J| = {index}; root data corrupt"
        )
    return counts


def length_counts_to_poly(counts: dict[int, int]) -> IntPoly:
    out = [0] * (max(counts) + 1)
    for length, c in counts.items():
        out[length] = c
    return IntPoly(out)


def longest_element_length(rs: RootSystem, parabolic: Iterable[int]) -> int:
    """Length of the longest minimal representative of W/W_parabolic.

    Equals the number of positive roots not supported on the parabolic
    node set, N minus the sum of the exponents d - 1 of W_J; with the
    circled-node convention this is the dimension of the flag variety
    whose Levi sits on ``parabolic``.
    """
    return rs.num_positive - sum(d - 1 for d in _degrees(rs, parabolic))


def double_cosets(
    rs: RootSystem,
    left: Iterable[int],
    right: Iterable[int],
    star: DiagramAut | None = None,
) -> list[DoubleCosetCell]:
    """Partition W/W_right into W_left orbits (the double cosets W_I\\W/W_J).

    Each cell records its unique minimal-length representative w (its
    length and its images of the simple roots), its size (number of right
    cosets it contains), and whether the star action maps the cell to
    itself.  star=None means the identity action, under which every cell
    is invariant.  Cells are sorted by (length, simple_images), which is
    the (length, action) order of the representatives as permutations:
    the simple roots lead the positive roots and form a basis, so two
    distinct representatives first differ on them.

    The cells are read off a weight orbit (Bjorner-Brenti, Combinatorics
    of Coxeter Groups, 2.7), W.lambda_J or W.lambda_I, whichever is
    smaller.  On W.lambda_J each W_I-orbit holds exactly one vector mu
    with mu_i >= 0 for every i in I, the image of the cell's minimal
    representative; the cell holds |W_I| / |W_K| cosets with
    K = {i in I : mu_i = 0}, the stabilizer of mu in W_I; and the star
    maps the cell of mu to the cell of mu with permuted coordinates.
    Inversion w -> w^-1 maps W_I\\W/W_J onto W_J\\W/W_I and keeps minimal
    representatives and lengths, so on W.lambda_I the vectors nu with
    nu_j >= 0 on J give the cells of the inverses, and K = J n zeros(nu)
    gives the same size |W_I| / |W_K|, the order of W_I n w W_J w^-1.

    A quotient is refused only when both W/W_I and W/W_J have more than
    _ENUMERATION_LIMIT cosets; the message names |W/W_J|.
    """
    I = rs.check_nodes(left)
    J = rs.check_nodes(right)
    if star is not None:
        if not star.stabilizes(I):
            raise ValueError(f"star action does not stabilize left nodes {sorted(I)}")
        if not star.stabilizes(J):
            raise ValueError(f"star action does not stabilize right nodes {sorted(J)}")
    # |W| and |W_I| once for both indices and every cell size; either orbit
    # can be walked, so only both indices above the limit refuse
    order = weyl_order(rs)
    left_order = parabolic_order(rs, I)
    left_index = order // left_order
    index = order // parabolic_order(rs, J)
    if left_index > _ENUMERATION_LIMIT:
        _check_index(index, _ENUMERATION_LIMIT)
    # walk the smaller orbit; on W.lambda_I the walked reps are the inverses
    swap = left_index < index
    walked_nodes, kept_nodes = (I, J) if swap else (J, I)

    packing = _Packing(rs)
    bias, rows = packing.BIAS, packing.rows
    kept_pos = [i - 1 for i in sorted(kept_nodes)]
    mask = packing.sign_mask(kept_pos)
    rank = rs.rank
    # each vector is made once, from its parent across its first negative
    # wall (as in _orbit_levels), and carries its minimal rep, s_i times its
    # parent's, in a parallel list: on W.lambda_J as images of the simple
    # roots, on W.lambda_I as v^-1 for the walked v, packed: (s_i v)^-1 = v^-1 s_i
    inverse = _InversePacking(rs) if swap else None
    signed = None if swap else _signed_reflections(rs)
    firsts = [packing.sign_mask(range(i)) for i in range(rank)]
    level = [packing.pack(0 if (i + 1) in walked_nodes else 1 for i in range(rank))]
    reps = [inverse.identity if swap else tuple(range(rank))]
    walked = length = 0
    dominant: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = []
    while level:
        walked += len(level)
        nxt, nxt_reps = [], []
        for u, rep in zip(level, reps):
            mu = u.to_bytes(rank, "little")
            if (u & mask) == mask:
                dominant.append((length, inverse.images(rep) if swap else rep, mu))
            for i, f in enumerate(mu):
                if f > bias:
                    v = u - (f - bias) * rows[i]
                    if v & firsts[i] == firsts[i]:
                        nxt.append(v)
                        nxt_reps.append(
                            inverse.reflect(rep, i) if swap else _compose(signed[i], rep)
                        )
        level, reps = nxt, nxt_reps
        length += 1
    permute = None if star is None else _picker([star(i + 1) - 1 for i in range(rank)])
    # the size depends only on the kept coordinates, which take few values
    kept = _picker(kept_pos)
    size = functools.cache(lambda values: left_order // parabolic_order(
        rs, frozenset(i + 1 for i, m in zip(kept_pos, values) if m == bias)
    ))
    out = [
        # positional: keyword arguments take record's slower binding path
        DoubleCosetCell(length, images, size(kept(mu)), permute is None or bytes(permute(mu)) == mu)
        # reps differ on the simple roots, so the sort never compares mu
        for length, images, mu in sorted(dominant)
    ]
    if walked != min(index, left_index) or sum(c.orbit_size for c in out) != index:
        raise AssertionError("double coset orbit sizes do not partition W/W_J")
    return out
