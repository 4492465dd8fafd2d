"""The permutation side of the Weyl group, which the tests compare against.

magicsq names a Weyl group element w only by l(w) and its images of the
simple roots.  Here an element is its whole action on the signed root
set (see rootsys for the encoding: nonnegative index = positive root,
bitwise complement = its negative), with the length, descents, products
and reduced words read off that action.  The Kilmoyer, transposed and
sigma-fixed references in the tests, the chain polynomial and
``scripts/borel_series_check.py`` build on it.  Also here: the golden-file
forms of a root system and a polynomial, which only the tests read.
"""

import functools
from collections import Counter

from magicsq._record import record
from magicsq.polyring import IntPoly
from magicsq.rootsys import RootSystem, signed_table
from magicsq.weyl import _compose, _coset_bfs, length_counts_to_poly


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


def identity(rs: RootSystem) -> WeylElement:
    return WeylElement(tuple(range(rs.num_positive)))


def simple_reflection(rs: RootSystem, node: int) -> WeylElement:
    if not 1 <= node <= rs.rank:
        raise ValueError(f"node {node} out of range")
    return WeylElement(rs.simple_reflection_tables[node - 1])


def right_descents(rs: RootSystem, w: WeylElement) -> frozenset[int]:
    """Nodes i with l(w s_i) < l(w), i.e. w(a_i) negative."""
    return frozenset(
        i + 1 for i in range(rs.rank) if w.action[rs.simple_root_index(i + 1)] < 0
    )


def reduced_word(rs: RootSystem, w: WeylElement) -> list[int]:
    """One reduced word for w, by repeatedly peeling the smallest right descent."""
    word: list[int] = []
    act = w.action
    tables = rs.simple_reflection_tables
    while True:
        for i in range(rs.rank):
            if act[rs.simple_root_index(i + 1)] < 0:
                word.append(i + 1)
                act = _compose(signed_table(act), tables[i])
                break
        else:
            break
    word.reverse()
    return word


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
    simple = [images[rs.simple_root_index(k + 1)] for k in range(rs.rank)]
    for prev, k in chains:
        images.append(images[prev] + simple[k])
    return tuple(lookup[v] for v in images)


def root_system_to_json(rs: RootSystem) -> dict:
    """Golden-file form: type label, Cartan matrix, ordered positive roots."""
    return {
        "type": str(rs.ctype),
        "cartan": [list(row) for row in rs.cartan],
        "positive_roots": [list(v) for v in rs.positive_roots],
    }


def from_json_dict(obj: dict) -> IntPoly:
    """The polynomial of ``polyring.to_json_dict``'s machine form."""
    return IntPoly([int(c) for c in obj["coeffs"]])
