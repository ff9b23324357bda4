"""Catalan correspondences with equivariance guarantees.

Trees <-> non-crossing matchings (edge = arc between the two tour positions),
trees <-> non-crossing partitions with the Kreweras complement, and leaf-rooted
trees without degree-2 nodes <-> polygon dissections.

A matching is the '()' word of its arcs, and so is the tree: each
correspondence keeps the word.  A partition is stored as the '()' word of its
thickening: partition point i owns the two circle positions 2i, 2i+1 and a
block {a_1 < ... < a_m} becomes the arcs {2a_t + 1, 2a_(t+1)} plus the closing
arc {2a_m + 1, 2a_1}.  Every non-crossing matching of 2n points is the
thickening of exactly one non-crossing partition of n points, so the tree's
word is the partition's too.  Re-rooting the word by one step is the Kreweras
complement; by two steps, the rotation of the partition by one point.  All
equivariance contracts then hold by construction.

A dissection is checked and inverted through its chord word, whose arcs are
its sides and diagonals: the word of the tree it corresponds to.
"""
from __future__ import annotations

import itertools

from .maps import NonCrossingMatching
from .trees import (PlaneTree, _reroot, _TourWord, _Value, matching,
                    node_degrees)


class NotLeafRooted(ValueError):
    """Tree's root vertex is not a leaf."""


class Degree2NodePresent(ValueError):
    """Tree has a degree-2 vertex, so faces of degree >= 3 cannot be formed."""


# ---------------------------------------------------------------------------
# Trees <-> non-crossing matchings


def tree_to_ncm(t: PlaneTree) -> NonCrossingMatching:
    """Each edge becomes the arc between its two tour positions."""
    return NonCrossingMatching(t.word)


def ncm_to_tree(m: NonCrossingMatching) -> PlaneTree:
    return PlaneTree(m.word)


def short_edge_count(m: NonCrossingMatching) -> int:
    """Arcs joining cyclically adjacent points; equals the tree's leaf count."""
    size = len(m.word)
    return sum(1 for i, p in enumerate(m.partner) if p == (i + 1) % size)


# ---------------------------------------------------------------------------
# Trees <-> non-crossing partitions


class NonCrossingPartition(_TourWord):
    """Non-crossing partition of n points, stored as the '()' word of its
    thickening; `from_blocks` builds it from blocks."""

    @property
    def n(self) -> int:
        return len(self.word) // 2

    @property
    def assignment(self) -> tuple[int, ...]:
        """Point -> block id, blocks numbered by first appearance: the arc
        leaving point a at 2a + 1 lands at the next point of its block."""
        partner = matching(self.word)
        assignment = [-1] * self.n
        blocks = 0
        for start in range(self.n):
            if assignment[start] < 0:  # the first point of a new block
                a = start
                while assignment[a] < 0:
                    assignment[a] = blocks
                    a = partner[2 * a + 1] // 2
                blocks += 1
        return tuple(assignment)

    def blocks(self) -> list[list[int]]:
        """Blocks as sorted 1-indexed lists, ordered by smallest element."""
        out: dict[int, list[int]] = {}
        for i, b in enumerate(self.assignment):
            out.setdefault(b, []).append(i + 1)
        return sorted(out.values())

    @staticmethod
    def from_blocks(blocks) -> "NonCrossingPartition":
        pts = sorted(p for blk in blocks for p in blk)
        if pts != list(range(1, len(pts) + 1)):
            raise ValueError(f"not a partition of 1..n: {blocks}")
        arcs = []
        for blk in blocks:
            block = sorted(a - 1 for a in blk)
            arcs += [(2 * a + 1, 2 * b) for a, b in zip(block, block[1:] + block[:1])]
        # blocks cross exactly when the arcs of their thickening do
        try:
            return NonCrossingPartition(NonCrossingMatching.from_pairs(arcs).word)
        except ValueError:
            raise ValueError(f"crossing blocks in {blocks}") from None


def point_rotation(p: NonCrossingPartition, steps: int = 1) -> NonCrossingPartition:
    return NonCrossingPartition(_reroot(p.word, 2 * steps))


def tree_to_ncp(t: PlaneTree) -> NonCrossingPartition:
    if t.n < 1:
        raise ValueError("partition correspondence needs n >= 1")
    return NonCrossingPartition(t.word)


def ncp_to_tree(p: NonCrossingPartition) -> PlaneTree:
    return PlaneTree(p.word)


def kreweras(p: NonCrossingPartition) -> NonCrossingPartition:
    """Complement on the interleaved points; kreweras squared = point rotation."""
    return NonCrossingPartition(_reroot(p.word, 1))


# ---------------------------------------------------------------------------
# Leaf-rooted trees <-> dissections


class Dissection(_Value):
    """Convex k-gon (vertices 0..k-1) with pairwise non-crossing diagonals."""

    k: int
    diagonals: frozenset

    def __init__(self, k: int, diagonals):
        if k < 3:
            raise ValueError(f"a polygon needs at least 3 vertices, got k = {k}")
        diagonals = frozenset(tuple(sorted(d)) for d in diagonals)
        for a, b in diagonals:
            if not (0 <= a < b < k) or b - a == 1 or (a == 0 and b == k - 1):
                raise ValueError(f"not a diagonal of a {k}-gon: {(a, b)}")
        # the matcher pairs the letters as the chords do unless two cross
        word, partner = _dissection_word(k, diagonals)
        if matching(word) != partner:
            raise ValueError(f"crossing diagonals in {sorted(diagonals)}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "diagonals", diagonals)

    def descriptor(self) -> dict:
        return {"k": self.k, "diagonals": sorted(list(d) for d in self.diagonals)}


def _dissection_word(k: int, diagonals) -> tuple[str, tuple[int, ...]]:
    """(word, partner): the root side (0, 1), the other sides and the
    diagonals, read vertex by vertex from 1 round to 0 (read as k), with the
    position of each letter's other chord end.  At each vertex the chords
    ending there close, longest last, then those starting there open,
    longest first."""
    chords = [(1, k)] + [(v, v + 1) for v in range(1, k)]
    chords += [tuple(sorted((a or k, b))) for a, b in diagonals]
    ends = sorted([(a, 1, -b, i) for i, (a, b) in enumerate(chords)]
                  + [(b, 0, -a, i) for i, (a, b) in enumerate(chords)])
    partner, first = [0] * len(ends), {}
    for pos, (*_, i) in enumerate(ends):
        j = first.setdefault(i, pos)
        partner[pos], partner[j] = j, pos
    return "".join(")("[e[1]] for e in ends), tuple(partner)


def rotate_dissection(d: Dissection, steps: int = 1) -> Dissection:
    return Dissection(d.k, (((a + steps) % d.k, (b + steps) % d.k)
                            for a, b in d.diagonals))


def tree_to_dissection(t: PlaneTree) -> Dissection:
    """Leaves (in tour order, root leaf first) become polygon sides; each edge
    between two internal vertices becomes the diagonal cutting off the leaves
    of its far subtree."""
    word = t.word
    partner = matching(word)
    size = len(word)
    if size < 2 or partner[0] != size - 1:
        raise NotLeafRooted(f"{t} is not rooted at a leaf")
    if 2 in node_degrees(word):
        raise Degree2NodePresent(f"{t} has a degree-2 vertex")
    if size == 2:
        raise ValueError("dissection correspondence needs an internal vertex")
    # the edge opened at o leads to a leaf exactly when it closes at o + 1;
    # leaves_before[pos] counts those opened before pos
    leaves_before = list(itertools.accumulate(
        (partner[o] == o + 1 for o in range(size)), initial=0))
    k = leaves_before[size] + 1  # plus the root leaf
    diagonals = [(leaves_before[o] + 1, (leaves_before[partner[o]] + 1) % k)
                 for o in range(1, size) if partner[o] > o + 1]
    return Dissection(k, diagonals)


def dissection_to_tree(d: Dissection) -> PlaneTree:
    """Inverse correspondence: the chord word of the dissection."""
    return PlaneTree(_dissection_word(d.k, d.diagonals)[0])
