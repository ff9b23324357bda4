"""B-trees, non-crossing matchings, and tree-rooted planar maps.

A tree-rooted map with i tree edges and j non-tree edges is stored as its
quadrant-excursion word over E/W/N/S (E/W: tree edge first/second traversal,
N/S: non-tree edge first/second crossing).  Equivalently it decomposes as a
b-tree word over (/)/b with b = 2j buds plus a non-crossing matching of the
buds; the word is the canonical form, the decomposition is derived.

Rotation moves the root corner one corner counterclockwise; on the word this
is the rewriting a w1 a' w2 -> w1 a w2 a' (a' the letter closing the leading
letter a within its own E/W or N/S class).  Iterating the rewriting is the
same as shifting every arc end by -steps around the circle of 2n positions
and re-reading the letters.  That is the re-rooting of the tour-word kernel
in `trees`, which also re-roots plane trees; `rotate_map`, `rotate_btree`
and `rotate_ncm` apply it to map, b-tree and matching words, whose
validation and arc pairing come from the same kernel.  A non-crossing
matching is stored as its '()' tour word: the balanced words are exactly
the non-crossing matchings, so the kernel's validator is its whole check,
and arcs given from outside enter through `from_pairs`.  A cubic map with a
Hamiltonian cycle is checked, and moves its root edge, through the map word
it reads from its root edge.

The six map families implement the `trees.Family` protocol.  Each has one
rotation (the default `kind`, None) of the protocol's default order, the
word length, and rotates a member with `rotate`.  Their closed forms are the
two formulas of `trees`: `_btree_fix` for `BT` and for `NCM`, whose
matchings have the words of the b-trees with no buds, and `_degrees_fix`
for `BTDeg`.  The tree-rooted map families decouple into a b-tree family
times a matching family, and their fixed points multiply accordingly; none
of them builds a family object to count.

The b-tree and matching words all come from the one b-tree walk of
`trees`, `_btree_walk`, which groups each finished word by (degree
distribution, root degree) without parsing it.  `BT`, `BTDeg` and `NCM`
(n = j edges, no buds) give only `b`, `n`, `admits`, their member class
and `rotate`: the member list is the walk groups they admit, read off the
word table, and the census `Family._census`, the sum of the same groups'
censuses in `trees._census_table` (bound here as `_btdeg_census_all`), so
at b = 0 a matching or b-tree census reads the plane trees' word table.
The tree-rooted map families (`_Decoupled`) list compositions.  Only a
`TMDeg` census enumerates maps.  It applies the walk's rule
(`trees._may_repeat`) to the family's vertex degrees: where their counts
rule out a period below the word length L, every map has the period L,
and elsewhere each map is paired with the period of its arc offsets.  A
`TMij` census sums its degree classes' and a `TMn` census its
`TMij` parts', each through `family.census()`, the one census cache of
every family (`rotations._period_census`, cached under (family)), so
each map is composed and rotated once per process.
"""
from __future__ import annotations

import json
from math import gcd

from . import trees
from .rotations import FixQuery, fix_count_bruteforce, fix_count_closed
# the one family-census cache, under the name the benchmark clears and traces
from .rotations import _period_census as _map_period_census  # noqa: F401
# the one census table, under the name the benchmark clears and traces
from .trees import _census_table as _btdeg_census_all  # noqa: F401
from .trees import (Family, _btree_fix, _check_sizes,
                    _degrees_feasible, _degrees_fix, _normalize_degrees,
                    _reroot, _summed_census, _TourWord, _Value, arc_offsets,
                    catalan, cyclic_period, degree_solutions, matching,
                    period_census)


class SizeMismatch(ValueError):
    """Matching size does not equal the bud count."""


class BTreeWord(_TourWord):
    """Plane tree word with b pendant buds interspersed, e.g. '(bb)'."""

    letters = "()b"

    @property
    def buds(self) -> int:
        return self.word.count("b")

    @property
    def n(self) -> int:
        """Tree edge count."""
        return self.word.count("(")


class NonCrossingMatching(_TourWord):
    """Non-crossing matching of 2j points on a circle, stored as its tour
    word: '(' at the first end of each arc, ')' at the second.  The
    balanced '()' words are exactly the non-crossing matchings, so the
    kernel's validator is the whole check."""

    @property
    def partner(self) -> tuple[int, ...]:
        return matching(self.word)

    @property
    def j(self) -> int:
        return len(self.word) // 2

    def pairs(self) -> list[tuple[int, int]]:
        return [(i, p) for i, p in enumerate(self.partner) if i < p]

    def __str__(self) -> str:
        return json.dumps(self.pairs())

    @staticmethod
    def from_pairs(pairs, size: "int | None" = None) -> "NonCrossingMatching":
        pairs = [tuple(p) for p in pairs]
        if size is None:
            size = 2 * len(pairs)
        partner = [-1] * size
        for a, b in pairs:
            if not (0 <= a < size and 0 <= b < size):
                raise ValueError(f"pair {(a, b)} is not within {size} points")
            partner[a], partner[b] = b, a
        partner = tuple(partner)
        if size % 2:
            raise ValueError("matching needs an even number of points")
        for i, j in enumerate(partner):
            if not 0 <= j < size or j == i or partner[j] != i:
                raise ValueError(f"not an involution without fixed points: {partner}")
        word = "".join(["(" if p > i else ")" for i, p in enumerate(partner)])
        # the matcher pairs the word's arcs without crossings
        if matching(word) != partner:
            raise ValueError(f"crossing arcs in {partner}")
        return NonCrossingMatching(word)


class TreeRootedMap(_TourWord):
    """Quadrant excursion word: E/W and N/S are each balanced."""

    letters = "EWNS"

    @property
    def i(self) -> int:
        """Tree edge count."""
        return self.word.count("E")

    @property
    def j(self) -> int:
        """Non-tree edge count."""
        return self.word.count("N")

    @property
    def n(self) -> int:
        return self.i + self.j


# ---------------------------------------------------------------------------
# Families


class BT(Family, name="bt", guard=5):
    b: int
    n: int
    member = BTreeWord

    def __post_init__(self):
        _check_sizes(self, "b", "n")

    def rotate(self, member, steps: int):
        return rotate_btree(member, steps)

    def fix_closed(self, d: int) -> int:
        return _btree_fix(self.b, self.n, d)


class BTDeg(Family, name="bt_deg", guard=5):
    b: int
    degrees: tuple[int, ...]
    member = BTreeWord

    def __init__(self, b: int, degrees):
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "degrees", _normalize_degrees(degrees))
        _check_sizes(self, "b")

    @property
    def n(self) -> int:
        """Tree edge count: one less than the node count."""
        return sum(self.degrees) - 1

    rotate = BT.rotate

    def feasible(self) -> bool:
        # the empty list () counts no node, so no tree has it
        return self.n >= 0 and _degrees_feasible(self.degrees, self.b)

    def admits(self, degrees, root_degree) -> bool:
        return degrees == self.degrees

    def fix_closed(self, d: int) -> int:
        return _degrees_fix(self.word_length, self.b, self.degrees, d)


class _Decoupled(Family):
    """Tree-rooted maps as (b-tree with 2j buds, matching of the buds)
    pairs, by `compose`: fixed points multiply over the parts.  Only a
    `TMDeg` census composes them; a `TMij` census sums its classes', and a
    `TMn` census its `TMij` parts'."""

    def members(self):
        matchings = list(NCM(self.j).members())
        for bt in self._btrees().members():
            for m in matchings:
                yield compose(bt, m)

    def _census(self):
        """The census by enumeration: each member given one literal
        rotation at its period.  The period is L, the word length, where the
        family fixes vertex degrees whose counts rule out a shorter one
        (`trees._may_repeat`, the walk's rule; a map's vertex degrees count
        its non-tree half-edges), and rotating by L is the identity; else it
        is the period of the member's arc offsets."""
        size, members = self.word_length, enumerate_maps(self)
        if self.degrees is not None and not trees._may_repeat(list(self.degrees), size):
            pairs = ((m, size) for m in members)
        else:
            pairs = ((m, cyclic_period(arc_offsets(m.word))) for m in members)
        return period_census(pairs, self.order(), self.rotate)

    def rotate(self, member, steps: int):
        return rotate_map(member, steps)


class TMij(_Decoupled, name="tm_ij", guard=5):
    i: int
    j: int

    def __post_init__(self):
        _check_sizes(self, "i", "j")

    @property
    def n(self) -> int:
        return self.i + self.j

    def _btrees(self):
        return BT(2 * self.j, self.i)

    def _census(self):
        """Summed over the tree part's degree classes, buds included; the
        one-vertex map has no class and is enumerated."""
        if self.n == 0:
            return super()._census()
        return _summed_census(TMDeg(self.j, d).census()
                              for d in degree_solutions(self.i + 1, 2 * self.n))

    def fix_closed(self, d: int) -> int:
        return _tm_fix(self.i, self.j, d)


def _tm_fix(i: int, j: int, d: int) -> int:
    """Tree-rooted maps with i tree and j non-tree edges fixed by a rotation
    power of order d: b-trees with 2j buds times matchings of the buds."""
    return _btree_fix(2 * j, i, d) * _btree_fix(0, j, d)


class TMn(_Decoupled, name="tm_n", guard=5):
    n: int

    def __post_init__(self):
        _check_sizes(self, "n")

    def members(self):
        for i in range(self.n + 1):
            yield from TMij(i, self.n - i).members()

    def _census(self):
        """The sum of the `TMij(i, n - i)` censuses."""
        return _summed_census(TMij(i, self.n - i).census()
                              for i in range(self.n + 1))

    def fix_closed(self, d: int) -> int:
        n = self.n
        if d == 1:
            return catalan(n) * catalan(n + 1)
        return sum(_tm_fix(i, n - i, d) for i in range(n + 1))


class TMDeg(_Decoupled, name="tm_deg", guard=5):
    j: int
    degrees: tuple[int, ...]

    def __init__(self, j: int, degrees):
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "degrees", _normalize_degrees(degrees))
        _check_sizes(self, "j")

    @property
    def n(self) -> int:
        """Map edge count: tree edges plus j."""
        return sum(self.degrees) - 1 + self.j

    def _btrees(self):
        return BTDeg(2 * self.j, self.degrees)

    def feasible(self) -> bool:
        return self._btrees().feasible()

    def fix_closed(self, d: int) -> int:
        return (_degrees_fix(self.word_length, 2 * self.j, self.degrees, d)
                * _btree_fix(0, self.j, d))


class NCM(Family, name="ncm", guard=5):
    """Non-crossing matchings of 2j points, turned by `rotate_ncm`.  Their
    words are the b-tree words with no buds, so the member list and the
    brute-force census are those of the b = 0 walk at n = j, like
    `BT(0, j)`'s: the census builds no matching and does not exercise
    `rotate_ncm`, which the divisor-trial census test checks instead."""

    j: int
    member = NonCrossingMatching

    def __post_init__(self):
        _check_sizes(self, "j")

    @property
    def n(self) -> int:
        return self.j

    def rotate(self, member, steps: int):
        return rotate_ncm(member, steps)

    def fix_closed(self, d: int) -> int:
        return _btree_fix(0, self.j, d)


def compose(btree: BTreeWord, m: NonCrossingMatching) -> TreeRootedMap:
    """Open -> E, Close -> W; the p-th bud heads N if the p-th letter of the
    matching's word opens its arc, S if it closes it."""
    if btree.buds != 2 * m.j:
        raise SizeMismatch(f"{btree.buds} buds vs matching on {2 * m.j} points")
    buds = m.word
    out = []
    p = 0
    for ch in btree.word:
        if ch == "(":
            out.append("E")
        elif ch == ")":
            out.append("W")
        else:
            out.append("N" if buds[p] == "(" else "S")
            p += 1
    return TreeRootedMap("".join(out))


_TO_BTREE = str.maketrans("EWNS", "()bb")
_TO_MATCHING = str.maketrans("NS", "()", "EW")


def decompose(mp: TreeRootedMap) -> tuple[BTreeWord, NonCrossingMatching]:
    """E/W -> '(' / ')' and N/S -> bud for the b-tree; the N/S letters alone,
    read as '(' / ')', are the matching's word."""
    word = mp.word
    return (BTreeWord(word.translate(_TO_BTREE)),
            NonCrossingMatching(word.translate(_TO_MATCHING)))


# ---------------------------------------------------------------------------
# Rotations


def rotate_map(mp: TreeRootedMap, steps: int = 1) -> TreeRootedMap:
    """Root-corner rotation; `steps` iterations of a w1 a' w2 -> w1 a w2 a'."""
    word = _reroot(mp.word, -steps)
    return mp if word == mp.word else TreeRootedMap(word)


def rotate_btree(bt: BTreeWord, steps: int = 1) -> BTreeWord:
    """Same rotation on b-tree words; a leading bud simply moves to the end."""
    word = _reroot(bt.word, -steps)
    return bt if word == bt.word else BTreeWord(word)


def rotate_ncm(m: NonCrossingMatching, steps: int = 1) -> NonCrossingMatching:
    """Every point moved by +steps: the re-rooting of the matching's word."""
    word = _reroot(m.word, steps)
    return m if word == m.word else NonCrossingMatching(word)


# ---------------------------------------------------------------------------
# Enumeration and counting


def enumerate_maps(family):
    """Every member once, in a fixed order: `family.members()`."""
    return family.members()


def closed_count_maps(family) -> int:
    """The exact count of the family: `family.count()`."""
    return family.count()


def btree_degree_distributions(b: int, n: int) -> list[tuple[int, ...]]:
    """Degree distributions (buds included) realized by b-trees with n edges.

    These are the solutions of sum(n_i) = n+1, sum(i*n_i) = 2n+b, all
    realized; with no edges the single node has degree b.
    """
    if b < 0 or n < 0:
        return []
    if b == n == 0:
        return [()]
    return degree_solutions(n + 1, 2 * n + b)


def fix_count_maps(family, e: int) -> int:
    """Brute-force count of members fixed by the e-th rotation power."""
    return fix_count_bruteforce(FixQuery(family, None, e))


def fix_count_maps_closed(family, e: int) -> int:
    """Closed-form fixed-point count; TM families decouple into b-tree x matching."""
    return fix_count_closed(FixQuery(family, None, e))


def map_fixed_via_parts(mp: TreeRootedMap, e: int) -> bool:
    """Fixedness test through the decomposition, as the decoupling asserts:
    the b-tree must be fixed by its rotation to the matching power."""
    n = mp.n
    if n == 0:
        return True
    d = 2 * n // gcd(e, 2 * n)
    bt, m = decompose(mp)
    size_m = len(m.word)
    if size_m % d:
        return False
    return (rotate_btree(bt, len(bt.word) // d) == bt
            and (size_m == 0 or rotate_ncm(m, size_m // d) == m))


# ---------------------------------------------------------------------------
# Cubic maps with a Hamiltonian cycle


class CubicHamiltonianMap(_Value):
    """2n-cycle plus n chords, one per cycle vertex: inner chords inside the
    disk, outer chords outside, neither crossing on its side.  Read from the
    root edge, with E/W at the ends of inner chords and N/S at those of outer
    ones, it is the tour word of a tree-rooted map (`from_cubic`)."""

    n: int
    inner: frozenset
    outer: frozenset
    root: int

    def __init__(self, n: int, inner, outer, root: int = 0):
        object.__setattr__(self, "n", n)
        _check_sizes(self, "n")
        inner = frozenset(tuple(sorted(p)) for p in inner)
        outer = frozenset(tuple(sorted(p)) for p in outer)
        size = 2 * n
        if not 0 <= root < max(size, 1):
            raise ValueError(f"root edge {root} is not on the {size}-cycle")
        word, partner = _chord_tour(size, inner, outer, root)
        # n chords fill the 2n letters only if they meet every vertex once,
        # and then the matcher pairs the letters as they do if none cross
        if (len(inner) + len(outer) != n or len(word) != size
                or matching(word) != partner):
            raise ValueError("chords must meet every cycle vertex once, "
                             "without crossing on the same side")
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "root", root)

    def descriptor(self) -> dict:
        return {"n": self.n, "inner": sorted(list(p) for p in self.inner),
                "outer": sorted(list(p) for p in self.outer), "root": self.root}


def _chord_tour(size: int, inner, outer, root: int):
    """(word, partner) read from the root edge: E/W at the ends of inner
    chords, N/S at those of outer ones, and the other end of each chord."""
    letters, partner = [""] * size, [-1] * size
    for chords, opener, closer in ((inner, "E", "W"), (outer, "N", "S")):
        for chord in chords:
            if not all(0 <= end < size for end in chord):
                raise ValueError(f"chord {chord} is not within the {size}-cycle")
            a, b = sorted((end - root) % size for end in chord)
            letters[a], letters[b] = opener, closer
            partner[a], partner[b] = b, a
    return "".join(letters), tuple(partner)


def to_cubic(mp: TreeRootedMap) -> CubicHamiltonianMap:
    word = mp.word
    arcs = [(a, b) for a, b in enumerate(matching(word)) if a < b]
    inner = [(a, b) for a, b in arcs if word[a] == "E"]
    outer = [(a, b) for a, b in arcs if word[a] == "N"]
    return CubicHamiltonianMap(mp.n, inner, outer, 0)


def advance_root(c: CubicHamiltonianMap) -> CubicHamiltonianMap:
    """Move the root edge one step along the cycle, relabelled so root = 0."""
    return to_cubic(rotate_map(from_cubic(c), 1))


def from_cubic(c: CubicHamiltonianMap) -> TreeRootedMap:
    return TreeRootedMap(_chord_tour(2 * c.n, c.inner, c.outer, c.root)[0])
