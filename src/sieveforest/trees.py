"""Rooted plane trees as balanced-parenthesis words.

A tree with n edges is the word of its counterclockwise tour from the root
corner: '(' when an edge is traversed for the first time, ')' on the way back.
Corner t (0 <= t < 2n) is the corner visited just before letter t; the root
corner is corner 0.  Equality, hashing and ordering are word-based.

The module provides the eight constrained families with their exact counts,
exhaustive generators, the tree center, and the two structural surgeries used
to classify trees fixed by a power of the rotation: cutting the central edge
(half_tree / glue_halves) and keeping a 1/d sector around the central vertex
(sector / replicate_sector).
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
from fractions import Fraction
from math import comb, factorial


class NotEdgeCentered(ValueError):
    """The tree's center is a vertex, not an edge."""


class NotVertexCentered(ValueError):
    """The tree's center is an edge, not a vertex."""


class MarkedLeafIsRoot(ValueError):
    """The marked node is the root (or not a leaf at all)."""


class DegreeNotDivisible(ValueError):
    """The central vertex degree is not divisible by the requested d."""


class NotFixed(ValueError):
    """The tree is not fixed by the required rotation power."""


def _validate_word(word: str) -> None:
    depth = 0
    for ch in word:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced word {word!r}")
        else:
            raise ValueError(f"bad symbol {ch!r} in tree word")
    if depth != 0:
        raise ValueError(f"unbalanced word {word!r}")


@dataclasses.dataclass(frozen=True, order=True)
class PlaneTree:
    word: str = ""

    def __post_init__(self):
        _validate_word(self.word)

    @property
    def n(self) -> int:
        """Edge count."""
        return len(self.word) // 2

    def __str__(self) -> str:
        return self.word


def matching(word: str) -> tuple[int, ...]:
    """partner[i] = position of the other traversal of the edge at position i."""
    partner = [0] * len(word)
    stack: list[int] = []
    for i, ch in enumerate(word):
        if ch == "(":
            stack.append(i)
        else:
            j = stack.pop()
            partner[i], partner[j] = j, i
    return tuple(partner)


# Arc class of each opening and closing letter.  Plane-tree and b-tree words
# use '(' and ')'; tree-rooted map words use E/W for tree edges and N/S for
# the others.  Any other letter (a bud) belongs to no arc.
_OPENERS = {"(": 0, "E": 0, "N": 1}
_CLOSERS = {")": 0, "W": 0, "S": 1}


def arc_offsets(word: str) -> str:
    """One symbol per tour position: chr((partner - position) mod L).

    An N/S arc adds L to keep it apart from E/W arcs; a bud gets chr(0).
    Moving every arc endpoint by s, which re-roots the word, shifts this
    string cyclically by s.
    """
    size = len(word)
    out = [0] * size
    stacks: tuple[list[int], list[int]] = ([], [])
    for i, ch in enumerate(word):
        if ch in _OPENERS:
            stacks[_OPENERS[ch]].append(i)
        elif ch in _CLOSERS:
            cls = _CLOSERS[ch]
            j = stacks[cls].pop()
            out[j] = i - j + cls * size
            out[i] = size - (i - j) + cls * size
    return "".join(map(chr, out))


def cyclic_period(symbols: str | bytes) -> int:
    """Least p >= 1 whose cyclic shift fixes `symbols`; it divides the length."""
    return (symbols + symbols).find(symbols, 1) if symbols else 1


def period_census(members, period, rotate) -> tuple[tuple[int, int], ...]:
    """((period, member count), ...) sorted by period.

    `period(m)` reads a member's least fixing rotation power off its arc
    offsets; `rotate(m, p) == m` confirms it by one literal rotation.
    """
    counts: dict[int, int] = {}
    for m in members:
        p = period(m)
        if rotate(m, p) != m:
            raise AssertionError(f"{m} is not fixed by its period {p}")
        counts[p] = counts.get(p, 0) + 1
    return tuple(sorted(counts.items()))


def shift_root(word: str, steps: int) -> str:
    """Move every arc endpoint of the edge matching by +steps (mod 2n).

    This is the word of the same unrooted tree re-rooted at another corner.
    """
    size = len(word)
    if size == 0:
        return word
    steps %= size
    if steps == 0:
        return word
    partner = matching(word)
    new_partner = [0] * size
    for i, j in enumerate(partner):
        new_partner[(i + steps) % size] = (j + steps) % size
    return "".join("(" if p < new_partner[p] else ")" for p in range(size))


class _Parse:
    """One-pass structure extraction from a tree word.

    Nodes are numbered 0 (root), then in order of first arrival.
    """

    __slots__ = ("word", "parent", "degree", "first_corner", "node_at_corner",
                 "children")

    def __init__(self, word: str):
        self.word = word
        self.parent = [-1]
        self.degree = [0]
        self.first_corner = [0]
        self.children: list[list[int]] = [[]]
        self.node_at_corner: list[int] = []
        cur = 0
        stack = [0]
        for pos, ch in enumerate(word):
            self.node_at_corner.append(cur)
            if ch == "(":
                nid = len(self.parent)
                self.parent.append(cur)
                self.degree.append(1)
                self.degree[cur] += 1
                self.first_corner.append(pos + 1)
                self.children[cur].append(nid)
                self.children.append([])
                stack.append(nid)
                cur = nid
            else:
                stack.pop()
                cur = stack[-1]

    @property
    def node_count(self) -> int:
        return len(self.parent)


@dataclasses.dataclass(frozen=True)
class TreeStats:
    edges: int
    leaves: int
    degrees: tuple[int, ...]  # degrees[i-1] = number of nodes of degree i
    root_degree: int
    corners: int


def node_degrees(word: str) -> list[int]:
    """Degree of every node, root first, in order of first arrival.

    A letter other than '(' and ')' is a bud and adds one to its node.
    """
    degree = [0]
    stack = [0]
    for ch in word:
        if ch == "(":
            degree[stack[-1]] += 1
            degree.append(1)
            stack.append(len(degree) - 1)
        elif ch == ")":
            stack.pop()
        else:
            degree[stack[-1]] += 1
    return degree


def degree_distribution(degree: list[int]) -> tuple[int, ...]:
    """(n_1, n_2, ...): how many nodes have each degree; () for a bare node."""
    if degree == [0]:
        return ()
    dist = [0] * max(degree)
    for d in degree:
        dist[d - 1] += 1
    return tuple(dist)


def stats(tree: PlaneTree) -> TreeStats:
    degree = node_degrees(tree.word)
    if len(degree) == 1:
        return TreeStats(0, 0, (), 0, 0)
    dist = degree_distribution(degree)
    return TreeStats(tree.n, dist[0], dist, degree[0], 2 * tree.n)


# ---------------------------------------------------------------------------
# Families


def _normalize_degrees(degrees) -> tuple[int, ...]:
    ds = list(degrees)
    if any(d < 0 for d in ds):
        raise ValueError("degree counts must be non-negative")
    while ds and ds[-1] == 0:
        ds.pop()
    return tuple(ds)


def _check_sizes(family, *names: str) -> None:
    """Reject a negative size parameter of a family, naming it."""
    for name in names:
        value = getattr(family, name)
        if value < 0:
            raise ValueError(f"{type(family).__name__}: {name} must be "
                             f"non-negative, got {value}")


def _degrees_edge_count(degrees: tuple[int, ...]) -> int:
    total = sum(i * c for i, c in enumerate(degrees, start=1))
    return total // 2


def _degrees_feasible(degrees: tuple[int, ...]) -> bool:
    total = sum(i * c for i, c in enumerate(degrees, start=1))
    return total % 2 == 0 and sum(degrees) == total // 2 + 1 and total > 0


FAMILIES: dict[str, type] = {}  # name -> family class, in definition order


class Family:
    """A family of a sieving result: a frozen dataclass whose fields, in
    order, are its parameters.  `class F(Family, name=..., guard=...)`
    enters F in FAMILIES under `name`; `guard` is its default size guard."""

    def __init_subclass__(cls, name: str, guard: int = 10, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.name, cls.guard_limit = name, guard
        FAMILIES[name] = cls

    @property
    def word_length(self) -> int:
        """Letters in each member's word: the depth of the enumerating walks."""
        return 2 * self.n

    def descriptor(self) -> dict:
        out = {"family": self.name}
        for name in family_fields(type(self)):
            value = getattr(self, name)
            out[name] = list(value) if isinstance(value, tuple) else value
        return out


def family_fields(cls) -> tuple[str, ...]:
    """A family's parameter names: its dataclass fields, in order."""
    return tuple(f.name for f in dataclasses.fields(cls))


def family_from_descriptor(d: dict):
    """The family `descriptor()` describes; any of the FAMILIES."""
    cls = FAMILIES.get(d["family"])
    if cls is None:
        raise ValueError(f"unknown family {d['family']!r}")
    return cls(*(d[name] for name in family_fields(cls)))


@dataclasses.dataclass(frozen=True)
class AllTrees(Family, name="all_trees"):
    n: int

    def __post_init__(self):
        _check_sizes(self, "n")


@dataclasses.dataclass(frozen=True)
class ByLeaves(Family, name="by_leaves"):
    n: int
    k: int

    def __post_init__(self):
        _check_sizes(self, "n")


@dataclasses.dataclass(frozen=True)
class LeafRooted(Family, name="leaf_rooted"):
    n: int
    k: int

    def __post_init__(self):
        _check_sizes(self, "n")


@dataclasses.dataclass(frozen=True)
class InternalRooted(Family, name="internal_rooted"):
    n: int
    k: int

    def __post_init__(self):
        _check_sizes(self, "n")


@dataclasses.dataclass(frozen=True, init=False)
class ByDegrees(Family, name="by_degrees", guard=9):
    degrees: tuple[int, ...]

    def __init__(self, degrees):
        object.__setattr__(self, "degrees", _normalize_degrees(degrees))

    @property
    def n(self) -> int:
        return _degrees_edge_count(self.degrees)


@dataclasses.dataclass(frozen=True, init=False)
class LeafRootedDeg(Family, name="leaf_rooted_deg", guard=9):
    degrees: tuple[int, ...]

    def __init__(self, degrees):
        object.__setattr__(self, "degrees", _normalize_degrees(degrees))

    @property
    def n(self) -> int:
        return _degrees_edge_count(self.degrees)


@dataclasses.dataclass(frozen=True, init=False)
class InternalRootedDeg(Family, name="internal_rooted_deg", guard=9):
    degrees: tuple[int, ...]

    def __init__(self, degrees):
        object.__setattr__(self, "degrees", _normalize_degrees(degrees))

    @property
    def n(self) -> int:
        return _degrees_edge_count(self.degrees)


@dataclasses.dataclass(frozen=True, init=False)
class RootDegree(Family, name="root_degree", guard=9):
    degrees: tuple[int, ...]
    delta: int

    def __init__(self, degrees, delta: int):
        degrees = _normalize_degrees(degrees)
        if delta < 1 or delta > len(degrees) or degrees[delta - 1] == 0:
            raise ValueError(f"no node of degree {delta} in {degrees}")
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "delta", delta)

    @property
    def n(self) -> int:
        return _degrees_edge_count(self.degrees)


TreeFamily = (AllTrees | ByLeaves | LeafRooted | InternalRooted
              | ByDegrees | LeafRootedDeg | InternalRootedDeg | RootDegree)


def _member_predicate(family: TreeFamily):
    if isinstance(family, AllTrees):
        return lambda st: True
    if isinstance(family, ByLeaves):
        return lambda st: st.leaves == family.k
    if isinstance(family, LeafRooted):
        return lambda st: st.leaves == family.k and st.root_degree == 1
    if isinstance(family, InternalRooted):
        return lambda st: st.leaves == family.k and st.root_degree >= 2
    if isinstance(family, ByDegrees):
        return lambda st: st.degrees == family.degrees
    if isinstance(family, LeafRootedDeg):
        return lambda st: st.degrees == family.degrees and st.root_degree == 1
    if isinstance(family, InternalRootedDeg):
        return lambda st: st.degrees == family.degrees and st.root_degree >= 2
    if isinstance(family, RootDegree):
        return lambda st: (st.degrees == family.degrees
                           and st.root_degree == family.delta)
    raise TypeError(f"not a tree family: {family!r}")


@functools.lru_cache(maxsize=32)
def _dyck_words(n: int) -> tuple[str, ...]:
    """All balanced words of length 2n in lexicographic order ('(' < ')')."""
    out: list[str] = []

    def rec(prefix: list[str], opened: int, closed: int) -> None:
        if opened == n and closed == n:
            out.append("".join(prefix))
            return
        if opened < n:
            prefix.append("(")
            rec(prefix, opened + 1, closed)
            prefix.pop()
        if closed < opened:
            prefix.append(")")
            rec(prefix, opened, closed + 1)
            prefix.pop()

    rec([], 0, 0)
    return tuple(out)


@functools.lru_cache(maxsize=32)
def _words_by_stats(n: int) -> dict[TreeStats, tuple[str, ...]]:
    """The words of _dyck_words(n) grouped by their stats, in one pass;
    each group keeps lexicographic order."""
    groups: dict[TreeStats, list[str]] = {}
    for word in _dyck_words(n):
        groups.setdefault(stats(PlaneTree(word)), []).append(word)
    return {st: tuple(words) for st, words in groups.items()}


def enumerate_family(family: TreeFamily):
    """Every member exactly once, in lexicographic word order."""
    n = family.n
    pred = _member_predicate(family)
    if isinstance(family, AllTrees):
        for word in _dyck_words(n):
            t = PlaneTree(word)
            if pred(stats(t)):
                yield t
        return
    if isinstance(family, (ByDegrees, LeafRootedDeg, InternalRootedDeg, RootDegree)) \
            and not _degrees_feasible(family.degrees):
        return
    groups = [words for st, words in _words_by_stats(n).items() if pred(st)]
    words = groups[0] if len(groups) == 1 else sorted(itertools.chain(*groups))
    for word in words:
        yield PlaneTree(word)


def _as_int(x) -> int:
    x = Fraction(x)
    if x.denominator != 1:
        raise ArithmeticError(f"formula gave non-integer {x}")
    return int(x)


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def _multinomial(total: int, parts) -> int:
    parts = list(parts)
    if any(p < 0 for p in parts) or sum(parts) != total:
        return 0
    out = factorial(total)
    for p in parts:
        out //= factorial(p)
    return out


def _single_offset_class(degrees, d: int):
    """Index l (1-based) with n_l = 1 mod d while all others are 0 mod d, or None."""
    found = None
    for i, c in enumerate(degrees, start=1):
        r = c % d
        if r == 0:
            continue
        if r == 1 and found is None:
            found = i
        else:
            return None
    return found


def closed_count(family: TreeFamily) -> int:
    """Exact count of the family; degenerate parameters fall back to enumeration."""
    if isinstance(family, AllTrees):
        return catalan(family.n)
    if isinstance(family, (ByLeaves, LeafRooted, InternalRooted)):
        n, k = family.n, family.k
        if k < 2 or k > n + 1:
            return 0
        if n == 1:
            return sum(1 for _ in enumerate_family(family))
        if isinstance(family, ByLeaves):
            return _as_int(Fraction(2, n - 1) * comb(n - 1, k - 2) * comb(n, k))
        if isinstance(family, LeafRooted):
            return _as_int(Fraction(1, n - 1) * comb(n - 1, k - 2) * comb(n - 1, k - 1))
        return _as_int(Fraction(2 * n - k, n * (n - 1))
                       * comb(n - 1, k - 2) * comb(n, k))
    degrees = family.degrees
    if not _degrees_feasible(degrees):
        return 0
    n = _degrees_edge_count(degrees)
    denom = 1
    for c in degrees:
        denom *= factorial(c)
    if isinstance(family, ByDegrees):
        return _as_int(Fraction(2 * factorial(n), denom))
    if isinstance(family, LeafRootedDeg):
        return _as_int(Fraction(degrees[0] * factorial(n - 1), denom))
    if isinstance(family, InternalRootedDeg):
        return _as_int(Fraction((2 * n - degrees[0]) * factorial(n - 1), denom))
    if isinstance(family, RootDegree):
        return _as_int(Fraction(family.delta * degrees[family.delta - 1]
                                * factorial(n - 1), denom))
    raise TypeError(f"not a tree family: {family!r}")


def degree_solutions(nodes: int, degree_sum: int) -> list[tuple[int, ...]]:
    """Solutions of sum(n_i) = nodes, sum(i*n_i) = degree_sum with n_i >= 0,
    trailing zeros dropped, in increasing order."""
    out: list[tuple[int, ...]] = []

    def rec(deg: int, counts: list[int], nodes_left: int, degsum_left: int) -> None:
        if nodes_left == 0:
            if degsum_left == 0:
                out.append(tuple(counts))
            return
        if deg > degsum_left:
            return
        for c in range(min(nodes_left, degsum_left // deg) + 1):
            counts.append(c)
            rec(deg + 1, counts, nodes_left - c, degsum_left - deg * c)
            counts.pop()

    rec(1, [], nodes, degree_sum)
    return out


def degree_distributions(n: int):
    """All feasible degree distributions of trees with n edges.

    Solutions of sum(n_i) = n+1, sum(i*n_i) = 2n with n_i >= 0; every solution
    is realized by some plane tree.
    """
    if n >= 1:
        yield from degree_solutions(n + 1, 2 * n)


# ---------------------------------------------------------------------------
# Center and the two structural surgeries


@dataclasses.dataclass(frozen=True)
class CentralVertex:
    corner: int                 # first-arrival corner of the central vertex
    corners: frozenset[int]     # all its corners, for re-rooting-invariance checks


@dataclasses.dataclass(frozen=True)
class CentralEdge:
    position: int               # tour position of the first traversal
    arc: tuple[int, int]        # both traversal positions


CenterResult = CentralVertex | CentralEdge


def center(tree: PlaneTree) -> CenterResult:
    """Iteratively delete all leaves; a vertex or an edge remains."""
    p = _Parse(tree.word)
    if p.node_count == 1:
        return CentralVertex(0, frozenset())
    alive = set(range(p.node_count))
    deg = list(p.degree)
    neighbours = [list(ch) for ch in p.children]
    for node, par in enumerate(p.parent):
        if par >= 0:
            neighbours[node].append(par)
    while len(alive) > 2:
        drop = [v for v in alive if deg[v] == 1]
        for v in drop:
            alive.remove(v)
            for u in neighbours[v]:
                if u in alive:
                    deg[u] -= 1
    if len(alive) == 1:
        v = alive.pop()
        corners = frozenset(c for c, node in enumerate(p.node_at_corner) if node == v)
        return CentralVertex(p.first_corner[v], corners)
    u, v = sorted(alive)
    child = v if p.parent[v] == u else u
    partner = matching(tree.word)
    open_pos = p.first_corner[child] - 1
    return CentralEdge(open_pos, (open_pos, partner[open_pos]))


@dataclasses.dataclass(frozen=True)
class MarkedTree:
    """A plane tree with one marked node, identified by its first-arrival corner."""
    tree: PlaneTree
    mark: int

    def descriptor(self) -> dict:
        return {"tree": self.tree.word, "mark": self.mark}


def half_tree(tree: PlaneTree) -> MarkedTree:
    """Cut the central edge; keep the root half with a marked leaf at the cut.

    On trees with odd n fixed by the half-turn this is one direction of the
    bijection onto trees with (n+1)/2 edges and a marked non-root leaf.
    """
    c = center(tree)
    if not isinstance(c, CentralEdge):
        raise NotEdgeCentered(f"center of {tree} is a vertex")
    i, j = c.arc
    word = tree.word[:i] + "()" + tree.word[j + 1:]
    return MarkedTree(PlaneTree(word), i + 1)


def glue_halves(marked: MarkedTree) -> PlaneTree:
    """Inverse of half_tree: glue two copies at the marked leaf and erase it.

    The root corner of the first copy survives as the root corner.
    """
    w, m = marked.tree.word, marked.mark
    if m == 0:
        raise MarkedLeafIsRoot("the marked node is the root")
    if not (1 <= m < len(w) and w[m - 1] == "(" and w[m] == ")"):
        raise MarkedLeafIsRoot(f"corner {m} of {w!r} is not a non-root leaf")
    # The second copy is toured from the ex-leaf's neighbour onwards: re-root
    # it just past the marked leaf, whose edge then sits at the end, and drop it.
    inner = shift_root(w, -(m + 1))
    assert inner[-2:] == "()"
    return PlaneTree(w[:m - 1] + "(" + inner[:-2] + ")" + w[m + 1:])


def _subtree_segments(chunk: str) -> list[str]:
    """Split a concatenation of balanced '(s)' segments."""
    segs = []
    depth = 0
    start = 0
    for i, ch in enumerate(chunk):
        depth += 1 if ch == "(" else -1
        if depth == 0:
            segs.append(chunk[start:i + 1])
            start = i + 1
    return segs


def sector(tree: PlaneTree, d: int) -> MarkedTree:
    """Keep a 1/d sector of the subtrees around the central vertex.

    Requires the center to be a vertex of degree divisible by d and the tree to
    be fixed by rotation through 2n/d corners.  The sector containing the root
    corner is kept; the ex-central vertex is the marked node of the output,
    which has n/d edges.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    c = center(tree)
    if not isinstance(c, CentralVertex):
        raise NotVertexCentered(f"center of {tree} is an edge")
    w = tree.word
    n = tree.n
    degree = len(c.corners)
    if degree % d != 0:
        raise DegreeNotDivisible(f"central degree {degree} not divisible by {d}")
    if shift_root(w, 2 * n // d) != w:
        raise NotFixed(f"{tree} is not fixed by the 2n/{d} rotation")
    keep = degree // d
    q0 = c.corner
    if q0 == 0:
        segs = _subtree_segments(w)
        return MarkedTree(PlaneTree("".join(segs[:keep])), 0)
    entry = q0 - 1
    exit_pos = matching(w)[entry]
    x, y, z = w[:entry], w[q0:exit_pos], w[exit_pos + 1:]
    segs = _subtree_segments(y)
    return MarkedTree(PlaneTree(x + "(" + "".join(segs[:keep - 1]) + ")" + z), q0)


def replicate_sector(marked: MarkedTree, d: int) -> PlaneTree:
    """Inverse of sector: replicate the marked node's subtree tuple d times."""
    if d < 1:
        raise ValueError("d must be >= 1")
    w, m = marked.tree.word, marked.mark
    if m == 0:
        return PlaneTree(w * d)
    if not (1 <= m < len(w) and w[m - 1] == "("):
        raise ValueError(f"corner {m} is not a first-arrival corner of {w!r}")
    entry = m - 1
    exit_pos = matching(w)[entry]
    x, y, z = w[:entry], w[m:exit_pos], w[exit_pos + 1:]
    # Pendant form of the root-side piece: as for glue_halves, tour it from the
    # marked node, which is re-rooting the piece just past its leaf stand-in.
    piece = x + "()" + z
    inner = shift_root(piece, -(m + 1))
    assert inner[-2:] == "()"
    pendant = "(" + inner[:-2] + ")"
    return PlaneTree(x + "(" + y + (pendant + y) * (d - 1) + ")" + z)
