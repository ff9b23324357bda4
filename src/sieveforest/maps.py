"""B-trees, non-crossing matchings, and tree-rooted planar maps.

A tree-rooted map with i tree edges and j non-tree edges is stored as its
quadrant-excursion word over E/W/N/S (E/W: tree edge first/second traversal,
N/S: non-tree edge first/second crossing).  Equivalently it decomposes as a
b-tree word over (/)/b with b = 2j buds plus a non-crossing matching of the
buds; the word is the canonical form, the decomposition is derived.

Rotation moves the root corner one corner counterclockwise; on the word this
is the rewriting a w1 a' w2 -> w1 a w2 a' (a' the letter closing the leading
letter a within its own E/W or N/S class).  Iterating the rewriting is the
same as shifting all chord endpoints by -steps around the circle of 2n
positions and re-reading the letters, which is how multi-step rotation is
implemented.
"""
from __future__ import annotations

import dataclasses
import functools
from fractions import Fraction
from math import comb, gcd

from .trees import (Family, _as_int, _check_sizes, _multinomial,
                    _normalize_degrees, _single_offset_class, arc_offsets,
                    catalan, cyclic_period, degree_distribution,
                    degree_solutions, node_degrees, period_census)


class SizeMismatch(ValueError):
    """Matching size does not equal the bud count."""


def _class_matching(word: str, openers: str, closers: str) -> dict[int, int]:
    """Parenthesis matching restricted to one letter class; position -> position."""
    out: dict[int, int] = {}
    stack: list[int] = []
    for i, ch in enumerate(word):
        if ch in openers:
            stack.append(i)
        elif ch in closers:
            if not stack:
                raise ValueError(f"unbalanced {closers!r} in {word!r}")
            j = stack.pop()
            out[i], out[j] = j, i
    if stack:
        raise ValueError(f"unbalanced {openers!r} in {word!r}")
    return out


@dataclasses.dataclass(frozen=True)
class BTreeWord:
    """Plane tree word with b pendant buds interspersed, e.g. '(bb)'."""

    word: str = ""

    def __post_init__(self):
        depth = 0
        for ch in self.word:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth < 0:
                    raise ValueError(f"unbalanced b-tree word {self.word!r}")
            elif ch != "b":
                raise ValueError(f"bad symbol {ch!r} in b-tree word")
        if depth != 0:
            raise ValueError(f"unbalanced b-tree word {self.word!r}")

    @property
    def buds(self) -> int:
        return self.word.count("b")

    @property
    def n(self) -> int:
        """Tree edge count."""
        return self.word.count("(")

    def __str__(self) -> str:
        return self.word


@dataclasses.dataclass(frozen=True, init=False)
class NonCrossingMatching:
    partner: tuple[int, ...]

    def __init__(self, partner):
        partner = tuple(partner)
        size = len(partner)
        if size % 2:
            raise ValueError("matching needs an even number of points")
        for i, j in enumerate(partner):
            if not 0 <= j < size or j == i or partner[j] != i:
                raise ValueError(f"not an involution without fixed points: {partner}")
        for p in range(size):
            for r in range(p + 1, partner[p]):
                if p < r < partner[p] < partner[r]:
                    raise ValueError(f"crossing arcs in {partner}")
        object.__setattr__(self, "partner", partner)

    @property
    def j(self) -> int:
        return len(self.partner) // 2

    def pairs(self) -> list[tuple[int, int]]:
        return [(i, p) for i, p in enumerate(self.partner) if i < p]

    @staticmethod
    def from_pairs(pairs, size: "int | None" = None) -> "NonCrossingMatching":
        pairs = [tuple(p) for p in pairs]
        if size is None:
            size = 2 * len(pairs)
        partner = [-1] * size
        for a, b in pairs:
            partner[a], partner[b] = b, a
        return NonCrossingMatching(partner)


@dataclasses.dataclass(frozen=True)
class TreeRootedMap:
    """Quadrant excursion word over E/W/N/S."""

    word: str = ""

    def __post_init__(self):
        x = y = 0
        for ch in self.word:
            if ch == "E":
                x += 1
            elif ch == "W":
                x -= 1
            elif ch == "N":
                y += 1
            elif ch == "S":
                y -= 1
            else:
                raise ValueError(f"bad step {ch!r} in walk word")
            if x < 0 or y < 0:
                raise ValueError(f"walk {self.word!r} leaves the quadrant")
        if x or y:
            raise ValueError(f"walk {self.word!r} does not return to the origin")

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

    def __str__(self) -> str:
        return self.word


def is_valid_walk_prefix(text: str) -> bool:
    """Whether text extends to a quadrant excursion (never dips below axes)."""
    x = y = 0
    for ch in text:
        if ch not in "ENWS":
            return False
        x += {"E": 1, "W": -1}.get(ch, 0)
        y += {"N": 1, "S": -1}.get(ch, 0)
        if x < 0 or y < 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Families


def _btree_stats(word: str) -> tuple[int, ...]:
    """Degree distribution of a b-tree; buds count towards node degrees."""
    return degree_distribution(node_degrees(word))


@dataclasses.dataclass(frozen=True)
class BT(Family, name="bt", guard=5):
    b: int
    n: int

    def __post_init__(self):
        _check_sizes(self, "b", "n")

    @property
    def word_length(self) -> int:
        return 2 * self.n + self.b


@dataclasses.dataclass(frozen=True, init=False)
class BTDeg(Family, name="bt_deg", guard=5):
    b: int
    degrees: tuple[int, ...]

    def __init__(self, b: int, degrees):
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "degrees", _normalize_degrees(degrees))
        _check_sizes(self, "b")

    @property
    def n(self) -> int:
        """Tree edge count: one less than the node count."""
        return sum(self.degrees) - 1

    word_length = BT.word_length

    def feasible(self) -> bool:
        degsum = sum(i * c for i, c in enumerate(self.degrees, start=1))
        return degsum == 2 * self.n + self.b and \
            -self.b + sum((i - 2) * c for i, c in enumerate(self.degrees, start=1)) == -2


@dataclasses.dataclass(frozen=True)
class TMij(Family, name="tm_ij", guard=5):
    i: int
    j: int

    def __post_init__(self):
        _check_sizes(self, "i", "j")

    @property
    def n(self) -> int:
        return self.i + self.j


@dataclasses.dataclass(frozen=True)
class TMn(Family, name="tm_n", guard=5):
    n: int

    def __post_init__(self):
        _check_sizes(self, "n")


@dataclasses.dataclass(frozen=True, init=False)
class TMDeg(Family, name="tm_deg", guard=5):
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


@dataclasses.dataclass(frozen=True)
class NCM(Family, name="ncm", guard=5):
    j: int

    def __post_init__(self):
        _check_sizes(self, "j")

    @property
    def word_length(self) -> int:
        return 2 * self.j


MapFamily = BT | BTDeg | TMij | TMn | TMDeg | NCM


@functools.lru_cache(maxsize=None)
def _btree_words(b: int, n: int) -> tuple[str, ...]:
    """All b-tree words with n edges and b buds, lexicographic ('(' < ')' < 'b')."""
    out: list[str] = []

    def rec(prefix: list[str], opened: int, closed: int, buds: int) -> None:
        if opened == n and closed == n and buds == b:
            out.append("".join(prefix))
            return
        if opened < n:
            prefix.append("(")
            rec(prefix, opened + 1, closed, buds)
            prefix.pop()
        if closed < opened:
            prefix.append(")")
            rec(prefix, opened, closed + 1, buds)
            prefix.pop()
        if buds < b:
            prefix.append("b")
            rec(prefix, opened, closed, buds + 1)
            prefix.pop()

    rec([], 0, 0, 0)
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _ncm_list(j: int) -> tuple[NonCrossingMatching, ...]:
    from .trees import _dyck_words, matching as tree_matching
    return tuple(NonCrossingMatching(tree_matching(w)) for w in _dyck_words(j))


def compose(btree: BTreeWord, m: NonCrossingMatching) -> TreeRootedMap:
    """Open -> E, Close -> W; the p-th bud heads N if its partner comes later."""
    if btree.buds != 2 * m.j:
        raise SizeMismatch(f"{btree.buds} buds vs matching on {2 * m.j} points")
    out = []
    p = 0
    for ch in btree.word:
        if ch == "(":
            out.append("E")
        elif ch == ")":
            out.append("W")
        else:
            out.append("N" if m.partner[p] > p else "S")
            p += 1
    return TreeRootedMap("".join(out))


def decompose(mp: TreeRootedMap) -> tuple[BTreeWord, NonCrossingMatching]:
    word = mp.word
    btree = BTreeWord(word.replace("E", "(").replace("W", ")")
                      .replace("N", "b").replace("S", "b"))
    buds = [ch for ch in word if ch in "NS"]
    partner = [0] * len(buds)
    stack: list[int] = []
    for p, ch in enumerate(buds):
        if ch == "N":
            stack.append(p)
        else:
            q = stack.pop()
            partner[p], partner[q] = q, p
    return btree, NonCrossingMatching(partner)


# ---------------------------------------------------------------------------
# Rotations


def rotate_map(mp: TreeRootedMap, steps: int = 1) -> TreeRootedMap:
    """Root-corner rotation; `steps` iterations of a w1 a' w2 -> w1 a w2 a'."""
    word = mp.word
    size = len(word)
    if size == 0:
        return mp
    s = (-steps) % size
    if s == 0:
        return mp
    out = [""] * size
    for cls, (op, cl) in (("EW", ("E", "W")), ("NS", ("N", "S"))):
        pairs = _class_matching(word, cls[0], cls[1])
        for a, bpos in pairs.items():
            if a < bpos:
                x, y = (a + s) % size, (bpos + s) % size
                out[min(x, y)] = op
                out[max(x, y)] = cl
    return TreeRootedMap("".join(out))


def rotate_map_once_by_rule(mp: TreeRootedMap) -> TreeRootedMap:
    """The literal one-step rewriting; reference implementation for tests."""
    word = mp.word
    if not word:
        return mp
    a = word[0]
    cls = "EW" if a in "EW" else "NS"
    close = _class_matching(word, cls[0], cls[1])[0]
    return TreeRootedMap(word[1:close] + a + word[close + 1:] + word[close])


def rotate_btree(bt: BTreeWord, steps: int = 1) -> BTreeWord:
    """Same rotation on b-tree words; a leading bud simply moves to the end."""
    word = bt.word
    size = len(word)
    if size == 0:
        return bt
    s = (-steps) % size
    if s == 0:
        return bt
    out = [""] * size
    for p, ch in enumerate(word):
        if ch == "b":
            out[(p + s) % size] = "b"
    for a, bpos in _class_matching(word, "(", ")").items():
        if a < bpos:
            x, y = (a + s) % size, (bpos + s) % size
            out[min(x, y)] = "("
            out[max(x, y)] = ")"
    return BTreeWord("".join(out))


def rotate_ncm(m: NonCrossingMatching, steps: int = 1) -> NonCrossingMatching:
    size = len(m.partner)
    if size == 0:
        return m
    partner = [0] * size
    for i, p in enumerate(m.partner):
        partner[(i + steps) % size] = (p + steps) % size
    return NonCrossingMatching(partner)


# ---------------------------------------------------------------------------
# Enumeration and counting


def enumerate_maps(family: MapFamily):
    """Members in a fixed deterministic order; TM families via b-tree x matching."""
    if isinstance(family, BT):
        for w in _btree_words(family.b, family.n):
            yield BTreeWord(w)
    elif isinstance(family, BTDeg):
        if not family.feasible():
            return
        for w in _btree_words(family.b, family.n):
            if _btree_stats(w) == family.degrees:
                yield BTreeWord(w)
    elif isinstance(family, TMij):
        for w in _btree_words(2 * family.j, family.i):
            bt = BTreeWord(w)
            for m in _ncm_list(family.j):
                yield compose(bt, m)
    elif isinstance(family, TMn):
        for i in range(family.n + 1):
            yield from enumerate_maps(TMij(i, family.n - i))
    elif isinstance(family, TMDeg):
        base = BTDeg(2 * family.j, family.degrees)
        for bt in enumerate_maps(base):
            for m in _ncm_list(family.j):
                yield compose(bt, m)
    elif isinstance(family, NCM):
        yield from _ncm_list(family.j)
    else:
        raise TypeError(f"not a map family: {family!r}")


def _bt_count(b: int, n: int) -> int:
    return _multinomial(2 * n + b, (b, n, n)) // (n + 1)


def _btdeg_count(b: int, degrees: tuple[int, ...]) -> int:
    fam = BTDeg(b, degrees)
    if not fam.feasible():
        return 0
    n = fam.n
    return _as_int(Fraction(2 * n + b, (n + b) * (n + b + 1))
                   * _multinomial(b + n + 1, (b,) + degrees))


def closed_count_maps(family: MapFamily) -> int:
    if isinstance(family, BT):
        return _bt_count(family.b, family.n)
    if isinstance(family, BTDeg):
        return _btdeg_count(family.b, family.degrees)
    if isinstance(family, TMij):
        i, j = family.i, family.j
        return _multinomial(2 * i + 2 * j, (i, i, j, j)) // ((i + 1) * (j + 1))
    if isinstance(family, TMn):
        return catalan(family.n) * catalan(family.n + 1)
    if isinstance(family, TMDeg):
        return _btdeg_count(2 * family.j, family.degrees) * catalan(family.j)
    if isinstance(family, NCM):
        return catalan(family.j)
    raise TypeError(f"not a map family: {family!r}")


def rotation_order_maps(family: MapFamily) -> int:
    if isinstance(family, (BT, BTDeg)):
        return 2 * family.n + family.b
    if isinstance(family, (TMij, TMn, TMDeg)):
        return 2 * family.n
    if isinstance(family, NCM):
        return 2 * family.j
    raise TypeError(f"not a map family: {family!r}")


def _rotate_member(member, steps: int):
    if isinstance(member, BTreeWord):
        return rotate_btree(member, steps)
    if isinstance(member, TreeRootedMap):
        return rotate_map(member, steps)
    if isinstance(member, NonCrossingMatching):
        return rotate_ncm(member, steps)
    raise TypeError(f"cannot rotate {member!r}")


def _period(member) -> int:
    """Least rotation power fixing the member: the period of its arc offsets."""
    if isinstance(member, NonCrossingMatching):
        size = len(member.partner)
        return cyclic_period("".join([chr((p - i) % size)
                                      for i, p in enumerate(member.partner)]))
    return cyclic_period(arc_offsets(member.word))


@functools.lru_cache(maxsize=None)
def _btdeg_census_all(b: int, n: int) -> dict:
    """Period census of BT(b, n) grouped by degree distribution, in one walk.

    The walk builds the words in `_btree_words` order and carries, for the
    prefix, the node degrees (a bud adds one) and the arc offsets of
    `arc_offsets`: closing the '(' at j by the ')' at i writes i - j at j
    and L - (i - j) at i; a bud is 0.  A finished word is not parsed again:
    its period is read off the offsets and confirmed by one literal
    `rotate_btree`.
    """
    if b < 0 or n < 0:
        return {}
    size = 2 * n + b
    letters = [""] * size
    # Node k >= 1 is the k-th node reached, below the k-th '('.
    degree = [0] * (n + 1)
    parent = [0] * (n + 1)
    opened_at = [0] * (n + 1)  # position of the '(' above each node
    # one byte per offset; past 255 letters (enumerable only with very few
    # edges) a str of chr(offset) does the same
    offsets = bytearray(size) if size < 256 else [0] * size
    encode = bytes if size < 256 else (lambda o: "".join(map(chr, o)))
    groups: dict[tuple[int, ...], dict[int, int]] = {}

    def walk(i: int, opens: int, buds: int, node: int) -> None:
        """Extend the prefix of length i, which stands at `node`."""
        if opens == n and buds == b:
            while node:  # the rest of the word closes every open edge
                j = opened_at[node]
                offsets[j] = i - j
                offsets[i] = size - (i - j)
                letters[i] = ")"
                node = parent[node]
                i += 1
            word = BTreeWord("".join(letters))
            p = cyclic_period(encode(offsets))
            if rotate_btree(word, p) != word:
                raise AssertionError(f"{word} is not fixed by its period {p}")
            counts = groups.setdefault(degree_distribution(degree), {})
            counts[p] = counts.get(p, 0) + 1
            return
        if opens < n:
            child = opens + 1
            degree[node] += 1
            degree[child] = 1
            parent[child] = node
            opened_at[child] = i
            letters[i] = "("
            walk(i + 1, child, buds, child)
            degree[node] -= 1
        if node:
            j = opened_at[node]
            offsets[j] = i - j
            offsets[i] = size - (i - j)
            letters[i] = ")"
            walk(i + 1, opens, buds, parent[node])
        if buds < b:
            degree[node] += 1
            offsets[i] = 0
            letters[i] = "b"
            walk(i + 1, opens, buds + 1, node)
            degree[node] -= 1

    walk(0, 0, 0, 0)
    return {key: tuple(sorted(counts.items())) for key, counts in groups.items()}


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


@functools.lru_cache(maxsize=None)
def _map_period_census(family: MapFamily) -> tuple[tuple[int, int], ...]:
    if isinstance(family, BT):
        counts: dict[int, int] = {}
        for census in _btdeg_census_all(family.b, family.n).values():
            for p, c in census:
                counts[p] = counts.get(p, 0) + c
        return tuple(sorted(counts.items()))
    if isinstance(family, BTDeg):
        if not family.feasible() or family.n < 0:
            return ()
        return _btdeg_census_all(family.b, family.n).get(family.degrees, ())
    return period_census(enumerate_maps(family), _period, _rotate_member)


def fix_count_maps(family: MapFamily, e: int) -> int:
    """Brute-force count of members fixed by the e-th rotation power."""
    census = _map_period_census(family)
    if e == 0:
        return sum(c for _, c in census)
    return sum(c for p, c in census if e % p == 0)


def _ncm_fix_d(j: int, d: int) -> int:
    if d == 1:
        return catalan(j)
    if d == 2:
        return comb(j, (j + 1) // 2)
    if j % d == 0:
        return comb(2 * j // d, j // d)
    return 0


def _bt_fix_d(b: int, n: int, d: int) -> int:
    if d == 1:
        return _bt_count(b, n)
    if d == 2 and n % 2 == 1:
        return _multinomial(n + b // 2, (b // 2, (n - 1) // 2, (n + 1) // 2))
    if n % d == 0 and b % d == 0:
        return _multinomial((2 * n + b) // d, (b // d, n // d, n // d))
    return 0


def _btdeg_fix_d(b: int, degrees: tuple[int, ...], d: int) -> int:
    fam = BTDeg(b, degrees)
    if not fam.feasible():
        return 0
    n = fam.n
    if d == 1:
        return _btdeg_count(b, degrees)
    if d == 2 and b % 2 == 0 and all(c % 2 == 0 for c in degrees):
        return _as_int(Fraction(2 * n + b, n + b + 1)
                       * _multinomial((b + n + 1) // 2,
                                      (b // 2,) + tuple(c // 2 for c in degrees)))
    ell = _single_offset_class(degrees, d)
    if ell is not None and b % d == 0:
        parts = [c // d for c in degrees]
        parts[ell - 1] = (degrees[ell - 1] - 1) // d
        return _as_int(Fraction(2 * n + b, n + b)
                       * _multinomial((n + b) // d, (b // d,) + tuple(parts)))
    return 0


def fix_count_maps_closed(family: MapFamily, e: int) -> int:
    """Closed-form fixed-point count; TM families decouple into b-tree x matching."""
    order = rotation_order_maps(family)
    if order == 0 or e % order == 0:
        return closed_count_maps(family)
    d = order // gcd(e, order)
    if isinstance(family, BT):
        return _bt_fix_d(family.b, family.n, d)
    if isinstance(family, BTDeg):
        return _btdeg_fix_d(family.b, family.degrees, d)
    if isinstance(family, NCM):
        return _ncm_fix_d(family.j, d)
    if isinstance(family, TMij):
        return _bt_fix_d(2 * family.j, family.i, d) * _ncm_fix_d(family.j, d)
    if isinstance(family, TMn):
        return sum(_bt_fix_d(2 * j, family.n - j, d) * _ncm_fix_d(j, d)
                   for j in range(family.n + 1))
    if isinstance(family, TMDeg):
        return _btdeg_fix_d(2 * family.j, family.degrees, d) * _ncm_fix_d(family.j, d)
    raise TypeError(f"not a map family: {family!r}")


def map_fixed_via_parts(mp: TreeRootedMap, e: int) -> bool:
    """Fixedness test through the decomposition, as the decoupling asserts:
    the b-tree must be fixed by its rotation to the matching power."""
    n = mp.n
    if n == 0:
        return True
    d = 2 * n // gcd(e, 2 * n)
    bt, m = decompose(mp)
    size_m = len(m.partner)
    if size_m % d:
        return False
    return (rotate_btree(bt, len(bt.word) // d) == bt
            and (size_m == 0 or rotate_ncm(m, size_m // d) == m))


# ---------------------------------------------------------------------------
# Cubic maps with a Hamiltonian cycle


@dataclasses.dataclass(frozen=True, init=False)
class CubicHamiltonianMap:
    """2n-cycle plus n chords, one per cycle vertex: inner chords inside the
    disk, outer chords outside (non-crossing after index reflection)."""

    n: int
    inner: frozenset
    outer: frozenset
    root: int

    def __init__(self, n: int, inner, outer, root: int = 0):
        inner = frozenset(tuple(sorted(p)) for p in inner)
        outer = frozenset(tuple(sorted(p)) for p in outer)
        seen = [0] * (2 * n)
        for a, b in list(inner) + list(outer):
            seen[a] += 1
            seen[b] += 1
        if any(c != 1 for c in seen):
            raise ValueError("every cycle vertex must meet exactly one chord")
        for chords in (inner, outer):
            for a, b in chords:
                for c, d in chords:
                    if a < c < b < d:
                        raise ValueError("crossing chords on the same side")
        if not 0 <= root < 2 * n and n > 0:
            raise ValueError("root edge out of range")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "root", root)

    def descriptor(self) -> dict:
        return {"n": self.n, "inner": sorted(list(p) for p in self.inner),
                "outer": sorted(list(p) for p in self.outer), "root": self.root}


def to_cubic(mp: TreeRootedMap) -> CubicHamiltonianMap:
    word = mp.word
    inner = [(a, b) for a, b in _class_matching(word, "E", "W").items() if a < b]
    outer = [(a, b) for a, b in _class_matching(word, "N", "S").items() if a < b]
    return CubicHamiltonianMap(mp.n, inner, outer, 0)


def _normalized_chords(c: CubicHamiltonianMap):
    size = 2 * c.n
    shift = lambda p: tuple(sorted(((p[0] - c.root) % size, (p[1] - c.root) % size)))
    return (frozenset(shift(p) for p in c.inner), frozenset(shift(p) for p in c.outer))


def advance_root(c: CubicHamiltonianMap) -> CubicHamiltonianMap:
    """Move the root edge one step along the cycle, relabelled so root = 0."""
    size = 2 * c.n
    if size == 0:
        return c
    moved = CubicHamiltonianMap(c.n, c.inner, c.outer, (c.root + 1) % size)
    inner, outer = _normalized_chords(moved)
    return CubicHamiltonianMap(c.n, inner, outer, 0)


def from_cubic(c: CubicHamiltonianMap) -> TreeRootedMap:
    inner, outer = _normalized_chords(c)
    out = [""] * (2 * c.n)
    for a, b in inner:
        out[a], out[b] = "E", "W"
    for a, b in outer:
        out[a], out[b] = "N", "S"
    return TreeRootedMap("".join(out))
