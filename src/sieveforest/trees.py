"""Rooted plane trees as balanced-parenthesis words.

A tree with n edges is the word of its counterclockwise tour from the root
corner: '(' when an edge is traversed for the first time, ')' on the way back.
Corner t (0 <= t < 2n) is the corner visited just before letter t; the root
corner is corner 0.  Equality, hashing and ordering are word-based.

The module holds the tour-word kernel that the tree, b-tree and map words
all share, and through which every member's structure is read: one word
base (`_TourWord`, checked by `_validate_word` over its class's alphabet;
a '()' word, tree, matching or partition, by the one scan `_tree_degrees`,
whose node degrees each `PlaneTree` keeps for `stats` and
`rotations.rotate`), one arc matcher (`_pair_offsets`, read as partners
by `matching` and as a period key by `arc_offsets`), one re-rooting
(`_reroot`, behind `shift_root` here and every rotation of `maps`), the
node readers `node_degrees` and `corner_nodes`, and the one walk over
b-tree words (`_btree_walk`), which groups them by (degree distribution,
root degree) and gives each its period, confirmed by a literal
re-rooting where it is below the length: with the words, the word table
of every member list; without them, past b = 0, the periods of the
census table.  The walk
carries the distribution as one integer, the sum over the nodes of
(n + 2) ** degree, exact because no degree count passes n + 1, and writes
the closing tail of a word only where it is read: where the word is kept
or its group may have a period below the length.  It also
provides the rotation kinds (`RotationKind`: which corners a rotation
visits), the `Family` protocol that every family of the package implements,
with its one census of word families and the two closed-form formulas most
families share (b-trees by size and by degrees), the eight plane-tree
families, the tree center, and the two structural surgeries used to
classify trees fixed by a power of the rotation: cutting the central edge
(half_tree / glue_halves) and keeping a 1/d sector around the central
vertex (sector / replicate_sector).  Both are re-rootings: rooted at its
central vertex, a tree fixed by the 2n/d rotation has the word u^d, and
rooted at a marked leaf, a half is '(' + its subtrees + ')'.

A plane-tree family is a size constraint (all trees, k leaves, or a degree
distribution) and a root constraint, which is its rotation kind: the root
corner must be one the kind visits.  Its members, the order of its kind
(the corners the kind visits) and its counts all follow from these two.
So does its census.  Every word family, tree, b-tree or matching, is a
union of walk groups, and `Family._census` sums the censuses of those it
admits (`_summed_census`) in one census table per (b, n),
`_census_table`: at b = 0 the periods of the word table counted, past it
those of the walk run without words, so at b = 0 one walk serves all.  A
family that fixes its degree distribution reads only that distribution's
keys, indexed next to the table by `_census_keys`.  An
ordinary group's census is the table's; a restricted group's turns each
member once and is cached per group and kind (`rotations._group_census`),
so families that share a group share its rotations.  `AllTrees` alone
lists its members and pairs each with the period of its word in the table
(`_paired`); like every other ordinary census it turns only the members
whose period is below the length.

Every family, tree or map, is one (set, action) pair, ordered and censused
under its own kind only, and has one census path: `Family.census()` reads
the one cache, `rotations._period_census`, cached under (family), which
calls the family's `_census()`.  Every census that rotates members hands
(member, period) pairs to `period_census`, which scales each period to the
kind's order and confirms it by one literal rotation, which the `AllTrees`
census leaves out at a period equal to the length.
"""
from __future__ import annotations

import functools
import operator
from fractions import Fraction
from math import comb


class _Value:
    """Base of the package's value classes.  Their fields are each class's
    annotated names after its bases' fields; `__init__` takes them by
    position or keyword, then runs `__post_init__`.  Binding the arguments
    costs a few hundred nanoseconds more than a written-out `__init__`,
    which the classes built in the hot loops have.  A value cannot be
    changed, equals only values of its own class with equal fields, and
    hashes and shows its fields in order."""

    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # from 3.10 the class's own annotations only, also where 3.14 has
        # not yet put them in vars(cls)
        cls._fields += tuple(f for f in cls.__annotations__ if f not in cls._fields)
        names = cls._fields
        get = operator.attrgetter(*names) if names else lambda self: ()
        # hashed as the tuple of the fields; attrgetter gives a lone one bare
        cls._key = staticmethod((lambda self: (get(self),)) if len(names) == 1 else get)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            given = {**dict(zip(fields, args)), **kwargs}
            if len(given) != len(args) + len(kwargs) or given.keys() != set(fields):
                raise TypeError(f"{type(self).__qualname__}() takes {fields}, "
                                f"not {args} and {kwargs}")
            args = [given[f] for f in fields]
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        # faster than reading the fields, but on 3.11 and 3.12 it slows later
        # reads of both values: the classes compared in loops have their own
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


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


# ---------------------------------------------------------------------------
# Tour words: the kernel of plane-tree, b-tree and tree-rooted map words

# The letters of a tour word are arc ends of two classes: tree edges ('()'
# or E/W) and non-tree edges (N/S); a bud ('b') is its own partner.  Each
# alphabet past '()' gives its tree-edge, bud and non-tree-edge letters
# ("" if none); a '()' word is checked by `_tree_degrees`.
_ALPHABETS = {"()b": ("(", ")", "b", "", ""), "EWNS": ("E", "W", "", "N", "S")}


def _tree_degrees(word: str) -> tuple[int, ...]:
    """Check a '()' word and give the degree of every node, root first, in
    order of first arrival (as `node_degrees` does), in one scan: the one
    check of the '()' alphabet.  It fails as `_validate_word` does, at the
    first ')' that closes no edge or the first other letter, whichever
    comes first, else if an edge is left open."""
    # the root's parent is a node past every node: a ')' at the root moves
    # there, and a '(' or ')' after it reads past both lists
    past = len(word) + 1
    degree = [0]
    parent = [past]
    node = 0
    try:
        for ch in word:
            if ch == "(":
                degree[node] += 1
                parent.append(node)
                node = len(degree)
                degree.append(1)
            elif ch == ")":
                node = parent[node]
            elif node == past:
                break
            else:
                raise ValueError(f"bad symbol {ch!r} in word {word!r}")
    except IndexError:
        pass
    else:
        if node == 0:
            return tuple(degree)
    raise ValueError(f"unbalanced word {word!r}")


def _validate_word(word: str, letters: str) -> None:
    """Raise ValueError unless `word` is a tour word over `letters`, '()' or
    one of the `_ALPHABETS`: both arc classes balanced, and no arc closed
    before it is opened."""
    if letters == "()":
        _tree_degrees(word)
        return
    edge_open, edge_close, bud, other_open, other_close = _ALPHABETS[letters]
    edges = others = 0
    for ch in word:
        if ch == edge_open:
            edges += 1
        elif ch == edge_close:
            edges -= 1
            if edges < 0:
                break
        elif ch == bud:
            pass
        elif ch == other_open:
            others += 1
        elif ch == other_close:
            others -= 1
            if others < 0:
                break
        else:
            raise ValueError(f"bad symbol {ch!r} in word {word!r}")
    if edges or others:
        raise ValueError(f"unbalanced word {word!r}")


def _pair_offsets(word: str) -> list[int]:
    """Pair the arc ends of a tour word within their class, and give each
    position the distance forward along the tour (mod L) to the other end
    of its arc.  An N/S arc adds L to keep it apart from E/W arcs; a bud,
    its own partner, gets 0."""
    size = len(word)
    out = [0] * size
    edges: list[int] = []   # open tree edges
    others: list[int] = []  # open non-tree edges
    for i, ch in enumerate(word):
        if ch == "(" or ch == "E":
            edges.append(i)
        elif ch == ")" or ch == "W":
            j = edges.pop()
            out[j], out[i] = i - j, size - i + j
        elif ch == "N":
            others.append(i)
        elif ch == "S":
            j = others.pop()
            out[j], out[i] = size + i - j, 2 * size - i + j
    return out


def matching(word: str) -> tuple[int, ...]:
    """partner[i] = position of the other end of the arc at position i,
    paired within its arc class; a bud is its own partner."""
    size = len(word)
    return tuple([(i + o) % size for i, o in enumerate(_pair_offsets(word))])


def arc_offsets(word: str) -> bytes | str:
    """The pairing as one symbol per tour position, whose cyclic period is
    the word's: moving every arc end by s, which re-roots the word, shifts
    this string cyclically by s.  Short words give bytes, longer ones a str
    of chr(offset)."""
    out = _pair_offsets(word)
    return bytes(out) if 2 * len(word) <= 256 else "".join(map(chr, out))


def _reroot(word: str, steps: int) -> str:
    """Move every arc end by +steps (mod L) and read the letters again: the
    word of the same object rooted `steps` corners further back.

    Cutting the tour at L - steps and swapping the two pieces moves every
    arc end; an arc that straddles the cut (opened before it, closed after)
    now closes before it opens, so its two letters trade places.
    """
    size = len(word)
    s = steps % size if size else 0
    if s == 0:
        return word
    cut = size - s
    offsets = _pair_offsets(word)
    head, tail = list(word[:cut]), list(word[cut:])
    for i in range(cut):
        j = i + offsets[i] % size
        if cut <= j < size:
            head[i], tail[j - cut] = word[j], word[i]
    return "".join(tail + head)


@functools.total_ordering
class _TourWord(_Value):
    """A word of the kernel, validated over the class's `letters`, '()' or
    one of the `_ALPHABETS`; compared, hashed and ordered by the word,
    within one class."""
    word: str = ""
    letters = "()"

    def __init__(self, word: str = ""):
        _validate_word(word, self.letters)
        object.__setattr__(self, "word", word)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.word == other.word

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.word < other.word

    __hash__ = _Value.__hash__

    def __str__(self) -> str:
        return self.word


class PlaneTree(_TourWord):
    """A rooted plane tree, its word checked by the scan that also reads
    every node's degree (`_tree_degrees`).  The tree keeps those degrees as
    `node_degrees`, root first in order of first arrival, for `stats` and
    `rotations.rotate`; they are not a field, so equality, hashing, order
    and repr read the word alone."""

    def __init__(self, word: str = ""):
        degrees = _tree_degrees(word)
        put = object.__setattr__
        put(self, "word", word)
        put(self, "node_degrees", degrees)

    @property
    def n(self) -> int:
        """Edge count."""
        return len(self.word) // 2


def cyclic_period(symbols: str | bytes | bytearray) -> int:
    """Least p >= 1 whose cyclic shift fixes `symbols`; it divides the length."""
    return (symbols + symbols).find(symbols, 1) if symbols else 1


def period_census(pairs, order, rotate) -> tuple[tuple[int, int], ...]:
    """((period, member count), ...) sorted by period, over (member, P)
    pairs, P the cyclic period of the member's arc offsets, under a
    rotation of order `order` whose eligible corners repeat with each
    member's word: order * P / L, L its length (1 for the empty word).
    `rotate(m, p) == m` confirms each period by one literal rotation, at
    p = order too, which checks the order against the member's own corners;
    a `rotate` that needs no rotation there (re-rooting by the whole tour
    is the identity) may hand `m` back.
    """
    counts: dict[int, int] = {}
    for m, period in pairs:
        size = len(m.word)
        p = order * period // size if size else 1
        turned = rotate(m, p)
        if turned is not m and turned != m:
            raise AssertionError(f"{m} is not fixed by its period {p}")
        counts[p] = counts.get(p, 0) + 1
    return tuple(sorted(counts.items()))


def _paired(members, words, periods):
    """Each member with the period of its word in the table (words,
    periods); fails unless the members are those words, in order."""
    members = iter(members)
    for word, period in zip(words, periods):
        m = next(members, None)
        if m is None or m.word != word:
            raise AssertionError(f"member {m} is listed where the word table has {word}")
        yield m, period
    m = next(members, None)
    if m is not None:
        raise AssertionError(f"member {m} is listed past the end of its word table")


def _summed_census(censuses) -> tuple[tuple[int, int], ...]:
    """The census of a disjoint union: the parts' counts added by period."""
    counts: dict[int, int] = {}
    for census in censuses:
        for p, c in census:
            counts[p] = counts.get(p, 0) + c
    return tuple(sorted(counts.items()))


def shift_root(word: str, steps: int) -> str:
    """The same tree re-rooted: every arc end moved by +steps (mod 2n)."""
    return _reroot(word, steps)


class TreeStats(_Value):
    edges: int
    leaves: int
    degrees: tuple[int, ...]  # degrees[i-1] = number of nodes of degree i
    root_degree: int
    corners: int

    def __init__(self, edges, leaves, degrees, root_degree, corners):
        # built once per word by the `stats` scan of AllTrees.members()
        put = object.__setattr__
        put(self, "edges", edges)
        put(self, "leaves", leaves)
        put(self, "degrees", degrees)
        put(self, "root_degree", root_degree)
        put(self, "corners", corners)


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


def corner_nodes(word: str) -> list[int]:
    """The node at each corner (the one visited just before each letter),
    numbered as in `node_degrees`."""
    out = []
    stack = [0]
    nodes = 1
    for ch in word:
        out.append(stack[-1])
        if ch == "(":
            stack.append(nodes)
            nodes += 1
        elif ch == ")":
            stack.pop()
    return out


def degree_distribution(degree) -> tuple[int, ...]:
    """(n_1, n_2, ...): how many nodes have each degree, given the node
    degrees (a list or tuple); () for a bare node."""
    dist = [0] * max(degree)
    if dist:
        for d in degree:
            dist[d - 1] += 1
    return tuple(dist)


def _prime_factors(m: int) -> list[int]:
    """The distinct primes dividing m >= 1, smallest first."""
    out = []
    q = 2
    while q * q <= m:
        if m % q == 0:
            out.append(q)
            while m % q == 0:
                m //= q
        q += 1
    return out + [m] if m > 1 else out


def _may_repeat(dist: list[int], size: int) -> bool:
    """Whether a b-tree word of `size` letters whose nodes have the degree
    counts `dist` can have a cyclic period below its length.

    A period p < L re-roots the tree onto itself by m = L / p > 1 steps.
    No power of that rotation below m fixes a corner, so it fixes at most
    one node, and every other node lies in an orbit of m nodes of one
    degree.  For a prime q dividing m, and so L, every degree count but
    at most one is then a multiple of q, and that one is 1 mod q.  The
    empty word may: its period, 1, is not its length.
    """
    if not size:
        return True
    for q in _prime_factors(size):
        if [c % q for c in dist if c % q] in ([], [1]):
            return True
    return False


def _btree_walk(b: int, n: int, words: bool = True):
    """The b-tree words with n edges and b buds (with no buds, the plane-tree
    words) grouped by (degree distribution, root degree), buds counted in a
    node's degree: `(groups, order)`, each group's words in lexicographic
    order ('(' < ')' < 'b') next to the cyclic period P of each word's arc
    offsets (a bytearray below 256 letters, else a list), and `order` the
    list of each word's group index in `groups`, in the walk's order, which
    is word order.  With `words` false (a period census), the groups keep
    only their periods: every word tuple and `order` are empty.

    The walk builds the words in order and carries, for the prefix, the
    node degrees, the arc offsets of `arc_offsets` (closing the '(' at j by
    the ')' at i writes i - j at j and L - (i - j) at i; a bud is 0), and
    the degree distribution as one integer code, the sum over the nodes of
    (n + 2) ** degree.  No degree count passes n + 1, the number of nodes,
    so the code's base-(n + 2) digits are the counts and the code is exact.
    Each letter hands the next frame the code plus a precomputed step: a
    node going from degree d to d + 1 adds
    (n + 2) ** (d + 1) - (n + 2) ** d, and a '(' also adds n + 2 for its
    child of degree 1.  A finished word is not parsed again: its group is
    looked up by code * (n + b + 1) + its root degree, and a new group
    decodes its distribution once from the node degrees.  The closing ')'s that end a word, with their offsets,
    are written only where they are read: the offsets in the groups whose
    degree counts allow a period below L (`_may_repeat`), where P is read
    off them; the letters where the word is kept or P < L.  In the other
    groups P = L.  A period below L is confirmed by one literal re-rooting
    of the word; re-rooting by the whole tour is the identity, so P = L
    needs none.  Once every edge is placed, a prefix standing at the root
    can go on only with buds, and one frame writes them all.
    """
    if b < 0 or n < 0:
        return {}, []
    size = 2 * n + b
    letters = [""] * size
    closes = [")"] * size
    zeros = bytes(size)
    # Node k >= 1 is the k-th node reached, below the k-th '('.
    degree = [0] * (n + 1)
    parent = [0] * (n + 1)
    opened_at = [0] * (n + 1)  # position of the '(' above each node
    # the code of the distribution: a node of degree d adds base ** d
    base, roots = n + 2, n + b + 1  # roots: the root degrees 0 .. n + b
    power = [base ** d for d in range(roots + 1)]
    bump = [power[d + 1] - power[d] for d in range(roots)]  # degree d -> d + 1
    branch = [step + base for step in bump]                 # and a new leaf
    # one byte per offset, read by `cyclic_period` as it is; past 255
    # letters (enumerable only with very few edges) a str of chr(offset)
    offsets = bytearray(size) if size < 256 else [0] * size
    period = cyclic_period if size < 256 else (
        lambda o: cyclic_period("".join(map(chr, o))))
    # code * roots + root degree -> (index, words, periods, may repeat, key)
    groups: dict[int, tuple] = {}
    order: list[int] = []

    def walk(i: int, opens: int, buds: int, node: int, code: int) -> None:
        """Extend the prefix of length i, which stands at `node` and whose
        degree distribution has the code `code`."""
        if opens == n:
            if buds == b:
                # the rest of the word closes every open edge: written below
                # only where it is read
                found = code * roots + degree[0]
                group = groups.get(found)
                if group is None:
                    counts = [0] * roots
                    for d in degree:
                        counts[d] += 1
                    group = groups[found] = (
                        len(groups), [], bytearray() if size < 256 else [],
                        _may_repeat(counts, size),
                        (_normalize_degrees(counts[1:]), degree[0]))
                p = size
                if group[3]:
                    t = i
                    while node:
                        j = opened_at[node]
                        offsets[j] = t - j
                        offsets[t] = size - (t - j)
                        node = parent[node]
                        t += 1
                    p = period(offsets)
                if p < size or words:
                    letters[i:] = closes[i:]
                    word = "".join(letters)
                    if p < size and _reroot(word, -p) != word:
                        raise AssertionError(f"{word} is not fixed by its period {p}")
                    if words:
                        order.append(group[0])
                        group[1].append(word)
                group[2].append(p)
                return
            if not node and b - buds > 1:
                # at the root with every edge placed, the rest can only be
                # buds: one frame places them all (one is the bud step's)
                d = degree[0]
                degree[0] = d + b - buds
                offsets[i:] = zeros[i:]
                letters[i:] = "b" * (size - i)
                walk(size, n, b, 0, code + power[d + b - buds] - power[d])
                degree[0] = d
                return
        if opens < n:
            child = opens + 1
            d = degree[node]
            degree[node] = d + 1
            degree[child] = 1
            parent[child] = node
            opened_at[child] = i
            letters[i] = "("
            walk(i + 1, child, buds, child, code + branch[d])
            degree[node] = d
        if node:
            j = opened_at[node]
            offsets[j] = i - j
            offsets[i] = size - (i - j)
            letters[i] = ")"
            walk(i + 1, opens, buds, parent[node], code)
        if buds < b:
            d = degree[node]
            degree[node] = d + 1
            offsets[i] = 0
            letters[i] = "b"
            walk(i + 1, opens, buds + 1, node, code + bump[d])
            degree[node] = d

    walk(0, 0, 0, 0, power[0])  # the bare root: one node of degree 0
    # `walk` refers to itself: unbound, its working lists go now, not when
    # the cyclic collector next runs
    walk = None
    return ({key: (tuple(listed), periods)
             for _, listed, periods, _, key in groups.values()}, order)


@functools.lru_cache(maxsize=None)
def _words_by_degrees(b: int, n: int) -> tuple[dict, list[int]]:
    """The word table of the b-tree walk, cached: ({(degree distribution,
    root degree): (words, periods)}, order), each group in word order."""
    return _btree_walk(b, n)


@functools.lru_cache(maxsize=None)
def _census_table(b: int, n: int) -> dict:
    """The census table of the b-tree walk, cached: {(degree distribution,
    root degree): ((period, count), ...)}, keyed like the word table.  At
    b = 0 it counts the periods of the word table `_words_by_degrees(0, n)`,
    which the plane-tree member lists and restricted groups build anyway;
    past it, those of the walk run keeping no words.  So at b = 0 the
    censuses and member lists share one walk per process."""
    groups = (_words_by_degrees(0, n) if b == 0 else _btree_walk(b, n, words=False))[0]
    return {key: tuple([(p, periods.count(p)) for p in sorted(set(periods))])
            for key, (_, periods) in groups.items()}


@functools.lru_cache(maxsize=None)
def _census_keys(b: int, n: int) -> dict:
    """The keys of the census table `_census_table(b, n)` by degree
    distribution, each list in table order: {degrees: [key, ...]}.  A family
    that fixes its distribution reads only its own keys through it."""
    index: dict[tuple, list] = {}
    for key in _census_table(b, n):
        index.setdefault(key[0], []).append(key)
    return index


def _admitted(b: int, n: int, admits=None):
    """(words, periods): the words of the groups of the word table
    `_words_by_degrees(b, n)` whose key (degrees, root_degree) `admits`
    (all of them by default), merged back into word order, and the period
    of each word in the same order.

    One admitted group is read as it is.  Several are merged by the walk's
    own order of groups, from which the others are dropped first, so no
    word is compared or sorted; with every group admitted, that order is
    read as it is."""
    groups, order = _words_by_degrees(b, n)
    picked = [admits is None or admits(*key) for key in groups]
    rows = list(groups.values())
    if picked.count(True) == 1:
        return rows[picked.index(True)]
    if not all(picked):
        order = [g for g in order if picked[g]]
    words = [iter(words) for words, _ in rows]
    periods = [iter(periods) for _, periods in rows]
    return (map(next, map(words.__getitem__, order)),
            map(next, map(periods.__getitem__, order)))


def stats(tree: PlaneTree) -> TreeStats:
    """The tree's edges, leaves, degree distribution, root degree and
    corners, from the node degrees its scan kept: the word is not read
    again."""
    degree = tree.node_degrees
    n = len(degree) - 1
    if not n:
        return TreeStats(0, 0, (), 0, 0)
    dist = degree_distribution(degree)
    return TreeStats(n, dist[0], dist, degree[0], 2 * n)


# ---------------------------------------------------------------------------
# Rotation kinds


class IncompatibleKind(ValueError):
    """Rotation kind does not match the family's root constraint."""


class RotationKind(_Value):
    """Which corners the rotation visits: all of them (ordinary), those at
    leaves, those at internal nodes, or those at nodes of degree `delta`."""
    name: str
    delta: int = 0

    def __init__(self, name: str, delta: int = 0):
        put = object.__setattr__
        put(self, "name", name)
        put(self, "delta", delta)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.name == other.name and self.delta == other.delta

    __hash__ = _Value.__hash__

    def __str__(self) -> str:
        return f"degree({self.delta})" if self.name == "degree" else self.name

    def _visited(self) -> tuple[tuple[int, ...], bool]:
        """The degrees whose corners it visits, as (listed, among): the
        corners of a node whose degree is among `listed` if `among`, else
        of a node whose degree is not.  `eligible`, `corners` and
        `tree_corners` all read this one definition."""
        if self.name == "leaf":
            return (1,), True
        if self.name == "degree":
            return (self.delta,), True
        if self.name == "internal":
            return (0, 1), False
        if self.name == "ordinary":
            return (), False
        raise IncompatibleKind(f"unknown kind {self}")

    def eligible(self, node_degree: int) -> bool:
        """Whether the rotation visits the corners of a node of this degree."""
        listed, among = self._visited()
        return (node_degree in listed) == among

    def corners(self, degrees) -> int:
        """The corners it visits in a tree with degrees[i-1] nodes of
        degree i: a node of degree d has d corners."""
        return sum(d * c for d, c in enumerate(degrees, start=1) if self.eligible(d))

    def tree_corners(self, node_degrees) -> int:
        """The corners it visits in a tree whose nodes have these degrees,
        `corners` of their distribution, counted degree by degree with no
        call per node."""
        listed, among = self._visited()
        some = sum([d * node_degrees.count(d) for d in listed])
        return some if among else sum(node_degrees) - some


ORDINARY = RotationKind("ordinary")
LEAF = RotationKind("leaf")
INTERNAL = RotationKind("internal")


@functools.lru_cache(maxsize=None)
def degree_kind(delta: int) -> RotationKind:
    """One value per delta: a `RootDegree`'s kind at every read."""
    if delta < 1:
        raise ValueError("degree class must be >= 1")
    return RotationKind("degree", delta)


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


def _degrees_feasible(degrees: tuple[int, ...], buds: int = 0) -> bool:
    """Whether these node degrees (buds included) sum to twice the edges,
    one fewer than the nodes, plus the buds: the degree lists of b-trees
    with `buds` buds, and of plane trees at 0."""
    total = sum(i * c for i, c in enumerate(degrees, start=1))
    return total == 2 * sum(degrees) - 2 + buds


FAMILIES: dict[str, type] = {}  # name -> family class, in definition order


class Family(_Value):
    """A family of a sieving result: a value whose declared fields, in
    order, are its parameters.  `class F(Family, name=..., guard=...)`
    enters F in FAMILIES under `name`; `guard` is its default size guard.

    Each family answers for itself:
      feasible()    whether it can have members at all, from its
                    parameters alone, never a closed form (True by default);
      members()     every member once, in a fixed order, by enumeration;
      kind          the rotation its theorem uses (None, the default, for
                    map families, which have one rotation): the family is
                    one (set, action) pair, ordered and censused under
                    this kind only;
      order()       the order of that rotation (the word length by default);
      census()      ((period, member count), ...) by enumeration: the
                    least rotation power fixing each member, cached by
                    `rotations._period_census` under (family) and made by
                    the family's `_census()`; a family that is a disjoint
                    union sums its parts' censuses;
      fix_closed(d) from a formula, the members fixed by a rotation power
                    of order d, for every d dividing the order;
      count()       the number of members: fix_closed(1).

    By default a member is a b-tree word of `word_length` = 2n + b letters
    (no buds unless `b` says so), and `members()` lists, in word order and
    wrapped in the `member` class, the groups of the word table
    `_words_by_degrees(b, n)` whose key (degree distribution with buds, root
    degree) the family `admits` (every group if it is None); none, and no
    table read, unless `feasible()`.  `_census()` sums the same groups'
    censuses in `_census_table(b, n)`; a family that fixes its `degrees`
    reads only that distribution's keys, from `_census_keys(b, n)`.

    Two formulas serve most families: `_btree_fix` (b-trees by size; plane
    trees and non-crossing matchings are the b-trees with no buds) and
    `_degrees_fix` (b-trees by degrees, plane trees at no buds).  Only the
    leaf-count families have a formula of their own.
    """

    guard_limit = 10
    kind = None     # one rotation, of the default order: the map families
    b = 0           # buds in each member's word
    admits = None   # the word-table groups listed; None for all of them
    degrees = None  # the one degree distribution admitted; None if not fixed
    member = PlaneTree

    def __init_subclass__(cls, name: "str | None" = None,
                          guard: "int | None" = None, **kwargs):
        super().__init_subclass__(**kwargs)
        if guard is not None:
            cls.guard_limit = guard
        if name is not None:
            cls.name = name
            FAMILIES[name] = cls

    @property
    def word_length(self) -> int:
        """Letters in each member's word: the depth of the b-tree walk."""
        return 2 * self.n + self.b

    def feasible(self) -> bool:
        return True

    def members(self):
        if self.feasible():
            words, _ = _admitted(self.b, self.n, self.admits)
            for word in words:
                yield self.member(word)

    def order(self) -> int:
        return self.word_length

    def census(self):
        # read at each call, not bound once: a tracer rebinds it
        return rotations._period_census(self)

    def _census(self):
        """The sum of the censuses of the groups of the census table
        `_census_table(b, n)` that the family admits, the groups its
        `members()` lists; none, and no walk, unless `feasible()`.  With
        `degrees` fixed, only that distribution's keys are tried.  Under
        no kind or the ordinary one a group's census is the table's: the
        walk re-rooted each word whose period is below the length, and
        re-rooting by the whole tour is the identity.  Under a restricted
        kind it is the group's `rotations._group_census`, at the group's
        own count of eligible corners, which must be the family's order."""
        kind, order, admits = self.kind, self.order(), self.admits
        if not self.feasible():
            return ()
        table = _census_table(self.b, self.n)
        keys = (table if self.degrees is None
                else _census_keys(self.b, self.n).get(self.degrees, ()))

        def groups():
            for key in keys:
                if admits is not None and not admits(*key):
                    continue
                if kind is None or kind.name == "ordinary":
                    yield table[key]
                elif kind.corners(key[0]) == order:
                    yield rotations._group_census(self.n, key, kind)
                else:
                    raise AssertionError(
                        f"{self} has order {order} under {kind}, but its members with "
                        f"degrees {key[0]} have {kind.corners(key[0])} such corners")
        return _summed_census(groups())

    def count(self) -> int:
        return self.fix_closed(1)

    def descriptor(self) -> dict:
        out = {"family": self.name}
        for name in family_fields(type(self)):
            value = getattr(self, name)
            out[name] = list(value) if isinstance(value, tuple) else value
        return out


def family_fields(cls) -> tuple[str, ...]:
    """A family's parameter names: its declared fields, in order."""
    return cls._fields


def family_from_descriptor(d: dict):
    """The family `descriptor()` describes; any of the FAMILIES."""
    cls = FAMILIES.get(d["family"])
    if cls is None:
        raise ValueError(f"unknown family {d['family']!r}")
    return cls(*(d[name] for name in family_fields(cls)))


class _PlaneTrees(Family):
    """Plane trees with n edges whose degree distribution and root degree
    the family `admits`: the size constraint is on the distribution, and
    the root constraint is the kind, which must visit the root corner; the
    rotation order follows from it."""

    kind = ORDINARY


class AllTrees(_PlaneTrees, name="all_trees"):
    n: int

    def __init__(self, n: int):
        object.__setattr__(self, "n", n)
        _check_sizes(self, "n")

    def admits(self, degrees, root_degree) -> bool:
        return True

    def members(self):
        # a `stats` scan of every word, all admitted, kept only because the
        # benchmark's self-test pins the scanned count (ROADMAP item 1a); the
        # words are the table's, in its order, as the census pairs them
        words, _ = _admitted(0, self.n)
        for word in words:
            t = PlaneTree(word)
            st = stats(t)
            if self.admits(st.degrees, st.root_degree):
                yield t

    def _census(self):
        # listed and paired with the word table member by member, not
        # summed over the groups: the benchmark's self-test pins this path's
        # listing, its `stats` scan and its one census miss.  It joins the
        # groups when the scan goes (ROADMAP item 1a).  As in every other
        # ordinary census, only a period below the length is turned:
        # re-rooting by the whole tour is the identity.
        size = self.order()
        return period_census(_paired(enumerate_family(self), *_admitted(0, self.n)),
                             size, lambda t, p: rotations.rotate(t, ORDINARY, p)
                             if p < size else t)

    def fix_closed(self, d: int) -> int:
        return _btree_fix(0, self.n, d)


class _ByLeafCount(_PlaneTrees):
    """Trees with n edges and k leaves.  The count is the number of
    corners `kind` visits times C(n-1, k-2) C(n, k) / (n (n-1)), and the
    fixed points have the same shape."""
    n: int
    k: int

    def __post_init__(self):
        _check_sizes(self, "n")

    def order(self) -> int:
        """The corners the kind visits: the k leaf, 2n - k internal or all 2n."""
        n2, k = 2 * self.n, self.k
        order = k if self.kind == LEAF else n2 - k if self.kind == INTERNAL else n2
        if order < 0:
            raise ValueError(f"{self}: the {self.kind} rotation would have the "
                             f"negative order {order}")
        return order

    def feasible(self) -> bool:
        # leaves: the bare node none, '()' two, a larger tree two (a path) to n (a star)
        return self.k == 2 * self.n if self.n <= 1 else 2 <= self.k <= self.n

    def admits(self, degrees, root_degree) -> bool:
        return (degrees[0] if degrees else 0) == self.k and self.kind.eligible(root_degree)

    def fix_closed(self, d: int) -> int:
        n, k = self.n, self.k
        if n <= 1:  # the bare node has no leaves; '()' has two, one at the root
            return int(k == 2 * n and self.kind.eligible(n))
        if not 2 <= k <= n + 1:
            return 0
        if d == 1:
            part, den = comb(n - 1, k - 2) * comb(n, k), n * (n - 1)
        elif d == 2 and n % 2 == 1:
            if k % 2:
                return 0
            h = (n - 1) // 2
            part, den = comb(h, k // 2 - 1) * comb(h, k // 2), n - 1
        elif n % d == 0 and k % d == 0:
            part, den = comb(n // d - 1, k // d - 1) * comb(n // d, k // d), n
        else:
            return 0
        return _as_int(self.order() * part, den)


class ByLeaves(_ByLeafCount, name="by_leaves"):
    pass


class LeafRooted(_ByLeafCount, name="leaf_rooted"):
    kind = LEAF


class InternalRooted(_ByLeafCount, name="internal_rooted"):
    kind = INTERNAL


class _ByDegreeCounts(_PlaneTrees, guard=9):
    """Trees with degrees[i-1] nodes of degree i: the b-trees with no buds
    of `_degrees_fix`, whose corners are those `kind` visits."""
    degrees: tuple[int, ...]

    def __init__(self, degrees):
        object.__setattr__(self, "degrees", _normalize_degrees(degrees))

    @property
    def n(self) -> int:
        return sum(i * c for i, c in enumerate(self.degrees, start=1)) // 2

    def order(self) -> int:
        """The corners the kind visits: a node of degree i has i."""
        return self.kind.corners(self.degrees)

    def feasible(self) -> bool:
        return _degrees_feasible(self.degrees)

    def admits(self, degrees, root_degree) -> bool:
        return degrees == self.degrees and self.kind.eligible(root_degree)

    def fix_closed(self, d: int) -> int:
        # an infeasible list may have no order for its kind, and no members
        if not self.feasible():
            return 0
        return _degrees_fix(self.order(), 0, self.degrees, d)


class ByDegrees(_ByDegreeCounts, name="by_degrees"):
    pass


class LeafRootedDeg(_ByDegreeCounts, name="leaf_rooted_deg"):
    kind = degree_kind(1)


class InternalRootedDeg(_ByDegreeCounts, name="internal_rooted_deg"):
    kind = INTERNAL


class RootDegree(_ByDegreeCounts, name="root_degree"):
    delta: int

    def __init__(self, degrees, delta: int):
        super().__init__(degrees)
        if delta < 1 or delta > len(self.degrees) or self.degrees[delta - 1] == 0:
            raise ValueError(f"no node of degree {delta} in {self.degrees}")
        object.__setattr__(self, "delta", delta)

    @property
    def kind(self) -> RotationKind:
        return degree_kind(self.delta)


def enumerate_family(family):
    """Every member exactly once: `family.members()`."""
    return family.members()


def _as_int(num: int, den: int) -> int:
    """num / den, which the formula at hand makes an integer."""
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"formula gave non-integer {Fraction(num, den)}")
    return q


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def _multinomial(total: int, parts) -> int:
    if any(p < 0 for p in parts) or sum(parts) != total:
        return 0
    out = 1
    for p in parts:
        out *= comb(total, p)
        total -= p
    return out


def _btree_fix(b: int, n: int, d: int) -> int:
    """B-trees with b buds and n edges fixed by a rotation power of order d
    (d divides 2n + b); with no buds, the plane trees with n edges and the
    non-crossing matchings of 2n points."""
    if d == 1:
        return _multinomial(2 * n + b, (b, n, n)) // (n + 1)
    if d == 2 and n % 2 == 1:
        return _multinomial(n + b // 2, (b // 2, n // 2, n // 2 + 1))
    if n % d or b % d:
        return 0
    return _multinomial((2 * n + b) // d, (b // d, n // d, n // d))


def _degrees_fix(corners: int, b: int, degrees: tuple[int, ...], d: int) -> int:
    """B-trees with b buds and degrees[i-1] nodes of degree i (buds
    included), fixed by a rotation power of order d, when the rotation
    visits `corners` corners of each; with no buds, plane trees.

    With E = b + n edges the count is corners (E-1)! / (b! prod(n_i!)),
    taken as corners multinomial(E+1; b, n_1, ...) / (E (E+1)) so that no
    factor outgrows the count.  A fixed tree is two halves around a central
    edge (d = 2, every count even) or d sectors around a central node, whose
    degree class alone is 1 mod d.
    """
    if not _degrees_feasible(degrees, b):
        return 0
    edges = b + sum(degrees) - 1
    parts = (b,) + degrees
    if d == 1:
        return _as_int(corners * _multinomial(edges + 1, parts), edges * (edges + 1))
    residues = [c % d for c in parts]
    if d == 2 and not any(residues):
        halves = [c // 2 for c in parts]
        return _as_int(corners * _multinomial((edges + 1) // 2, halves), edges + 1)
    if residues[0] or sum(residues) != 1:
        return 0
    return _as_int(corners * _multinomial(edges // d, [c // d for c in parts]), edges)


def closed_count(family) -> int:
    """The exact count of the family: `family.count()`."""
    return family.count()


def degree_solutions(nodes: int, degree_sum: int) -> list[tuple[int, ...]]:
    """Solutions of sum(n_i) = nodes, sum(i*n_i) = degree_sum with n_i >= 0,
    trailing zeros dropped, in increasing order.

    The walk chooses n_1, n_2, ... in turn, each in increasing order, and
    only values that leave a solution: r nodes still to place, each of
    degree above i, need a degree sum of at least (i + 1) r.  rest[k] holds
    the nodes and degree sum still to place once counts[:k] are chosen.
    """
    if nodes <= 0 or degree_sum < nodes:
        return [()] if nodes == degree_sum == 0 else []
    out: list[tuple[int, ...]] = []
    counts: list[int] = []
    rest = [(nodes, degree_sum)]
    while True:
        r, s = rest[-1]
        if r:
            deg = len(counts) + 1
            c = max(0, (deg + 1) * r - s)  # the least n_deg that leaves a solution
            counts.append(c)
            rest.append((r - c, s - deg * c))
            continue
        if s == 0:
            out.append(tuple(counts))
        # advance the deepest count that can grow, dropping those that cannot
        while counts:
            deg = len(counts)
            r, s = rest[-2]
            c = counts[-1] + 1
            if c > r or deg * c > s:
                counts.pop()
                rest.pop()
                continue
            counts[-1] = c
            rest[-1] = (r - c, s - deg * c)
            break
        else:
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


class CentralVertex(_Value):
    corner: int                 # first-arrival corner of the central vertex
    corners: frozenset[int]     # all its corners, for re-rooting-invariance checks


class CentralEdge(_Value):
    position: int               # tour position of the first traversal
    arc: tuple[int, int]        # both traversal positions


CenterResult = CentralVertex | CentralEdge


def center(tree: PlaneTree) -> CenterResult:
    """Iteratively delete all leaves; a vertex or an edge remains."""
    nodes = corner_nodes(tree.word)
    if not nodes:
        return CentralVertex(0, frozenset())
    deg = node_degrees(tree.word)
    # each letter crosses an edge from the node at its corner to the next
    neighbours: list[list[int]] = [[] for _ in deg]
    for u, v in zip(nodes, nodes[1:] + nodes[:1]):
        neighbours[u].append(v)
    alive = set(range(len(deg)))
    while len(alive) > 2:
        drop = [v for v in alive if deg[v] == 1]
        for v in drop:
            alive.remove(v)
            for u in neighbours[v]:
                if u in alive:
                    deg[u] -= 1
    if len(alive) == 1:
        v = alive.pop()
        corners = [c for c, node in enumerate(nodes) if node == v]
        return CentralVertex(corners[0], frozenset(corners))
    # nodes are numbered in order of first arrival, so the child is the larger
    open_pos = nodes.index(max(alive)) - 1
    return CentralEdge(open_pos, (open_pos, matching(tree.word)[open_pos]))


class MarkedTree(_Value):
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
    # Rooted at the marked leaf, a copy is '(' + its other subtrees + ')'.
    # Hanging the second copy's subtrees at the leaf makes the leaf that
    # copy's neighbour; re-rooting by m - 1 brings back the first root.
    half = shift_root(w, -m)
    return PlaneTree(shift_root(half + half[1:-1], m - 1))


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
    # rooted at the central vertex the word is u^d, u its first sector
    q0 = c.corner
    u = shift_root(w, -q0)[:2 * n // d]
    return MarkedTree(PlaneTree(shift_root(u, q0)), q0)


def replicate_sector(marked: MarkedTree, d: int) -> PlaneTree:
    """Inverse of sector: replicate the marked node's subtree tuple d times."""
    if d < 1:
        raise ValueError("d must be >= 1")
    w, m = marked.tree.word, marked.mark
    if m != 0 and not (1 <= m < len(w) and w[m - 1] == "("):
        raise ValueError(f"corner {m} is not a first-arrival corner of {w!r}")
    return PlaneTree(shift_root(shift_root(w, -m) * d, m))


# bound last: `rotations` imports this module
from . import rotations  # noqa: E402
