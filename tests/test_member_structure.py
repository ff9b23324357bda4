"""Member structure read through the tour-word kernel, against the readers
it replaced.

The reference implementations below are the word parser (`RefParse`), the
tree center, the restricted rotation, the dissection correspondence, the
matching rotation by partner arrays and the cubic-map validator with its
root moves, as they were before every member was read through
`node_degrees`, `corner_nodes`, the matcher and the re-rooting of `trees`.
They are kept here, word for word in behaviour, as the oracle the kernel
readers must match.
"""
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sieveforest.bijections import (Degree2NodePresent, Dissection,
                                    NotLeafRooted, tree_to_dissection)
from sieveforest.maps import (CubicHamiltonianMap, NonCrossingMatching, TMn,
                              TreeRootedMap, advance_root, enumerate_maps,
                              from_cubic, rotate_ncm, to_cubic)
from sieveforest.rotations import (INTERNAL, LEAF, ORDINARY, NoEligibleCorner,
                                   degree_kind, rotate)
from sieveforest.trees import (CentralEdge, CentralVertex, PlaneTree,
                               _btree_words, center, corner_nodes, matching,
                               node_degrees, shift_root)

MAX_N = 7
KINDS = (ORDINARY, LEAF, INTERNAL) + tuple(degree_kind(d) for d in range(1, 6))

# ---------------------------------------------------------------------------
# Reference implementations


class RefParse:
    """One-pass structure extraction from a tree word.

    Nodes are numbered 0 (root), then in order of first arrival.
    """

    def __init__(self, word: str):
        self.parent = [-1]
        self.degree = [0]
        self.first_corner = [0]
        self.children = [[]]
        self.node_at_corner = []
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


def ref_center(word: str):
    p = RefParse(word)
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
    open_pos = p.first_corner[child] - 1
    return CentralEdge(open_pos, (open_pos, matching(word)[open_pos]))


def ref_rotate(word: str, kind, steps: int) -> str:
    if kind.name != "ordinary":
        p = RefParse(word)
        size = len(word)
        eligible = [c for c in range(size)
                    if kind.eligible(p.degree[p.node_at_corner[c]])]
        if not eligible or eligible[0] != 0:
            raise NoEligibleCorner(word)
        k = len(eligible)
        if steps % k == 0:
            return word
        steps = size - eligible[-steps % k]
    return shift_root(word, steps)


def ref_tree_to_dissection(word: str) -> Dissection:
    partner = matching(word)
    size = len(word)
    if size < 2 or partner[0] != size - 1:
        raise NotLeafRooted(word)
    parse = RefParse(word)
    if any(deg == 2 for deg in parse.degree):
        raise Degree2NodePresent(word)
    if size == 2:
        raise ValueError("dissection correspondence needs an internal vertex")
    children = {parse.first_corner[k] - 1: len(parse.children[k])
                for k in range(1, parse.node_count)}
    leaves = [o for o in range(size) if word[o] == "(" and children[o] == 0]
    k = len(leaves) + 1
    index_after = lambda pos: sum(1 for o in leaves if o < pos)
    diagonals = []
    for o in range(1, size):
        if word[o] == "(" and children[o] > 0:
            j = index_after(o) + 1
            jp = index_after(partner[o])
            diagonals.append((j, (jp + 1) % k))
    return Dissection(k, diagonals)


def ref_rotate_ncm(partner, steps: int):
    size = len(partner)
    if size == 0:
        return tuple(partner)
    out = [0] * size
    for i, p in enumerate(partner):
        out[(i + steps) % size] = (p + steps) % size
    return tuple(out)


def ref_cubic_valid(n: int, inner, outer, root: int) -> bool:
    """The crossing and vertex-count checks, for chord ends on the cycle."""
    inner = frozenset(tuple(sorted(p)) for p in inner)
    outer = frozenset(tuple(sorted(p)) for p in outer)
    seen = [0] * (2 * n)
    for a, b in list(inner) + list(outer):
        seen[a] += 1
        seen[b] += 1
    if any(c != 1 for c in seen):
        return False
    for chords in (inner, outer):
        for a, b in chords:
            for c, d in chords:
                if a < c < b < d:
                    return False
    return not (not 0 <= root < 2 * n and n > 0)


def ref_normalized_chords(n, inner, outer, root):
    size = 2 * n
    shift = lambda p: tuple(sorted(((p[0] - root) % size, (p[1] - root) % size)))
    return (frozenset(shift(p) for p in inner), frozenset(shift(p) for p in outer))


def ref_from_cubic(c) -> str:
    inner, outer = ref_normalized_chords(c.n, c.inner, c.outer, c.root)
    out = [""] * (2 * c.n)
    for a, b in inner:
        out[a], out[b] = "E", "W"
    for a, b in outer:
        out[a], out[b] = "N", "S"
    return "".join(out)


def ref_advance_root(c) -> dict:
    size = 2 * c.n
    if size == 0:
        return c.descriptor()
    inner, outer = ref_normalized_chords(c.n, c.inner, c.outer, (c.root + 1) % size)
    return CubicHamiltonianMap(c.n, inner, outer, 0).descriptor()


def outcome(fn, *args):
    """The result, or the type of the exception raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 -- the type is what is compared
        return type(exc)


def tree_words():
    for n in range(MAX_N + 1):
        yield from _btree_words(0, n)


# ---------------------------------------------------------------------------
# Trees


def test_corner_nodes_are_the_parse():
    for word in tree_words():
        p = RefParse(word)
        assert corner_nodes(word) == p.node_at_corner, word
        assert node_degrees(word) == p.degree, word


@pytest.mark.parametrize("n", range(MAX_N + 1))
def test_rotations_match_the_reference(n):
    """Every word, kind and steps -3 ... 2n + 2: the same word or error."""
    for word, kind in itertools.product(_btree_words(0, n), KINDS):
        for steps in range(-3, 2 * n + 3):
            new = outcome(lambda: rotate(PlaneTree(word), kind, steps).word)
            assert new == outcome(ref_rotate, word, kind, steps), (word, kind, steps)


def test_rotation_by_its_order_returns_the_tree_itself():
    for word in _btree_words(0, 5):
        t = PlaneTree(word)
        for kind in KINDS:
            k = sum(d for d in node_degrees(word) if kind.eligible(d))
            if word and kind.eligible(node_degrees(word)[0]):
                assert rotate(t, kind, 2 * k) is t


def test_center_matches_the_reference():
    for word in tree_words():
        assert center(PlaneTree(word)) == ref_center(word), word


def test_dissection_matches_the_reference():
    for word in tree_words():
        new = outcome(tree_to_dissection, PlaneTree(word))
        assert new == outcome(ref_tree_to_dissection, word), word


# ---------------------------------------------------------------------------
# Matchings and cubic maps


def test_rotate_ncm_matches_the_reference():
    for word in tree_words():
        m = NonCrossingMatching(matching(word))
        for steps in range(-3, len(word) + 3):
            assert rotate_ncm(m, steps).partner \
                == ref_rotate_ncm(m.partner, steps), (word, steps)


@pytest.mark.parametrize("n", range(5))
def test_cubic_maps_at_every_root_match_the_reference(n):
    for mp in enumerate_maps(TMn(n)):
        chords = to_cubic(mp)
        for root in range(max(2 * n, 1)):
            assert ref_cubic_valid(n, chords.inner, chords.outer, root)
            c = CubicHamiltonianMap(n, chords.inner, chords.outer, root)
            assert from_cubic(c) == TreeRootedMap(ref_from_cubic(c)), (mp, root)
            assert advance_root(c).descriptor() == ref_advance_root(c), (mp, root)


def perfect_matchings(points):
    """Every pairing of `points`, as a list of pairs."""
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for i, other in enumerate(rest):
        for sub in perfect_matchings(rest[:i] + rest[i + 1:]):
            yield [(first, other)] + sub


def accepts(n, inner, outer, root) -> bool:
    try:
        CubicHamiltonianMap(n, inner, outer, root)
    except ValueError:
        return False
    return True


def test_cubic_validation_exhaustive():
    """Every pairing of the 2n-cycle with every side per chord, n <= 4, at
    roots 0 and n: crossings on one side are refused."""
    for n in range(5):
        for pairs in perfect_matchings(list(range(2 * n))):
            for sides in itertools.product((0, 1), repeat=n):
                inner = [p for p, s in zip(pairs, sides) if s == 0]
                outer = [p for p, s in zip(pairs, sides) if s == 1]
                for root in {0, n}:
                    assert accepts(n, inner, outer, root) \
                        == ref_cubic_valid(n, inner, outer, root), (inner, outer)


chord = st.tuples(st.integers(0, 7), st.integers(0, 7))


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 4), st.lists(chord, max_size=5), st.lists(chord, max_size=5),
       st.integers(0, 7))
def test_cubic_validation_on_arbitrary_chords(n, inner, outer, root):
    """Chords that meet a vertex twice, miss one or are loops are refused as
    before; chord ends off the cycle, and a root off the empty cycle, are
    refused now, where the reference failed or accepted them."""
    size = 2 * n
    if root < max(size, 1) and all(0 <= end < size
                                   for chord in inner + outer for end in chord):
        assert accepts(n, inner, outer, root) == ref_cubic_valid(n, inner, outer, root)
    else:
        assert not accepts(n, inner, outer, root)
