"""Member structure read through the tour-word kernel, against the readers
it replaced.

The reference implementations below are the word parser (`RefParse`), the
tree center, the restricted rotation, the dissection correspondence, the
matching rotation by partner arrays and the cubic-map validator with its
root moves, as they were before every member was read through
`node_degrees`, `corner_nodes`, the matcher and the re-rooting of `trees`;
and the two surgeries and the dissection validator and face march, as they
were before they became re-rootings and chord words; and the matching
stored as its partner array, the partition stored as its block assignment,
the thickening between them and the Kreweras complement and point rotation
through it, as they were before both became tour words.  They are kept here,
word for word in behaviour, as the oracle the kernel readers must match.
"""
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sieveforest import trees
from sieveforest.bijections import (Degree2NodePresent, Dissection,
                                    NonCrossingPartition, NotLeafRooted,
                                    dissection_to_tree, kreweras, ncp_to_tree,
                                    point_rotation, tree_to_dissection,
                                    tree_to_ncp)
from sieveforest.maps import (CubicHamiltonianMap, NonCrossingMatching, TMn,
                              TreeRootedMap, advance_root, compose, decompose,
                              enumerate_maps, from_cubic, rotate_ncm, to_cubic)
from sieveforest.rotations import (INTERNAL, LEAF, ORDINARY, NoEligibleCorner,
                                   degree_kind, rotate)
from sieveforest.trees import (CentralEdge, CentralVertex, DegreeNotDivisible,
                               MarkedLeafIsRoot, MarkedTree, NotFixed,
                               NotVertexCentered, PlaneTree, center,
                               corner_nodes, glue_halves, matching,
                               node_degrees, replicate_sector, sector,
                               shift_root)
from word_reference import reference_words

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


def ref_glue_halves(w: str, m: int) -> str:
    if m == 0:
        raise MarkedLeafIsRoot(w)
    if not (1 <= m < len(w) and w[m - 1] == "(" and w[m] == ")"):
        raise MarkedLeafIsRoot(w)
    inner = shift_root(w, -(m + 1))
    assert inner[-2:] == "()"
    return w[:m - 1] + "(" + inner[:-2] + ")" + w[m + 1:]


def ref_subtree_segments(chunk: str) -> list[str]:
    partner = matching(chunk)
    segs, start = [], 0
    while start < len(chunk):
        segs.append(chunk[start:partner[start] + 1])
        start = partner[start] + 1
    return segs


def ref_sector(w: str, d: int) -> tuple[str, int]:
    if d < 2:
        raise ValueError(d)
    c = center(PlaneTree(w))
    if not isinstance(c, CentralVertex):
        raise NotVertexCentered(w)
    n = len(w) // 2
    degree = len(c.corners)
    if degree % d != 0:
        raise DegreeNotDivisible(w)
    if shift_root(w, 2 * n // d) != w:
        raise NotFixed(w)
    keep = degree // d
    q0 = c.corner
    if q0 == 0:
        return "".join(ref_subtree_segments(w)[:keep]), 0
    entry = q0 - 1
    exit_pos = matching(w)[entry]
    x, y, z = w[:entry], w[q0:exit_pos], w[exit_pos + 1:]
    segs = ref_subtree_segments(y)
    return x + "(" + "".join(segs[:keep - 1]) + ")" + z, q0


def ref_replicate_sector(w: str, m: int, d: int) -> str:
    if d < 1:
        raise ValueError(d)
    if m == 0:
        return w * d
    if not (1 <= m < len(w) and w[m - 1] == "("):
        raise ValueError(m)
    entry = m - 1
    exit_pos = matching(w)[entry]
    x, y, z = w[:entry], w[m:exit_pos], w[exit_pos + 1:]
    inner = shift_root(x + "()" + z, -(m + 1))
    assert inner[-2:] == "()"
    pendant = "(" + inner[:-2] + ")"
    return x + "(" + y + (pendant + y) * (d - 1) + ")" + z


def ref_dissection(k: int, diagonals) -> frozenset:
    """The validator of `Dissection`: its normalized diagonals."""
    diagonals = frozenset(tuple(sorted(d)) for d in diagonals)
    for a, b in diagonals:
        if not (0 <= a < b < k) or b - a == 1 or (a == 0 and b == k - 1):
            raise ValueError((a, b))
    for a, b in diagonals:
        for c, d in diagonals:
            if a < c < b < d:
                raise ValueError((a, b, c, d))
    return diagonals


def ref_dissection_to_tree(k: int, diagonals) -> str:
    edges: dict[int, set[int]] = {v: set() for v in range(k)}
    for v in range(k):
        edges[v].add((v + 1) % k)
        edges[(v + 1) % k].add(v)
    for a, b in diagonals:
        edges[a].add(b)
        edges[b].add(a)

    def rec(a: int, b: int) -> str:
        parts = []
        v = a
        while v != b:
            span = (b - v) % k
            cand = [c for c in edges[v]
                    if 0 < (c - v) % k <= span and not (v == a and c == b)]
            nxt = max(cand, key=lambda c: (c - v) % k)
            if (nxt - v) % k == 1:
                parts.append("()")
            else:
                parts.append("(" + rec(v, nxt) + ")")
            v = nxt
        return "".join(parts)

    return "(" + rec(1, 0) + ")"


def ref_rotate_ncm(partner, steps: int):
    size = len(partner)
    if size == 0:
        return tuple(partner)
    out = [0] * size
    for i, p in enumerate(partner):
        out[(i + steps) % size] = (p + steps) % size
    return tuple(out)


class RefMatching:
    """The matching stored as its partner array, checked point by point."""

    def __init__(self, partner):
        partner = tuple(partner)
        size = len(partner)
        if size % 2:
            raise ValueError("matching needs an even number of points")
        for i, j in enumerate(partner):
            if not 0 <= j < size or j == i or partner[j] != i:
                raise ValueError(f"not an involution without fixed points: {partner}")
        self.partner = partner
        # the matcher pairs the word's arcs without crossings
        if matching(self.word) != partner:
            raise ValueError(f"crossing arcs in {partner}")

    @property
    def word(self) -> str:
        return "".join(["(" if p > i else ")" for i, p in enumerate(self.partner)])

    def pairs(self) -> list:
        return [(i, p) for i, p in enumerate(self.partner) if i < p]


class RefPartition:
    """The partition stored as its block assignment, relabelled by first
    appearance and checked through its thickening."""

    def __init__(self, assignment):
        assignment = tuple(assignment)
        relabel: dict = {}
        for b in assignment:
            if b not in relabel:
                relabel[b] = len(relabel)
        self.assignment = tuple(relabel[b] for b in assignment)
        try:
            ref_thicken(self)
        except ValueError:
            raise ValueError(f"crossing blocks in {self.assignment}") from None

    @property
    def n(self) -> int:
        return len(self.assignment)

    def blocks(self) -> list:
        out: dict = {}
        for i, b in enumerate(self.assignment):
            out.setdefault(b, []).append(i + 1)
        return sorted(out.values())


def ref_thicken(p: RefPartition) -> RefMatching:
    partner = [0] * (2 * p.n)
    for blk in p.blocks():
        pts = [a - 1 for a in blk]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            partner[2 * a + 1], partner[2 * b] = 2 * b, 2 * a + 1
    return RefMatching(partner)


def ref_unthicken(m: RefMatching) -> RefPartition:
    n = len(m.partner) // 2
    succ = {a: m.partner[2 * a + 1] // 2 for a in range(n)}
    assignment = [-1] * n
    for start in range(n):  # a block is named by its first point
        a = start
        while assignment[a] < 0:
            assignment[a] = start
            a = succ[a]
    return RefPartition(assignment)


def ref_kreweras(p: RefPartition) -> RefPartition:
    return ref_unthicken(RefMatching(ref_rotate_ncm(ref_thicken(p).partner, 1)))


def ref_point_rotation(p: RefPartition, steps: int = 1) -> RefPartition:
    s = -steps % p.n if p.n else 0
    return RefPartition(p.assignment[s:] + p.assignment[:s])


def ref_compose(btree_word: str, m: RefMatching) -> str:
    out = []
    p = 0
    for ch in btree_word:
        if ch == "(":
            out.append("E")
        elif ch == ")":
            out.append("W")
        else:
            out.append("N" if m.partner[p] > p else "S")
            p += 1
    return "".join(out)


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
        yield from reference_words(0, n)


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
    for word, kind in itertools.product(reference_words(0, n), KINDS):
        for steps in range(-3, 2 * n + 3):
            new = outcome(lambda: rotate(PlaneTree(word), kind, steps).word)
            assert new == outcome(ref_rotate, word, kind, steps), (word, kind, steps)


def test_rotation_by_its_order_returns_the_tree_itself():
    for word in reference_words(0, 5):
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


@pytest.mark.parametrize("n", range(11))
def test_sector_matches_the_reference(n):
    """Every tree with n <= 10 at every d >= 2 dividing the central degree,
    and for n <= 6 at every d from -1 to 2n + 1: the same marked tree or
    error."""
    for word in reference_words(0, n):
        c = center(PlaneTree(word))
        degree = len(c.corners) if isinstance(c, CentralVertex) else 0
        ds = range(-1, 2 * n + 2) if n <= 6 else \
            [d for d in range(2, degree + 1) if degree % d == 0]
        for d in ds:
            ref = outcome(ref_sector, word, d)
            if not isinstance(ref, type):
                ref = MarkedTree(PlaneTree(ref[0]), ref[1])
            assert outcome(sector, PlaneTree(word), d) == ref, (word, d)


def test_replicate_and_glue_match_the_reference():
    """Every mark from -2 to 2n + 1 of every tree with n <= 7 (the
    first-arrival and non-root-leaf marks among them), and d from 0 to 3."""
    for word in tree_words():
        for m in range(-2, len(word) + 2):
            marked = MarkedTree(PlaneTree(word), m)
            for d in range(4):
                new = outcome(lambda: replicate_sector(marked, d).word)
                assert new == outcome(ref_replicate_sector, word, m, d), (word, m, d)
            new = outcome(lambda: glue_halves(marked).word)
            assert new == outcome(ref_glue_halves, word, m), (word, m)


def test_dissection_to_tree_matches_the_reference():
    seen = 0
    for n in range(11):
        for word in reference_words(0, n):
            d = outcome(tree_to_dissection, PlaneTree(word))
            if isinstance(d, Dissection):
                seen += 1
                assert dissection_to_tree(d).word \
                    == ref_dissection_to_tree(d.k, d.diagonals) == word
    assert seen == 385


def assert_dissection_matches(k, diagonals):
    new = outcome(Dissection, k, diagonals)
    ref = outcome(ref_dissection, k, diagonals)
    if isinstance(new, Dissection):
        assert new.diagonals == ref, (k, diagonals)
        assert dissection_to_tree(new).word == ref_dissection_to_tree(k, ref)
    else:
        assert new == ref, (k, diagonals)


def test_dissection_validation_on_every_diagonal_set():
    """All 16,933 sets of diagonals of the k-gons with 3 <= k <= 7."""
    seen = 0
    for k in range(3, 8):
        diagonals = [(a, b) for a in range(k) for b in range(a + 2, k)
                     if (a, b) != (0, k - 1)]
        for size in range(len(diagonals) + 1):
            for subset in itertools.combinations(diagonals, size):
                assert_dissection_matches(k, subset)
                seen += 1
    assert seen == 16933


def test_dissection_validation_on_random_pairs():
    """20,000 random lists of pairs, in range or not, for 3 <= k <= 12."""
    rng = random.Random(11)
    for _ in range(20000):
        k = rng.randint(3, 12)
        pairs = [(rng.randint(-1, k), rng.randint(-1, k))
                 for _ in range(rng.randint(0, 6))]
        assert_dissection_matches(k, pairs)


# ---------------------------------------------------------------------------
# Matchings and cubic maps


MAX_ARCS = 8


def matching_words():
    for j in range(MAX_ARCS + 1):
        yield from reference_words(0, j)


def test_matching_word_and_partner_match_the_reference():
    for word in matching_words():
        m = NonCrossingMatching(word)
        ref = RefMatching(m.partner)
        assert ref.word == word
        assert m.pairs() == ref.pairs()
        assert NonCrossingMatching.from_pairs(ref.pairs()) == m


def set_partitions(n):
    """Every partition of range(n) as a restricted growth string."""
    def rec(prefix, blocks):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for b in range(blocks + 1):
            yield from rec(prefix + [b], max(blocks, b + 1))
    yield from rec([], 0)


def reference_partitions():
    """(reference, partition) for every non-crossing partition of n <= 8."""
    for n in range(MAX_ARCS + 1):
        seen = 0
        for assignment in set_partitions(n):
            ref = outcome(RefPartition, assignment)
            if isinstance(ref, RefPartition):
                seen += 1
                yield ref, NonCrossingPartition.from_blocks(ref.blocks())
        assert seen == len(reference_words(0, n))


def test_partition_assignment_and_blocks_match_the_reference():
    for ref, p in reference_partitions():
        assert p.word == ref_thicken(ref).word
        assert p.n == ref.n
        assert p.assignment == ref.assignment
        assert p.blocks() == ref.blocks()
    # every word is the thickening of one partition
    for word in matching_words():
        p = NonCrossingPartition(word)
        assert p.assignment == ref_unthicken(RefMatching(matching(word))).assignment


def test_kreweras_and_point_rotation_match_the_reference():
    for ref, p in reference_partitions():
        assert kreweras(p).assignment == ref_kreweras(ref).assignment
        for steps in range(-3, 2 * p.n + 4):
            assert point_rotation(p, steps).assignment \
                == ref_point_rotation(ref, steps).assignment, (p, steps)


def test_partition_correspondence_matches_the_reference():
    for word in matching_words():
        if not word:
            continue
        t = PlaneTree(word)
        ref = ref_unthicken(RefMatching(matching(word)))
        assert tree_to_ncp(t).assignment == ref.assignment
        assert ncp_to_tree(tree_to_ncp(t)) == t
        assert ncp_to_tree(NonCrossingPartition.from_blocks(ref.blocks())).word \
            == ref_thicken(ref).word == word


def test_compose_decompose_match_the_reference():
    for n in range(5):
        for mp in enumerate_maps(TMn(n)):
            bt, m = decompose(mp)
            buds = "".join(ch for ch in mp.word if ch in "NS")
            assert m.partner == matching(buds.replace("N", "(").replace("S", ")"))
            assert compose(bt, m) == mp
            assert ref_compose(bt.word, RefMatching(m.partner)) == mp.word


def test_rotate_ncm_runs_the_matcher_once(monkeypatch):
    """Re-rooting pairs the arcs once; the moved word needs no second pass."""
    m = NonCrossingMatching.from_pairs([(0, 5), (1, 2), (3, 4), (6, 7)])
    calls = []
    pair_offsets = trees._pair_offsets

    def counted(word):
        calls.append(word)
        return pair_offsets(word)

    monkeypatch.setattr(trees, "_pair_offsets", counted)
    moved = rotate_ncm(m, 3)
    assert moved != m
    assert len(calls) == 1


def test_rotate_ncm_matches_the_reference():
    for word in tree_words():
        m = NonCrossingMatching(word)
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
