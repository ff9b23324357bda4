"""The tour-word kernel of `trees` against the word code it replaced.

The reference implementations below are the separate validators, arc
pairings, re-rootings and crossing checks that plane-tree, b-tree and map
words each had before they shared one kernel.  They are kept here, word for
word in behaviour, as the oracle the kernel must match.
"""
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sieveforest.bijections import NonCrossingPartition, point_rotation
from sieveforest.maps import (BTreeWord, NonCrossingMatching, TMn,
                              TreeRootedMap, enumerate_maps, rotate_btree,
                              rotate_map, rotate_ncm)
from sieveforest.trees import (PlaneTree, arc_offsets, cyclic_period,
                               matching, shift_root)
from word_reference import reference_words

# ---------------------------------------------------------------------------
# Reference implementations


def ref_tree_valid(word: str) -> bool:
    depth = 0
    for ch in word:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                return False
        else:
            return False
    return depth == 0


def ref_btree_valid(word: str) -> bool:
    depth = 0
    for ch in word:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                return False
        elif ch != "b":
            return False
    return depth == 0


def ref_walk_valid(word: str) -> bool:
    x = y = 0
    for ch in word:
        if ch == "E":
            x += 1
        elif ch == "W":
            x -= 1
        elif ch == "N":
            y += 1
        elif ch == "S":
            y -= 1
        else:
            return False
        if x < 0 or y < 0:
            return False
    return x == 0 and y == 0


def ref_class_matching(word: str, openers: str, closers: str) -> dict:
    out = {}
    stack = []
    for i, ch in enumerate(word):
        if ch in openers:
            stack.append(i)
        elif ch in closers:
            j = stack.pop()
            out[i], out[j] = j, i
    return out


def ref_matching(word: str) -> tuple:
    """Both arc classes paired; buds are their own partners."""
    partner = list(range(len(word)))
    for openers, closers in (("(E", ")W"), ("N", "S")):
        for i, j in ref_class_matching(word, openers, closers).items():
            partner[i] = j
    return tuple(partner)


def ref_shift_root(word: str, steps: int) -> str:
    size = len(word)
    if size == 0:
        return word
    steps %= size
    if steps == 0:
        return word
    partner = ref_class_matching(word, "(", ")")
    new_partner = [0] * size
    for i in range(size):
        new_partner[(i + steps) % size] = (partner[i] + steps) % size
    return "".join("(" if p < new_partner[p] else ")" for p in range(size))


def ref_rotate_btree(word: str, steps: int) -> str:
    size = len(word)
    if size == 0:
        return word
    s = (-steps) % size
    out = [""] * size
    for p, ch in enumerate(word):
        if ch == "b":
            out[(p + s) % size] = "b"
    for a, bpos in ref_class_matching(word, "(", ")").items():
        if a < bpos:
            x, y = (a + s) % size, (bpos + s) % size
            out[min(x, y)] = "("
            out[max(x, y)] = ")"
    return "".join(out)


def ref_rotate_map(word: str, steps: int) -> str:
    size = len(word)
    if size == 0:
        return word
    s = (-steps) % size
    out = [""] * size
    for op, cl in (("E", "W"), ("N", "S")):
        for a, bpos in ref_class_matching(word, op, cl).items():
            if a < bpos:
                x, y = (a + s) % size, (bpos + s) % size
                out[min(x, y)] = op
                out[max(x, y)] = cl
    return "".join(out)


def ref_rotate_map_once(word: str) -> str:
    """The literal one-step rewriting a w1 a' w2 -> w1 a w2 a' of a map word."""
    if not word:
        return word
    a = word[0]
    opener, closer = ("E", "W") if a == "E" else ("N", "S")
    close = ref_class_matching(word, opener, closer)[0]
    return word[1:close] + a + word[close + 1:] + word[close]


def ref_arc_offsets(word: str) -> list:
    size = len(word)
    out = [0] * size
    for cls, (openers, closers) in enumerate((("(E", ")W"), ("N", "S"))):
        for i, j in ref_class_matching(word, openers, closers).items():
            out[i] = (j - i) % size + cls * size
    return out


def ref_ncm_crosses(partner) -> bool:
    return any(p < r < partner[p] < partner[r]
               for p in range(len(partner)) for r in range(p + 1, partner[p]))


def ref_ncp_crosses(assignment) -> bool:
    return any(assignment[a] == assignment[c] != assignment[b] == assignment[d]
               for a, b, c, d in itertools.combinations(range(len(assignment)), 4))


# ---------------------------------------------------------------------------
# Words

KINDS = (  # (word class, reference validator, kernel rotation, reference rotation)
    (PlaneTree, ref_tree_valid,
     lambda w, s: shift_root(w, s), ref_shift_root),
    (BTreeWord, ref_btree_valid,
     lambda w, s: rotate_btree(BTreeWord(w), s).word, ref_rotate_btree),
    (TreeRootedMap, ref_walk_valid,
     lambda w, s: rotate_map(TreeRootedMap(w), s).word, ref_rotate_map),
    # a matching is its '()' word, and a partition the word of its
    # thickening, on which one point is two letters
    (NonCrossingMatching, ref_tree_valid,
     lambda w, s: rotate_ncm(NonCrossingMatching(w), s).word, ref_shift_root),
    (NonCrossingPartition, ref_tree_valid,
     lambda w, s: point_rotation(NonCrossingPartition(w), s).word,
     lambda w, s: ref_shift_root(w, 2 * s)),
)

tree_words = st.integers(0, 7).flatmap(
    lambda n: st.sampled_from(reference_words(0, n)))
btree_words = st.sampled_from(
    [(b, n) for b in range(6) for n in range(6) if 2 * n + b <= 10]).flatmap(
    lambda bn: st.sampled_from(reference_words(*bn)))
map_words = st.integers(0, 4).flatmap(
    lambda n: st.sampled_from([m.word for m in enumerate_maps(TMn(n))]))
valid_words = st.one_of(tree_words, btree_words, map_words)
junk = st.one_of(st.text("()", max_size=14), st.text("()b", max_size=12),
                 st.text("ENWS", max_size=12), st.text("()bENWSx", max_size=10))


def accepts(cls, word: str) -> bool:
    try:
        cls(word)
    except ValueError:
        return False
    return True


@settings(max_examples=400, deadline=None)
@given(junk | valid_words, st.integers(-30, 30))
def test_validation_and_rerooting_match_the_references(word, steps):
    for cls, ref_valid, rotate, ref_rotate in KINDS:
        assert accepts(cls, word) == ref_valid(word), (cls, word)
        if ref_valid(word):
            assert rotate(word, steps) == ref_rotate(word, steps), (cls, word, steps)


@settings(max_examples=300, deadline=None)
@given(valid_words)
def test_matching_and_offsets_match_the_references(word):
    assert matching(word) == ref_matching(word)
    offsets = arc_offsets(word)
    symbols = list(offsets) if isinstance(offsets, bytes) else list(map(ord, offsets))
    assert symbols == ref_arc_offsets(word)
    assert cyclic_period(offsets) == cyclic_period("".join(map(chr, symbols)))


def test_long_words_take_the_str_offsets():
    word = "(" * 200 + "b" + ")" * 200
    offsets = arc_offsets(word)
    assert isinstance(offsets, str)
    assert list(map(ord, offsets)) == ref_arc_offsets(word)


def test_rerooting_is_the_iterated_rewriting_rule():
    for n in range(0, 4):
        for mp in enumerate_maps(TMn(n)):
            cur = mp
            for steps in range(2 * n + 1):
                assert rotate_map(mp, steps) == cur, (mp, steps)
                cur = TreeRootedMap(ref_rotate_map_once(cur.word))


def perfect_matchings(size):
    """Every fixed-point-free involution of range(size)."""
    if size == 0:
        yield ()
        return
    for other in range(1, size):
        rest = [p for p in range(1, size) if p != other]
        for sub in perfect_matchings(size - 2):
            partner = [0] * size
            partner[0], partner[other] = other, 0
            for a, b in enumerate(sub):
                partner[rest[a]] = rest[b]
            yield tuple(partner)


def test_matching_crossings_exhaustive():
    for size in range(0, 11, 2):
        for partner in perfect_matchings(size):
            pairs = [(i, p) for i, p in enumerate(partner) if i < p]
            assert accepts(NonCrossingMatching.from_pairs, pairs) \
                == (not ref_ncm_crosses(partner)), partner


def set_partitions(n):
    """Every partition of range(n) as a restricted growth string."""
    def rec(prefix, blocks):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for b in range(blocks + 1):
            yield from rec(prefix + [b], max(blocks, b + 1))
    yield from rec([], 0)


def test_partition_crossings_exhaustive():
    for n in range(0, 9):
        for assignment in set_partitions(n):
            blocks = [[i + 1 for i, a in enumerate(assignment) if a == b]
                      for b in range(max(assignment, default=-1) + 1)]
            assert accepts(NonCrossingPartition.from_blocks, blocks) \
                == (not ref_ncp_crosses(assignment)), assignment


@pytest.mark.parametrize("partner", [(1, 0, 3, 2), (3, 2, 1, 0), ()])
def test_matching_word_round_trip(partner):
    m = NonCrossingMatching.from_pairs(
        [(i, p) for i, p in enumerate(partner) if i < p])
    assert matching(m.word) == partner
