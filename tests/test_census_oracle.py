"""The offset-string period census against a literal divisor-trial census.

The oracle below tries every divisor of the rotation order, smallest first,
with a literal rotation; the census under test reads each period off the arc
offsets and rotates once to confirm it.
"""
import gc
import tracemalloc
from collections import Counter

import pytest

from sieveforest import maps, rotations, trees
from sieveforest.maps import BT, BTDeg, NCM, TMDeg, TMij, TMn
from sieveforest.rotations import (INTERNAL, LEAF, ORDINARY, FixQuery,
                                   degree_kind, fix_count_bruteforce,
                                   fix_count_closed, rotate)
from sieveforest.trees import (AllTrees, ByDegrees, ByLeaves, InternalRooted,
                               InternalRootedDeg, LeafRooted, LeafRootedDeg,
                               PlaneTree, RootDegree, degree_distributions,
                               enumerate_family, stats)
from word_reference import reference_table, reference_words

MAX_N = 7


def divisor_trial_census(members, order, rotate_by):
    divisors = [p for p in range(1, order + 1) if order % p == 0] or [1]
    counts = {}
    for m in members:
        p = next(p for p in divisors if rotate_by(m, p) == m)
        counts[p] = counts.get(p, 0) + 1
    return tuple(sorted(counts.items()))


def tree_families(n):
    """Every tree family at size n, paired with each kind acting on it."""
    out = [(AllTrees(n), ORDINARY)]
    for k in range(0, n + 2):
        out += [(ByLeaves(n, k), ORDINARY),
                (LeafRooted(n, k), ORDINARY), (LeafRooted(n, k), LEAF),
                (InternalRooted(n, k), ORDINARY), (InternalRooted(n, k), INTERNAL)]
    for degrees in degree_distributions(n):
        out += [(ByDegrees(degrees), ORDINARY),
                (LeafRootedDeg(degrees), ORDINARY), (LeafRootedDeg(degrees), LEAF),
                (LeafRootedDeg(degrees), degree_kind(1)),
                (InternalRootedDeg(degrees), ORDINARY),
                (InternalRootedDeg(degrees), INTERNAL)]
        for delta, count in enumerate(degrees, start=1):
            if count:
                out += [(RootDegree(degrees, delta), ORDINARY),
                        (RootDegree(degrees, delta), degree_kind(delta))]
    return out


def test_tree_census_matches_divisor_trial():
    checked = set()
    for n in range(0, MAX_N + 1):
        for family, kind in tree_families(n):
            members = list(enumerate_family(family))
            if not members:
                continue
            oracle = divisor_trial_census(
                members, family.order(kind),
                lambda t, p: rotate(t, kind, p))
            assert rotations._period_census(family, kind) == oracle, (family, kind)
            checked.add((type(family).__name__, kind.name))
    assert len({name for name, _ in checked}) == 8
    assert len(checked) == 14


def test_closed_form_matches_census_for_every_kind():
    """Every (family, kind) pair, the empty families included, at every
    exponent.  An order that would be negative is refused, and only an
    empty family can have one."""
    for n in range(0, MAX_N + 1):
        for family, kind in tree_families(n):
            try:
                order = family.order(kind)
            except ValueError:
                assert not list(enumerate_family(family)), (family, kind)
                continue
            for e in range(max(order, 1)):
                query = FixQuery(family, kind, e)
                assert fix_count_closed(query) == fix_count_bruteforce(query), \
                    (family, kind, e)


def map_families():
    out = [BT(b, n) for b in range(0, 7) for n in range(0, 5) if b + 2 * n <= 10]
    out += [BTDeg(b, d) for b in range(0, 6) for n in range(0, 6 - b)
            for d in maps.btree_degree_distributions(b, n)]
    out += [TMij(i, j) for i in range(0, 4) for j in range(0, 4 - i)]
    out += [TMn(n) for n in range(0, 4)]
    out += [TMDeg(j, d) for j in range(0, 3) for i in range(0, 4 - j)
            for d in maps.btree_degree_distributions(2 * j, i)]
    out += [NCM(j) for j in range(0, 9)]
    return out


def test_map_census_matches_divisor_trial():
    for family in map_families():
        oracle = divisor_trial_census(list(maps.enumerate_maps(family)),
                                      family.order(), family.rotate)
        assert maps._map_period_census(family) == oracle, family


def test_btree_walk_census_matches_divisor_trial():
    """Every group of the one-walk b-tree census, b + n <= 7, against the
    divisor-trial census of the members of that degree distribution."""
    for b in range(0, MAX_N + 1):
        for n in range(0, MAX_N + 1 - b):
            for degrees, got in maps._btdeg_census_all(b, n).items():
                # the bare node (b = n = 0) has distribution (), which BTDeg
                # reads as n = -1; its one member is the empty word of BT(0, 0)
                family = BTDeg(b, degrees) if b + n else BT(0, 0)
                oracle = divisor_trial_census(list(maps.enumerate_maps(family)),
                                              2 * n + b, family.rotate)
                assert got == oracle, (b, n, degrees)
            assert maps._map_period_census(BT(b, n)) == divisor_trial_census(
                list(maps.enumerate_maps(BT(b, n))), 2 * n + b,
                BT(b, n).rotate), (b, n)
    assert maps._btdeg_census_all(0, 0) == {(): ((1, 1),)}
    assert maps._btdeg_census_all(-1, 2) == {}
    assert maps._btdeg_census_all(2, -1) == {}


def test_btree_walk_confirms_every_period_below_the_length(monkeypatch):
    """A period below the word length rests on a literal re-rooting: a
    re-rooting that disagrees fails the census of ()() (period 2 of 4)."""
    maps._btdeg_census_all.cache_clear()
    monkeypatch.setattr(trees, "_reroot", lambda word, steps: word + "b")
    try:
        with pytest.raises(AssertionError):
            maps._btdeg_census_all(0, 2)
    finally:
        maps._btdeg_census_all.cache_clear()


def test_word_table_walk_confirms_every_period_below_the_length(monkeypatch):
    """The word table's periods rest on the same literal re-rooting as the
    census's: a re-rooting that disagrees fails the table walk of ()()."""
    monkeypatch.setattr(trees, "_reroot", lambda word, steps: word + "b")
    with pytest.raises(AssertionError):
        trees._btree_walk(0, 2)


def test_btree_census_keeps_no_words():
    """The census walk keeps each group's periods only: no word and no
    order, and a cold census of BT(3, 6) (60,060 words) peaks well below
    the 5.4 MB of a full word table."""
    groups, order = trees._btree_walk(3, 6, words=False)
    assert order == [] and all(words == () for words, _ in groups.values())
    assert sum(len(periods) for _, periods in groups.values()) == 60060
    maps._btdeg_census_all.cache_clear()
    tracemalloc.start()
    try:
        maps._btdeg_census_all(3, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        maps._btdeg_census_all.cache_clear()
    assert peak < 1 << 20, peak


def test_tree_census_confirms_every_period(monkeypatch):
    """A plane-tree census rests on its literal rotation: one that gives
    back another tree fails it."""
    rotations._period_census.cache_clear()
    monkeypatch.setattr(rotations, "rotate", lambda t, kind, steps: PlaneTree())
    try:
        with pytest.raises(AssertionError):
            rotations._period_census(AllTrees(3), ORDINARY)
    finally:
        rotations._period_census.cache_clear()


def test_map_census_confirms_every_period(monkeypatch):
    """A map census rests on its literal rotation: one that gives back
    another map fails it."""
    maps._map_period_census.cache_clear()
    monkeypatch.setattr(maps, "rotate_map", lambda mp, steps: maps.TreeRootedMap())
    try:
        with pytest.raises(AssertionError):
            maps._map_period_census(TMDeg(1, (1, 1, 1)))
    finally:
        maps._map_period_census.cache_clear()


def period_counts(periods):
    """((period, count), ...) of a walk group's periods."""
    return tuple(sorted(Counter(periods).items()))


def offset_census(words):
    return period_counts(trees.cyclic_period(trees.arc_offsets(w)) for w in words)


def test_btree_walk_carries_its_degree_distribution():
    """The walk groups every word of BT(3, 4) as a parse of each word does:
    by (degree distribution, root degree), and by distribution alone in
    `_btdeg_census_all`."""
    table = reference_table(3, 4)
    groups, _ = trees._btree_walk(3, 4, words=False)
    assert {key: period_counts(periods) for key, (_, periods) in groups.items()} == \
        {key: offset_census(words) for key, words in table.items()}
    by_degrees = {}
    for (degrees, _), words in table.items():
        by_degrees.setdefault(degrees, []).extend(words)
    assert maps._btdeg_census_all(3, 4) == \
        {degrees: offset_census(words) for degrees, words in by_degrees.items()}


def test_word_table_matches_the_reference():
    """Every group of the word table, in word order, at every length up to
    10, and the walk's order of groups, which merges them back into word
    order; a negative size has no words."""
    for size in range(11):
        for b in range(size % 2, size + 1, 2):
            n = (size - b) // 2
            groups, _ = trees._words_by_degrees(b, n)
            assert {key: words for key, (words, _) in groups.items()} == \
                reference_table(b, n), (b, size)
            words, periods = trees._admitted(b, n)
            assert tuple(words) == reference_words(b, n), (b, size)
    assert trees._words_by_degrees(2, -1) == trees._words_by_degrees(-1, 2) == ({}, [])


def test_word_table_records_each_word_period():
    """Next to each word the table keeps the period of its arc offsets, at
    every length up to 12, searched for only in the groups whose degree
    counts allow a period below the length, and past 255 letters, where a
    period no longer fits in a byte."""
    for size in range(13):
        for b in range(size % 2, size + 1, 2):
            groups, _ = trees._words_by_degrees(b, (size - b) // 2)
            for words, periods in groups.values():
                assert list(periods) == [trees.cyclic_period(trees.arc_offsets(w))
                                         for w in words], (b, size)
    groups, _ = trees._btree_walk(254, 1)  # 256 letters
    recorded = {}
    for words, periods in groups.values():
        assert len(words) == len(periods)
        for w, p in zip(words, periods):
            assert p == trees.cyclic_period(trees.arc_offsets(w)), w
            recorded[p] = recorded.get(p, 0) + 1
    # the edge splits the 254 buds evenly only when its ends are 128 apart
    assert recorded == {128: 128, 256: 32640 - 128}


def test_any_admitted_groups_merge_into_word_order():
    """Any set of a table's groups merges back into word order, each word
    with its period, also among many groups (272 at two edges and 30 buds)."""
    for b, n in ((0, 7), (2, 4), (30, 2)):
        groups, _ = trees._words_by_degrees(b, n)
        every = list(zip(*trees._admitted(b, n)))
        key_of = {w: key for key, (words, _) in groups.items() for w in words}
        assert [w for w, _ in every] == sorted(key_of)
        keys = list(groups)
        for chosen in map(set, (keys[::3], keys[1::2], keys[:1], [])):
            admitted = trees._admitted(b, n, lambda *key: key in chosen)
            assert list(zip(*admitted)) == \
                [(w, p) for w, p in every if key_of[w] in chosen], (b, n)


def test_tree_census_fails_unless_the_members_are_the_table_words(monkeypatch):
    """Each member is paired with the period the table records for the word
    at its place: members out of the table's order, one too many or one too
    few fail the census."""
    listed = list(enumerate_family(AllTrees(3)))
    swapped = [listed[1], listed[0]] + listed[2:]
    try:
        for members in (swapped, listed + [listed[0]], listed[:-1]):
            rotations._period_census.cache_clear()
            monkeypatch.setattr(trees, "enumerate_family",
                                lambda family, members=members: iter(members))
            with pytest.raises(AssertionError, match="word table"):
                rotations._period_census(AllTrees(3), ORDINARY)
    finally:
        rotations._period_census.cache_clear()


def test_btree_walk_leaves_nothing_to_the_cyclic_collector():
    """The walk refers to itself; its working lists must still go when it
    returns, not when the cyclic collector next runs."""
    gc.collect()
    gc.disable()
    try:
        trees._btree_walk(0, 6)
        trees._btree_walk(2, 4, words=False)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_btree_walk_past_255_letters_matches_closed_form():
    family = BT(254, 1)  # 256 letters: the offsets no longer fit in a byte
    order = family.order()
    for e in (0, 1, 2, 64, 128, 255):
        assert maps.fix_count_maps(family, e) == \
            maps.fix_count_maps_closed(family, e), e
    assert maps.fix_count_maps(family, order // 2) == 128


def test_btree_distributions_are_the_census_keys():
    for b in range(0, 9):
        for n in range(0, 9 - b):
            listed = maps.btree_degree_distributions(b, n)
            assert listed == sorted(maps._btdeg_census_all(b, n)), (b, n)
            if 2 * n + b <= 10:
                assert listed == sorted({d for d, _ in reference_table(b, n)}), (b, n)


def test_btree_distributions_of_one_node_with_many_buds():
    # one bare node with 1,000 buds: a walk with a frame per degree would
    # pass the recursion limit
    assert maps.btree_degree_distributions(1000, 0) == [(0,) * 999 + (1,)]


def test_enumeration_order_and_membership_unchanged():
    for n in range(0, MAX_N + 1):
        parsed = [(w, stats(PlaneTree(w))) for w in reference_words(0, n)]
        for family in {family for family, _ in tree_families(n)}:
            expected = [w for w, st in parsed
                        if family.admits(st.degrees, st.root_degree)]
            assert [t.word for t in enumerate_family(family)] == expected, family


def listed_census(family, kind):
    """The census that lists the members, pairs each with the period the
    word table records at its place and rotates it once: `AllTrees`'s."""
    table = (trees._admitted(0, family.n, family.admits) if family.feasible()
             else ((), ()))
    return trees.period_census(enumerate_family(family), family.order(kind),
                               lambda t, p: rotate(t, kind, p), table)


@pytest.fixture
def cold_censuses():
    """Empty plane-tree census caches, emptied again afterwards."""
    rotations._period_census.cache_clear()
    rotations._group_census.cache_clear()
    yield
    rotations._period_census.cache_clear()
    rotations._group_census.cache_clear()


def counted_rotations(monkeypatch):
    """Patch `rotations.rotate` to record the tree of every call."""
    calls = []
    original = rotations.rotate

    def counted(t, kind, steps):
        calls.append(t)
        return original(t, kind, steps)

    monkeypatch.setattr(rotations, "rotate", counted)
    return calls


def test_walk_groups_give_every_tree_census(cold_censuses):
    """The groups of the b = 0 census walk that a family admits, each period
    P scaled to order * P / 2n, sum to the family's census for each kind,
    and so do the census that lists and rotates every member and the
    divisor-trial census, the empty families included."""
    checked = 0
    for n in range(0, MAX_N + 1):
        groups, _ = trees._btree_walk(0, n, words=False)
        for family, kind in tree_families(n):
            try:
                order = family.order(kind)
            except ValueError:
                continue
            counts = {}
            for key, (_, periods) in groups.items():
                if family.admits(*key):
                    for p in periods:
                        p = order * p // (2 * n) if n else 1
                        counts[p] = counts.get(p, 0) + 1
            got = rotations._period_census(family, kind)
            assert got == tuple(sorted(counts.items())), (family, kind)
            assert got == listed_census(family, kind), (family, kind)
            assert got == divisor_trial_census(
                list(enumerate_family(family)), order,
                lambda t, p: rotate(t, kind, p)), (family, kind)
            checked += 1
    assert checked == 557


def test_restricted_group_census_confirms_every_period(monkeypatch, cold_censuses):
    """A restricted census rests on its literal rotation: one that gives
    back another tree fails it."""
    monkeypatch.setattr(rotations, "rotate", lambda t, kind, steps: PlaneTree())
    with pytest.raises(AssertionError, match="not fixed"):
        rotations._period_census(LeafRooted(4, 3), LEAF)


def test_restricted_census_checks_the_order_against_each_group(
        monkeypatch, cold_censuses):
    """A family whose order under its kind is not the number of corners
    the kind visits in its members fails the census."""
    monkeypatch.setattr(LeafRooted, "order", lambda self, kind: self.k + 1)
    with pytest.raises(AssertionError, match="corners"):
        rotations._period_census(LeafRooted(4, 3), LEAF)


def test_restricted_census_turns_each_member_once(monkeypatch, cold_censuses):
    family = InternalRooted(10, 6)
    calls = counted_rotations(monkeypatch)
    census = rotations._period_census(family, INTERNAL)
    assert len(calls) == len(set(calls)) == family.count() == sum(c for _, c in census)


def test_degree_census_reuses_the_leaf_count_groups(monkeypatch, cold_censuses):
    """Each (degree distribution, root degree) group is turned once per
    kind: after the `InternalRooted` censuses at n, the `InternalRootedDeg`
    ones make no rotation, and agree with the listed census."""
    n = 6
    for k in range(2, n + 1):
        rotations._period_census(InternalRooted(n, k), INTERNAL)
    calls = counted_rotations(monkeypatch)
    for degrees in degree_distributions(n):
        family = InternalRootedDeg(degrees)
        assert rotations._period_census(family, INTERNAL) == \
            listed_census(family, INTERNAL), degrees
        assert calls == [], degrees


def test_bud_heavy_walks_match_the_reference():
    """A walk that stands at the root with every edge placed writes its
    remaining buds in one step: the groups, the periods and the order of
    the walks with many buds are still those of the reference table."""
    for b, n in [(b, n) for b in range(31) for n in (0, 1)] + \
            [(b, 2) for b in range(13)]:
        table = reference_table(b, n)
        groups, order = trees._btree_walk(b, n)
        assert {key: words for key, (words, _) in groups.items()} == table, (b, n)
        for words, periods in groups.values():
            assert list(periods) == [trees.cyclic_period(trees.arc_offsets(w))
                                     for w in words], (b, n)
        rows = [iter(words) for words, _ in groups.values()]
        assert tuple(next(rows[g]) for g in order) == reference_words(b, n), (b, n)
        counted, _ = trees._btree_walk(b, n, words=False)
        assert {key: list(periods) for key, (_, periods) in counted.items()} == \
            {key: list(periods) for key, (_, periods) in groups.items()}, (b, n)
