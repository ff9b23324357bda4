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
from sieveforest.rotations import (ORDINARY, FixQuery, fix_count_bruteforce,
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
    """Every tree family at size n, each under its own kind."""
    out = [AllTrees(n)]
    for k in range(0, n + 2):
        out += [ByLeaves(n, k), LeafRooted(n, k), InternalRooted(n, k)]
    for degrees in degree_distributions(n):
        out += [ByDegrees(degrees), LeafRootedDeg(degrees), InternalRootedDeg(degrees)]
        out += [RootDegree(degrees, delta)
                for delta, count in enumerate(degrees, start=1) if count]
    return out


def test_tree_census_matches_divisor_trial():
    checked = set()
    for n in range(0, MAX_N + 1):
        for family in tree_families(n):
            members = list(enumerate_family(family))
            if not members:
                continue
            kind = family.kind
            oracle = divisor_trial_census(
                members, family.order(),
                lambda t, p: rotate(t, kind, p))
            assert rotations._period_census(family) == oracle, family
            checked.add((type(family).__name__, kind.name))
    assert len({name for name, _ in checked}) == 8
    assert len(checked) == 8


def test_closed_form_matches_census_for_every_kind():
    """Every family under its own kind, the empty families included, at
    every exponent.  An order that would be negative is refused, and only
    an empty family can have one."""
    for n in range(0, MAX_N + 1):
        for family in tree_families(n):
            try:
                order = family.order()
            except ValueError:
                assert not list(enumerate_family(family)), family
                continue
            for e in range(max(order, 1)):
                query = FixQuery(family, family.kind, e)
                assert fix_count_closed(query) == fix_count_bruteforce(query), \
                    (family, e)


def test_transfer_lemma_at_census_level():
    """A member of a leaf, internal or degree-delta family is fixed by the
    ordinary rotation of order d exactly when its own rotation of order d
    fixes it, and none is when d does not divide that rotation's order: at
    each d | 2n, the ordinary divisor-trial census counts `fix_closed(d)`."""
    checked = 0
    for n in range(0, MAX_N + 1):
        for family in tree_families(n):
            if family.kind == ORDINARY:
                continue
            census = divisor_trial_census(list(family.members()), 2 * n,
                                          lambda t, p: rotate(t, ORDINARY, p))
            for d in [d for d in range(1, 2 * n + 1) if 2 * n % d == 0] or [1]:
                fixed = sum(c for p, c in census if (2 * n // d) % p == 0)
                assert fixed == family.fix_closed(d), (family, d)
                checked += 1
    assert checked == 948


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
        assert family.census() == oracle, family


def test_btree_walk_census_matches_divisor_trial():
    """Every group of the one-walk b-tree census, b + n <= 7, against the
    divisor-trial census of the members of its degree distribution that
    have its root degree."""
    for b in range(0, MAX_N + 1):
        for n in range(0, MAX_N + 1 - b):
            for (degrees, root_degree), got in maps._btdeg_census_all(b, n).items():
                # the bare node (b = n = 0) has distribution (), which BTDeg
                # reads as n = -1; its one member is the empty word of BT(0, 0)
                family = BTDeg(b, degrees) if b + n else BT(0, 0)
                members = [m for m in maps.enumerate_maps(family)
                           if trees.node_degrees(m.word)[0] == root_degree]
                assert members, (b, n, degrees, root_degree)
                oracle = divisor_trial_census(members, 2 * n + b, family.rotate)
                assert got == oracle, (b, n, degrees, root_degree)
            assert BT(b, n).census() == divisor_trial_census(
                list(maps.enumerate_maps(BT(b, n))), 2 * n + b,
                BT(b, n).rotate), (b, n)
    assert maps._btdeg_census_all(0, 0) == {((), 0): ((1, 1),)}
    assert maps._btdeg_census_all(-1, 2) == {}
    assert maps._btdeg_census_all(2, -1) == {}


def test_btree_walk_confirms_every_period_below_the_length(monkeypatch):
    """A period below the word length rests on a literal re-rooting: a
    re-rooting that disagrees fails the census of (b)(b) (period 3 of 6),
    walked without words; at b = 0 the table reads the word table, whose
    walk the next test covers."""
    maps._btdeg_census_all.cache_clear()
    monkeypatch.setattr(trees, "_reroot", lambda word, steps: word + "b")
    try:
        with pytest.raises(AssertionError):
            maps._btdeg_census_all(2, 2)
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
            rotations._period_census(AllTrees(3))
    finally:
        rotations._period_census.cache_clear()


def test_map_census_confirms_every_period(monkeypatch):
    """A map census rests on its literal rotation: one that gives back
    another map fails it."""
    rotations._period_census.cache_clear()
    monkeypatch.setattr(maps, "rotate_map", lambda mp, steps: maps.TreeRootedMap())
    try:
        with pytest.raises(AssertionError):
            TMDeg(1, (1, 1, 1)).census()
    finally:
        rotations._period_census.cache_clear()


def offset_period_map_census(family):
    """The map census made without the degree rule: every member paired
    with the period of its arc offsets and turned once by `rotate_map`."""
    return trees.period_census(
        ((m, trees.cyclic_period(trees.arc_offsets(m.word))) for m in family.members()),
        family.order(), maps.rotate_map)


def map_degree_families(max_edges):
    """Every `TMDeg(j, d)` with 1 <= i + j <= max_edges, d a distribution
    of the tree part's i + 1 vertex degrees, non-tree half-edges included."""
    return [TMDeg(total - i, d) for total in range(1, max_edges + 1)
            for i in range(total + 1) for d in trees.degree_solutions(i + 1, 2 * total)]


def test_map_degree_census_matches_the_offset_period_census():
    """Each cold degree census equals the one that reads every map's
    period off its arc offsets, where the degree counts rule out a period
    below L (the walk's rule) and where they do not."""
    families = map_degree_families(5)
    repeating = [f for f in families
                 if trees._may_repeat(list(f.degrees), f.word_length)]
    assert 0 < len(repeating) < len(families)
    rotations._period_census.cache_clear()
    try:
        for family in families:
            assert family.census() == offset_period_map_census(family), family
    finally:
        rotations._period_census.cache_clear()


def counted_map_calls(monkeypatch, name, refuse=False):
    """Patch `maps.<name>` to record the argument of every call, or to
    raise on any call."""
    calls = []
    original = getattr(maps, name)

    def counted(first, *rest):
        if refuse:
            raise AssertionError(f"maps.{name} was called")
        calls.append(first)
        return original(first, *rest)

    monkeypatch.setattr(maps, name, counted)
    return calls


def test_map_census_reads_no_offsets_where_the_degrees_rule_out_a_period(
        monkeypatch):
    """Degree counts (1, 1, 1) at L = 6 allow no period below L, so no
    map's arc offsets are read, and each map is still turned once."""
    family = TMDeg(1, (1, 1, 1))
    assert not trees._may_repeat([1, 1, 1], family.word_length)
    counted_map_calls(monkeypatch, "arc_offsets", refuse=True)
    turned = counted_map_calls(monkeypatch, "rotate_map")
    rotations._period_census.cache_clear()
    try:
        census = family.census()
    finally:
        rotations._period_census.cache_clear()
    assert census == ((6, family.count()),)
    assert sorted(turned) == sorted(family.members()) and len(set(turned)) == len(turned)


def test_map_census_reads_offsets_where_the_degrees_allow_a_period(monkeypatch):
    """Degree counts (2, 0, 2) at L = 8 allow a period below L, and some
    maps have one (8 are fixed by the rotation power e = 4): every map's
    arc offsets are read once."""
    family = TMDeg(1, (2, 0, 2))
    assert fix_count_bruteforce(FixQuery(family, None, 4)) == 8
    read = counted_map_calls(monkeypatch, "arc_offsets")
    rotations._period_census.cache_clear()
    try:
        census = family.census()
    finally:
        rotations._period_census.cache_clear()
    assert census == offset_period_map_census(family)
    assert sorted(read) == sorted(m.word for m in family.members())


def test_census_fails_on_a_wrong_period():
    """A pair whose period is not the member's fails the census: (())
    turned by one of its 4 corners is ()(); by two it is itself."""
    def census(period):
        return trees.period_census([(PlaneTree("(())"), period)], 4,
                                   lambda t, p: rotate(t, ORDINARY, p))

    assert census(2) == ((2, 1),)
    with pytest.raises(AssertionError, match="not fixed"):
        census(1)


def test_every_family_census_has_one_cache():
    """Tree and map censuses share one cache, under both its names, keyed
    by the family alone."""
    assert maps._map_period_census is rotations._period_census
    cache = rotations._period_census
    cache.cache_clear()
    try:
        TMn(3).census()
        for i in range(4):
            before = cache.cache_info()
            census = TMij(i, 3 - i).census()
            assert cache(TMij(i, 3 - i)) is census
            after = cache.cache_info()
            assert (after.hits, after.misses) == (before.hits + 2, before.misses), i
    finally:
        cache.cache_clear()


def period_counts(periods):
    """((period, count), ...) of a walk group's periods."""
    return tuple(sorted(Counter(periods).items()))


def offset_census(words):
    return period_counts(trees.cyclic_period(trees.arc_offsets(w)) for w in words)


def test_btree_walk_carries_its_degree_distribution():
    """The walk groups every word of BT(3, 4) as a parse of each word does:
    by (degree distribution, root degree), and `_btdeg_census_all` keeps
    one census per group."""
    expected = {key: offset_census(words)
                for key, words in reference_table(3, 4).items()}
    groups, _ = trees._btree_walk(3, 4, words=False)
    assert {key: period_counts(periods)
            for key, (_, periods) in groups.items()} == expected
    assert maps._btdeg_census_all(3, 4) == expected


# the (b, n) of the b-tree sweep: `btij` at b + 2n <= 13, `btd` at b + n <= 8
BTREE_SWEEP_SIZES = sorted({(b, n) for n in range(7) for b in range(14 - 2 * n)}
                           | {(b, n) for b in range(9) for n in range(9 - b)})


def test_btree_census_is_keyed_like_the_word_table():
    """On every (b, n) of the b-tree sweep the walk run without words finds
    the groups of the word-table walk, in the same order, with the same
    periods (a word's closing tail is written only where it is read), and
    the census table has the same keys: a family's census and its member
    list read the same keys."""
    for b, n in BTREE_SWEEP_SIZES:
        table, _ = trees._btree_walk(b, n)
        counted, _ = trees._btree_walk(b, n, words=False)
        assert list(counted) == list(table) == list(maps._btdeg_census_all(b, n)), (b, n)
        assert [periods for _, periods in counted.values()] == \
            [periods for _, periods in table.values()], (b, n)


def test_matching_census_is_the_bare_btree_census():
    """A cold `NCM(j)` census is the b = 0 walk's, read through no other
    family: it is the one census-cache miss, and equals `BT(0, j)`'s."""
    cache = rotations._period_census
    try:
        for j in range(0, 9):
            cache.cache_clear()
            maps._btdeg_census_all.cache_clear()
            census = NCM(j).census()
            assert cache.cache_info().misses == 1, j
            assert census == BT(0, j).census(), j
    finally:
        cache.cache_clear()
        maps._btdeg_census_all.cache_clear()


def test_bare_census_reads_the_warm_word_table(monkeypatch):
    """At b = 0 every census reads the word table: once the table of
    (0, 6) is warm, the matching, b-tree and plane-tree censuses at n = 6
    walk no more and give what they gave from cold caches."""
    families = [NCM(6), BT(0, 6), BTDeg(0, (4, 2, 0, 1)), ByLeaves(6, 3)]

    def clear():
        rotations._period_census.cache_clear()
        rotations._group_census.cache_clear()
        maps._btdeg_census_all.cache_clear()
        trees._words_by_degrees.cache_clear()

    def no_walk(*args, **kwargs):
        raise AssertionError("walked (0, 6) a second time")

    clear()
    try:
        cold = [family.census() for family in families]
        clear()
        trees._words_by_degrees(0, 6)
        monkeypatch.setattr(trees, "_btree_walk", no_walk)
        monkeypatch.setattr(maps, "_btree_walk", no_walk, raising=False)
        assert [family.census() for family in families] == cold
    finally:
        clear()


def test_infeasible_btree_census_runs_no_walk(monkeypatch):
    """No b-tree with 2 edges and 2 buds has three nodes of degree 1: the
    census is empty, and no walk is run to find that out."""
    def no_walk(*args, **kwargs):
        raise AssertionError("walked an infeasible family")

    family = BTDeg(2, (3,))
    assert not family.feasible()
    rotations._period_census.cache_clear()
    maps._btdeg_census_all.cache_clear()
    trees._words_by_degrees.cache_clear()
    monkeypatch.setattr(trees, "_btree_walk", no_walk)
    try:
        assert family.census() == ()
        assert list(family.members()) == []
    finally:
        rotations._period_census.cache_clear()


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
                rotations._period_census(AllTrees(3))
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
            assert listed == sorted({d for d, _ in maps._btdeg_census_all(b, n)}), \
                (b, n)
            if 2 * n + b <= 10:
                assert listed == sorted({d for d, _ in reference_table(b, n)}), (b, n)


def test_btree_distributions_of_one_node_with_many_buds():
    # one bare node with 1,000 buds: a walk with a frame per degree would
    # pass the recursion limit
    assert maps.btree_degree_distributions(1000, 0) == [(0,) * 999 + (1,)]


def test_enumeration_order_and_membership_unchanged():
    for n in range(0, MAX_N + 1):
        parsed = [(w, stats(PlaneTree(w))) for w in reference_words(0, n)]
        for family in set(tree_families(n)):
            expected = [w for w, st in parsed
                        if family.admits(st.degrees, st.root_degree)]
            assert [t.word for t in enumerate_family(family)] == expected, family


def listed_census(family):
    """The census that lists the members, pairs each with the period the
    word table records at its place and rotates it once: `AllTrees`'s."""
    table = (trees._admitted(0, family.n, family.admits) if family.feasible()
             else ((), ()))
    return trees.period_census(trees._paired(enumerate_family(family), *table),
                               family.order(),
                               lambda t, p: rotate(t, family.kind, p))


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
    P scaled to order * P / 2n, sum to the family's census under its kind,
    and so do the census that lists and rotates every member and the
    divisor-trial census, the empty families included."""
    checked = 0
    for n in range(0, MAX_N + 1):
        groups, _ = trees._btree_walk(0, n, words=False)
        for family in tree_families(n):
            try:
                order = family.order()
            except ValueError:
                continue
            kind = family.kind
            counts = {}
            for key, (_, periods) in groups.items():
                if family.admits(*key):
                    for p in periods:
                        p = order * p // (2 * n) if n else 1
                        counts[p] = counts.get(p, 0) + 1
            got = rotations._period_census(family)
            assert got == tuple(sorted(counts.items())), family
            assert got == listed_census(family), family
            assert got == divisor_trial_census(
                list(enumerate_family(family)), order,
                lambda t, p: rotate(t, kind, p)), family
            checked += 1
    assert checked == 304


def test_restricted_group_census_confirms_every_period(monkeypatch, cold_censuses):
    """A restricted census rests on its literal rotation: one that gives
    back another tree fails it."""
    monkeypatch.setattr(rotations, "rotate", lambda t, kind, steps: PlaneTree())
    with pytest.raises(AssertionError, match="not fixed"):
        rotations._period_census(LeafRooted(4, 3))


def test_restricted_census_checks_the_order_against_each_group(
        monkeypatch, cold_censuses):
    """A family whose order under its kind is not the number of corners
    the kind visits in its members fails the census."""
    monkeypatch.setattr(LeafRooted, "order", lambda self: self.k + 1)
    with pytest.raises(AssertionError, match="corners"):
        rotations._period_census(LeafRooted(4, 3))


def test_restricted_census_turns_each_member_once(monkeypatch, cold_censuses):
    family = InternalRooted(10, 6)
    calls = counted_rotations(monkeypatch)
    census = rotations._period_census(family)
    assert len(calls) == len(set(calls)) == family.count() == sum(c for _, c in census)


def test_all_trees_census_turns_only_periods_below_the_length(
        monkeypatch, cold_censuses):
    """`AllTrees` lists and pairs every member, but turns only those whose
    period is below 2n, as every other ordinary census does: re-rooting by
    the whole tour is the identity."""
    n = 6
    calls = counted_rotations(monkeypatch)
    census = rotations._period_census(AllTrees(n))
    short = [t for t in AllTrees(n).members()
             if trees.cyclic_period(trees.arc_offsets(t.word)) < 2 * n]
    assert short and sorted(calls) == sorted(short) and len(set(calls)) == len(calls)
    assert sum(c for p, c in census if p < 2 * n) == len(short)
    assert sum(c for _, c in census) == AllTrees(n).count()


def test_all_trees_census_confirms_every_period_below_the_length(
        monkeypatch, cold_censuses):
    """The turns that remain rest on the literal rotation: one that gives
    back another tree fails the census."""
    monkeypatch.setattr(rotations, "rotate", lambda t, kind, steps: PlaneTree())
    with pytest.raises(AssertionError, match="not fixed"):
        rotations._period_census(AllTrees(6))


def test_degree_census_reuses_the_leaf_count_groups(monkeypatch, cold_censuses):
    """Each (degree distribution, root degree) group is turned once per
    kind: after the `InternalRooted` censuses at n, the `InternalRootedDeg`
    ones make no rotation, and agree with the listed census."""
    n = 6
    for k in range(2, n + 1):
        rotations._period_census(InternalRooted(n, k))
    calls = counted_rotations(monkeypatch)
    for degrees in degree_distributions(n):
        family = InternalRootedDeg(degrees)
        assert rotations._period_census(family) == listed_census(family), degrees
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


def test_walk_code_holds_a_degree_count_at_its_bound():
    """The walk codes a degree distribution in base n + 2, exact while no
    count passes n + 1.  The count of degree 2 reaches that bound where
    every node has degree 2 (a path with a bud at each end, b = 2): the
    groups are still the reference's, in both modes, up to n = 5."""
    for n in range(6):
        table = reference_table(2, n)
        assert ((0, n + 1), 2) in table, n
        groups, _ = trees._btree_walk(2, n)
        assert {key: words for key, (words, _) in groups.items()} == table, n
        counted, _ = trees._btree_walk(2, n, words=False)
        assert list(counted) == list(groups), n


def test_fixed_distribution_census_reads_only_its_keys(monkeypatch):
    """The key index splits the census table by degree distribution, in
    table order, and a family that fixes its distribution asks `admits`
    only about that distribution's keys; its census is still the
    divisor-trial census."""
    for b, n in ((0, 7), (2, 5), (4, 4)):
        table = maps._btdeg_census_all(b, n)
        index = trees._census_keys(b, n)
        assert index == {degrees: [key for key in table if key[0] == degrees]
                         for degrees, _ in table}, (b, n)
    families = [BTDeg(2, (2, 3, 1)), BTDeg(4, (1, 2, 2)), ByDegrees((4, 2, 0, 1)),
                RootDegree((4, 2, 0, 1), 4), LeafRootedDeg((5, 1, 1, 1))]
    for family in families:
        cls = type(family)
        asked = []

        def admits(self, degrees, root_degree, original=cls.admits):
            asked.append((degrees, root_degree))
            return original(self, degrees, root_degree)

        with monkeypatch.context() as patched:
            patched.setattr(cls, "admits", admits)
            census = family._census()
        table = maps._btdeg_census_all(family.b, family.n)
        assert asked == [key for key in table if key[0] == family.degrees], family
        assert census == divisor_trial_census(
            list(family.members()), family.order(),
            lambda m, p: (family.rotate(m, p) if family.kind is None
                          else rotate(m, family.kind, p))), family
