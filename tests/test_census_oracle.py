"""The offset-string period census against a literal divisor-trial census.

The oracle below tries every divisor of the rotation order, smallest first,
with a literal rotation; the census under test reads each period off the arc
offsets and rotates once to confirm it.
"""
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
    monkeypatch.setattr(maps, "_reroot", lambda word, steps: word + "b")
    try:
        with pytest.raises(AssertionError):
            maps._btdeg_census_all(0, 2)
    finally:
        maps._btdeg_census_all.cache_clear()


def test_btree_walk_carries_its_degree_distribution():
    """The walk groups every word of BT(3, 4) as a parse of each word does."""
    expected = {}
    for w in maps._btree_words(3, 4):
        degrees = trees.degree_distribution(trees.node_degrees(w))
        p = trees.cyclic_period(trees.arc_offsets(w))
        counts = expected.setdefault(degrees, {})
        counts[p] = counts.get(p, 0) + 1
    expected = {k: tuple(sorted(c.items())) for k, c in expected.items()}
    assert maps._btdeg_census_all(3, 4) == expected


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
            realized = sorted({trees.degree_distribution(trees.node_degrees(w)) for w in maps._btree_words(b, n)})
            assert listed == realized == sorted(maps._btdeg_census_all(b, n)), (b, n)


def test_btree_distributions_of_one_node_with_many_buds():
    # one bare node with 1,000 buds: a walk with a frame per degree would
    # pass the recursion limit
    assert maps.btree_degree_distributions(1000, 0) == [(0,) * 999 + (1,)]


def test_enumeration_order_and_membership_unchanged():
    for n in range(0, MAX_N + 1):
        parsed = [(w, stats(PlaneTree(w))) for w in trees._btree_words(0, n)]
        for family in {family for family, _ in tree_families(n)}:
            expected = [w for w, st in parsed
                        if family.admits(st.degrees, st.root_degree)]
            assert [t.word for t in enumerate_family(family)] == expected, family
