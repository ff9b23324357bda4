import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sieveforest import maps
from sieveforest.maps import (BT, BTDeg, BTreeWord, CubicHamiltonianMap, NCM,
                              NonCrossingMatching, SizeMismatch, TMDeg, TMij,
                              TMn, TreeRootedMap, advance_root,
                              btree_degree_distributions, closed_count_maps,
                              compose, decompose, enumerate_maps,
                              fix_count_maps, fix_count_maps_closed,
                              from_cubic,
                              map_fixed_via_parts,
                              rotate_btree, rotate_map, rotate_ncm, to_cubic)
from sieveforest.trees import (_btree_words, catalan, degree_distribution,
                               degree_solutions, family_from_descriptor,
                               matching, node_degrees)


def small_degree_tuples(max_len=4, max_count=5):
    for length in range(1, max_len + 1):
        for t in itertools.product(range(max_count + 1), repeat=length):
            if t and (length == 1 or t[-1] > 0):
                yield t


def rotate_map_once_by_rule(mp: TreeRootedMap) -> TreeRootedMap:
    """The literal one-step rewriting a w1 a' w2 -> w1 a w2 a'."""
    word = mp.word
    if not word:
        return mp
    a = word[0]
    close = matching(word)[0]
    return TreeRootedMap(word[1:close] + a + word[close + 1:] + word[close])


class TestWordTypes:
    def test_btree_validation(self):
        BTreeWord("(bb)")
        with pytest.raises(ValueError):
            BTreeWord("(b")
        with pytest.raises(ValueError):
            BTreeWord("x")

    def test_walk_validation(self):
        TreeRootedMap("ENSW")
        with pytest.raises(ValueError):
            TreeRootedMap("WE")  # dips west of the axis
        with pytest.raises(ValueError):
            TreeRootedMap("EN")  # open walk

    def test_matching_validation(self):
        NonCrossingMatching.from_pairs([(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            NonCrossingMatching.from_pairs([(0, 2), (1, 3)])  # crossing
        with pytest.raises(ValueError):
            NonCrossingMatching.from_pairs([(0, 0), (1, 1)])  # fixed points

    def test_pair_off_the_points_is_refused_by_name(self):
        with pytest.raises(ValueError, match=r"\(0, 3\)"):
            NonCrossingMatching.from_pairs([(0, 3)])

    def test_matching_parity(self):
        # arcs of a non-crossing matching always join even to odd positions
        for m in enumerate_maps(NCM(4)):
            for i, p in enumerate(m.partner):
                assert (i + p) % 2 == 1


class TestComposeDecompose:
    def test_round_trip(self):
        for fam in (TMij(2, 1), TMij(1, 2), TMij(2, 2)):
            for mp in enumerate_maps(fam):
                bt, m = decompose(mp)
                assert compose(bt, m) == mp

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            compose(BTreeWord("(bb)"), NonCrossingMatching(""))

    def test_bud_direction(self):
        mp = compose(BTreeWord("bb"), NonCrossingMatching("()"))
        assert mp.word == "NS"


class TestRotations:
    def test_walk_example(self):
        assert rotate_map(TreeRootedMap("ENSW"), 1).word == "NSEW"

    def test_single_step_rule_agrees(self):
        for fam in (TMij(2, 1), TMij(1, 2), TMij(2, 2), TMij(3, 0), TMij(0, 3)):
            for mp in enumerate_maps(fam):
                assert rotate_map(mp, 1) == rotate_map_once_by_rule(mp)

    def test_iterated_single_steps(self):
        for mp in enumerate_maps(TMij(2, 1)):
            cur = mp
            for e in range(1, 7):
                cur = rotate_map_once_by_rule(cur)
                assert rotate_map(mp, e) == cur

    def test_leading_bud_moves_to_end(self):
        assert rotate_btree(BTreeWord("b()"), 1).word == "()b"

    def test_rotation_order(self):
        for fam in (BT(2, 2), TMij(2, 1), NCM(3)):
            order = fam.order()
            for member in enumerate_maps(fam):
                if isinstance(member, BTreeWord):
                    assert rotate_btree(member, order) == member
                elif isinstance(member, TreeRootedMap):
                    assert rotate_map(member, order) == member
                else:
                    assert rotate_ncm(member, order) == member

    @given(st.integers(-10, 10), st.integers(-10, 10))
    def test_rotate_map_additive(self, a, b):
        mp = TreeRootedMap("EENWWS")
        assert rotate_map(rotate_map(mp, a), b) == rotate_map(mp, a + b)


class TestCounts:
    def test_bt_counts(self):
        assert closed_count_maps(BT(2, 1)) == 6
        for b in range(4):
            for n in range(5):
                if b + n == 0:
                    continue
                assert sum(1 for _ in enumerate_maps(BT(b, n))) \
                    == closed_count_maps(BT(b, n))

    def test_catalan_product_counts(self):
        for n in range(1, 5):
            assert closed_count_maps(TMn(n)) == catalan(n) * catalan(n + 1)
            assert sum(closed_count_maps(TMij(i, n - i)) for i in range(n + 1)) \
                == closed_count_maps(TMn(n))
            assert sum(1 for _ in enumerate_maps(TMn(n))) \
                == closed_count_maps(TMn(n))

    def test_btdeg_counts(self):
        for b in range(4):
            for n in range(5):
                for degrees in btree_degree_distributions(b, n):
                    fam = BTDeg(b, degrees)
                    assert sum(1 for _ in enumerate_maps(fam)) \
                        == closed_count_maps(fam)
                    # the b-tree words of this distribution, in their order;
                    # BTDeg reads the bare node's () as n = -1, with no words
                    scan = [BTreeWord(w) for w in _btree_words(b, fam.n)
                            if degree_distribution(node_degrees(w)) == degrees]
                    assert list(fam.members()) == scan

    def test_each_map_is_composed_once(self, monkeypatch):
        """From cold caches, the TMn(4) census composes each of its maps
        once; the censuses of its TMij parts and of their degree classes
        then compose none again."""
        composed = []

        def counting_compose(bt, m):
            composed.append(1)
            return compose(bt, m)

        monkeypatch.setattr(maps, "compose", counting_compose)
        maps._map_period_census.cache_clear()
        TMn(4).census()
        assert len(composed) == closed_count_maps(TMn(4)) == 588
        for i in range(5):
            TMij(i, 4 - i).census()
            for degrees in degree_solutions(i + 1, 8):
                TMDeg(4 - i, degrees).census()
        assert len(composed) == 588

    def test_infeasible_degrees_count_zero(self):
        assert closed_count_maps(BTDeg(0, (1,))) == 0
        # () reads as n = -1 edges: no words, and no walk over the buds
        assert list(BTDeg(3000, ()).members()) == []

    def test_descriptor_round_trip(self):
        for fam in (BT(2, 3), BTDeg(2, (2, 0, 0, 1)), TMij(2, 1), TMn(3),
                    TMDeg(1, (1, 0, 1)), NCM(4)):
            assert family_from_descriptor(fam.descriptor()) == fam

    def test_negative_sizes_are_rejected_by_name(self):
        for make, name in ((lambda: BT(-1, 2), "b"), (lambda: BT(2, -1), "n"),
                           (lambda: BTDeg(-2, (2, 1)), "b"),
                           (lambda: TMij(-1, 0), "i"), (lambda: TMij(0, -1), "j"),
                           (lambda: TMn(-1), "n"), (lambda: TMDeg(-1, (1, 1)), "j"),
                           (lambda: NCM(-3), "j")):
            with pytest.raises(ValueError, match=f"{name} must be non-negative"):
                make()
        assert closed_count_maps(BT(0, 0)) == closed_count_maps(NCM(0)) == 1


class TestFixCounts:
    def test_closed_matches_bruteforce(self):
        fams = [BT(0, 3), BT(2, 2), BT(3, 3), NCM(2), NCM(3), NCM(4),
                TMij(1, 1), TMij(2, 1), TMij(2, 2), TMn(2), TMn(3)]
        for b in range(3):
            for n in range(4):
                for degrees in btree_degree_distributions(b, n):
                    fams.append(BTDeg(b, degrees))
        for j in range(3):
            for i in range(4 - j):
                for degrees in btree_degree_distributions(2 * j, i):
                    fams.append(TMDeg(j, degrees))
        for fam in fams:
            order = fam.order()
            for e in range(0, 2 * order + 1):
                assert fix_count_maps(fam, e) == fix_count_maps_closed(fam, e), \
                    (fam, e)

    def test_ncm_closed_form(self):
        # d=2 at j=3: central binomial-type count
        assert fix_count_maps_closed(NCM(3), 3) == 3

    def test_fixed_iff_parts_fixed(self):
        for mp in enumerate_maps(TMn(3)):
            for e in range(1, 13):
                assert (rotate_map(mp, e) == mp) == map_fixed_via_parts(mp, e)


class TestCubic:
    def test_pinned_example(self):
        c = to_cubic(TreeRootedMap("ENSW"))
        assert c.inner == frozenset({(0, 3)})
        assert c.outer == frozenset({(1, 2)})
        assert c.root == 0

    def test_round_trip(self):
        for mp in enumerate_maps(TMn(3)):
            assert from_cubic(to_cubic(mp)) == mp

    def test_rotation_advances_root(self):
        for mp in enumerate_maps(TMn(3)):
            lhs = to_cubic(rotate_map(mp, 1))
            rhs = advance_root(to_cubic(mp))
            assert lhs.descriptor() == rhs.descriptor()

    def test_validation(self):
        with pytest.raises(ValueError):
            CubicHamiltonianMap(2, [(0, 1), (0, 2)], [(3, 3)], 0)
        with pytest.raises(ValueError):
            CubicHamiltonianMap(2, [(0, 2), (1, 3)], [], 0)  # crossing inner

    def test_chord_end_past_the_cycle_is_refused_by_name(self):
        with pytest.raises(ValueError, match=r"\(0, 5\)"):
            CubicHamiltonianMap(1, [(0, 5)], [])

    def test_negative_chord_end_is_refused_by_name(self):
        with pytest.raises(ValueError, match=r"\(-1, 0\)"):
            CubicHamiltonianMap(1, [(0, -1)], [])

    def test_root_off_the_empty_cycle_is_refused(self):
        with pytest.raises(ValueError, match="root edge 3"):
            CubicHamiltonianMap(0, [], [], 3)

    def test_negative_size_is_refused_by_name(self):
        with pytest.raises(ValueError, match="n must be non-negative, got -1"):
            CubicHamiltonianMap(-1, [], [])
