import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sieveforest import rotations, trees
from sieveforest.cli import run
from sieveforest.maps import BTDeg
from sieveforest.trees import (AllTrees, ByDegrees, ByLeaves, CentralEdge,
                               CentralVertex, InternalRooted,
                               InternalRootedDeg, LeafRooted, LeafRootedDeg,
                               NotEdgeCentered, PlaneTree, RootDegree, catalan,
                               center, closed_count, degree_distributions,
                               degree_solutions,
                               enumerate_family, family_from_descriptor,
                               half_tree, matching, sector, shift_root, stats)


def all_words(n):
    return [t.word for t in enumerate_family(AllTrees(n))]


dyck_words = st.integers(1, 7).flatmap(lambda n: st.sampled_from(all_words(n)))


class TestBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            PlaneTree("(()")
        with pytest.raises(ValueError):
            PlaneTree(")(")

    def test_matching(self):
        assert matching("(())") == (3, 2, 1, 0)
        assert matching("()()") == (1, 0, 3, 2)

    def test_stats(self):
        s = stats(PlaneTree("(()())"))
        # the degree-1 root counts as a leaf
        assert s.leaves == 3 and s.edges == 3 and s.root_degree == 1

    @given(dyck_words, st.integers(-20, 20))
    def test_shift_root_is_cyclic(self, word, steps):
        shifted = shift_root(word, steps)
        assert shift_root(shifted, -steps) == word
        assert shift_root(word, len(word)) == word

    @given(dyck_words, st.integers(0, 10), st.integers(0, 10))
    def test_shift_root_composes(self, word, a, b):
        assert shift_root(shift_root(word, a), b) == shift_root(word, a + b)


class TestFamilies:
    def test_catalan_counts(self):
        for n in range(1, 9):
            assert len(all_words(n)) == catalan(n)

    def test_enumeration_matches_closed_count(self):
        for n in range(1, 8):
            fams = [AllTrees(n)]
            fams += [ByLeaves(n, k) for k in range(2, n + 1)]
            fams += [LeafRooted(n, k) for k in range(2, n + 1)]
            fams += [InternalRooted(n, k) for k in range(2, n + 1)]
            for degrees in degree_distributions(n):
                fams.append(ByDegrees(degrees))
                fams.append(LeafRootedDeg(degrees))
                fams.append(InternalRootedDeg(degrees))
                for delta, c in enumerate(degrees, start=1):
                    if c:
                        fams.append(RootDegree(degrees, delta))
            for fam in fams:
                assert sum(1 for _ in enumerate_family(fam)) == closed_count(fam), fam

    def test_leaf_refinement_partitions_family(self):
        for n in range(2, 9):
            assert sum(closed_count(ByLeaves(n, k)) for k in range(2, n + 1)) \
                == catalan(n)

    def test_degree_refinement_partitions_family(self):
        for n in range(1, 8):
            assert sum(closed_count(ByDegrees(d)) for d in degree_distributions(n)) \
                == catalan(n)

    def test_infeasible_degree_lists_list_nothing_without_a_walk(
            self, monkeypatch, capsys):
        """No tree (no b-tree, buds included) has these degrees or leaf
        counts: listing the members, or taking a cold census, reads no word
        table."""
        def walk(*args, **kwargs):
            raise AssertionError("walked")

        monkeypatch.setattr(trees, "_btree_walk", walk)
        monkeypatch.setattr(trees, "_words_by_degrees", walk)
        rotations._period_census.cache_clear()
        for fam in (ByDegrees((24,)), InternalRootedDeg((0, 2)), BTDeg(1, (0, 2)),
                    ByLeaves(12, 20), LeafRooted(12, 20), InternalRooted(5, 1)):
            assert list(fam.members()) == [] and fam.count() == 0, fam
            assert fam.census() == (), fam
        for flags in (["--family", "by_degrees", "--degrees", "24"],
                      ["--family", "by_leaves", "--n", "12", "--k", "20"]):
            assert run(["enumerate", *flags, "--size-guard", "12"]) == 0
            assert capsys.readouterr().out == ""

    def test_descriptor_round_trip(self):
        for fam in (AllTrees(4), ByLeaves(5, 3), LeafRooted(5, 3),
                    InternalRooted(5, 3), ByDegrees((2, 2)),
                    LeafRootedDeg((2, 2)), InternalRootedDeg((2, 2)),
                    RootDegree((2, 2), 2)):
            assert family_from_descriptor(fam.descriptor()) == fam
        with pytest.raises(ValueError, match="unknown family"):
            family_from_descriptor({"family": "nope"})

    def test_negative_edge_count_is_rejected(self):
        for make in (lambda: AllTrees(-1), lambda: ByLeaves(-1, 2),
                     lambda: LeafRooted(-2, 2), lambda: InternalRooted(-1, 0)):
            with pytest.raises(ValueError, match="n must be non-negative"):
                make()
        assert closed_count(AllTrees(0)) == 1


class TestCenter:
    def test_path_centers(self):
        # odd edge count: central edge; even edge count: central vertex
        assert isinstance(center(PlaneTree("((()))")), CentralEdge)
        assert isinstance(center(PlaneTree("(())")), CentralVertex)

    def test_center_is_root_invariant(self):
        for t in enumerate_family(AllTrees(5)):
            kinds = {type(center(PlaneTree(shift_root(t.word, s))))
                     for s in range(10)}
            assert len(kinds) == 1


class TestSurgeries:
    # the round trips, counted both ways, are tests/test_acceptance.py's
    # TestCriterion8::test_structure_bijections_counted_both_ways

    def test_sector_requires_divisibility(self):
        t = PlaneTree("(()())")
        with pytest.raises(ValueError):
            sector(t, 2)  # R^(2n/2) does not fix this tree

    def test_half_tree_requires_a_central_edge(self):
        with pytest.raises(NotEdgeCentered):
            half_tree(PlaneTree("(())"))  # centred at the middle node


def ref_degree_solutions(nodes: int, degree_sum: int) -> list[tuple[int, ...]]:
    """The recursive walk, one frame per degree: the reference."""
    out = []

    def rec(deg, counts, nodes_left, degsum_left):
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


class TestDegreeSolutions:
    def test_matches_the_recursive_reference(self):
        for nodes in range(-2, 11):
            for degree_sum in range(-2, 23):
                assert degree_solutions(nodes, degree_sum) \
                    == ref_degree_solutions(nodes, degree_sum), (nodes, degree_sum)
