import pytest

from sieveforest.bijections import (Degree2NodePresent, Dissection,
                                    NonCrossingPartition, NotLeafRooted,
                                    dissection_to_tree, kreweras, ncm_to_tree,
                                    ncp_to_tree, point_rotation,
                                    rotate_dissection, short_edge_count,
                                    tree_to_dissection, tree_to_ncm,
                                    tree_to_ncp)
from sieveforest.maps import rotate_ncm
from sieveforest.rotations import LEAF, ORDINARY, rotate
from sieveforest.trees import (AllTrees, PlaneTree, enumerate_family,
                               matching, node_degrees, stats)


def admissible_for_dissection(t):
    word = t.word
    if len(word) < 4 or matching(word)[0] != len(word) - 1:
        return False
    return all(d != 2 for d in node_degrees(word))


class TestMatchingCorrespondence:
    def test_pinned_example(self):
        assert tree_to_ncm(PlaneTree("(())")).pairs() == [(0, 3), (1, 2)]

    def test_round_trip(self):
        for n in range(1, 10):
            for t in enumerate_family(AllTrees(n)):
                assert ncm_to_tree(tree_to_ncm(t)) == t

    def test_leaves_are_short_edges(self):
        for n in range(1, 9):
            for t in enumerate_family(AllTrees(n)):
                assert short_edge_count(tree_to_ncm(t)) == stats(t).leaves

    def test_rotation_equivariance(self):
        for t in enumerate_family(AllTrees(5)):
            for e in range(10):
                assert tree_to_ncm(rotate(t, ORDINARY, e)) \
                    == rotate_ncm(tree_to_ncm(t), e)


class TestPartitionCorrespondence:
    def test_single_edge(self):
        assert tree_to_ncp(PlaneTree("()")).blocks() == [[1]]

    def test_round_trip(self):
        for n in range(1, 9):
            for t in enumerate_family(AllTrees(n)):
                assert ncp_to_tree(tree_to_ncp(t)) == t

    def test_kreweras_intertwines_rotation(self):
        for n in range(1, 8):
            for t in enumerate_family(AllTrees(n)):
                p = tree_to_ncp(t)
                assert tree_to_ncp(rotate(t, ORDINARY, 1)) == kreweras(p)

    def test_double_rotation_is_point_rotation(self):
        for n in range(1, 8):
            for t in enumerate_family(AllTrees(n)):
                p = tree_to_ncp(t)
                assert tree_to_ncp(rotate(t, ORDINARY, 2)) == point_rotation(p, 1)

    def test_kreweras_squared(self):
        for n in range(1, 8):
            seen = set()
            for t in enumerate_family(AllTrees(n)):
                p = tree_to_ncp(t)
                if p in seen:
                    continue
                seen.add(p)
                assert kreweras(kreweras(p)) == point_rotation(p, 1)

    def test_kreweras_extremes(self):
        singletons = NonCrossingPartition.from_blocks([[1], [2], [3], [4]])
        one_block = NonCrossingPartition.from_blocks([[1, 2, 3, 4]])
        assert kreweras(singletons) == one_block
        assert kreweras(one_block) == singletons

    def test_crossing_rejected(self):
        with pytest.raises(ValueError):
            NonCrossingPartition.from_blocks([[1, 3], [2, 4]])

    def test_correspondence_is_bijective(self):
        for n in range(1, 8):
            images = {tree_to_ncp(t) for t in enumerate_family(AllTrees(n))}
            assert len(images) == len(list(enumerate_family(AllTrees(n))))


class TestDissectionCorrespondence:
    def test_minimal_ternary_example(self):
        # two internal degree-3 vertices, four leaves -> quadrilateral, 1 diagonal
        d = tree_to_dissection(PlaneTree("(()(()()))"))
        assert d.k == 4 and len(d.diagonals) == 1

    def test_round_trip(self):
        for n in range(2, 9):
            for t in enumerate_family(AllTrees(n)):
                if not admissible_for_dissection(t):
                    continue
                assert dissection_to_tree(tree_to_dissection(t)) == t

    def test_counted_both_ways(self):
        for n in range(2, 9):
            admissible = [t for t in enumerate_family(AllTrees(n))
                          if admissible_for_dissection(t)]
            images = {tree_to_dissection(t) for t in admissible}
            assert len(images) == len(admissible)

    def test_leaf_rotation_is_polygon_rotation(self):
        for n in range(3, 9):
            for t in enumerate_family(AllTrees(n)):
                if not admissible_for_dissection(t):
                    continue
                d = tree_to_dissection(t)
                assert tree_to_dissection(rotate(t, LEAF, 1)) \
                    == rotate_dissection(d, 1)

    def test_face_count_is_internal_node_count(self):
        for t in enumerate_family(AllTrees(6)):
            if not admissible_for_dissection(t):
                continue
            d = tree_to_dissection(t)
            internal = sum(1 for deg in node_degrees(t.word) if deg >= 3)
            assert len(d.diagonals) == internal - 1

    def test_not_leaf_rooted(self):
        with pytest.raises(NotLeafRooted):
            tree_to_dissection(PlaneTree("()()"))

    def test_degree_two_rejected(self):
        with pytest.raises(Degree2NodePresent):
            tree_to_dissection(PlaneTree("((()()))"))

    def test_dissection_validation(self):
        with pytest.raises(ValueError):
            Dissection(5, [(0, 1)])  # a side, not a diagonal
        with pytest.raises(ValueError):
            Dissection(6, [(0, 3), (1, 4)])  # crossing

    @pytest.mark.parametrize("k", [2, 1, 0, -1])
    def test_polygon_with_fewer_than_three_vertices_is_refused(self, k):
        with pytest.raises(ValueError, match=f"k = {k}"):
            Dissection(k, [])

    def test_large_polygon_round_trip(self):
        """A caterpillar with 2,403 edges is a 1,203-gon; the correspondence
        is not bounded by the recursion limit."""
        t = PlaneTree("(" + "()(" * 1200 + "()()" + ")" * 1200 + ")")
        d = tree_to_dissection(t)
        assert (t.n, d.k, len(d.diagonals)) == (2403, 1203, 1200)
        assert dissection_to_tree(d) == t


class TestPartitionEdgeCases:
    def test_empty_partition_rotates_to_itself(self):
        p = NonCrossingPartition("")
        assert point_rotation(p, 1) == p
        assert point_rotation(p, -3) == p
