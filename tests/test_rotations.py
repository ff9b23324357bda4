import pytest
from hypothesis import given
from hypothesis import strategies as st

from sieveforest import rotations, trees
from sieveforest.maps import NCM
from sieveforest.rotations import (FixQuery, INTERNAL, IncompatibleKind, LEAF,
                                   NoEligibleCorner, ORDINARY,
                                   check_rotation_transfer, degree_kind,
                                   fix_count_bruteforce, fix_count_closed,
                                   orbit, rotate)
from sieveforest.trees import (AllTrees, ByDegrees, ByLeaves, InternalRooted,
                               InternalRootedDeg, LeafRooted, LeafRootedDeg,
                               PlaneTree, RootDegree, closed_count,
                               degree_distributions, enumerate_family,
                               shift_root)


def tree_families(n):
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
    return fams


class TestRotate:
    def test_ordinary_is_corner_shift(self):
        for t in enumerate_family(AllTrees(4)):
            for e in range(8):
                assert rotate(t, ORDINARY, e).word == shift_root(t.word, e)

    def test_orbit_size_divides_order(self):
        for n in range(1, 7):
            for t in enumerate_family(AllTrees(n)):
                assert (2 * n) % len(orbit(t, ORDINARY)) == 0

    def test_leaf_rotation_permutes_leaf_rooted_family(self):
        fam = LeafRooted(5, 3)
        members = set(enumerate_family(fam))
        for t in members:
            assert rotate(t, LEAF, 1) in members

    def test_leaf_rotation_order(self):
        fam = LeafRooted(5, 3)
        for t in enumerate_family(fam):
            assert rotate(t, LEAF, fam.k) == t

    def test_degree_kind_one_is_leaf_like(self):
        fam = LeafRootedDeg((3, 0, 1))
        for t in enumerate_family(fam):
            assert rotate(t, degree_kind(1), 1) == rotate(t, LEAF, 1)

    def test_restricted_rotation_matches_one_step_at_a_time(self):
        """Each restricted step re-roots at the nearest corner of the kind
        behind the root, each inverse step at the nearest one ahead of it;
        a root corner outside the kind has no rotation."""
        kinds = [LEAF, INTERNAL] + [degree_kind(d) for d in range(1, 5)]
        for n in range(0, 6):
            for t in enumerate_family(AllTrees(n)):
                size = len(t.word)
                deg = trees.node_degrees(t.word)
                nodes = trees.corner_nodes(t.word)
                for kind in kinds:
                    if not (size and kind.eligible(deg[0])):
                        with pytest.raises(NoEligibleCorner):
                            rotate(t, kind, 1)
                        continue
                    k = kind.corners(trees.degree_distribution(deg))
                    word = t.word
                    for steps in range(k + 2):
                        assert rotate(t, kind, steps).word == word, (t, kind, steps)
                        assert rotate(rotate(t, kind, steps), kind, -steps) == t
                        at, of = trees.corner_nodes(word), trees.node_degrees(word)
                        s = next(s for s in range(1, size + 1)
                                 if kind.eligible(of[at[-s]]))
                        word = shift_root(word, s)
                    assert k == sum(kind.eligible(deg[v]) for v in nodes)

    def test_internal_requires_internal_root(self):
        with pytest.raises(NoEligibleCorner):
            rotate(PlaneTree("(())"), INTERNAL, 1)

    def test_negative_steps_invert(self):
        for t in enumerate_family(InternalRooted(5, 3)):
            assert rotate(rotate(t, INTERNAL, 1), INTERNAL, -1) == t


class TestOrders:
    def test_order_values(self):
        assert AllTrees(4).order() == 8
        assert ByLeaves(5, 3).order() == 10
        assert LeafRooted(5, 3).order() == 3
        assert InternalRooted(5, 3).order() == 7
        assert RootDegree((2, 0, 2), 3).order() == 6

    def test_incompatible_kind(self):
        # a family is ordered and counted under its own kind only
        with pytest.raises(IncompatibleKind):
            FixQuery(LeafRooted(5, 3), INTERNAL, 1)
        with pytest.raises(IncompatibleKind) as err:
            FixQuery(family=RootDegree((2, 0, 2), 3), kind=ORDINARY, e=2)
        assert str(err.value) == (
            f"{ORDINARY} does not act on {RootDegree((2, 0, 2), 3)}")
        with pytest.raises(IncompatibleKind, match="does not act on"):
            FixQuery(NCM(3), ORDINARY, 1)

    def test_fix_query_by_position_and_keyword(self):
        fam = RootDegree((2, 0, 2), 3)
        query = FixQuery(fam, fam.kind, 4)
        assert (query.family, query.kind, query.e) == (fam, degree_kind(3), 4)
        for same in (FixQuery(family=fam, kind=fam.kind, e=4),
                     FixQuery(fam, e=4, kind=degree_kind(3)),
                     FixQuery(RootDegree((2, 0, 2), 3), degree_kind(3), 4)):
            assert same == query and hash(same) == hash(query)
        assert FixQuery(fam, fam.kind, 5) != query
        assert FixQuery(NCM(3), None, 4) != FixQuery(NCM(3), None, 5)
        with pytest.raises(TypeError):
            FixQuery(fam, fam.kind)
        with pytest.raises(AttributeError):
            query.e = 5

    def test_census_reads_the_period_census_at_call_time(self, monkeypatch):
        # a tracer rebinds `rotations._period_census`; every census goes
        # through the module attribute
        seen = []

        def traced(family):
            seen.append(family)
            return ((1, 7),)

        monkeypatch.setattr(rotations, "_period_census", traced)
        for fam in (ByDegrees((2, 1)), LeafRooted(4, 2), NCM(3)):
            assert fam.census() == ((1, 7),)
            assert fix_count_bruteforce(FixQuery(fam, fam.kind, 1)) == 7
        assert seen == [ByDegrees((2, 1)), ByDegrees((2, 1)), LeafRooted(4, 2),
                        LeafRooted(4, 2), NCM(3), NCM(3)]

    def test_negative_order_is_refused(self):
        # more leaves than corners: 2n - k < 0 internal corners
        for fam in (InternalRooted(1, 3), InternalRooted(2, 6), InternalRooted(0, 2)):
            with pytest.raises(ValueError, match=f"k={fam.k}"):
                fam.order()

    @pytest.mark.parametrize("fam, kind", [
        (LeafRootedDeg(()), degree_kind(1)), (InternalRootedDeg(()), INTERNAL),
        (ByDegrees(()), ORDINARY)])
    def test_empty_degree_list_has_order_and_counts_zero(self, fam, kind):
        # no entry for degree 1 counts as no leaves, and no node as no corner
        assert fam.kind == kind and fam.order() == 0
        for e in (0, 1, 2):
            query = FixQuery(fam, kind, e)
            assert fix_count_bruteforce(query) == fix_count_closed(query) == 0


class TestFixCounts:
    def test_closed_matches_bruteforce(self):
        for n in range(1, 8):
            for fam in tree_families(n):
                kind = fam.kind
                order = fam.order()
                for e in range(0, 2 * order + 1):
                    q = FixQuery(fam, kind, e)
                    assert fix_count_bruteforce(q) == fix_count_closed(q), (fam, e)

    def test_one_edge_leaf_families(self, monkeypatch):
        """At n = 1 the only tree, '()', has two leaves, one at its root, and
        every power fixes it; counts and closed forms must not enumerate."""
        for k in range(-1, 5):
            for fam in (ByLeaves(1, k), LeafRooted(1, k), InternalRooted(1, k)):
                members = list(enumerate_family(fam))
                assert len(members) == (k == 2 and fam.kind != INTERNAL), fam
                try:
                    order = fam.order()
                except ValueError:
                    assert k < 0 or k > 2, fam
                    continue
                for e in range(order + 1):
                    query = FixQuery(fam, fam.kind, e)
                    assert fix_count_bruteforce(query) == len(members)
                    with monkeypatch.context() as m:
                        m.setattr(trees, "_btree_walk", None)
                        m.setattr(trees, "_words_by_degrees", None)
                        assert fam.count() == len(members), fam
                        assert fix_count_closed(query) == len(members), (fam, e)

    def test_e_zero_gives_family_count(self):
        for fam in (AllTrees(6), ByLeaves(6, 3), InternalRooted(6, 4)):
            kind = fam.kind
            assert fix_count_closed(FixQuery(fam, kind, 0)) == closed_count(fam)

    def test_ord3_fix_vector(self):
        fam = AllTrees(3)
        fixes = [fix_count_bruteforce(FixQuery(fam, ORDINARY, e)) for e in range(6)]
        assert fixes == [5, 0, 2, 3, 2, 0]

    @given(st.integers(1, 6), st.integers(0, 30))
    def test_gcd_reduction(self, n, e):
        fam = AllTrees(n)
        import math
        g = math.gcd(e, 2 * n)
        assert fix_count_closed(FixQuery(fam, ORDINARY, e)) \
            == fix_count_closed(FixQuery(fam, ORDINARY, g if e else 0))


class TestTransfer:
    def test_transfer_exhaustive(self):
        for n in range(2, 7):
            for fam in tree_families(n):
                if fam.kind == ORDINARY:
                    continue
                order = fam.order()
                for e in range(1, order + 1):
                    if order % e == 0:
                        assert check_rotation_transfer(fam, e), (fam, e)
