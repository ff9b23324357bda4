"""Acceptance gate: the eight end-to-end criteria, checked exactly."""
import time

import pytest

from sieveforest.bijections import (dissection_to_tree, kreweras, ncm_to_tree,
                                    ncp_to_tree, point_rotation,
                                    tree_to_dissection, tree_to_ncm,
                                    tree_to_ncp)
from sieveforest.csp import (ALL_EXPONENTS, CHU_VANDERMONDE_TM,
                             InfeasibleParams, REFINED_LEAVES, build_instance,
                             check_poly_nonneg, check_sum_identity, verify)
from sieveforest.maps import (BT, NCM, TMDeg, TMij, TMn,
                              btree_degree_distributions, closed_count_maps,
                              compose, decompose, enumerate_maps,
                              fix_count_maps, fix_count_maps_closed,
                              from_cubic, rotate_ncm, to_cubic)
from sieveforest.qseries import eval_at_primitive_root
from sieveforest.rotations import check_rotation_transfer
from sieveforest.trees import (AllTrees, MarkedTree, PlaneTree, catalan,
                               degree_distributions, enumerate_family,
                               glue_halves, half_tree, matching, node_degrees,
                               replicate_sector, sector, shift_root)

GUARD = 99  # the acceptance ranges deliberately exceed the default desk guard


def criterion2_instances():
    """Every theorem instance in the acceptance ranges."""
    out = []
    for n in range(1, 13):
        out.append(build_instance("ord", n=n))
    for n in range(2, 11):
        for k in range(2, n + 1):
            out.append(build_instance("ord_leaves", n=n, k=k))
            out.append(build_instance("ext", n=n, k=k))
            out.append(build_instance("int", n=n, k=k))
    for n in range(1, 10):
        for degrees in degree_distributions(n):
            for theorem in ("ord_deg", "int_deg"):
                try:
                    out.append(build_instance(theorem, degrees=degrees))
                except InfeasibleParams:
                    pass
    for n in range(1, 9):
        for degrees in degree_distributions(n):
            for delta, count in enumerate(degrees, start=1):
                if count:
                    try:
                        out.append(build_instance("delta", degrees=degrees,
                                                  delta=delta))
                    except InfeasibleParams:
                        pass
    for b in range(0, 13):
        for n in range(0, (12 - b) // 2 + 1):
            if b + n:
                out.append(build_instance("btij", b=b, n=n))
    for b in range(0, 11):
        for n in range(0, 11 - b):
            for degrees in btree_degree_distributions(b, n):
                try:
                    out.append(build_instance("btd", b=b, degrees=degrees))
                except InfeasibleParams:
                    pass
    for total in range(1, 6):
        out.append(build_instance("tmn", n=total))
        for i in range(total + 1):
            out.append(build_instance("tmij", i=i, j=total - i))
    for j in range(0, 6):
        for i in range(0, 6 - j):
            for degrees in btree_degree_distributions(2 * j, i):
                try:
                    out.append(build_instance("tmd", j=j, degrees=degrees))
                except InfeasibleParams:
                    pass
    for j in range(1, 9):
        out.append(build_instance("ncm_rotation", j=j))
    return out


class TestCriterion1:
    def test_ord3_example_exact_and_fast(self):
        start = time.perf_counter()
        inst = build_instance("ord", n=3)
        assert len(list(enumerate_family(AllTrees(3)))) == 5
        poly = inst.polynomial()
        assert poly.coeffs == (1, 0, 1, 1, 1, 0, 1)
        report = verify(inst, ALL_EXPONENTS)
        assert [r["brute"] for r in report.rows] == [5, 0, 2, 3, 2, 0]
        assert report.overall
        assert poly.at_one() == 5
        assert eval_at_primitive_root(poly, 6) == 0
        assert eval_at_primitive_root(poly, 3) == 2
        assert eval_at_primitive_root(poly, 2) == 3
        assert time.perf_counter() - start < 1.0


class TestCriterion2:
    def test_full_sweep_all_exponents(self):
        start = time.perf_counter()
        instances = criterion2_instances()
        assert len(instances) > 400
        failures = []
        for inst in instances:
            report = verify(inst, ALL_EXPONENTS, size_guard=GUARD)
            if not report.overall:
                failures.append((inst.theorem, inst.params,
                                 [r for r in report.rows if not r["agree"]]))
        assert not failures, failures[:5]
        assert time.perf_counter() - start < 600


class TestCriterion3:
    def test_documented_example_polynomials(self):
        cases = [
            ("ord_leaves", dict(n=3, k=3), (1, 0, 0, 1)),
            ("ord_leaves", dict(n=3, k=2), (1, 0, 1, 0, 1)),
            ("ext", dict(n=3, k=3), (1,)),
            ("ext", dict(n=3, k=2), (1,)),
            ("int", dict(n=3, k=3), (1,)),
            ("int", dict(n=3, k=2), (1, 0, 1)),
            ("ord_deg", dict(degrees=(3, 0, 1)), (1, 0, 0, 1)),
            ("ord_deg", dict(degrees=(2, 2)), (1, 0, 1, 0, 1)),
            ("delta", dict(degrees=(2, 2), delta=2), (1, 0, 1)),
            ("tmij", dict(i=1, j=1), (1, 1, 2, 1, 1)),
            ("tmn", dict(n=2), (1, 0, 2, 1, 2, 1, 2, 0, 1)),
            ("tmd", dict(j=1, degrees=(1, 0, 1)), (1, 1, 1, 1)),
        ]
        for theorem, params, coeffs in cases:
            assert build_instance(theorem, **params).polynomial().coeffs \
                == coeffs, (theorem, params)

    def test_tmn2_evaluations(self):
        poly = build_instance("tmn", n=2).polynomial()
        assert poly.at_one() == 10
        assert eval_at_primitive_root(poly, 4) == 0   # q = i
        assert eval_at_primitive_root(poly, 2) == 6   # q = -1


class TestCriterion4:
    def test_catalan_product_counts_by_enumeration(self):
        for n in range(1, 6):
            total = sum(1 for _ in enumerate_maps(TMn(n)))
            assert total == catalan(n) * catalan(n + 1)
            assert sum(closed_count_maps(TMij(i, n - i)) for i in range(n + 1)) \
                == total
        assert closed_count_maps(TMn(2)) == 10


class TestCriterion5:
    def test_polynomiality_nonneg_reciprocal(self):
        for inst in criterion2_instances():
            result = check_poly_nonneg(inst)
            assert result["polynomial"], (inst.theorem, inst.params)
            assert result["nonneg"], (inst.theorem, inst.params)
            # every factor [a]_q is palindromic, so any polynomial quotient is
            assert result["reciprocal"], (inst.theorem, inst.params)


class TestCriterion6:
    def test_sum_identities(self):
        for n in range(2, 11):
            assert check_sum_identity(REFINED_LEAVES, n)
        for n in range(1, 11):
            assert check_sum_identity(CHU_VANDERMONDE_TM, n)


class TestCriterion7:
    def test_tree_matching_partition_round_trips(self):
        for n in range(1, 9):
            for t in enumerate_family(AllTrees(n)):
                assert ncm_to_tree(tree_to_ncm(t)) == t
                assert ncp_to_tree(tree_to_ncp(t)) == t

    def test_kreweras_squared_is_rotation(self):
        for n in range(1, 8):
            for t in enumerate_family(AllTrees(n)):
                p = tree_to_ncp(t)
                assert kreweras(kreweras(p)) == point_rotation(p, 1)

    def test_dissection_round_trip(self):
        for n in range(2, 9):
            for t in enumerate_family(AllTrees(n)):
                word = t.word
                if matching(word)[0] != len(word) - 1 or len(word) < 4:
                    continue
                if any(d == 2 for d in node_degrees(word)):
                    continue
                assert dissection_to_tree(tree_to_dissection(t)) == t

    def test_map_cubic_and_decompose_round_trips(self):
        for total in range(1, 5):
            for mp in enumerate_maps(TMn(total)):
                assert from_cubic(to_cubic(mp)) == mp
                bt, m = decompose(mp)
                assert compose(bt, m) == mp

    def test_ncm_closed_form_matches_brute(self):
        for j in range(1, 9):
            fam = NCM(j)
            for e in range(0, 2 * j):
                assert fix_count_maps(fam, e) == fix_count_maps_closed(fam, e)


class TestCriterion8:
    def test_structure_bijections_counted_both_ways(self):
        # Half-turn-fixed trees <-> marked halves, for n odd.
        for n in (1, 3, 5, 7, 9):
            fixed = [t for t in enumerate_family(AllTrees(n))
                     if shift_root(t.word, n) == t.word]
            h = (n + 1) // 2
            codomain = {MarkedTree(t, m)
                        for t in enumerate_family(AllTrees(h))
                        for m in range(1, 2 * h)
                        if t.word[m - 1] == "(" and t.word[m] == ")"}
            images = set()
            for t in fixed:
                marked = half_tree(t)
                assert glue_halves(marked) == t
                images.add(marked)
            assert images == codomain
            assert len(images) == len(fixed)

        # d-fold-fixed trees <-> marked sectors, for every d | n, d >= 2.
        for n in range(2, 10):
            for d in range(2, n + 1):
                if n % d:
                    continue
                fixed = [t for t in enumerate_family(AllTrees(n))
                         if shift_root(t.word, 2 * n // d) == t.word]
                images = set()
                for t in fixed:
                    marked = sector(t, d)
                    assert marked.tree.n == n // d
                    assert replicate_sector(marked, d) == t
                    images.add(marked)
                assert len(images) == len(fixed)

    def test_rotation_transfer_exhaustive(self):
        from sieveforest.rotations import ORDINARY
        from sieveforest.trees import (ByDegrees, InternalRooted,
                                       InternalRootedDeg, LeafRooted,
                                       LeafRootedDeg, RootDegree)
        for n in range(2, 9):
            fams = [LeafRooted(n, k) for k in range(2, n + 1)]
            fams += [InternalRooted(n, k) for k in range(2, n + 1)]
            for degrees in degree_distributions(n):
                fams.append(LeafRootedDeg(degrees))
                fams.append(InternalRootedDeg(degrees))
                for delta, c in enumerate(degrees, start=1):
                    if c:
                        fams.append(RootDegree(degrees, delta))
            for fam in fams:
                order = fam.order()
                for e in range(1, order + 1):
                    if order % e == 0:
                        assert check_rotation_transfer(fam, e), (fam, e)
