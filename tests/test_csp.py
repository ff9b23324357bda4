import json
import math

import pytest

from sieveforest.csp import (ALL_EXPONENTS, CHU_VANDERMONDE_TM, DIVISORS,
                             InfeasibleParams, REFINED_LEAVES,
                             SizeGuardExceeded, THEOREM_IDS, THEOREMS,
                             build_instance, check_poly_nonneg,
                             check_size_guard, check_sum_identity, verify)
from sieveforest.qseries import eval_expr_at_root
from sieveforest.trees import FAMILIES, family_from_descriptor


class TestBuildInstance:
    def test_ord3_polynomial(self):
        inst = build_instance("ord", n=3)
        assert str(inst.polynomial()) == "1 + q^2 + q^3 + q^4 + q^6"

    def test_example_polynomials(self):
        cases = [
            ("ord_leaves", dict(n=3, k=3), "1 + q^3"),
            ("ord_leaves", dict(n=3, k=2), "1 + q^2 + q^4"),
            ("ext", dict(n=3, k=3), "1"),
            ("ext", dict(n=3, k=2), "1"),
            ("int", dict(n=3, k=2), "1 + q^2"),
            ("ord_deg", dict(degrees=(3, 0, 1)), "1 + q^3"),
            ("ord_deg", dict(degrees=(2, 2)), "1 + q^2 + q^4"),
            ("delta", dict(degrees=(2, 2), delta=2), "1 + q^2"),
            ("tmij", dict(i=1, j=1), "1 + q + 2q^2 + q^3 + q^4"),
            ("tmn", dict(n=2), "1 + 2q^2 + q^3 + 2q^4 + q^5 + 2q^6 + q^8"),
            ("tmd", dict(j=1, degrees=(1, 0, 1)), "1 + q + q^2 + q^3"),
        ]
        for theorem, params, want in cases:
            assert str(build_instance(theorem, **params).polynomial()) == want

    def test_value_at_one_is_count(self):
        for theorem, params in [("ord", dict(n=5)), ("ord_leaves", dict(n=5, k=3)),
                                ("ext", dict(n=5, k=3)), ("int", dict(n=5, k=3)),
                                ("btij", dict(b=2, n=3)), ("tmij", dict(i=2, j=1)),
                                ("tmn", dict(n=3)), ("ncm_rotation", dict(j=4))]:
            inst = build_instance(theorem, **params)
            from sieveforest.maps import closed_count_maps
            from sieveforest.trees import closed_count
            count = (closed_count(inst.family) if inst.kind is not None
                     else closed_count_maps(inst.family))
            assert inst.polynomial().at_one() == count
            assert eval_expr_at_root(inst.expr, 1) == count

    def test_infeasible(self):
        with pytest.raises(InfeasibleParams):
            build_instance("ord_leaves", n=1, k=2)
        with pytest.raises(InfeasibleParams):
            build_instance("ord_leaves", n=4, k=1)
        with pytest.raises(InfeasibleParams):
            build_instance("ord_deg", degrees=(1, 1))  # degree sum mismatch
        with pytest.raises(InfeasibleParams):
            build_instance("nonsense", n=3)

    def test_all_theorem_ids_buildable(self):
        params = {"ord": dict(n=4), "ord_leaves": dict(n=4, k=3),
                  "ext": dict(n=4, k=3), "int": dict(n=4, k=3),
                  "ord_deg": dict(degrees=(3, 0, 1)),
                  "delta": dict(degrees=(3, 0, 1), delta=3),
                  "int_deg": dict(degrees=(3, 0, 1)),
                  "btij": dict(b=2, n=2), "btd": dict(b=2, degrees=(2, 0, 0, 1)),
                  "tmij": dict(i=1, j=1), "tmn": dict(n=2),
                  "tmd": dict(j=1, degrees=(1, 0, 1)),
                  "ncm_rotation": dict(j=3)}
        assert set(params) == set(THEOREM_IDS)
        for theorem, p in params.items():
            inst = build_instance(theorem, **p)
            assert inst.order > 0
            # a theorem's parameters are its family's fields, in order
            descriptor = inst.family.descriptor()
            assert FAMILIES[descriptor.pop("family")] is THEOREMS[theorem].family
            assert descriptor == {k: list(v) if isinstance(v, tuple) else v
                                  for k, v in p.items()}
            assert list(descriptor) == list(p)
            assert family_from_descriptor(inst.family.descriptor()) == inst.family


class TestVerify:
    def test_ord3_all_exponents(self):
        report = verify(build_instance("ord", n=3), ALL_EXPONENTS)
        assert [r["brute"] for r in report.rows] == [5, 0, 2, 3, 2, 0]
        assert report.overall

    def test_tmn2_all_exponents(self):
        report = verify(build_instance("tmn", n=2), ALL_EXPONENTS)
        assert [r["brute"] for r in report.rows] == [10, 0, 6, 0]
        assert report.overall

    def test_ext_singleton(self):
        report = verify(build_instance("ext", n=3, k=3), ALL_EXPONENTS)
        assert all(r["brute"] == 1 for r in report.rows)
        assert report.overall

    def test_divisors_mode_subset(self):
        inst = build_instance("ord", n=4)
        full = {r["e"]: r for r in verify(inst, ALL_EXPONENTS).rows}
        for row in verify(inst, DIVISORS).rows:
            assert full[row["e"]] == row

    def test_gcd_consistency(self):
        inst = build_instance("ord", n=6)
        rows = {r["e"]: r for r in verify(inst, ALL_EXPONENTS).rows}
        for e, row in rows.items():
            if e:
                assert row["poly_value"] == rows[math.gcd(e, 12)]["poly_value"]

    def test_report_serialization(self):
        report = verify(build_instance("ord", n=3), ALL_EXPONENTS)
        data = json.loads(report.to_json())
        assert data["theorem"] == "ord" and data["overall"] is True
        csv = report.to_csv().splitlines()
        assert csv[0] == "e,d,brute,closed,poly_value,agree"
        assert len(csv) == 1 + len(report.rows)


class TestSizeGuard:
    def test_guard_trips(self):
        with pytest.raises(SizeGuardExceeded):
            verify(build_instance("ord", n=11))

    def test_guard_override(self):
        report = verify(build_instance("ord", n=11), DIVISORS, size_guard=11)
        assert report.overall

    def test_env_override(self, monkeypatch):
        from sieveforest.trees import AllTrees
        monkeypatch.setenv("SIEVE_FOREST_SIZE_GUARD", "3")
        with pytest.raises(SizeGuardExceeded):
            check_size_guard(AllTrees(4))
        check_size_guard(AllTrees(3))

    def test_map_guard(self):
        from sieveforest.maps import TMn
        with pytest.raises(SizeGuardExceeded):
            check_size_guard(TMn(6))
        check_size_guard(TMn(5))


class TestShapes:
    def test_int_example(self):
        result = check_poly_nonneg(build_instance("int", n=3, k=2))
        assert result == {"polynomial": True, "nonneg": True, "reciprocal": True}

    def test_ord_deg_example(self):
        result = check_poly_nonneg(build_instance("ord_deg", degrees=(2, 2)))
        assert result["polynomial"] and result["nonneg"]


class TestSumIdentities:
    def test_refined_leaves_3(self):
        assert check_sum_identity(REFINED_LEAVES, 3)

    def test_chu_vandermonde_2(self):
        assert check_sum_identity(CHU_VANDERMONDE_TM, 2)

    def test_small_range(self):
        for n in range(2, 7):
            assert check_sum_identity(REFINED_LEAVES, n)
        for n in range(1, 5):
            assert check_sum_identity(CHU_VANDERMONDE_TM, n)

    def test_refined_needs_n_at_least_two(self):
        with pytest.raises(InfeasibleParams):
            check_sum_identity(REFINED_LEAVES, 1)
