import itertools
import json
import math
import sys

import pytest

from sieveforest import csp, qseries
from sieveforest.csp import (ALL_EXPONENTS, CHU_VANDERMONDE_TM, DIVISORS,
                             InfeasibleParams, REFINED_LEAVES,
                             SizeGuardExceeded, THEOREM_IDS, THEOREMS,
                             build_instance, check_poly_nonneg,
                             check_size_guard, check_sum_identity, verify)
from sieveforest.qseries import QPolynomial, eval_expr_at_root
from sieveforest.rotations import FixQuery, fix_count_bruteforce, fix_count_closed
from sieveforest.trees import ByDegrees, FAMILIES, family_from_descriptor


# One small instance of every theorem.
SMALL_PARAMS = {"ord": dict(n=4), "ord_leaves": dict(n=4, k=3),
                "ext": dict(n=4, k=3), "int": dict(n=4, k=3),
                "ord_deg": dict(degrees=(3, 0, 1)),
                "delta": dict(degrees=(3, 0, 1), delta=3),
                "int_deg": dict(degrees=(3, 0, 1)),
                "btij": dict(b=2, n=2), "btd": dict(b=2, degrees=(2, 0, 0, 1)),
                "tmij": dict(i=1, j=1), "tmn": dict(n=2),
                "tmd": dict(j=1, degrees=(1, 0, 1)),
                "ncm_rotation": dict(j=3)}


def _leaf_range(f) -> bool:
    return f.n >= 2 and 2 <= f.k <= f.n


# The ranges the theorems were first given, one predicate each; kept as a
# reference for the one rule of `build_instance`.
REFERENCE_RANGES = {
    "ord": lambda f: f.n >= 1,
    "ord_leaves": _leaf_range,
    "ext": _leaf_range,
    "int": _leaf_range,
    "ord_deg": lambda f: f.n >= 1 and f.count() > 0,
    "delta": lambda f: f.n >= 1 and f.count() > 0,
    "int_deg": lambda f: f.n >= 1 and f.degrees[0] > 0 and f.count() > 0,
    "btij": lambda f: f.b + f.n > 0,
    "btd": lambda f: f.n >= 0 and f.feasible() and f.count() > 0,
    "tmij": lambda f: f.i + f.j > 0,
    "tmn": lambda f: f.n >= 1,
    "tmd": lambda f: f.n >= 1 and f.count() > 0,
    "ncm_rotation": lambda f: f.j >= 1,
}


def reference_grid():
    """(theorem, params) over small sizes, out-of-range values included."""
    lists = [d for length in range(6)
             for d in itertools.product(range(4), repeat=length)]
    for n in range(-1, 11):
        yield "ord", dict(n=n)
        for k in range(-1, n + 3):
            for theorem in ("ord_leaves", "ext", "int"):
                yield theorem, dict(n=n, k=k)
    for d in lists:
        yield "ord_deg", dict(degrees=d)
        yield "int_deg", dict(degrees=d)
        for delta in range(len(d) + 2):
            yield "delta", dict(degrees=d, delta=delta)
        for b in range(6):
            yield "btd", dict(b=b, degrees=d)
        for j in range(4):
            yield "tmd", dict(j=j, degrees=d)
    yield from (("btij", dict(b=b, n=n)) for b in range(7) for n in range(7))
    yield from (("tmij", dict(i=i, j=j)) for i in range(5) for j in range(5))
    yield from (("tmn", dict(n=n)) for n in range(7))
    yield from (("ncm_rotation", dict(j=j)) for j in range(9))


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
        for theorem, params in [("ord", dict(n=0)), ("int_deg", dict(degrees=(2,))),
                                ("btd", dict(b=2, degrees=())),
                                ("ord_leaves", dict(n=5, k=6))]:
            with pytest.raises(InfeasibleParams):
                build_instance(theorem, **params)

    def test_parameters_are_the_family_fields(self):
        for params in ({}, {"n": 3, "k": 2}, {"k": 2}):
            with pytest.raises(InfeasibleParams, match=r"takes the parameters \(n\)"):
                build_instance("ord", **params)
        with pytest.raises(InfeasibleParams, match=r"\(n, k\), not \(n\)"):
            build_instance("ord_leaves", n=4)

    def test_word_length_bound_is_a_size_guard(self):
        """Refused before the q-product is built, and not as out of range."""
        limit = csp.MAX_QPRODUCT_WORD_LENGTH
        assert build_instance("btij", b=limit, n=0).expr.degree == 0
        for theorem, params in [("btij", dict(b=limit + 1, n=0)),
                                ("ord", dict(n=limit // 2 + 1)),
                                ("tmn", dict(n=10 ** 9))]:
            # a size guard, not wrapped as an InfeasibleParams
            with pytest.raises(csp.SizeGuardExceeded,
                               match=f"MAX_QPRODUCT_WORD_LENGTH = {limit}"):
                build_instance(theorem, **params)

    def test_range_is_the_reference_ranges(self):
        """A theorem is built exactly where its reference range holds, with
        the order of its family's rotation."""
        cases = list(reference_grid())
        assert len(cases) == 25_890
        accepted = 0
        for theorem, params in cases:
            spec = THEOREMS[theorem]
            try:
                family = family_from_descriptor({**params, "family": spec.family.name})
            except ValueError:
                family = None
            if family is not None and REFERENCE_RANGES[theorem](family):
                inst = build_instance(theorem, **params)
                assert inst.order == family.order(family.kind) > 0, (theorem, params)
                accepted += 1
            else:
                with pytest.raises(InfeasibleParams):
                    build_instance(theorem, **params)
        assert accepted == 1037

    def test_a_closed_form_of_zero_is_checked_not_refused(self, monkeypatch):
        # the range reads no closed form, so a wrong one shows as a
        # disagreement instead of an instance refused as out of range
        monkeypatch.setattr(ByDegrees, "fix_closed", lambda self, d: 0)
        report = verify(build_instance("ord_deg", degrees=(2, 1)), ALL_EXPONENTS)
        assert [(r["brute"], r["closed"], r["poly_value"]) for r in report.rows] == \
            [(2, 0, 2), (0, 0, 0), (2, 0, 2), (0, 0, 0)]
        assert not report.overall

    def test_all_theorem_ids_buildable(self):
        assert set(SMALL_PARAMS) == set(THEOREM_IDS)
        for theorem, p in SMALL_PARAMS.items():
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

    def test_one_evaluation_per_root_order(self, monkeypatch):
        # the 12 exponents of ord at n = 6 have 6 root orders d, one per
        # divisor of 12; each check runs once per d, and every row still
        # equals the three counts made for its own e
        inst = build_instance("ord", n=6)
        orders = []

        def counted(expr, d):
            orders.append(d)
            return eval_expr_at_root(expr, d)

        monkeypatch.setattr(csp, "eval_expr_at_root", counted)
        report = verify(inst, ALL_EXPONENTS)
        assert sorted(orders) == [1, 2, 3, 4, 6, 12]
        for row in report.rows:
            query = FixQuery(inst.family, inst.kind, row["e"])
            assert (row["brute"], row["closed"], row["poly_value"]) == (
                fix_count_bruteforce(query), fix_count_closed(query),
                eval_expr_at_root(inst.expr, row["d"]))
        assert len(report.rows) == 12 and report.overall

    def test_root_values_never_expand_the_polynomial(self, monkeypatch):
        # The third check must not be polynomial() again: with expansion and
        # long division refused (bar cyclotomic's own construction), every
        # row of every theorem still agrees.
        construction = qseries.cyclotomic.__wrapped__.__code__
        division = QPolynomial.__divmod__

        def refuse(*args):
            raise AssertionError("a root value expanded the q-product")

        def divmod_in_cyclotomic(a, b):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not construction:
                frame = frame.f_back
            if frame is None:
                raise AssertionError("a root value used long division")
            return division(a, b)

        qseries.cyclotomic.cache_clear()
        monkeypatch.setattr(qseries, "to_polynomial", refuse)
        monkeypatch.setattr(csp, "to_polynomial", refuse)
        monkeypatch.setattr(QPolynomial, "__divmod__", divmod_in_cyclotomic)
        instances = list(SMALL_PARAMS.items()) + [
            ("ord", dict(n=6)), ("ord_leaves", dict(n=6, k=4)),
            ("btij", dict(b=7, n=0)), ("btij", dict(b=3, n=2)),
            ("tmn", dict(n=3)), ("tmij", dict(i=2, j=1)),
            ("ncm_rotation", dict(j=5))]
        for theorem, params in instances:
            report = verify(build_instance(theorem, **params), ALL_EXPONENTS)
            assert report.overall, (theorem, params)

    def test_report_serialization(self):
        report = verify(build_instance("ord", n=3), ALL_EXPONENTS)
        data = json.loads(report.to_json())
        assert data["theorem"] == "ord" and data["overall"] is True


class TestSizeGuard:
    def test_guard_trips(self):
        with pytest.raises(SizeGuardExceeded):
            verify(build_instance("ord", n=11))

    def test_guard_override(self):
        report = verify(build_instance("ord", n=11), DIVISORS, size_guard=11)
        assert report.overall

    def test_override_argument(self):
        from sieveforest.trees import AllTrees
        with pytest.raises(SizeGuardExceeded):
            check_size_guard(AllTrees(4), override=3)
        check_size_guard(AllTrees(3), override=3)

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

    def test_refusals_name_the_identity_and_its_n(self):
        for which, n, error, reason in (
                (REFINED_LEAVES, 1, InfeasibleParams, "needs n >= 2"),
                (CHU_VANDERMONDE_TM, 0, InfeasibleParams, "needs n >= 1"),
                (CHU_VANDERMONDE_TM, 300, SizeGuardExceeded, "MAX_POLY_DEGREE"),
                (REFINED_LEAVES, 300_000_000, SizeGuardExceeded,
                 "MAX_QPRODUCT_WORD_LENGTH")):
            with pytest.raises(error, match=f"^{which} with n = {n}: .*{reason}"):
                check_sum_identity(which, n)
