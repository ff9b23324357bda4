import functools
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sieveforest.qseries import (NonIntegerValue, NotPolynomial, PoleAtRoot,
                                 QPolynomial, QProductExpr, cyclotomic,
                                 eval_at_primitive_root, eval_expr_at_root,
                                 q_binomial, q_int, q_multinomial,
                                 shape_predicates, to_polynomial)


def reference_polynomial(expr: QProductExpr) -> QPolynomial:
    """The expansion by its definition: multiply out every [a]_q, then
    long-divide the numerator by the denominator."""
    num = QPolynomial((1,))
    for a in expr.num:
        num *= q_int(a)
    den = QPolynomial((1,))
    for b in expr.den:
        den *= q_int(b)
    quo = num // den
    scaled = [expr.scalar * c for c in (0,) * expr.shift + quo.coeffs]
    if any(c.denominator != 1 for c in scaled):
        raise NotPolynomial(f"scalar {expr.scalar} does not clear: {quo}")
    return QPolynomial([int(c) for c in scaled])


def outcome(fn, *args):
    """fn(*args), or the type of the exception it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


# Products of q-multinomials times a few extra [a]_q / [b]_q, with a random
# shift and scalar: polynomials and non-polynomials alike.
q_products = st.builds(
    lambda factors, num, den, shift, scalar: functools.reduce(
        operator.mul, factors, QProductExpr(shift, num, den, scalar)),
    st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=3).map(
        lambda parts: q_multinomial(sum(parts), parts)), max_size=2),
    st.lists(st.integers(1, 10), max_size=3),
    st.lists(st.integers(1, 10), max_size=3),
    st.integers(0, 4),
    st.fractions(-3, 3, max_denominator=3))


class TestQPolynomial:
    def test_trailing_zeros_stripped(self):
        assert QPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
        assert QPolynomial((0, 0)).coeffs == ()

    def test_arithmetic(self):
        p = QPolynomial((1, 1))
        assert (p * p).coeffs == (1, 2, 1)
        assert (p + p).coeffs == (2, 2)
        assert (p - p).is_zero

    def test_exact_division(self):
        num = q_int(6) * q_int(4)
        quo = num // q_int(2)
        assert quo * q_int(2) == num

    def test_division_remainder(self):
        q, r = divmod(QPolynomial((0, 0, 1)), QPolynomial((1, 1)))
        assert q * QPolynomial((1, 1)) + r == QPolynomial((0, 0, 1))

    def test_str_ascending(self):
        assert str(QPolynomial((1, 0, 2, 1))) == "1 + 2q^2 + q^3"
        assert str(QPolynomial(())) == "0"

    def test_at_one(self):
        assert q_int(7).at_one() == 7

    @given(st.lists(st.integers(-9, 9), max_size=6),
           st.lists(st.integers(-9, 9), max_size=6))
    def test_product_at_one_commutes(self, a, b):
        p, q = QPolynomial(a), QPolynomial(b)
        assert (p * q).at_one() == p.at_one() * q.at_one()


class TestCyclotomic:
    def test_small_values(self):
        assert cyclotomic(1).coeffs == (-1, 1)
        assert cyclotomic(2).coeffs == (1, 1)
        assert cyclotomic(4).coeffs == (1, 0, 1)
        assert cyclotomic(6).coeffs == (1, -1, 1)
        assert cyclotomic(12).coeffs == (1, 0, -1, 0, 1)

    def test_product_over_divisors(self):
        for m in range(1, 13):
            prod = QPolynomial((1,))
            for d in range(1, m + 1):
                if m % d == 0:
                    prod = prod * cyclotomic(d)
            target = QPolynomial((-1,) + (0,) * (m - 1) + (1,))
            assert prod == target


class TestQIntegers:
    def test_q_int(self):
        assert q_int(4).coeffs == (1, 1, 1, 1)

    def test_q_binomial_42(self):
        assert to_polynomial(q_binomial(4, 2)).coeffs == (1, 1, 2, 1, 1)

    def test_q_multinomial_matches_binomial_product(self):
        lhs = to_polynomial(q_multinomial(5, (2, 2, 1)))
        rhs = to_polynomial(q_binomial(5, 2) * q_binomial(3, 2))
        assert lhs == rhs

    def test_expr_at_one(self):
        assert q_binomial(6, 3).at_one() == Fraction(20)


class TestEvaluation:
    def test_ord3_example(self):
        expr = q_binomial(6, 3) * QProductExpr(den=(4,))
        poly = to_polynomial(expr)
        assert poly.coeffs == (1, 0, 1, 1, 1, 0, 1)
        values = [eval_at_primitive_root(poly, 6 // __import__("math").gcd(e, 6))
                  if e else poly.at_one() for e in range(6)]
        assert values == [5, 0, 2, 3, 2, 0]

    def test_expr_route_matches_polynomial_route(self):
        expr = q_binomial(6, 3) * QProductExpr(den=(4,))
        poly = to_polynomial(expr)
        for d in (1, 2, 3, 6):
            assert eval_expr_at_root(expr, d) == eval_at_primitive_root(poly, d)

    def test_pole_detected(self):
        with pytest.raises(PoleAtRoot):
            eval_expr_at_root(QProductExpr(den=(2,)), 2)

    def test_not_polynomial(self):
        with pytest.raises(NotPolynomial):
            to_polynomial(QProductExpr(num=(2,), den=(3,)))

    def test_non_integer_values_refused(self):
        # [2]_q / [3]_q is 2/3 at q = 1
        with pytest.raises(NonIntegerValue, match="2/3"):
            eval_expr_at_root(QProductExpr(num=(2,), den=(3,)), 1)
        # 1 + q is -q^2 at a primitive cube root q
        with pytest.raises(NonIntegerValue, match="irrational"):
            eval_expr_at_root(QProductExpr(num=(2,)), 3)
        with pytest.raises(NonIntegerValue, match="not constant"):
            eval_at_primitive_root(q_int(2), 3)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 7), st.integers(1, 7), st.data())
    def test_binomial_expr_eval_agrees(self, k, extra, data):
        # integrality at a d-th root of unity is guaranteed when d | m
        m = k + extra
        d = data.draw(st.sampled_from([p for p in range(1, m + 1) if m % p == 0]))
        expr = q_binomial(m, k)
        poly = to_polynomial(expr)
        assert eval_expr_at_root(expr, d) == eval_at_primitive_root(poly, d)

    @settings(deadline=None, max_examples=300)
    @given(q_products)
    def test_expansion_and_root_values_match_the_reference(self, expr):
        ref = outcome(reference_polynomial, expr)
        assert outcome(to_polynomial, expr) == ref
        if ref is NotPolynomial:
            return
        for d in range(1, ref.degree + 3):
            assert (outcome(eval_expr_at_root, expr, d)
                    == outcome(eval_at_primitive_root, ref, d)), d

    def test_evaluation_at_one_is_coefficient_sum(self):
        poly = QPolynomial((3, -1, 4))
        assert eval_at_primitive_root(poly, 1) == 6


class TestShapePredicates:
    def test_reciprocal_and_unimodal(self):
        shapes = shape_predicates(to_polynomial(q_binomial(4, 2)))
        assert shapes == {"is_reciprocal": True, "is_unimodal": True,
                          "nonneg": True}

    def test_one_plus_q_cubed_not_unimodal(self):
        # single-peak reading: the interior zero between the two ones breaks it
        shapes = shape_predicates(QPolynomial((1, 0, 0, 1)))
        assert shapes["is_reciprocal"] is True
        assert shapes["is_unimodal"] is False

    def test_negative_coefficient(self):
        assert shape_predicates(QPolynomial((1, -1)))["nonneg"] is False
