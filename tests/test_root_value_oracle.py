"""The root value by residue class against the route that multiplies out
every factor (`root_reference.py`): the same value, or the same exception
type and message, on every (expression, d) pair of the benchmark's two
sweeps, on drawn products with large shifts, orders above every index,
poles and irrational values, and on `ord` at n = 2,000 at all of its root
orders."""
import functools
import operator

from hypothesis import example, given, settings
from hypothesis import strategies as st

from root_reference import reference_root_value
from sieveforest.csp import InfeasibleParams, build_instance
from sieveforest.maps import btree_degree_distributions
from sieveforest.qseries import QProductExpr, eval_expr_at_root, q_multinomial
from sieveforest.trees import degree_distributions


def outcome(fn, *args):
    """fn(*args), or the type and message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _built(theorem, params):
    for p in params:
        try:
            yield build_instance(theorem, **p)
        except InfeasibleParams:
            pass


def sweep_instances():
    """The instances of the benchmark's `tree_sweep` and `btree_sweep`:
    `ord` n <= 10, the leaf families n <= 9, `ord_deg` and `int_deg` n <= 8,
    `delta` n <= 7; `btij` b + 2n <= 13, `btd` b + n <= 8, `tmij`, `tmn`
    and `tmd` totals <= 5, `ncm_rotation` j <= 8, each of these from size
    2 up."""
    yield from _built("ord", [{"n": n} for n in range(1, 11)])
    for theorem in ("ord_leaves", "ext", "int"):
        yield from _built(theorem, [{"n": n, "k": k} for n in range(2, 10)
                                    for k in range(2, n + 1)])
    for theorem in ("ord_deg", "int_deg"):
        yield from _built(theorem, [{"degrees": d} for n in range(1, 9)
                                    for d in degree_distributions(n)])
    yield from _built("delta", [{"degrees": d, "delta": delta}
                                for n in range(1, 8) for d in degree_distributions(n)
                                for delta, c in enumerate(d, start=1) if c])
    yield from _built("btij", [{"b": b, "n": n} for n in range(0, 7)
                               for b in range(0, 14 - 2 * n) if b + n >= 2])
    yield from _built("btd", [{"b": b, "degrees": d} for b in range(0, 9)
                              for n in range(0, 9 - b) if b + n >= 2
                              for d in btree_degree_distributions(b, n)])
    yield from _built("tmn", [{"n": t} for t in range(2, 6)])
    yield from _built("tmij", [{"i": i, "j": t - i} for t in range(2, 6)
                               for i in range(t + 1)])
    yield from _built("tmd", [{"j": j, "degrees": d} for j in range(0, 6)
                              for i in range(0, 6 - j) if i + j >= 2
                              for d in btree_degree_distributions(2 * j, i)])
    yield from _built("ncm_rotation", [{"j": j} for j in range(2, 9)])


def test_every_sweep_root_value_matches_the_reference():
    instances = list(sweep_instances())
    pairs = [(inst.expr, d) for inst in instances
             for d in range(1, inst.order + 1) if inst.order % d == 0]
    # 282 + 389 instances, as bench/README.md counts them
    assert (len(instances), len(pairs)) == (671, 2407)
    for expr, d in pairs:
        assert eval_expr_at_root(expr, d) == reference_root_value(expr, d), (expr, d)


# Products of q-multinomials times extra [a]_q / [b]_q that need not cancel,
# with shifts past the root order and scalars: polynomials, poles, irrational
# and non-integer values alike.
q_products = st.builds(
    lambda factors, num, den, shift, scalar: functools.reduce(
        operator.mul, factors, QProductExpr(shift, num, den, scalar)),
    st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=3).map(
        lambda parts: q_multinomial(sum(parts), parts)), max_size=2),
    st.lists(st.integers(1, 14), max_size=5),
    st.lists(st.integers(1, 14), max_size=5),
    st.integers(0, 60),
    st.one_of(st.just(1), st.fractions(-4, 4, max_denominator=4)))


@settings(deadline=None, max_examples=300)
@given(q_products, st.integers(1, 40))
@example(QProductExpr(7, (5, 9), (3,)), 4)          # shift >= d
@example(QProductExpr(0, (2, 3), (1,)), 20)         # d above every index
@example(QProductExpr(0, (3,), (6, 9)), 3)          # a pole
@example(QProductExpr(0, (2,), ()), 3)              # irrational
@example(QProductExpr(0, (4,), (8,)), 4)            # the paired ratio 1/2
@example(QProductExpr(0, (2,), (3,), 3), 1)         # 2 at q = 1, scalar 3
def test_drawn_root_values_match_the_reference(expr, d):
    assert outcome(eval_expr_at_root, expr, d) == outcome(reference_root_value, expr, d)


def test_ord_at_n_2000_matches_the_reference_at_every_root_order():
    inst = build_instance("ord", n=2000)
    orders = [d for d in range(1, inst.order + 1) if inst.order % d == 0]
    assert len(orders) == 24
    for d in orders:
        assert eval_expr_at_root(inst.expr, d) == reference_root_value(inst.expr, d), d
