"""The sieving claims past enumeration: closed form against root value.

Above the size guard the brute force cannot run, but the other two checks
can: the closed forms are products of binomials, and `eval_expr_at_root`
never expands the q-product.  For every theorem, at every d dividing the
order, the closed fixed-point count must equal the q-product at a primitive
d-th root of unity.  Size theorems run up to n = 1,000; degree theorems
take distributions by evenly spaced draws, as the benchmark's sweeps do, up
to n = 25.  The largest n per theorem is recorded in README.
"""
import pytest

from sieveforest.csp import THEOREM_IDS, build_instance
from sieveforest.maps import btree_degree_distributions
from sieveforest.qseries import eval_expr_at_root
from sieveforest.rotations import FixQuery, fix_count_closed
from sieveforest.trees import degree_distributions

SIZES = (2, 3, 7, 12, 30, 60, 97, 120, 199, 200, 360, 500, 720, 997, 1000)
DEGREE_SIZES = (4, 9, 12, 16, 20, 25)
DRAWS = 4


def spaced(items, count=DRAWS):
    """At most `count` evenly spaced members of a list."""
    items = list(items)
    if len(items) <= count:
        return items
    return [items[i * len(items) // count] for i in range(count)]


def size_params(theorem):
    for n in SIZES:
        if theorem in ("ord", "tmn"):
            yield {"n": n}
        elif theorem in ("ord_leaves", "ext", "int"):
            for k in sorted({2, max(2, n // 2), n}):
                yield {"n": n, "k": k}
        elif theorem == "ncm_rotation":
            yield {"j": n}
        elif theorem == "btij":
            for b in (1, n):
                yield {"b": b, "n": n}
        elif theorem == "tmij":
            for i in sorted({0, n // 2, n}):
                yield {"i": i, "j": n - i}


def degree_params(theorem):
    for n in DEGREE_SIZES:
        if theorem in ("ord_deg", "int_deg"):
            for degrees in spaced(degree_distributions(n)):
                yield {"degrees": degrees}
        elif theorem == "delta":
            for degrees in spaced(degree_distributions(n)):
                present = [i for i, c in enumerate(degrees, start=1) if c]
                for delta in sorted({present[0], present[-1]}):
                    yield {"degrees": degrees, "delta": delta}
        elif theorem == "btd":
            for b in sorted({1, n // 2, n}):
                for degrees in spaced(btree_degree_distributions(b, n - b)):
                    yield {"b": b, "degrees": degrees}
        elif theorem == "tmd":
            for j in sorted({1, n // 4, n // 2}):
                for degrees in spaced(btree_degree_distributions(2 * j, n - j)):
                    yield {"j": j, "degrees": degrees}


def instances(theorem):
    yield from size_params(theorem)
    yield from degree_params(theorem)


@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_closed_form_equals_root_value(theorem):
    checked = 0
    for params in instances(theorem):
        inst = build_instance(theorem, **params)
        for d in range(1, inst.order + 1):
            if inst.order % d == 0:
                closed = fix_count_closed(
                    FixQuery(inst.family, inst.kind, inst.order // d))
                assert closed == eval_expr_at_root(inst.expr, d), (params, d)
                checked += 1
    assert checked >= 20
