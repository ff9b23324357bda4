"""Every family's closed forms against the formulas they replaced.

Before the b-tree formulas served plane trees and matchings as b-trees with
no buds, each family carried its own `count()` and `fix_closed(d)`: a
fixed-point formula written three times (all trees and matchings with
binomials, b-trees with a factorial multinomial) and a degree formula
written twice (plane trees by degrees, b-trees by degrees).  Those bodies
are kept below, value for value, as the oracle that `count()` and
`fix_closed(d)` at every d >= 2 dividing the order must match.
"""
from math import comb, factorial, prod

import pytest

from sieveforest import maps, trees
from sieveforest.maps import BT, BTDeg, NCM, TMDeg, TMij, TMn
from sieveforest.rotations import FixQuery, fix_count_closed
from sieveforest.trees import (AllTrees, ByDegrees, ByLeaves, InternalRooted,
                               InternalRootedDeg, LeafRooted, LeafRootedDeg,
                               RootDegree, degree_distributions)

# ---------------------------------------------------------------------------
# Reference formulas


def ref_catalan(n):
    return comb(2 * n, n) // (n + 1)


def ref_as_int(num, den):
    q, r = divmod(num, den)
    assert r == 0, (num, den)
    return q


def ref_multinomial(total, parts):
    parts = list(parts)
    if any(p < 0 for p in parts) or sum(parts) != total:
        return 0
    out = factorial(total)
    for p in parts:
        out //= factorial(p)
    return out


def ref_single_offset_class(degrees, d):
    found = None
    for i, c in enumerate(degrees, start=1):
        r = c % d
        if r == 0:
            continue
        if r == 1 and found is None:
            found = i
        else:
            return None
    return found


def ref_degrees_feasible(degrees):
    total = sum(i * c for i, c in enumerate(degrees, start=1))
    return total % 2 == 0 and sum(degrees) == total // 2 + 1 and total > 0


def ref_btdeg_feasible(b, degrees):
    n = sum(degrees) - 1
    degsum = sum(i * c for i, c in enumerate(degrees, start=1))
    return degsum == 2 * n + b and \
        -b + sum((i - 2) * c for i, c in enumerate(degrees, start=1)) == -2


def ref_all_trees(n, d):
    if d is None:
        return ref_catalan(n)
    if d == 2 and n % 2 == 1:
        return comb(n, (n + 1) // 2)
    return comb(2 * n // d, n // d) if n % d == 0 else 0


def ref_leaf_count(f, d):
    n, k = f.n, f.k
    if d is None:
        if n <= 1:
            return int(k == 2 * n and f.kind.eligible(n))
        if not 2 <= k <= n + 1:
            return 0
        return ref_as_int(f.order() * comb(n - 1, k - 2) * comb(n, k),
                          n * (n - 1))
    if n <= 1 or not 2 <= k <= n + 1:
        return ref_leaf_count(f, None)
    if d == 2 and n % 2 == 1:
        if k % 2:
            return 0
        h = (n - 1) // 2
        part, den = comb(h, k // 2 - 1) * comb(h, k // 2), n - 1
    elif n % d == 0 and k % d == 0:
        part, den = comb(n // d - 1, k // d - 1) * comb(n // d, k // d), n
    else:
        return 0
    return ref_as_int(f.order() * part, den)


def ref_by_degrees(f, d):
    degrees, n = f.degrees, f.n
    if not ref_degrees_feasible(degrees):
        return 0
    if d is None:
        return ref_as_int(f.order() * factorial(n - 1),
                          prod(map(factorial, degrees)))
    if d == 2 and all(c % 2 == 0 for c in degrees):
        part = ref_multinomial((n + 1) // 2, [c // 2 for c in degrees])
        den = n + 1
    else:
        ell = ref_single_offset_class(degrees, d)
        if ell is None or n % d:
            return 0
        parts = [c // d for c in degrees]
        parts[ell - 1] = (degrees[ell - 1] - 1) // d
        part, den = ref_multinomial(n // d, parts), n
    return ref_as_int(f.order() * part, den)


def ref_bt(b, n, d):
    if d is None:
        return ref_multinomial(2 * n + b, (b, n, n)) // (n + 1)
    if d == 2 and n % 2 == 1:
        return ref_multinomial(n + b // 2, (b // 2, (n - 1) // 2, (n + 1) // 2))
    if n % d == 0 and b % d == 0:
        return ref_multinomial((2 * n + b) // d, (b // d, n // d, n // d))
    return 0


def ref_btdeg(b, degrees, d):
    if not ref_btdeg_feasible(b, degrees):
        return 0
    n = sum(degrees) - 1
    if d is None:
        return ref_as_int((2 * n + b) * ref_multinomial(b + n + 1, (b,) + degrees),
                          (n + b) * (n + b + 1))
    if d == 2 and b % 2 == 0 and all(c % 2 == 0 for c in degrees):
        halves = (b // 2,) + tuple(c // 2 for c in degrees)
        return ref_as_int((2 * n + b) * ref_multinomial((b + n + 1) // 2, halves),
                          n + b + 1)
    ell = ref_single_offset_class(degrees, d)
    if ell is None or b % d:
        return 0
    parts = [b // d] + [c // d for c in degrees]
    parts[ell] = (degrees[ell - 1] - 1) // d
    return ref_as_int((2 * n + b) * ref_multinomial((n + b) // d, parts), n + b)


def ref_ncm(j, d):
    if d is None:
        return ref_catalan(j)
    if d == 2:
        return comb(j, (j + 1) // 2)
    return comb(2 * j // d, j // d) if j % d == 0 else 0


def ref_tmij(i, j, d):
    return ref_bt(2 * j, i, d) * ref_ncm(j, d)


def ref_tmn(n, d):
    if d is None:
        return ref_catalan(n) * ref_catalan(n + 1)
    return sum(ref_tmij(i, n - i, d) for i in range(n + 1))


# A family's reference count (d None) and fixed points at d.
REFERENCE = {
    AllTrees: lambda f, d: ref_all_trees(f.n, d),
    ByLeaves: ref_leaf_count,
    LeafRooted: ref_leaf_count,
    InternalRooted: ref_leaf_count,
    ByDegrees: ref_by_degrees,
    LeafRootedDeg: ref_by_degrees,
    InternalRootedDeg: ref_by_degrees,
    RootDegree: ref_by_degrees,
    BT: lambda f, d: ref_bt(f.b, f.n, d),
    BTDeg: lambda f, d: ref_btdeg(f.b, f.degrees, d),
    NCM: lambda f, d: ref_ncm(f.j, d),
    TMij: lambda f, d: ref_tmij(f.i, f.j, d),
    TMn: lambda f, d: ref_tmn(f.n, d),
    TMDeg: lambda f, d: ref_btdeg(2 * f.j, f.degrees, d) * ref_ncm(f.j, d),
}


def check_against_reference(family) -> int:
    """Compare count() and fix_closed(d) at every d >= 2 dividing the order
    with the reference; return the number of values compared."""
    ref = REFERENCE[type(family)]
    assert family.count() == ref(family, None), family
    order = family.order()
    checked = 1
    for d in range(2, order + 1):
        if order % d == 0:
            assert family.fix_closed(d) == ref(family, d), (family, d)
            checked += 1
    return checked


# ---------------------------------------------------------------------------
# The families


def size_families():
    for n in range(31):
        yield AllTrees(n)
        yield NCM(n)
        for k in range(-1, n + 3):
            for cls in (ByLeaves, LeafRooted, InternalRooted):
                family = cls(n, k)
                try:
                    family.order()
                except ValueError:  # a negative order: no members
                    assert family.count() == ref_leaf_count(family, None) == 0
                    continue
                yield family
    for b in range(11):
        for n in range(11):
            yield BT(b, n)
    for i in range(7):
        for j in range(7):
            yield TMij(i, j)
    for n in range(16):
        yield TMn(n)


def degree_families():
    for n in range(1, 10):
        for degrees in degree_distributions(n):
            yield ByDegrees(degrees)
            yield InternalRootedDeg(degrees)
            if degrees[0]:
                yield LeafRootedDeg(degrees)
            for delta, c in enumerate(degrees, start=1):
                if c:
                    yield RootDegree(degrees, delta)
    for b in range(11):
        for n in range(11):
            for degrees in maps.btree_degree_distributions(b, n):
                yield BTDeg(b, degrees)
    for i in range(7):
        for j in range(7):
            for degrees in maps.btree_degree_distributions(2 * j, i):
                yield TMDeg(j, degrees)


# Lists at the edge of feasibility: the empty list, odd degree sums, too few
# or too many nodes for their degrees.  Most are infeasible for plane trees;
# some are b-trees with a few buds.  An infeasible list has no group in the
# word table, so it lists no members.
EDGE_LISTS = [(), (3,), (0, 1), (1,), (2,), (1, 1, 1), (0, 0, 2), (1, 1), (0, 2)]


def test_size_families_match_reference():
    checked = sum(map(check_against_reference, size_families()))
    assert checked > 3000


def test_degree_families_match_reference():
    checked = sum(map(check_against_reference, degree_families()))
    assert checked > 30000


@pytest.mark.parametrize("degrees", EDGE_LISTS)
def test_edge_degree_lists_match_reference(degrees):
    families = [ByDegrees(degrees), InternalRootedDeg(degrees),
                LeafRootedDeg(degrees)]
    families += [RootDegree(degrees, delta)
                 for delta, c in enumerate(degrees, start=1) if c]
    families += [BTDeg(b, degrees) for b in range(4)]
    families += [TMDeg(j, degrees) for j in range(3)]
    for family in families:
        ref = REFERENCE[type(family)]
        assert family.count() == ref(family, None), family
        assert len(list(family.members())) == ref(family, None), family
        for d in range(2, 7):
            assert family.fix_closed(d) == ref(family, d), (family, d)


def test_count_is_the_closed_form_at_d_1():
    for family in (AllTrees(7), ByLeaves(6, 3), ByDegrees((3, 1, 1)),
                   BT(3, 4), BTDeg(2, (3, 1, 1)), NCM(5), TMij(2, 3), TMn(4),
                   TMDeg(1, (3, 1, 1))):
        assert family.count() == family.fix_closed(1) == fix_count_closed(
            FixQuery(family, family.kind, 0)), family


def test_degree_count_takes_no_factorials(monkeypatch):
    """The d = 1 degree count goes through a multinomial of E + 1 whose
    binomials stay as small as the count, not through (E - 1)!: a path
    of a thousand degree-2 nodes counts at once."""
    def refuse(m):
        raise AssertionError(f"factorial({m})")
    monkeypatch.setattr(trees, "factorial", refuse, raising=False)
    assert ByDegrees((2, 1000)).count() == 1001
    family = BTDeg(2, (0, 1000))  # a path with a bud at each end
    assert family.count() == REFERENCE[BTDeg](family, None) > 0


def test_plane_trees_and_matchings_are_btrees_without_buds():
    for n in range(60):
        order = 2 * n
        for d in [1] + [d for d in range(2, order + 1) if order % d == 0]:
            assert (AllTrees(n).fix_closed(d) == NCM(n).fix_closed(d)
                    == BT(0, n).fix_closed(d)), (n, d)
    for n in range(1, 10):
        for degrees in degree_distributions(n):
            for d in range(1, 2 * n + 1):
                if 2 * n % d == 0:
                    assert (ByDegrees(degrees).fix_closed(d)
                            == BTDeg(0, degrees).fix_closed(d)), (degrees, d)


# ---------------------------------------------------------------------------
# Closed forms build no family objects


def test_tm_closed_forms_build_no_families(monkeypatch):
    """TMn and TMij answer every d dividing the order while building a
    TMij, BT or NCM raises."""
    families = {TMn(5): lambda d: ref_tmn(5, d),
                TMij(3, 2): lambda d: ref_tmij(3, 2, d)}

    def refuse(self):
        raise AssertionError(f"a closed form built {self!r}")
    for cls in (TMij, BT, NCM):
        monkeypatch.setattr(cls, "__post_init__", refuse)
    with pytest.raises(AssertionError):
        TMij(3, 2)
    for family, ref in families.items():
        order = family.order()
        assert family.count() == ref(None)
        for d in range(1, order + 1):
            if order % d == 0:
                assert family.fix_closed(d) == ref(d if d > 1 else None)
                assert fix_count_closed(FixQuery(family, None, order // d)) \
                    == family.fix_closed(d)
