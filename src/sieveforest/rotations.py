"""The four cyclic rotation actions on rooted plane trees.

The ordinary rotation moves the root corner; it is implemented through the
edge-matching picture: each edge becomes an arc between its two tour
positions, all endpoints shift by +steps mod 2n, and the word is rebuilt.
The leaf / internal / degree-restricted rotations advance the root corner to
the next corner of the required degree class and are realized as ordinary
rotations by the corresponding number of corners.

Also here: orbit machinery, brute-force fixed-point counting (via a cached
orbit-period census per family), the closed-form fixed-point counts, and the
transfer check relating fixedness under a restricted rotation to fixedness
under a power of the ordinary one.
"""
from __future__ import annotations

import dataclasses
import functools
from fractions import Fraction
from math import comb, gcd

from . import trees
from .trees import (AllTrees, ByDegrees, ByLeaves, InternalRooted,
                    InternalRootedDeg, LeafRooted, LeafRootedDeg, PlaneTree,
                    RootDegree, TreeFamily, _as_int, _multinomial,
                    _single_offset_class, shift_root)


class IncompatibleKind(ValueError):
    """Rotation kind does not match the family's root constraint."""


class NoEligibleCorner(ValueError):
    """No corner of the required degree class exists (or the root is not one)."""


@dataclasses.dataclass(frozen=True)
class RotationKind:
    name: str
    delta: int = 0

    def __str__(self) -> str:
        return f"degree({self.delta})" if self.name == "degree" else self.name


ORDINARY = RotationKind("ordinary")
LEAF = RotationKind("leaf")
INTERNAL = RotationKind("internal")


def degree_kind(delta: int) -> RotationKind:
    if delta < 1:
        raise ValueError("degree class must be >= 1")
    return RotationKind("degree", delta)


def _eligible(kind: RotationKind, node_degree: int) -> bool:
    if kind.name == "leaf":
        return node_degree == 1
    if kind.name == "internal":
        return node_degree >= 2
    if kind.name == "degree":
        return node_degree == kind.delta
    raise IncompatibleKind(f"unknown kind {kind}")


def rotate(tree: PlaneTree, kind: RotationKind, steps: int) -> PlaneTree:
    """Apply the rotation `steps` times (negative steps invert)."""
    if kind.name == "ordinary":
        return PlaneTree(shift_root(tree.word, steps))
    p = trees._Parse(tree.word)
    size = len(tree.word)
    eligible = [c for c in range(size)
                if _eligible(kind, p.degree[p.node_at_corner[c]])]
    if not eligible or eligible[0] != 0:
        raise NoEligibleCorner(
            f"root corner of {tree} is not a {kind} corner")
    k = len(eligible)
    r = steps % k
    if r == 0:
        return tree
    # One step of the restricted rotation re-roots at the nearest eligible
    # corner in rotation order, i.e. the largest eligible tour position.
    target = eligible[(k - r) % k]
    return PlaneTree(shift_root(tree.word, size - target))


def orbit(tree: PlaneTree, kind: RotationKind) -> list[PlaneTree]:
    """The orbit in rotation order, starting at the given tree."""
    out = [tree]
    cur = rotate(tree, kind, 1)
    while cur != tree:
        out.append(cur)
        cur = rotate(cur, kind, 1)
    return out


def rotation_order(family: TreeFamily, kind: RotationKind) -> int:
    """Order of the cyclic group acting on the family."""
    n = family.n
    if kind.name == "ordinary":
        # The ordinary rotation acts on any word; its order is always 2n.
        return 2 * n
    if isinstance(family, (AllTrees, ByLeaves, ByDegrees)):
        raise IncompatibleKind(f"{kind} does not act on {family}")
    if isinstance(family, LeafRooted):
        if kind.name != "leaf":
            raise IncompatibleKind(f"{kind} does not act on {family}")
        return family.k
    if isinstance(family, InternalRooted):
        if kind.name != "internal":
            raise IncompatibleKind(f"{kind} does not act on {family}")
        return 2 * n - family.k
    if isinstance(family, LeafRootedDeg):
        if kind.name != "leaf" and not (kind.name == "degree" and kind.delta == 1):
            raise IncompatibleKind(f"{kind} does not act on {family}")
        return family.degrees[0]
    if isinstance(family, InternalRootedDeg):
        if kind.name != "internal":
            raise IncompatibleKind(f"{kind} does not act on {family}")
        return 2 * n - family.degrees[0]
    if isinstance(family, RootDegree):
        if kind.name != "degree" or kind.delta != family.delta:
            raise IncompatibleKind(f"{kind} does not act on {family}")
        return family.delta * family.degrees[family.delta - 1]
    raise TypeError(f"not a tree family: {family!r}")


def family_kind(family: TreeFamily) -> RotationKind:
    """The rotation naturally attached to a family's root constraint."""
    if isinstance(family, (AllTrees, ByLeaves, ByDegrees)):
        return ORDINARY
    if isinstance(family, LeafRooted):
        return LEAF
    if isinstance(family, (InternalRooted, InternalRootedDeg)):
        return INTERNAL
    if isinstance(family, LeafRootedDeg):
        return degree_kind(1)
    if isinstance(family, RootDegree):
        return degree_kind(family.delta)
    raise TypeError(f"not a tree family: {family!r}")


@dataclasses.dataclass(frozen=True)
class FixQuery:
    family: TreeFamily
    kind: RotationKind
    e: int


@functools.lru_cache(maxsize=None)
def _period_census(family: TreeFamily, kind: RotationKind) -> tuple[tuple[int, int], ...]:
    """((period, member count), ...) over the family; periods divide the order.

    A member's ordinary period P is the period of its arc-offset string.  The
    kind's `order` eligible corners repeat with it, so the least power of the
    restricted rotation fixing the member is order * P / 2n.
    """
    order = rotation_order(family, kind)
    size = 2 * family.n

    def period(t: PlaneTree) -> int:
        return order * trees.cyclic_period(trees.arc_offsets(t.word)) // size if size else 1

    return trees.period_census(trees.enumerate_family(family), period,
                               lambda t, p: rotate(t, kind, p))


def fix_count_bruteforce(query: FixQuery) -> int:
    """Count members fixed by the e-th power of the rotation, by enumeration."""
    census = _period_census(query.family, query.kind)
    e = query.e
    if e == 0:
        return sum(c for _, c in census)
    return sum(c for p, c in census if e % p == 0)


def _comb(a: int, b: int) -> int:
    """Binomial coefficient with the generalized upper-index convention.

    Degenerate formula parameters (tiny n) can produce a negative upper index;
    C(a, b) = (-1)^b * C(b-a-1, b) there, so e.g. C(-1, 0) = 1.
    """
    if b < 0:
        return 0
    if a >= 0:
        return comb(a, b) if b <= a else 0
    return (-1) ** b * comb(b - a - 1, b)


def _fix_all_trees(n: int, d: int) -> int:
    e = 2 * n // d if (2 * n) % d == 0 else None
    if d == 2 and n % 2 == 1:
        return _comb(n, (n + 1) // 2)
    if e is not None and e % 2 == 0 and e > 0:
        return _comb(e, e // 2)
    return 0


def _fix_by_leaves(n: int, k: int, d: int) -> int:
    if d == 2 and n % 2 == 1:
        if k % 2:
            return 0
        h = (n + 1) // 2
        return _as_int(Fraction(n, h - 1) * _comb(h - 1, k // 2 - 1) * _comb(h - 1, k // 2))
    if n % d == 0 and k % d == 0:
        return 2 * _comb(n // d - 1, k // d - 1) * _comb(n // d, k // d)
    return 0


def _fix_leaf_rooted(n: int, k: int, d: int) -> int:
    if d == 2 and n % 2 == 1:
        if k % 2:
            return 0
        h = (n + 1) // 2
        return _comb(h - 2, k // 2 - 1) * _comb(h - 1, k // 2 - 1)
    if n % d == 0:
        e = k // d
        return _comb(n // d - 1, e - 1) ** 2
    return 0


def _fix_internal_rooted(n: int, k: int, d: int) -> int:
    if d == 2 and n % 2 == 1:
        if k % 2:
            return 0
        h = (n - 1) // 2
        return _as_int(Fraction(2 * n - k, n - 1) * _comb(h, k // 2 - 1) * _comb(h, k // 2))
    if n % d == 0 and k % d == 0:
        return _as_int(Fraction(2 * n - k, n)
                       * _comb(n // d - 1, k // d - 1) * _comb(n // d, k // d))
    return 0


def _fix_by_degrees(degrees, n: int, d: int) -> int:
    if d == 2 and all(c % 2 == 0 for c in degrees):
        h = (n + 1) // 2
        return _as_int(Fraction(n, h) * _multinomial(h, [c // 2 for c in degrees]))
    ell = _single_offset_class(degrees, d)
    if ell is not None and n % d == 0:
        parts = [c // d for c in degrees]
        parts[ell - 1] = (degrees[ell - 1] - 1) // d
        return 2 * _multinomial(n // d, parts)
    return 0


def _fix_root_degree(degrees, delta: int, n: int, d: int) -> int:
    if d == 2 and all(c % 2 == 0 for c in degrees):
        parts = [c // 2 for c in degrees]
        parts[delta - 1] -= 1
        return delta * _multinomial((n + 1) // 2 - 1, parts)
    ell = _single_offset_class(degrees, d)
    if ell is not None and n % d == 0:
        parts = [c // d for c in degrees]
        parts[ell - 1] = (degrees[ell - 1] - 1) // d
        return _as_int(Fraction(delta * degrees[delta - 1], n)
                       * _multinomial(n // d, parts))
    return 0


def _fix_internal_rooted_deg(degrees, n: int, d: int) -> int:
    n1 = degrees[0]
    if d == 2 and all(c % 2 == 0 for c in degrees):
        return _as_int(Fraction(2 * n - n1, n + 1)
                       * _multinomial((n + 1) // 2, [c // 2 for c in degrees]))
    ell = _single_offset_class(degrees, d)
    if ell is not None and n % d == 0:
        parts = [c // d for c in degrees]
        parts[ell - 1] = (degrees[ell - 1] - 1) // d
        return _as_int(Fraction(2 * n - n1, n) * _multinomial(n // d, parts))
    return 0


def fix_count_closed(query: FixQuery) -> int:
    """Piecewise closed form for the fixed-point count of the e-th power.

    Exponents that do not divide the group order are first reduced to
    gcd(e, order): the generated subgroups coincide, so the fixed sets do.
    """
    family, e = query.family, query.e
    order = rotation_order(family, query.kind)
    if order == 0 or e % order == 0:
        return trees.closed_count(family)
    e = gcd(e, order)
    d = order // e
    n = family.n
    if n == 1 and isinstance(family, (ByLeaves, LeafRooted, InternalRooted)):
        # Degenerate leaf-count formulas (zero denominators); count directly.
        return fix_count_bruteforce(dataclasses.replace(query, e=e))
    if isinstance(family, AllTrees):
        return _fix_all_trees(n, d)
    if isinstance(family, ByLeaves):
        return _fix_by_leaves(n, family.k, d)
    if isinstance(family, LeafRooted):
        return _fix_leaf_rooted(n, family.k, d)
    if isinstance(family, InternalRooted):
        return _fix_internal_rooted(n, family.k, d)
    if isinstance(family, ByDegrees):
        return _fix_by_degrees(family.degrees, n, d)
    if isinstance(family, LeafRootedDeg):
        return _fix_root_degree(family.degrees, 1, n, d)
    if isinstance(family, RootDegree):
        return _fix_root_degree(family.degrees, family.delta, n, d)
    if isinstance(family, InternalRootedDeg):
        return _fix_internal_rooted_deg(family.degrees, n, d)
    raise TypeError(f"not a tree family: {family!r}")


def check_rotation_transfer(family: TreeFamily, e: int) -> bool:
    """Fixedness under the restricted rotation power e transfers to the
    ordinary rotation power 2n/d, d = order/e; when d does not divide 2n both
    fixed sets must be empty."""
    kind = family_kind(family)
    order = rotation_order(family, kind)
    if order % e != 0:
        raise ValueError(f"e={e} does not divide the group order {order}")
    d = order // e
    n = family.n
    for t in trees.enumerate_family(family):
        fixed_restricted = rotate(t, kind, e) == t
        if (2 * n) % d != 0:
            if fixed_restricted:
                return False
            continue
        fixed_ordinary = shift_root(t.word, 2 * n // d) == t.word
        if fixed_restricted != fixed_ordinary:
            return False
    return True
