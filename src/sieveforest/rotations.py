"""The four cyclic rotation actions on rooted plane trees, and the two
fixed-point counts of every family.

The ordinary rotation moves the root corner; it is implemented through the
edge-matching picture: each edge becomes an arc between its two tour
positions, all endpoints shift by +steps mod 2n, and the word is rebuilt.
The leaf / internal / degree-restricted rotations advance the root corner to
the next corner of the required degree class and are realized as ordinary
rotations by the corresponding number of corners.  A node of degree d has
d corners, so the node degrees alone give the number of eligible corners:
`rotate` reads those the tree's scan kept and counts them degree by degree
(`RotationKind.tree_corners`), with no call per node.
The kinds themselves (`RotationKind`, `ORDINARY`, `LEAF`, `INTERNAL`,
`degree_kind`) live in `trees`, whose families are rooted by them, and are
re-exported here.

Also here: orbits, the one cache of every family's period census, tree or
map, and the cached census of each word-table group under a restricted
kind, the two fixed-point counts of a `FixQuery` on any family (by
enumeration from the family's census, and from its closed form), and the
transfer check relating fixedness under a restricted rotation to fixedness
under a power of the ordinary one.

Each family is ordered and censused under its own kind only:
`Family.census()` reads `_period_census`, `family._census()` cached
under (family), and the censuses nest through it.  A plane-tree family's
census, like every word family's, sums the groups of the census table
(`trees._census_table(0, n)`) it admits.  Under the ordinary kind a group's
census is the table's; under a restricted kind it is `_group_census`, cached per
group and kind, which turns each member once, so the leaf-count and degree
families that share a group share its rotations.  `AllTrees` keeps the
census that lists and pairs every member, and turns those whose period is
below 2n.
"""
from __future__ import annotations

import functools
from math import gcd

from . import trees
from .trees import (INTERNAL, LEAF, ORDINARY, IncompatibleKind,  # noqa: F401
                    PlaneTree, RotationKind, _Value, degree_kind, shift_root)


class NoEligibleCorner(ValueError):
    """No corner of the required degree class exists (or the root is not one)."""


def rotate(tree: PlaneTree, kind: RotationKind, steps: int) -> PlaneTree:
    """Apply the rotation `steps` times (negative steps invert).  A rotation
    that gives back the same word returns `tree` itself.  A restricted
    kind reads the node degrees the tree's scan kept, and counts the
    corners it visits degree by degree (`RotationKind.tree_corners`); only
    a rotation that moves the root lists them corner by corner."""
    if kind.name != "ordinary":
        degree = tree.node_degrees
        if not (tree.word and kind.eligible(degree[0])):
            article = "an" if str(kind)[0] in "aeiou" else "a"
            raise NoEligibleCorner(
                f"root corner of {tree} is not {article} {kind} corner")
        k = kind.tree_corners(degree)
        if steps % k == 0:
            return tree
        visits = list(map(kind.eligible, degree))
        eligible = [c for c, node in enumerate(trees.corner_nodes(tree.word))
                    if visits[node]]
        # One step of the restricted rotation re-roots at the nearest
        # eligible corner in rotation order, i.e. the largest eligible tour
        # position.
        steps = len(tree.word) - eligible[-steps % k]
    word = shift_root(tree.word, steps)
    return tree if word == tree.word else PlaneTree(word)


def orbit(tree: PlaneTree, kind: RotationKind) -> list[PlaneTree]:
    """The orbit in rotation order, starting at the given tree."""
    out = [tree]
    cur = rotate(tree, kind, 1)
    while cur != tree:
        out.append(cur)
        cur = rotate(cur, kind, 1)
    return out


class FixQuery(_Value):
    """The e-th power of the family's rotation.  Its kind must be the
    family's own, None for a map family: any other is refused."""
    family: trees.Family
    kind: "RotationKind | None"
    e: int

    def __init__(self, family: trees.Family, kind: "RotationKind | None", e: int):
        if kind is not family.kind and kind != family.kind:
            raise IncompatibleKind(f"{kind} does not act on {family}")
        put = object.__setattr__
        put(self, "family", family)
        put(self, "kind", kind)
        put(self, "e", e)


@functools.lru_cache(maxsize=None)
def _period_census(family: trees.Family) -> tuple[tuple[int, int], ...]:
    """((period, member count), ...) over the family; periods divide the
    order: `family._census()`, the one cache of every family's census."""
    return family._census()


@functools.lru_cache(maxsize=None)
def _group_census(n: int, key: tuple,
                  kind: RotationKind) -> tuple[tuple[int, int], ...]:
    """The census under the restricted `kind` of the group `key` (degree
    distribution, root degree) of the plane-tree word table
    `trees._words_by_degrees(0, n)`.  The kind visits the same k corners
    of every member, so `trees.period_census` scales the period P the
    table records to k * P / 2n, and confirms it by one literal `rotate`
    of each member, built once."""
    words, periods = trees._words_by_degrees(0, n)[0][key]
    return trees.period_census(zip(map(PlaneTree, words), periods),
                               kind.corners(key[0]), lambda t, p: rotate(t, kind, p))


def fix_count_bruteforce(query: FixQuery) -> int:
    """Count members fixed by the e-th power of the rotation, by enumeration:
    those whose period, in the family's census, divides e."""
    census = query.family.census()
    return sum(c for p, c in census if query.e % p == 0)


def fix_count_closed(query: FixQuery) -> int:
    """The family's closed form for the fixed-point count of the e-th power.

    The e-th power generates the same subgroup as the gcd(e, order)-th, so
    the count depends only on d = order / gcd(e, order), the order of the
    root of unity; d = 1, as under a rotation of order 0, fixes the whole
    family.
    """
    order = query.family.order()
    return query.family.fix_closed(order // gcd(query.e, order) if order else 1)


def check_rotation_transfer(family: trees.Family, e: int) -> bool:
    """Fixedness under the restricted rotation power e transfers to the
    ordinary rotation power 2n/d, d = order/e; when d does not divide 2n both
    fixed sets must be empty."""
    kind = family.kind
    order = family.order()
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
