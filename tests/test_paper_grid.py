"""The paper's grid of plane-tree results, checked against the theorem table.

The abstract names three sets of plane trees with n edges (all of them,
those with k leaves, those with a given degree distribution) and four
rotations (ordinary, leaf, internal, degree delta), and claims a sieving
result for each meaningful (set, action) pair: one whose order, the
corners the action visits, is the same on every member.  Each of the eight
meaningful pairs is a row of `csp.THEOREMS`, whose family must be the set
filtered to the trees whose root corner the action visits; (degrees, leaf)
is the `delta` row at delta = 1.  Each of the other four pairs has an
instance whose order varies across its members.
"""
import pytest

from sieveforest.csp import THEOREMS
from sieveforest.trees import (INTERNAL, LEAF, ORDINARY, AllTrees,
                               degree_distributions, degree_kind, stats)

MAX_N = 8


def all_trees(n):
    """(tree, stats) of every tree with n edges."""
    return [(t, stats(t)) for t in AllTrees(n).members()]


def leaves(st):
    return st.degrees[0] if st.degrees else 0


def sets(n):
    """(set name, parameters, predicate on stats) of every set at size n."""
    yield "all", {"n": n}, lambda st: True
    for k in range(n + 2):
        yield "leaves", {"n": n, "k": k}, lambda st, k=k: leaves(st) == k
    for degrees in degree_distributions(n):
        yield "degrees", {"degrees": degrees}, lambda st, d=degrees: st.degrees == d


def actions(set_name, params):
    """(action name, kind) of every action on the set: degree delta for
    each delta from 1 to n + 1."""
    yield "ordinary", ORDINARY
    yield "leaf", LEAF
    yield "internal", INTERNAL
    n = params.get("n")
    if n is None:
        n = sum(params["degrees"]) - 1
    for delta in range(1, n + 2):
        yield "degree", degree_kind(delta)


# (set, action) -> the row of `csp.THEOREMS` that claims it
GRID = {("all", "ordinary"): "ord",
        ("leaves", "ordinary"): "ord_leaves",
        ("leaves", "leaf"): "ext",
        ("leaves", "internal"): "int",
        ("degrees", "ordinary"): "ord_deg",
        ("degrees", "internal"): "int_deg",
        ("degrees", "degree"): "delta",
        ("degrees", "leaf"): "delta"}
NOT_MEANINGFUL = {("all", "leaf"), ("all", "internal"), ("all", "degree"),
                  ("leaves", "degree")}


def occurring(degrees):
    """The degrees some node has, given the degree counts."""
    return {d for d, count in enumerate(degrees, start=1) if count}


def row_family(set_name, params, action, kind):
    """The family of the pair's row, at the set's parameters."""
    if action == "leaf" and set_name == "degrees":
        params = {**params, "delta": 1}
    elif action == "degree":
        params = {**params, "delta": kind.delta}
    return THEOREMS[GRID[set_name, action]].family(**params)


def grid():
    """(n, set name, parameters, action, kind, members): every pair at every
    n <= MAX_N, its members the set's trees whose root corner the action
    visits."""
    for n in range(MAX_N + 1):
        trees = all_trees(n)
        for set_name, params, in_set in sets(n):
            for action, kind in actions(set_name, params):
                yield n, set_name, params, action, kind, [
                    t for t, st in trees if in_set(st) and kind.eligible(st.root_degree)]


def test_grid_names_every_pair_once():
    pairs = {(s, a) for s in ("all", "leaves", "degrees")
             for a in ("ordinary", "leaf", "internal", "degree")}
    assert GRID.keys() | NOT_MEANINGFUL == pairs
    assert not GRID.keys() & NOT_MEANINGFUL
    assert set(GRID.values()) == {row for row, spec in THEOREMS.items()
                                  if spec.family.__module__ == "sieveforest.trees"}


def test_each_meaningful_pair_is_its_row_family():
    """The row family lists exactly the filtered trees, in word order,
    under the action's kind, and every member has the family's order."""
    checked = set()
    for n, set_name, params, action, kind, expected in grid():
        if (set_name, action) not in GRID:
            continue
        if action == "degree" and kind.delta not in occurring(params["degrees"]):
            # no node of degree delta: no tree to root, and no row instance
            assert expected == [], (params, kind)
            continue
        family = row_family(set_name, params, action, kind)
        # the same corners visited: `delta` at delta = 1 is the leaf action
        assert all(family.kind.eligible(d) == kind.eligible(d)
                   for d in range(n + 2)), (family, kind)
        members = list(family.members())
        assert members == expected, (family, n)
        if members:
            assert {kind.tree_corners(t.node_degrees) for t in members} == \
                {family.order()}, family
        checked.add((set_name, action))
    assert checked == GRID.keys()


@pytest.mark.parametrize("pair", sorted(NOT_MEANINGFUL))
def test_each_other_pair_has_an_instance_of_varying_order(pair):
    varying = [(n, params, kind) for n, set_name, params, action, kind, members in grid()
               if (set_name, action) == pair
               and len({kind.tree_corners(t.node_degrees) for t in members}) > 1]
    assert varying, pair
