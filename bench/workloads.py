"""Workload definitions: the calls each workload makes, drawn from a seed.

Nothing here imports sieveforest.  A workload is a list of calls; each call is
a small JSON value that the worker turns into program calls.  The seed fixes
the order of the calls (within each theorem, in the sweeps) and, for
`qproduct_scale` and `cli_verify`, which members of each stratum are drawn.  Every call that any seed can draw is
covered by the record under `bench/record/`.
"""
from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("tree_sweep", "btree_sweep", "qproduct_scale", "cli_verify")


def canonical(value) -> str:
    """Stable text form of a call or an instance key."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def input_digest(workload: str, seed: int, calls: list) -> str:
    text = canonical({"workload": workload, "seed": seed, "calls": calls})
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def degree_distributions(nodes: int, degree_sum: int) -> list[tuple[int, ...]]:
    """Every (n_1, n_2, ...) with sum n_i = nodes and sum i*n_i = degree_sum.

    Trailing zeros are dropped, as the program normalises them.  Plane trees
    with n edges use (n + 1, 2n); b-trees with b buds use (n + 1, 2n + b).
    """
    out = []

    def rec(deg, counts, nodes_left, sum_left):
        if nodes_left == 0:
            if sum_left == 0:
                out.append(tuple(counts))
            return
        if deg > sum_left:
            return
        for c in range(min(nodes_left, sum_left // deg) + 1):
            rec(deg + 1, counts + [c], nodes_left - c, sum_left - deg * c)

    rec(1, [], nodes, degree_sum)
    trimmed = []
    for d in out:
        while d and d[-1] == 0:
            d = d[:-1]
        if d:
            trimmed.append(d)
    return sorted(set(trimmed))


def _spaced(items: list, count: int) -> list:
    """At most `count` evenly spaced members of a sorted list."""
    if len(items) <= count:
        return list(items)
    return [items[i * len(items) // count] for i in range(count)]


# ---------------------------------------------------------------------------
# tree_sweep and btree_sweep: fixed call sets, the seed orders them


# Both sweeps stop below the acceptance sweep's largest sizes: `ord` at
# n = 11 and 12, leaf families at n = 10, degree families at n = 9, `delta`
# at n = 8, and b-trees with b + 2n = 14 or b + n = 9.  Those took three
# quarters of each pass; shorter passes let a run take the median of several.


def tree_sweep_calls() -> list:
    """One call per theorem and size; degree families list their
    distributions inside the call."""
    calls = [["ord", {"n": n}] for n in range(1, 11)]
    for theorem in ("ord_leaves", "ext", "int"):
        calls += [[theorem, {"n": n, "k": k}]
                  for n in range(2, 10) for k in range(2, n + 1)]
    for theorem in ("ord_deg", "int_deg"):
        calls += [[theorem, {"n": n}] for n in range(1, 9)]
    calls += [["delta", {"n": n}] for n in range(1, 8)]
    return calls


def btree_sweep_calls() -> list:
    calls = [["btij", {"b": b, "n": n}]
             for n in range(0, 7) for b in range(0, 14 - 2 * n) if b + n]
    calls += [["btd", {"b": b, "n": n}]
              for b in range(0, 9) for n in range(0, 9 - b) if b + n]
    calls += [["tmn", {"n": t}] for t in range(1, 6)]
    calls += [["tmij", {"i": i, "j": t - i}]
              for t in range(1, 6) for i in range(t + 1)]
    calls += [["tmd", {"j": j, "i": i}]
              for j in range(0, 6) for i in range(0, 6 - j)]
    calls += [["ncm_rotation", {"j": j}] for j in range(1, 9)]
    # Calls of size 0 and 1 are left out.  With them, the median call sat
    # where the latencies jump from about 1.3 to 2 ms, so that noise of a
    # few ranks moved `call_p50_ms` by a fifth.
    return [call for call in calls if _sweep_size(call) >= 2]


def _sweep_size(call) -> int:
    p = call[1]
    return max(p.get("n", 0) + p.get("b", 0), p.get("i", 0) + p.get("j", 0),
               p.get("j", 0))


# ---------------------------------------------------------------------------
# qproduct_scale: stratified draws from a fixed pool of instances


def _instance(theorem, **params):
    return [theorem, params]


def qproduct_strata() -> list:
    """(label, candidate instances, draws) triples.

    Most instances are fixed; the seed draws only among cheap ones.  A
    drawn instance costing as much as the median call or more would make
    `call_p50_ms` or `call_p90_ms` depend on the seed: the cost of one
    instance varies tenfold with its parameters and with the divisors of
    its order.  So:

    - fixed, the heaviest: `ord` n 16-22, `ncm_rotation` j 15-20 and `tmn`
      n 11-14, which hold every call above the 90th percentile;
    - fixed, mid-cost: `ord_leaves`, `ext`, `int` at each n in 11-24 with
      k = (n + 2) // 2; `btij` at each b + 2n in 15-28 with n = (b + 2n) // 4;
      `tmij` at each total in 6-11 with i = total // 2;
    - drawn, one per stratum: the degree distribution of `ord_deg`,
      `int_deg`, `delta` at each n in 10-14; the buds and distribution of
      `btd` at each b + n in 10-13 and of `tmd` at each total in 6-10.
    """
    fixed = ([_instance("ord", n=n) for n in (16, 18, 19, 20, 21, 22)]
             + [_instance("ncm_rotation", j=j) for j in (15, 16, 18, 19, 20)]
             + [_instance("tmn", n=t) for t in range(11, 15)])
    for theorem in ("ord_leaves", "ext", "int"):
        fixed += [_instance(theorem, n=n, k=(n + 2) // 2) for n in range(11, 25)]
    fixed += [_instance("btij", b=s - 2 * (s // 4), n=s // 4) for s in range(15, 29)]
    fixed += [_instance("tmij", i=t // 2, j=t - t // 2) for t in range(6, 12)]
    strata = [("fixed", fixed, len(fixed))]
    for n in range(10, 15):
        dists = _spaced(degree_distributions(n + 1, 2 * n), 6)
        for theorem in ("ord_deg", "int_deg"):
            strata.append((theorem, [_instance(theorem, degrees=list(d))
                                     for d in dists], 1))
        strata.append(("delta", [
            _instance("delta", degrees=list(d), delta=delta) for d in dists
            for delta in _spaced([i for i, c in enumerate(d, 1) if c], 2)], 1))
    for s in range(10, 14):
        strata.append(("btd", [
            _instance("btd", b=b, degrees=list(d)) for b in range(1, s + 1)
            for d in _spaced(degree_distributions(s - b + 1, 2 * (s - b) + b), 2)], 1))
    for t in range(6, 11):
        strata.append(("tmd", [
            _instance("tmd", j=j, degrees=list(d)) for j in range(1, t + 1)
            for d in _spaced(degree_distributions(t - j + 1, 2 * t), 2)], 1))
    return strata


# ---------------------------------------------------------------------------
# cli_verify: stratified draws of command lines


def _tree_degrees(n):
    return [",".join(map(str, d)) for d in degree_distributions(n + 1, 2 * n)]


def _btree_degrees(b, n):
    return [",".join(map(str, d)) for d in degree_distributions(n + 1, 2 * n + b)]


def _theorem_args(max_tree: int, max_deg: int, max_map: int) -> list:
    """Parameter flags for all 13 theorems, within the given sizes."""
    out = []
    out += [["--theorem", "ord", "--n", str(n)] for n in range(2, max_tree + 1)]
    for theorem in ("ord_leaves", "ext", "int"):
        out += [["--theorem", theorem, "--n", str(n), "--k", str(k)]
                for n in range(3, max_tree + 1) for k in (2, (n + 2) // 2, n)]
    for n in range(3, max_deg + 1):
        for d in _spaced(_tree_degrees(n), 3):
            out.append(["--theorem", "ord_deg", "--degrees", d])
            out.append(["--theorem", "int_deg", "--degrees", d])
            top = len(d.split(","))
            out.append(["--theorem", "delta", "--degrees", d, "--delta", str(top)])
    # the guard measures a b-tree by half its word length, (2n + b + 1) // 2
    for n in range(0, max_map + 1):
        for b in range(0 if n else 1, 2 * (max_map - n) + 1):
            out.append(["--theorem", "btij", "--b", str(b), "--n", str(n)])
            for d in _spaced(_btree_degrees(b, n), 2):
                out.append(["--theorem", "btd", "--b", str(b), "--degrees", d])
    for t in range(1, max_map + 1):
        out.append(["--theorem", "tmn", "--n", str(t)])
        out += [["--theorem", "tmij", "--i", str(i), "--j", str(t - i)]
                for i in range(t + 1)]
        for j in range(1, t + 1):
            for d in _spaced(_btree_degrees(2 * j, t - j), 2):
                out.append(["--theorem", "tmd", "--j", str(j), "--degrees", d])
        out.append(["--theorem", "ncm_rotation", "--j", str(t)])
    return out


def cli_strata() -> list:
    light = _theorem_args(max_tree=7, max_deg=7, max_map=4)
    strata = [
        ("verify", [["verify", "--mode", "all"] + a for a in light], 30),
        ("fixtable", [["fixtable", "--format", "csv"] + a for a in light], 20),
        ("poly", [["poly"] + a for a in _theorem_args(12, 9, 6)], 15),
    ]
    families = ([["--family", "all_trees", "--n", str(n)] for n in range(1, 13)]
                + [["--family", f, "--n", str(n), "--k", str(k)]
                   for f in ("by_leaves", "leaf_rooted", "internal_rooted")
                   for n in range(2, 10) for k in (2, n)]
                + [["--family", f, "--degrees", d]
                   for f in ("by_degrees", "leaf_rooted_deg", "internal_rooted_deg")
                   for n in range(2, 9) for d in _spaced(_tree_degrees(n), 2)]
                + [["--family", "root_degree", "--degrees", d,
                    "--delta", str(len(d.split(",")))]
                   for n in range(2, 9) for d in _spaced(_tree_degrees(n), 2)]
                + [["--family", "bt", "--b", str(b), "--n", str(n)]
                   for b in range(0, 5) for n in range(0, 5) if b + n]
                + [["--family", "bt_deg", "--b", "2", "--degrees", d]
                   for d in _btree_degrees(2, 3)]
                + [["--family", "tm_ij", "--i", str(i), "--j", str(j)]
                   for i in range(0, 4) for j in range(0, 4) if i + j]
                + [["--family", "tm_n", "--n", str(n)] for n in range(1, 8)]
                + [["--family", "tm_deg", "--j", "1", "--degrees", d]
                   for d in _btree_degrees(2, 2)]
                + [["--family", "ncm", "--j", str(j)] for j in range(1, 9)])
    strata.append(("count", [["count"] + f for f in families], 12))
    small = [f for f in families if _small_family(f)]
    strata.append(("enumerate", [["enumerate"] + f for f in small], 10))
    strata.append(("sumcheck",
                   [["sumcheck", "--identity", "refined_leaves", "--n", str(n)]
                    for n in range(2, 9)]
                   + [["sumcheck", "--identity", "chu_vandermonde_tm", "--n", str(n)]
                      for n in range(1, 9)], 10))
    # The heavy calls are the same for every seed: drawn, their costs
    # differed enough to move `run_s` and `call_p90_ms` from seed to seed.
    strata.append(("heavy", [
        ["verify", "--mode", "all", "--theorem", "ord", "--n", "10"],
        ["verify", "--mode", "all", "--theorem", "int", "--n", "10", "--k", "6"],
        ["verify", "--mode", "all", "--theorem", "tmn", "--n", "5"],
    ], 3))
    return strata


def _small_family(flags) -> bool:
    """Families whose member list is short enough to print."""
    p = dict(zip(flags[::2], flags[1::2]))
    fam = p["--family"]
    if fam in ("all_trees", "by_leaves", "leaf_rooted", "internal_rooted"):
        return int(p["--n"]) <= 7
    if fam == "bt":
        return int(p["--b"]) + int(p["--n"]) <= 5
    if fam == "tm_ij":
        return int(p["--i"]) + int(p["--j"]) <= 3
    if fam == "tm_n":
        return int(p["--n"]) <= 3
    if fam == "ncm":
        return int(p["--j"]) <= 5
    return True


# ---------------------------------------------------------------------------


def _draw(strata, rng, tiny):
    """`draws` members of each stratum; `tiny` keeps the first member of the
    first stratum of each label, and no heavy calls."""
    if tiny:
        firsts = {}
        for label, candidates, _ in strata:
            if label != "heavy":
                firsts.setdefault(label, candidates[0])
        return list(firsts.values())
    calls = []
    for _, candidates, draws in strata:
        calls += rng.sample(candidates, draws)
    return calls


def pool(workload: str) -> list:
    """Every call a seed can draw for the workload."""
    if workload == "tree_sweep":
        return tree_sweep_calls()
    if workload == "btree_sweep":
        return btree_sweep_calls()
    strata = qproduct_strata() if workload == "qproduct_scale" else cli_strata()
    seen, out = set(), []
    for _, candidates, _ in strata:
        for c in candidates:
            if canonical(c) not in seen:
                seen.add(canonical(c))
                out.append(c)
    return out


def make_calls(workload: str, seed: int, tiny: bool = False) -> list:
    """The workload's calls for this seed, in the order they run.

    `tiny` keeps a few of the cheapest calls, for the benchmark's self-tests.
    """
    rng = random.Random(seed)
    if workload in ("tree_sweep", "btree_sweep"):
        calls = tree_sweep_calls() if workload == "tree_sweep" else btree_sweep_calls()
        if tiny:
            calls = [c for c in calls if _sweep_size(c) <= 3]
        # Theorems run in a fixed order and the seed shuffles the calls of
        # each one.  Calls of different theorems share caches (a `btd` and a
        # `tmd` call can need the same b-tree census); the fixed order makes
        # the same call pay for the shared work under every seed.
        groups = {}
        for call in calls:
            groups.setdefault(call[0], []).append(call)
        for group in groups.values():
            rng.shuffle(group)
        return [call for group in groups.values() for call in group]
    if workload == "qproduct_scale":
        calls = _draw(qproduct_strata(), rng, tiny)
    elif workload == "cli_verify":
        calls = _draw(cli_strata(), rng, tiny)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(calls)
    return calls
