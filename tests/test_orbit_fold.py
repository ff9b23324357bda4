"""The sieving claims read as orbit counts, and the three checks kept apart.

A sieving polynomial P of an action of order L, folded modulo q^L - 1,
has at q^l the number of orbits whose stabilizer order divides l.  Small
instances count their orbits from the census: an entry (p, c) is c members
of period p, so c / p orbits with stabilizer order L / p.  Past
enumeration the closed forms give them: with F(k) the members fixed by the
k-th rotation power, N(s) = sum over k | s of mu(s / k) F(k) members have
period s, so N(s) / s orbits.  Nothing in the library folds or inverts:
these tests do both from the public counts.

The independence tests check that the three columns of `verify` rest on
three separate routes: each column is computed again with the entry points
of the other two routes patched to raise, and must not change.  The seeded
mutants each put one fault into the enumeration route, which `verify` must
report on a small sweep.
"""
import functools
import sys

import pytest

from sieveforest import maps, qseries, rotations, trees
from sieveforest.csp import (ALL_EXPONENTS, InfeasibleParams, THEOREMS, build_instance,
                             verify)
from sieveforest.rotations import FixQuery, fix_count_bruteforce, fix_count_closed


def divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


def mobius(m):
    out, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    return -out if m > 1 else out


def folded(instance):
    """The coefficients of P, summed by exponent mod L."""
    L = instance.order
    out = [0] * L
    for exponent, c in enumerate(instance.polynomial().coeffs):
        out[exponent % L] += c
    return out


def orbit_fold(L, orbits):
    """At each l < L, the orbits whose stabilizer order divides l, from
    {orbit size s: number of orbits}."""
    return [sum(count for s, count in orbits.items() if ell % (L // s) == 0)
            for ell in range(L)]


def tree_degree_params(n):
    for degrees in trees.degree_distributions(n):
        yield "ord_deg", {"degrees": degrees}
        yield "int_deg", {"degrees": degrees}
        for delta, count in enumerate(degrees, start=1):
            if count:
                yield "delta", {"degrees": degrees, "delta": delta}


def small_params():
    """(theorem, parameters) of every small instance, feasible or not."""
    for n in range(10):
        yield "ord", {"n": n}
        for k in range(n + 2):
            for theorem in ("ord_leaves", "ext", "int"):
                yield theorem, {"n": n, "k": k}
        yield from tree_degree_params(n)
    for b in range(9):
        for n in range(9 - b):
            yield "btij", {"b": b, "n": n}
            for degrees in maps.btree_degree_distributions(b, n):
                yield "btd", {"b": b, "degrees": degrees}
    for total in range(5):
        yield "tmn", {"n": total}
        for i in range(total + 1):
            j = total - i
            yield "tmij", {"i": i, "j": j}
            for degrees in maps.btree_degree_distributions(2 * j, i):
                yield "tmd", {"j": j, "degrees": degrees}
    for j in range(11):
        yield "ncm_rotation", {"j": j}


@functools.lru_cache(maxsize=None)
def small_instances():
    out = []
    for theorem, params in small_params():
        try:
            out.append(build_instance(theorem, **params))
        except InfeasibleParams:
            continue
    return tuple(out)


def test_small_instances_cover_every_theorem():
    assert {inst.theorem for inst in small_instances()} == set(THEOREMS)
    assert len(small_instances()) == 785


def test_census_periods_divide_their_counts():
    for inst in small_instances():
        for p, c in inst.family.census():
            assert inst.order % p == 0 and c % p == 0, (inst.theorem, inst.params, p)


def test_folded_polynomial_counts_the_census_orbits():
    for inst in small_instances():
        orbits = {p: c // p for p, c in inst.family.census()}
        assert folded(inst) == orbit_fold(inst.order, orbits), \
            (inst.theorem, inst.params)


def closed_orbits(inst):
    """{s: N(s) / s} over s | L, from the closed forms by Moebius
    inversion; N(s) must be a non-negative multiple of s."""
    fixed = {k: fix_count_closed(FixQuery(inst.family, inst.kind, k))
             for k in divisors(inst.order)}
    out = {}
    for s in divisors(inst.order):
        exact = sum(mobius(s // k) * fixed[k] for k in divisors(s))
        assert exact >= 0 and exact % s == 0, (inst.theorem, inst.params, s, exact)
        out[s] = exact // s
    return out


AT_SCALE = [
    ("ord", {"n": 360}), ("ord_leaves", {"n": 120, "k": 60}),
    ("ext", {"n": 120, "k": 40}), ("int", {"n": 120, "k": 30}),
    ("ord_deg", {"degrees": (32, 0, 30)}),
    ("int_deg", {"degrees": (22, 12, 0, 10)}),
    ("delta", {"degrees": (32, 0, 30), "delta": 3}),
    ("btij", {"b": 12, "n": 60}), ("btd", {"b": 12, "degrees": (5, 0, 15)}),
    ("tmij", {"i": 30, "j": 30}), ("tmn", {"n": 60}),
    ("tmd", {"j": 6, "degrees": (10, 0, 20)}), ("ncm_rotation", {"j": 180}),
]

FOLDED = [
    ("ord", {"n": 40}), ("ord_leaves", {"n": 30, "k": 10}),
    ("ext", {"n": 30, "k": 12}), ("int", {"n": 30, "k": 10}),
    ("ord_deg", {"degrees": (12, 0, 10)}),
    ("int_deg", {"degrees": (8, 6, 0, 3)}),
    ("delta", {"degrees": (12, 0, 10), "delta": 3}),
    ("btij", {"b": 6, "n": 20}), ("btd", {"b": 4, "degrees": (4, 0, 6)}),
    ("tmij", {"i": 8, "j": 8}), ("tmn", {"n": 12}),
    ("tmd", {"j": 3, "degrees": (2, 0, 6)}), ("ncm_rotation", {"j": 40}),
]


@pytest.mark.parametrize("cases", [AT_SCALE, FOLDED])
def test_scale_cases_cover_every_theorem(cases):
    assert sorted(theorem for theorem, _ in cases) == sorted(THEOREMS)


@pytest.mark.parametrize("theorem, params", AT_SCALE)
def test_closed_forms_give_whole_orbits_at_scale(theorem, params):
    closed_orbits(build_instance(theorem, **params))


@pytest.mark.parametrize("theorem, params", FOLDED)
def test_folded_polynomial_counts_the_closed_form_orbits(theorem, params):
    inst = build_instance(theorem, **params)
    assert folded(inst) == orbit_fold(inst.order, closed_orbits(inst))


# ---------------------------------------------------------------------------
# Independence of the three columns

# the entry points of each route, as the modules that define them bind them
ROUTES = {
    "closed": (trees._btree_fix, trees._degrees_fix, maps._tm_fix,
               trees._multinomial, trees.catalan),
    "qseries": (qseries.to_polynomial, qseries.eval_expr_at_root, qseries.cyclotomic),
    "enumeration": (trees._btree_walk, trees._words_by_degrees, trees._reroot,
                    trees.cyclic_period, rotations.rotate),
}
COLUMNS = {
    "closed": lambda inst, d: fix_count_closed(
        FixQuery(inst.family, inst.kind, inst.order // d)),
    "qseries": lambda inst, d: qseries.eval_expr_at_root(inst.expr, d),
    "enumeration": lambda inst, d: fix_count_bruteforce(
        FixQuery(inst.family, inst.kind, inst.order // d)),
}


def package_modules():
    return [module for name, module in sorted(sys.modules.items())
            if name == "sieveforest" or name.startswith("sieveforest.")]


def clear_every_cache():
    for module in package_modules():
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def disable(monkeypatch, route):
    """Make every entry point of the route raise, in every module that
    binds it, and with the closed forms every family's `fix_closed`."""
    def refuse(*args, **kwargs):
        raise AssertionError(f"the {route} route was used")

    for original in ROUTES[route]:
        bound = [(module, attr) for module in package_modules()
                 for attr, value in vars(module).items() if value is original]
        assert bound, original
        for module, attr in bound:
            monkeypatch.setattr(module, attr, refuse)
    if route == "closed":
        for cls in {c for family in trees.FAMILIES.values() for c in family.__mro__}:
            if "fix_closed" in vars(cls):
                monkeypatch.setattr(cls, "fix_closed", refuse)


@pytest.mark.parametrize("route", list(COLUMNS))
def test_each_column_needs_only_its_own_route(route, monkeypatch):
    """Every d | L of every small instance: the column, computed from cold
    caches with the other two routes raising, keeps its value."""
    rows = [(inst, d) for inst in small_instances() for d in divisors(inst.order)]
    assert len(rows) == 2781
    compute = COLUMNS[route]
    clear_every_cache()
    expected = [compute(inst, d) for inst, d in rows]
    clear_every_cache()
    with monkeypatch.context() as patched:
        for other in ROUTES.keys() - {route}:
            disable(patched, other)
        got = [compute(inst, d) for inst, d in rows]
    clear_every_cache()
    assert got == expected


# ---------------------------------------------------------------------------
# Seeded mutants: one fault each, put in by a monkeypatch


def never_repeats(patched):
    """`_may_repeat` always false: every word gets the period L."""
    patched.setattr(trees, "_may_repeat", lambda counts, size: False)


def drops_a_group(patched):
    """The walk loses its last group, in both modes."""
    walk = trees._btree_walk

    def mutant(b, n, words=True):
        groups, order = walk(b, n, words)
        if groups:
            del groups[list(groups)[-1]]
            order = [g for g in order if g < len(groups)]
        return groups, order

    patched.setattr(trees, "_btree_walk", mutant)


def repeats_a_word(patched):
    """The walk lists its first word twice, with its period, in both modes."""
    walk = trees._btree_walk

    def mutant(b, n, words=True):
        groups, order = walk(b, n, words)
        if groups:
            key = next(iter(groups))
            listed, periods = groups[key]
            groups[key] = (listed[:1] + listed, periods[:1] + periods)
            order = order[:1] + order
        return groups, order

    patched.setattr(trees, "_btree_walk", mutant)


MUTANTS = {"_may_repeat always false": never_repeats,
           "a walk that drops one group": drops_a_group,
           "a walk that repeats one word": repeats_a_word}


def mutant_sweep():
    """The small `ord`, `btij` and `btd` instances with b + n <= 5."""
    return [inst for inst in small_instances()
            if inst.theorem in ("ord", "btij", "btd")
            and inst.family.b + inst.family.n <= 5]


@pytest.mark.parametrize("mutant", MUTANTS)
def test_verify_reports_each_seeded_mutant(mutant, monkeypatch):
    """Every instance of the sweep passes from cold caches; with the mutant
    in, from cold caches again, `verify` reports a disagreement on some
    instance of each of the three theorems."""
    sweep = mutant_sweep()
    assert len(sweep) == 72
    clear_every_cache()
    try:
        assert all(verify(inst, ALL_EXPONENTS).overall for inst in sweep)
        clear_every_cache()
        with monkeypatch.context() as patched:
            MUTANTS[mutant](patched)
            caught = [(inst.theorem, inst.params) for inst in sweep
                      if not verify(inst, ALL_EXPONENTS).overall]
    finally:
        clear_every_cache()
    assert {theorem for theorem, _ in caught} == {"ord", "btij", "btd"}, mutant
