"""Cyclic sieving instances and their verifier.

A sieving instance is a triple: a finite family S with a cyclic rotation of
order m, and a polynomial P with P(1) = |S| such that the number of members
fixed by the e-th rotation power equals P at a primitive (m / gcd(e, m))-th
root of unity.  `verify` checks every requested exponent three ways: direct
fixed-point counting, the piecewise closed-form count, and exact evaluation
of P at the root of unity; all three must agree.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from collections.abc import Callable

from . import rotations as _rot
from . import trees as _trees
from .maps import (BT, BTDeg, NCM, TMDeg, TMij, TMn, closed_count_maps,
                   fix_count_maps, fix_count_maps_closed, rotation_order_maps)
from .qseries import (NotPolynomial, QPolynomial, QProductExpr,
                      eval_expr_at_root, q_binomial, q_multinomial,
                      shape_predicates, to_polynomial)
from .rotations import FixQuery, fix_count_bruteforce, fix_count_closed
from .trees import (AllTrees, ByDegrees, ByLeaves, InternalRooted,
                    InternalRootedDeg, LeafRooted, RootDegree)


class InfeasibleParams(ValueError):
    """Parameters outside the theorem's range (empty family or undefined P)."""


class SizeGuardExceeded(ValueError):
    """Requested instance exceeds the configured desk-scale guard."""


DIVISORS = "divisors"
ALL_EXPONENTS = "all"


@dataclasses.dataclass(frozen=True)
class Theorem:
    """One sieving result.  Its parameters are the family's fields, in
    order; `feasible(family)` is the range it holds on, and `qproduct(family)`
    its polynomial as a q-product."""
    family: type
    feasible: Callable[[object], bool]
    qproduct: Callable[[object], QProductExpr]


def _leaf_range(f) -> bool:
    return f.n >= 2 and 2 <= f.k <= f.n


def _delta_qproduct(f) -> QProductExpr:
    ndelta = f.degrees[f.delta - 1]
    parts = list(f.degrees)
    parts[f.delta - 1] -= 1
    return (QProductExpr(num=(f.delta * ndelta,), den=(ndelta, f.n))
            * q_multinomial(f.n, parts))


# The one table of the results: a new theorem is one row.
THEOREMS = {
    "ord": Theorem(
        AllTrees, lambda f: f.n >= 1,
        lambda f: q_binomial(2 * f.n, f.n) * QProductExpr(den=(f.n + 1,))),
    "ord_leaves": Theorem(
        ByLeaves, _leaf_range,
        lambda f: (QProductExpr(num=(2 * f.n,), den=(f.n, f.n - 1))
                   * q_binomial(f.n - 1, f.k - 2) * q_binomial(f.n, f.k))),
    "ext": Theorem(
        LeafRooted, _leaf_range,
        lambda f: (QProductExpr(den=(f.n - 1,))
                   * q_binomial(f.n - 1, f.k - 2) * q_binomial(f.n - 1, f.k - 1))),
    "int": Theorem(
        InternalRooted, _leaf_range,
        lambda f: (QProductExpr(num=(2 * f.n - f.k,), den=(f.n, f.n - 1))
                   * q_binomial(f.n - 1, f.k - 2) * q_binomial(f.n, f.k))),
    "ord_deg": Theorem(
        ByDegrees, lambda f: f.n >= 1 and _trees.closed_count(f) > 0,
        lambda f: (QProductExpr(num=(2 * f.n,), den=(f.n, f.n + 1))
                   * q_multinomial(f.n + 1, f.degrees))),
    "delta": Theorem(
        RootDegree, lambda f: f.n >= 1 and _trees.closed_count(f) > 0,
        _delta_qproduct),
    "int_deg": Theorem(
        InternalRootedDeg,
        lambda f: f.n >= 1 and f.degrees[0] > 0 and _trees.closed_count(f) > 0,
        lambda f: (QProductExpr(num=(2 * f.n - f.degrees[0],), den=(f.n + 1, f.n))
                   * q_multinomial(f.n + 1, f.degrees))),
    "btij": Theorem(
        BT, lambda f: f.b + f.n > 0,
        lambda f: (QProductExpr(den=(f.n + 1,))
                   * q_multinomial(2 * f.n + f.b, (f.b, f.n, f.n)))),
    "btd": Theorem(
        BTDeg, lambda f: f.n >= 0 and f.feasible() and closed_count_maps(f) > 0,
        lambda f: (QProductExpr(num=(2 * f.n + f.b,), den=(f.n + f.b + 1, f.n + f.b))
                   * q_multinomial(f.n + f.b + 1, (f.b,) + f.degrees))),
    "tmij": Theorem(
        TMij, lambda f: f.i + f.j > 0,
        lambda f: (QProductExpr(den=(f.i + 1, f.j + 1))
                   * q_multinomial(2 * f.i + 2 * f.j, (f.i, f.i, f.j, f.j)))),
    "tmn": Theorem(
        TMn, lambda f: f.n >= 1,
        lambda f: (q_binomial(2 * f.n, f.n) * q_binomial(2 * f.n + 2, f.n + 1)
                   * QProductExpr(den=(f.n + 1, f.n + 2)))),
    "tmd": Theorem(
        TMDeg, lambda f: f.n >= 1 and closed_count_maps(f) > 0,
        lambda f: (QProductExpr(num=(2 * f.n,), den=(f.j + 1, f.n + f.j + 1, f.n + f.j))
                   * q_multinomial(f.n + f.j + 1, (f.j, f.j) + f.degrees))),
    "ncm_rotation": Theorem(
        NCM, lambda f: f.j >= 1,
        lambda f: q_binomial(2 * f.j, f.j) * QProductExpr(den=(f.j + 1,))),
}

THEOREM_IDS = tuple(THEOREMS)


@dataclasses.dataclass(frozen=True)
class CspInstance:
    theorem: str
    params: dict = dataclasses.field(hash=False)
    family: object
    kind: object  # RotationKind for tree families, None for map families
    order: int
    expr: QProductExpr
    fallback: bool = False  # closed count replaced by enumeration at a boundary

    def polynomial(self) -> QPolynomial:
        return to_polynomial(self.expr)


def build_instance(theorem: str, **params) -> CspInstance:
    """Construct the (family, rotation, polynomial) triple for one theorem."""
    spec = THEOREMS.get(theorem)
    if spec is None:
        raise InfeasibleParams(f"unknown theorem {theorem!r}")
    try:
        family = _trees.family_from_descriptor(
            {**params, "family": spec.family.name})
        if not spec.feasible(family):
            raise InfeasibleParams(f"{theorem} with {params}: outside the "
                                   "theorem's range")
        expr = spec.qproduct(family)
    except (ValueError, ZeroDivisionError) as exc:
        if isinstance(exc, InfeasibleParams):
            raise
        raise InfeasibleParams(f"{theorem} with {params}: {exc}") from exc
    if isinstance(family, _trees.TreeFamily):
        kind = _rot.family_kind(family)
        return CspInstance(theorem, dict(params), family, kind,
                           _rot.rotation_order(family, kind), expr,
                           _rot.closed_falls_back(family))
    return CspInstance(theorem, dict(params), family, None,
                       rotation_order_maps(family), expr)


# ---------------------------------------------------------------------------
# Size guard

# Each letter of a member's word is one frame of the recursive enumerating
# walks, so longer words would overflow the interpreter's recursion limit.
MAX_WORD_LENGTH = 512


def _guard_limit(family) -> int:
    env = os.environ.get("SIEVE_FOREST_SIZE_GUARD")
    if env is not None:
        if not env.strip().isdecimal():
            raise ValueError("SIEVE_FOREST_SIZE_GUARD must be a non-negative "
                             f"integer, got {env!r}")
        return int(env)
    return family.guard_limit


def check_size_guard(family, override: "int | None" = None) -> None:
    """Refuse a family too large to enumerate at desk scale.  Its size is
    half its word length (the edge count of a tree or map); words longer
    than MAX_WORD_LENGTH are refused whatever the guard."""
    limit = override if override is not None else _guard_limit(family)
    size = (family.word_length + 1) // 2
    if size > limit:
        raise SizeGuardExceeded(
            f"size {size} of {family} exceeds guard {limit}; "
            f"raise with --size-guard or SIEVE_FOREST_SIZE_GUARD")
    if family.word_length > MAX_WORD_LENGTH:
        raise SizeGuardExceeded(
            f"words of {family} have {family.word_length} letters; the "
            f"recursive enumeration takes at most {MAX_WORD_LENGTH}, "
            f"whatever the guard")


# ---------------------------------------------------------------------------
# Verification


@dataclasses.dataclass
class VerificationReport:
    theorem: str
    params: dict
    rows: list  # dicts: e, d, brute, closed, poly_value, agree
    overall: bool
    seconds: float
    fallback: bool = False

    def to_json(self) -> str:
        return json.dumps({"theorem": self.theorem, "params": self.params,
                           "rows": self.rows, "overall": self.overall,
                           "seconds": self.seconds, "fallback": self.fallback})

    def to_csv(self) -> str:
        lines = ["e,d,brute,closed,poly_value,agree"]
        for r in self.rows:
            lines.append(f"{r['e']},{r['d']},{r['brute']},{r['closed']},"
                         f"{r['poly_value']},{r['agree']}")
        return "\n".join(lines)


def _fix_pair(instance: CspInstance, e: int) -> tuple[int, int]:
    if instance.kind is not None:
        query = FixQuery(instance.family, instance.kind, e)
        return fix_count_bruteforce(query), fix_count_closed(query)
    return (fix_count_maps(instance.family, e),
            fix_count_maps_closed(instance.family, e))


def _row(instance: CspInstance, e: int) -> dict:
    m = instance.order
    d = m // math.gcd(e, m) if e else 1
    brute, closed = _fix_pair(instance, e)
    poly_value = eval_expr_at_root(instance.expr, d)
    return {"e": e, "d": d, "brute": brute, "closed": closed,
            "poly_value": poly_value, "agree": brute == closed == poly_value}


def verify(instance: CspInstance, mode: str = DIVISORS,
           size_guard: "int | None" = None, exponents=None) -> VerificationReport:
    """Triple-check the sieving claim at the requested exponents."""
    check_size_guard(instance.family, size_guard)
    start = time.perf_counter()
    m = instance.order
    if exponents is not None:
        exponents = list(exponents)
    elif mode == ALL_EXPONENTS:
        exponents = list(range(m)) or [0]
    elif mode == DIVISORS:
        exponents = [0] + [e for e in range(1, m) if m % e == 0]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    rows = [_row(instance, e) for e in exponents]
    return VerificationReport(instance.theorem, instance.params, rows,
                              all(r["agree"] for r in rows),
                              time.perf_counter() - start, instance.fallback)


def check_poly_nonneg(instance: CspInstance) -> dict:
    """Exact division into a polynomial, plus coefficient shape predicates."""
    try:
        poly = instance.polynomial()
    except (NotPolynomial, ValueError):
        return {"polynomial": False, "nonneg": False, "reciprocal": False}
    shapes = shape_predicates(poly)
    return {"polynomial": True, "nonneg": shapes["nonneg"],
            "reciprocal": shapes["is_reciprocal"]}


# ---------------------------------------------------------------------------
# Summation identities


REFINED_LEAVES = "refined_leaves"
CHU_VANDERMONDE_TM = "chu_vandermonde_tm"


def check_sum_identity(which: str, n: int) -> bool:
    """Exact polynomial identity between refined and unrefined instances."""
    if which == REFINED_LEAVES:
        if n < 2:
            raise InfeasibleParams("refined leaf identity needs n >= 2")
        total = QPolynomial(())
        for k in range(2, n + 1):
            expr = build_instance("ord_leaves", n=n, k=k).expr
            shifted = QProductExpr(expr.shift + k * (k - 2), expr.num,
                                   expr.den, expr.scalar)
            total = total + to_polynomial(shifted)
        return total == build_instance("ord", n=n).polynomial()
    if which == CHU_VANDERMONDE_TM:
        if n < 1:
            raise InfeasibleParams("need n >= 1")
        total = QPolynomial(())
        for i in range(n + 1):
            j = n - i
            expr = build_instance("tmij", i=i, j=j).expr if i + j else None
            if expr is None:
                continue
            shifted = QProductExpr(expr.shift + (n + 1 - i) * j, expr.num,
                                   expr.den, expr.scalar)
            total = total + to_polynomial(shifted)
        return total == build_instance("tmn", n=n).polynomial()
    raise ValueError(f"unknown identity {which!r}")
