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

from . import maps as _maps
from . import rotations as _rot
from . import trees as _trees
from .maps import (BT, BTDeg, NCM, TMDeg, TMij, TMn, closed_count_maps,
                   fix_count_maps, fix_count_maps_closed, rotation_order_maps)
from .qseries import (NotPolynomial, QPolynomial, QProductExpr,
                      eval_expr_at_root, q_binomial, q_multinomial,
                      shape_predicates, to_polynomial)
from .rotations import FixQuery, fix_count_bruteforce, fix_count_closed
from .trees import (AllTrees, ByDegrees, ByLeaves, InternalRooted,
                    InternalRootedDeg, LeafRooted, LeafRootedDeg, RootDegree)


class InfeasibleParams(ValueError):
    """Parameters outside the theorem's range (empty family or undefined P)."""


class SizeGuardExceeded(ValueError):
    """Requested instance exceeds the configured desk-scale guard."""


DIVISORS = "divisors"
ALL_EXPONENTS = "all"

THEOREM_IDS = ("ord", "ord_leaves", "ext", "int", "ord_deg", "delta",
               "int_deg", "btij", "btd", "tmij", "tmn", "tmd", "ncm_rotation")


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


def _degree_list(params) -> tuple[int, ...]:
    degrees = tuple(params["degrees"])
    if not degrees or any(c < 0 for c in degrees):
        raise InfeasibleParams(f"bad degree distribution {degrees}")
    return degrees


def build_instance(theorem: str, **params) -> CspInstance:
    """Construct the (family, rotation, polynomial) triple for one theorem."""
    try:
        return _build(theorem, params)
    except (ValueError, ZeroDivisionError) as exc:
        if isinstance(exc, (InfeasibleParams, SizeGuardExceeded)):
            raise
        raise InfeasibleParams(f"{theorem} with {params}: {exc}") from exc


def _build(theorem: str, params: dict) -> CspInstance:
    if theorem == "ord":
        n = params["n"]
        if n < 1:
            raise InfeasibleParams("need n >= 1")
        fam = AllTrees(n)
        expr = q_binomial(2 * n, n) * QProductExpr(den=(n + 1,))
        return _tree_instance(theorem, params, fam, expr)
    if theorem in ("ord_leaves", "ext", "int"):
        n, k = params["n"], params["k"]
        if n < 2 or not 2 <= k <= n:
            raise InfeasibleParams("need n >= 2 and 2 <= k <= n")
        if theorem == "ord_leaves":
            fam = ByLeaves(n, k)
            expr = (QProductExpr(num=(2 * n,), den=(n, n - 1))
                    * q_binomial(n - 1, k - 2) * q_binomial(n, k))
        elif theorem == "ext":
            fam = LeafRooted(n, k)
            expr = (QProductExpr(den=(n - 1,))
                    * q_binomial(n - 1, k - 2) * q_binomial(n - 1, k - 1))
        else:
            fam = InternalRooted(n, k)
            expr = (QProductExpr(num=(2 * n - k,), den=(n, n - 1))
                    * q_binomial(n - 1, k - 2) * q_binomial(n, k))
        return _tree_instance(theorem, params, fam, expr)
    if theorem == "ord_deg":
        degrees = _degree_list(params)
        fam = ByDegrees(degrees)
        n = fam.n
        if n < 1 or _trees.closed_count(fam) == 0:
            raise InfeasibleParams(f"empty degree family {degrees}")
        expr = (QProductExpr(num=(2 * n,), den=(n, n + 1))
                * q_multinomial(n + 1, degrees))
        return _tree_instance(theorem, params, fam, expr)
    if theorem == "delta":
        degrees, delta = _degree_list(params), params["delta"]
        fam = RootDegree(degrees, delta)
        n = fam.n
        ndelta = degrees[delta - 1] if delta <= len(degrees) else 0
        if n < 1 or ndelta == 0 or _trees.closed_count(fam) == 0:
            raise InfeasibleParams(f"empty family: degrees {degrees}, delta {delta}")
        parts = list(degrees)
        parts[delta - 1] -= 1
        expr = (QProductExpr(num=(delta * ndelta,), den=(ndelta, n))
                * q_multinomial(n, parts))
        return _tree_instance(theorem, params, fam, expr)
    if theorem == "int_deg":
        degrees = _degree_list(params)
        fam = InternalRootedDeg(degrees)
        n = fam.n
        if n < 1 or degrees[0] == 0 or _trees.closed_count(fam) == 0:
            raise InfeasibleParams(f"empty degree family {degrees}")
        expr = (QProductExpr(num=(2 * n - degrees[0],), den=(n + 1, n))
                * q_multinomial(n + 1, degrees))
        return _tree_instance(theorem, params, fam, expr)
    if theorem == "btij":
        b, n = params["b"], params["n"]
        if b < 0 or n < 0 or b + n == 0:
            raise InfeasibleParams("need b, n >= 0, not both zero")
        fam = BT(b, n)
        expr = QProductExpr(den=(n + 1,)) * q_multinomial(2 * n + b, (b, n, n))
        return _map_instance(theorem, params, fam, expr)
    if theorem == "btd":
        b, degrees = params["b"], _degree_list(params)
        fam = BTDeg(b, degrees)
        n = fam.n
        if n < 0 or not fam.feasible() or closed_count_maps(fam) == 0:
            raise InfeasibleParams(f"empty b-tree family b={b}, degrees {degrees}")
        expr = (QProductExpr(num=(2 * n + b,), den=(n + b + 1, n + b))
                * q_multinomial(n + b + 1, (b,) + degrees))
        return _map_instance(theorem, params, fam, expr)
    if theorem == "tmij":
        i, j = params["i"], params["j"]
        if i < 0 or j < 0 or i + j == 0:
            raise InfeasibleParams("need i, j >= 0, not both zero")
        fam = TMij(i, j)
        expr = (QProductExpr(den=(i + 1, j + 1))
                * q_multinomial(2 * i + 2 * j, (i, i, j, j)))
        return _map_instance(theorem, params, fam, expr)
    if theorem == "tmn":
        n = params["n"]
        if n < 1:
            raise InfeasibleParams("need n >= 1")
        fam = TMn(n)
        expr = (q_binomial(2 * n, n) * q_binomial(2 * n + 2, n + 1)
                * QProductExpr(den=(n + 1, n + 2)))
        return _map_instance(theorem, params, fam, expr)
    if theorem == "tmd":
        j, degrees = params["j"], _degree_list(params)
        fam = TMDeg(j, degrees)
        n = fam.n
        if n < 1 or closed_count_maps(fam) == 0:
            raise InfeasibleParams(f"empty map family j={j}, degrees {degrees}")
        expr = (QProductExpr(num=(2 * n,), den=(j + 1, n + j + 1, n + j))
                * q_multinomial(n + j + 1, (j, j) + degrees))
        return _map_instance(theorem, params, fam, expr)
    if theorem == "ncm_rotation":
        j = params["j"]
        if j < 1:
            raise InfeasibleParams("need j >= 1")
        fam = NCM(j)
        expr = q_binomial(2 * j, j) * QProductExpr(den=(j + 1,))
        return _map_instance(theorem, params, fam, expr)
    raise InfeasibleParams(f"unknown theorem {theorem!r}")


def _tree_instance(theorem, params, fam, expr) -> CspInstance:
    kind = _rot.family_kind(fam)
    if theorem in ("ord", "ord_leaves", "ord_deg"):
        kind = _rot.ORDINARY
    order = _rot.rotation_order(fam, kind)
    fallback = fam.n == 1 and isinstance(fam, (ByLeaves, LeafRooted, InternalRooted))
    return CspInstance(theorem, dict(params), fam, kind, order, expr, fallback)


def _map_instance(theorem, params, fam, expr) -> CspInstance:
    return CspInstance(theorem, dict(params), fam, None,
                       rotation_order_maps(fam), expr)


# ---------------------------------------------------------------------------
# Size guard


_DEGREE_FAMILIES = (ByDegrees, LeafRootedDeg, InternalRootedDeg, RootDegree)


def _guard_limit(family) -> int:
    env = os.environ.get("SIEVE_FOREST_SIZE_GUARD")
    if env is not None:
        if not env.strip().isdecimal():
            raise ValueError("SIEVE_FOREST_SIZE_GUARD must be a non-negative "
                             f"integer, got {env!r}")
        return int(env)
    if isinstance(family, _DEGREE_FAMILIES):
        return 9
    if isinstance(family, (BT, BTDeg, TMij, TMn, TMDeg, NCM)):
        return 5
    return 10


def _guard_size(family) -> int:
    if isinstance(family, (BT, BTDeg)):
        # half the word length, comparable to the edge count of a map
        return (2 * family.n + family.b + 1) // 2
    if isinstance(family, NCM):
        return family.j
    return family.n


def check_size_guard(family, override: "int | None" = None) -> None:
    limit = override if override is not None else _guard_limit(family)
    size = _guard_size(family)
    if size > limit:
        raise SizeGuardExceeded(
            f"size {size} of {family} exceeds guard {limit}; "
            f"raise with --size-guard or SIEVE_FOREST_SIZE_GUARD")


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
