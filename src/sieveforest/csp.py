"""Cyclic sieving instances and their verifier.

A sieving instance is a triple: a finite family S with a cyclic rotation of
order m, and a polynomial P with P(1) = |S| such that the number of members
fixed by the e-th rotation power equals P at a primitive (m / gcd(e, m))-th
root of unity.  `verify` checks every requested exponent three ways: direct
fixed-point counting, the piecewise closed-form count, and exact evaluation
of P at the root of unity; all three must agree.
"""
from __future__ import annotations

import json
import math
import time
from collections.abc import Callable

from . import trees as _trees
from .maps import BT, BTDeg, NCM, TMDeg, TMij, TMn
from .qseries import (NotPolynomial, QPolynomial, QProductExpr,
                      eval_expr_at_root, q_binomial, q_multinomial,
                      shape_predicates, to_polynomial)
from .rotations import FixQuery, fix_count_bruteforce, fix_count_closed
from .trees import (AllTrees, ByDegrees, ByLeaves, InternalRooted,
                    InternalRootedDeg, LeafRooted, RootDegree, _Value)


class InfeasibleParams(ValueError):
    """Parameters outside the theorem's range (see `Theorem`)."""


class SizeGuardExceeded(ValueError):
    """Requested instance exceeds the configured desk-scale guard."""


DIVISORS = "divisors"
ALL_EXPONENTS = "all"

# Expansion costs time and memory that grow with the degree, which grows as
# the square of the size; `polynomial()` refuses anything larger.
MAX_POLY_DEGREE = 10_000
# A q-product lists two to four q-integer indices per letter of a member's
# word, and a closed form multiplies binomials of about as many digits;
# `build_instance` and `count` refuse longer words before either is
# evaluated (`check_word_length`).
MAX_QPRODUCT_WORD_LENGTH = 100_000


def check_word_length(family) -> None:
    """Refuse a family whose words have more than MAX_QPRODUCT_WORD_LENGTH
    letters."""
    if family.word_length > MAX_QPRODUCT_WORD_LENGTH:
        raise SizeGuardExceeded(
            f"words of {family} have {family.word_length} letters, above "
            f"MAX_QPRODUCT_WORD_LENGTH = {MAX_QPRODUCT_WORD_LENGTH}")


class Theorem(_Value):
    """One sieving result.  Its parameters are the family's fields, in
    order, and `qproduct(family)` is its polynomial as a q-product.  It
    holds wherever the family is `feasible()`, its rotation has positive
    order and the q-product is defined (`build_instance`)."""
    family: type
    qproduct: Callable[[object], QProductExpr]


def _delta_qproduct(f) -> QProductExpr:
    ndelta = f.degrees[f.delta - 1]
    parts = list(f.degrees)
    parts[f.delta - 1] -= 1
    return (QProductExpr(num=(f.delta * ndelta,), den=(ndelta, f.n))
            * q_multinomial(f.n, parts))


# The one table of the results: a new theorem is one row.
THEOREMS = {
    "ord": Theorem(AllTrees, lambda f: (
        q_binomial(2 * f.n, f.n) * QProductExpr(den=(f.n + 1,)))),
    "ord_leaves": Theorem(ByLeaves, lambda f: (
        QProductExpr(num=(2 * f.n,), den=(f.n, f.n - 1))
        * q_binomial(f.n - 1, f.k - 2) * q_binomial(f.n, f.k))),
    "ext": Theorem(LeafRooted, lambda f: (
        QProductExpr(den=(f.n - 1,))
        * q_binomial(f.n - 1, f.k - 2) * q_binomial(f.n - 1, f.k - 1))),
    "int": Theorem(InternalRooted, lambda f: (
        QProductExpr(num=(2 * f.n - f.k,), den=(f.n, f.n - 1))
        * q_binomial(f.n - 1, f.k - 2) * q_binomial(f.n, f.k))),
    "ord_deg": Theorem(ByDegrees, lambda f: (
        QProductExpr(num=(2 * f.n,), den=(f.n, f.n + 1))
        * q_multinomial(f.n + 1, f.degrees))),
    "delta": Theorem(RootDegree, _delta_qproduct),
    "int_deg": Theorem(InternalRootedDeg, lambda f: (
        QProductExpr(num=(2 * f.n - f.degrees[0],), den=(f.n + 1, f.n))
        * q_multinomial(f.n + 1, f.degrees))),
    "btij": Theorem(BT, lambda f: (
        QProductExpr(den=(f.n + 1,))
        * q_multinomial(2 * f.n + f.b, (f.b, f.n, f.n)))),
    "btd": Theorem(BTDeg, lambda f: (
        QProductExpr(num=(2 * f.n + f.b,), den=(f.n + f.b + 1, f.n + f.b))
        * q_multinomial(f.n + f.b + 1, (f.b,) + f.degrees))),
    "tmij": Theorem(TMij, lambda f: (
        QProductExpr(den=(f.i + 1, f.j + 1))
        * q_multinomial(2 * f.i + 2 * f.j, (f.i, f.i, f.j, f.j)))),
    "tmn": Theorem(TMn, lambda f: (
        q_binomial(2 * f.n, f.n) * q_binomial(2 * f.n + 2, f.n + 1)
        * QProductExpr(den=(f.n + 1, f.n + 2)))),
    "tmd": Theorem(TMDeg, lambda f: (
        QProductExpr(num=(2 * f.n,), den=(f.j + 1, f.n + f.j + 1, f.n + f.j))
        * q_multinomial(f.n + f.j + 1, (f.j, f.j) + f.degrees))),
    "ncm_rotation": Theorem(NCM, lambda f: (
        q_binomial(2 * f.j, f.j) * QProductExpr(den=(f.j + 1,)))),
}

THEOREM_IDS = tuple(THEOREMS)


class CspInstance(_Value):
    theorem: str
    params: dict
    family: object
    kind: object  # RotationKind for tree families, None for map families
    order: int
    expr: QProductExpr

    def __hash__(self):  # params, a dict, is compared but not hashed
        return hash((self.theorem, self.family, self.kind, self.order, self.expr))

    def polynomial(self) -> QPolynomial:
        """The expanded q-product; refused above MAX_POLY_DEGREE."""
        if self.expr.degree > MAX_POLY_DEGREE:
            raise SizeGuardExceeded(
                f"{self.theorem} with {self.params}: the polynomial has degree "
                f"{self.expr.degree}, above the limit MAX_POLY_DEGREE = "
                f"{MAX_POLY_DEGREE}")
        return to_polynomial(self.expr)


def build_instance(theorem: str, **params) -> CspInstance:
    """Construct the (family, rotation, polynomial) triple for one theorem."""
    spec = THEOREMS.get(theorem)
    if spec is None:
        raise InfeasibleParams(f"unknown theorem {theorem!r}")
    names = _trees.family_fields(spec.family)
    if params.keys() != set(names):
        raise InfeasibleParams(f"{theorem} takes the parameters ({', '.join(names)}), "
                               f"not ({', '.join(params)})")
    try:
        family = _trees.family_from_descriptor(
            {**params, "family": spec.family.name})
        if not family.feasible():
            raise ValueError(f"{family} has no members")
        order = family.order()
        if order <= 0:
            raise ValueError(f"the rotation of {family} has order {order}")
        check_word_length(family)
        expr = spec.qproduct(family)
    except SizeGuardExceeded as exc:
        raise SizeGuardExceeded(f"{theorem} with {params}: {exc}") from exc
    except (ValueError, ZeroDivisionError) as exc:
        raise InfeasibleParams(f"{theorem} with {params}: {exc}") from exc
    return CspInstance(theorem, dict(params), family, family.kind, order, expr)


# ---------------------------------------------------------------------------
# Size guard

# Each letter of a member's word takes at most one frame of the recursive
# b-tree walk (`trees._btree_walk`) that every member list and word-family census
# comes from, so longer words would overflow the interpreter's recursion limit.
# The command line's orbit and biject, whose cost grows as the square of
# the word length, take no longer words either.
MAX_WORD_LENGTH = 512


def check_size_guard(family, override: "int | None" = None) -> None:
    """Refuse a family too large to enumerate at desk scale.  Its size is
    half its word length (the edge count of a tree or map); words longer
    than MAX_WORD_LENGTH are refused whatever the guard."""
    limit = override if override is not None else family.guard_limit
    size = (family.word_length + 1) // 2
    if size > limit:
        raise SizeGuardExceeded(
            f"size {size} of {family} exceeds guard {limit}; "
            f"raise with --size-guard")
    if family.word_length > MAX_WORD_LENGTH:
        raise SizeGuardExceeded(
            f"words of {family} have {family.word_length} letters; the "
            f"recursive enumeration takes at most {MAX_WORD_LENGTH}, "
            f"whatever the guard")


# ---------------------------------------------------------------------------
# Verification


class VerificationReport(_Value):
    theorem: str
    params: dict
    rows: list  # dicts: e, d, brute, closed, poly_value, agree
    overall: bool
    seconds: float

    # a mutable record, and so unhashable
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def to_json(self) -> str:
        return json.dumps({"theorem": self.theorem, "params": self.params,
                           "rows": self.rows, "overall": self.overall,
                           "seconds": self.seconds})


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
    # Every period divides m, so the three counts depend on e only through
    # d = m / gcd(e, m): each is computed once per d.
    counts, rows = {}, []
    for e in exponents:
        d = m // math.gcd(e, m) if e else 1
        if d not in counts:
            query = FixQuery(instance.family, instance.kind, e)
            counts[d] = (fix_count_bruteforce(query), fix_count_closed(query),
                         eval_expr_at_root(instance.expr, d))
        brute, closed, poly_value = counts[d]
        rows.append({"e": e, "d": d, "brute": brute, "closed": closed,
                     "poly_value": poly_value, "agree": brute == closed == poly_value})
    return VerificationReport(instance.theorem, instance.params, rows,
                              all(r["agree"] for r in rows),
                              time.perf_counter() - start)


def check_poly_nonneg(instance: CspInstance) -> dict:
    """Exact division into a polynomial, plus coefficient shape predicates."""
    try:
        poly = instance.polynomial()
    except NotPolynomial:
        return {"polynomial": False, "nonneg": False, "reciprocal": False}
    shapes = shape_predicates(poly)
    return {"polynomial": True, "nonneg": shapes["nonneg"],
            "reciprocal": shapes["is_reciprocal"]}


# ---------------------------------------------------------------------------
# Summation identities


REFINED_LEAVES = "refined_leaves"
CHU_VANDERMONDE_TM = "chu_vandermonde_tm"


def check_sum_identity(which: str, n: int) -> bool:
    """Exact polynomial identity between refined and unrefined instances.

    The unrefined side is expanded first: no term has a higher degree, so a
    degree above MAX_POLY_DEGREE is refused before any work is done.  A
    refusal names the identity and its n."""
    try:
        if which == REFINED_LEAVES:
            if n < 2:
                raise InfeasibleParams("needs n >= 2")
            target = build_instance("ord", n=n).polynomial()
            terms = [(build_instance("ord_leaves", n=n, k=k).expr, k * (k - 2))
                     for k in range(2, n + 1)]
        elif which == CHU_VANDERMONDE_TM:
            if n < 1:
                raise InfeasibleParams("needs n >= 1")
            target = build_instance("tmn", n=n).polynomial()
            terms = [(build_instance("tmij", i=i, j=n - i).expr, (n + 1 - i) * (n - i))
                     for i in range(n + 1)]
        else:
            raise ValueError(f"unknown identity {which!r}")
    except (InfeasibleParams, SizeGuardExceeded) as exc:
        raise type(exc)(f"{which} with n = {n}: {exc}") from exc
    total = QPolynomial(())
    for expr, shift in terms:
        total = total + to_polynomial(QProductExpr(
            expr.shift + shift, expr.num, expr.den, expr.scalar))
    return total == target
