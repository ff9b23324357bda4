"""Exact arithmetic in Z[q].

q-integers, q-factorial products, q-binomial/multinomial coefficients,
cyclotomic polynomials, and evaluation at roots of unity, all with
arbitrary-precision integers and no floating point.  A q-product has two exact
routes: `to_polynomial` expands it as q^shift * scalar * prod Phi_k^{m_k}, and
`eval_expr_at_root` finds its value at a primitive d-th root of unity without
expanding it.  It counts the indices by residue class mod d, cancels the
classes between numerator and denominator, multiplies out only the net
factors 1 - q^r in Z[q]/(q^d - 1), reduces modulo Phi_d, and finishes with
one exact integer quotient.  The two share no code; each counts the
multiples of k among the indices for the multiplicity of Phi_k on its own.
`eval_at_primitive_root` reduces an expanded polynomial modulo Phi_d.
"""
from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
from fractions import Fraction

from .trees import _Value


class NotPolynomial(ValueError):
    """A product expression or a division does not leave a polynomial over Z."""


class NonIntegerValue(ValueError):
    """A polynomial does not reduce to an integer constant modulo Phi_d."""


class PoleAtRoot(ValueError):
    """A product expression has a pole at the requested root of unity."""


class QPolynomial(_Value):
    """Dense polynomial in q with integer coefficients, constant term first.

    The coefficient tuple never has trailing zeros; the zero polynomial is the
    empty tuple.
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: "tuple[int, ...] | list[int]" = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        """Degree of the leading term; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "QPolynomial | int") -> "QPolynomial":
        oc = (other,) if isinstance(other, int) else other.coeffs
        return QPolynomial([a + b for a, b in itertools.zip_longest(self.coeffs, oc, fillvalue=0)])

    __radd__ = __add__

    def __neg__(self) -> "QPolynomial":
        return QPolynomial([-c for c in self.coeffs])

    def __sub__(self, other: "QPolynomial | int") -> "QPolynomial":
        return self + (-other)

    def __mul__(self, other: "QPolynomial | int") -> "QPolynomial":
        if isinstance(other, int):
            return QPolynomial([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return QPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return QPolynomial(out)

    __rmul__ = __mul__

    def __divmod__(self, d: "QPolynomial") -> "tuple[QPolynomial, QPolynomial]":
        """Long division over Z; every elimination step must divide exactly."""
        if d.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q: list[int] = [0] * max(0, len(self.coeffs) - len(d.coeffs) + 1)
        r = list(self.coeffs)
        lead = d.coeffs[-1]
        while len(r) >= len(d.coeffs):
            if r[-1] == 0:
                r.pop()
                continue
            t, rem = divmod(r[-1], lead)
            if rem:
                raise NotPolynomial(f"leading coefficient {r[-1]} not divisible by {lead}")
            pos = len(r) - len(d.coeffs)
            q[pos] = t
            for i, c in enumerate(d.coeffs):
                r[pos + i] -= t * c
            assert r[-1] == 0
            r.pop()
        return QPolynomial(q), QPolynomial(r)

    def __floordiv__(self, d: "QPolynomial") -> "QPolynomial":
        quo, rem = divmod(self, d)
        if not rem.is_zero():
            raise NotPolynomial(f"remainder {rem} is non-zero")
        return quo

    def __mod__(self, d: "QPolynomial") -> "QPolynomial":
        return divmod(self, d)[1]

    def at_one(self) -> int:
        return sum(self.coeffs)

    def __str__(self) -> str:
        """Ascending powers, e.g. '1 + 2q^2 + q^3'."""
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mono = "" if i == 0 else ("q" if i == 1 else f"q^{i}")
            if i == 0:
                body = str(abs(c))
            else:
                body = mono if abs(c) == 1 else f"{abs(c)}{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)


def q_int(m: int) -> QPolynomial:
    """[m]_q = 1 + q + ... + q^(m-1)."""
    if m < 1:
        raise ValueError(f"q_int requires m >= 1, got {m}")
    return QPolynomial((1,) * m)


class QProductExpr(_Value):
    """scalar * q^shift * prod [a]_q / prod [b]_q, with a, b positive integers.

    The index multisets are kept sorted; equal indices on both sides are *not*
    cancelled eagerly so that the expression mirrors how it was built.
    """

    shift: int
    num: tuple[int, ...]
    den: tuple[int, ...]
    scalar: Fraction

    def __init__(self, shift: int = 0, num=(), den=(), scalar=Fraction(1)):
        if shift < 0:
            raise ValueError("shift must be non-negative")
        num = tuple(sorted(num))
        den = tuple(sorted(den))
        if num and num[0] < 1 or den and den[0] < 1:
            raise ValueError("q-integer indices must be >= 1")
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "scalar", scalar if isinstance(scalar, Fraction)
                           else Fraction(scalar))

    def __mul__(self, other: "QProductExpr") -> "QProductExpr":
        s, t = self.scalar, other.scalar
        return QProductExpr(self.shift + other.shift, self.num + other.num,
                            self.den + other.den,
                            t if s == 1 else s if t == 1 else s * t)

    @property
    def degree(self) -> int:
        """Degree of the quotient, read off the indices: [a]_q has degree a - 1."""
        return self.shift + sum(self.num) - len(self.num) - sum(self.den) + len(self.den)

    def at_one(self) -> Fraction:
        """Value at q = 1: each [a]_q degenerates to a."""
        return self.scalar * math.prod(self.num) / math.prod(self.den)


def q_multinomial(M: int, parts) -> QProductExpr:
    """[M; N1, N2, ...]_q as a product expression; two parts give the q-binomial."""
    parts = tuple(parts)
    if any(p < 0 for p in parts) or M < 0:
        raise ValueError("q_multinomial parts must be non-negative")
    if sum(parts) != M:
        raise ValueError(f"parts {parts} do not sum to {M}")
    # [m]_q! has the indices 1, ..., m
    return QProductExpr(0, range(1, M + 1), [i for p in parts for i in range(1, p + 1)])


def q_binomial(M: int, k: int) -> QProductExpr:
    if not 0 <= k <= M:
        raise ValueError(f"q_binomial requires 0 <= k <= M, got ({M}, {k})")
    return q_multinomial(M, (k, M - k))


@functools.lru_cache(maxsize=None)
def cyclotomic(d: int) -> QPolynomial:
    """Phi_d(q), by exact division of q^d - 1 by the Phi_k for proper divisors k."""
    if d < 1:
        raise ValueError("cyclotomic order must be >= 1")
    poly = QPolynomial((-1,) + (0,) * (d - 1) + (1,))
    for k in range(1, d):
        if d % k == 0:
            poly //= cyclotomic(k)
    return poly


def to_polynomial(expr: QProductExpr) -> QPolynomial:
    """q^shift * scalar * prod_{k>=2} Phi_k^{m_k}, m_k the multiplicity of Phi_k
    in the quotient.

    A polynomial exactly when no m_k is negative; it then equals its power
    series cut off above its degree, the product of the (1 - q^e)^{E_e} that
    make up the [a]_q = (1 - q^a)/(1 - q).  1 - q^e is the product of the
    Phi_k with k | e, so m_k sums the net exponents E_e at the multiples of k
    (none above the last E_e != 0).  Multiplying by 1 - q^e subtracts a
    shifted copy; dividing by it is a running sum over each class mod e.
    """
    exponents = collections.Counter(expr.num)
    exponents.subtract(expr.den)
    top = max((e for e, times in exponents.items() if times), default=1)
    for k in range(2, top + 1):
        if sum(exponents[e] for e in range(k, top + 1, k)) < 0:
            raise NotPolynomial(f"Phi_{k} divides the denominator more often than the numerator")
    exponents[1] += len(expr.den) - len(expr.num)
    size = expr.degree - expr.shift + 1
    cs = [1] + [0] * (size - 1)
    for e, times in sorted(exponents.items(), key=lambda item: -item[1]):  # products first
        for _ in range(abs(times) if e < size else 0):
            if times > 0:
                cs[e:] = map(operator.sub, cs[e:], cs[:size - e])
            else:
                for r in range(e):
                    cs[r::e] = itertools.accumulate(cs[r::e])
    if expr.scalar != 1:
        top, bottom = expr.scalar.numerator, expr.scalar.denominator
        if any(c * top % bottom for c in cs):
            raise NotPolynomial(f"scalar {expr.scalar} does not clear: {QPolynomial(cs)}")
        cs = [c * top // bottom for c in cs]
    return QPolynomial([0] * expr.shift + cs)


def eval_at_primitive_root(p: QPolynomial, d: int) -> int:
    """P at a primitive d-th root of unity (q = 1 for d = 1): its residue
    modulo Phi_d, which must be a constant."""
    if d < 1:
        raise ValueError("root order must be >= 1")
    if d == 1:
        return p.at_one()
    res = p % cyclotomic(d)
    if res.degree > 0:
        raise NonIntegerValue(f"residue mod Phi_{d} is not constant: {res}")
    return res.coeffs[0] if res.coeffs else 0


def eval_expr_at_root(expr: QProductExpr, d: int) -> int:
    """The value at a primitive d-th root of unity, from the product itself.

    Every [a]_q is (1 - q^a)/(1 - q), and 1 - q^a depends, modulo q^d - 1,
    only on the class r = a mod d.  So the indices are counted by class:
    net[r] is the number of numerator indices in class r less the number of
    denominator ones, and the (1 - q) of each [a]_q is counted in class 1.
    net[0] is the multiplicity of Phi_d: the multiples of d pair off,
    [a]_q/[b]_q tending to a/b (if they cannot, the value is 0 or a pole).
    The top side, q^shift times (1 - q^r)^net[r] for each positive net, and
    the bottom side, (1 - q^r)^-net[r] for each negative one, are multiplied
    out in Z[q]/(q^d - 1), where 1 - q^r is one rotate-and-subtract, and
    reduced once modulo Phi_d.  The value is rational only if top =
    c * bottom coefficient by coefficient, and is then c times the paired
    ratio and the scalar, one integer quotient that must be exact.
    """
    if d < 1:
        raise ValueError("root order must be >= 1")
    scalar = expr.scalar
    if d == 1:
        top = scalar.numerator * math.prod(expr.num)
        bottom = scalar.denominator * math.prod(expr.den)
        val, rem = divmod(top, bottom)
        if rem:
            raise NonIntegerValue(f"value at q=1 is {Fraction(top, bottom)}")
        return val
    net = [0] * d
    for a in expr.num:
        net[a % d] += 1
    for b in expr.den:
        net[b % d] -= 1
    if net[0] < 0:
        raise PoleAtRoot(f"expression has a pole of order {-net[0]} at a primitive {d}-th root")
    if net[0] > 0:
        return 0
    net[1] += len(expr.den) - len(expr.num)
    phi = cyclotomic(d).coeffs
    n = len(phi) - 1
    sides = []
    for start, sign in ((expr.shift % d, 1), (0, -1)):
        v = [0] * d
        v[start] = 1
        for r in range(1, d):
            for _ in range(net[r] * sign):
                v = list(map(operator.sub, v, v[-r:] + v[:-r]))
        for i in range(d - 1, n - 1, -1):
            if v[i]:
                for j in range(n):
                    v[i - n + j] -= v[i] * phi[j]
        sides.append(v[:n])
    top, bottom = sides
    # no factor of the bottom vanishes at the root, so its residue is not zero
    k = next(k for k, c in enumerate(bottom) if c)
    if any(t * bottom[k] != b * top[k] for t, b in zip(top, bottom)):
        raise NonIntegerValue(f"value at a primitive {d}-th root is irrational")
    top = scalar.numerator * top[k] * math.prod(a for a in expr.num if a % d == 0)
    bottom = scalar.denominator * bottom[k] * math.prod(b for b in expr.den if b % d == 0)
    val, rem = divmod(top, bottom)
    if rem:
        raise NonIntegerValue(f"value at a primitive {d}-th root is {Fraction(top, bottom)}")
    return val


def shape_predicates(p: QPolynomial) -> dict:
    """Reciprocal (palindromic), unimodal (single peak), non-negative."""
    cs = p.coeffs
    nonneg = all(c >= 0 for c in cs)
    reciprocal = cs == cs[::-1]
    rises = True
    unimodal = True
    for prev, cur in zip(cs, cs[1:]):
        if rises:
            if cur < prev:
                rises = False
        elif cur > prev:
            unimodal = False
            break
    return {"is_reciprocal": reciprocal, "is_unimodal": unimodal, "nonneg": nonneg}
