"""The root value by multiplying out every factor: the route that
`qseries.eval_expr_at_root` took before it counted the indices by residue
class.  Each [a]_q whose index is not a multiple of d is one
rotate-and-subtract in Z[q]/(q^d - 1), and the value is finished in
`Fraction` arithmetic.  Tests compare the library's route with it."""
import math
import operator
from fractions import Fraction

from sieveforest.qseries import (NonIntegerValue, PoleAtRoot, QProductExpr,
                                 cyclotomic)


def reference_root_value(expr: QProductExpr, d: int) -> int:
    """The value at a primitive d-th root of unity, every factor multiplied
    out: multiples of d pair off, [a]_q/[b]_q tending to a/b (if they cannot,
    the value is 0 or a pole); every other [a]_q is (1 - q^a)/(1 - q), and
    the two sides, with q^shift and the (1 - q) factors, are multiplied out
    factor by factor and reduced once modulo Phi_d.  The value is rational
    only if top = c * bottom coefficient by coefficient."""
    if d < 1:
        raise ValueError("root order must be >= 1")
    if d == 1:
        val = expr.scalar * math.prod(expr.num) / math.prod(expr.den)
        if val.denominator != 1:
            raise NonIntegerValue(f"value at q=1 is {val}")
        return int(val)
    mult = (sum(1 for a in expr.num if a % d == 0)
            - sum(1 for b in expr.den if b % d == 0))
    if mult < 0:
        raise PoleAtRoot(f"expression has a pole of order {-mult} at a primitive {d}-th root")
    if mult > 0:
        return 0
    phi = cyclotomic(d).coeffs
    n = len(phi) - 1
    ones = len(expr.den) - len(expr.num)
    sides = []
    for start, indices in ((expr.shift % d, expr.num + (1,) * ones),
                           (0, expr.den + (1,) * -ones)):
        v = [0] * d
        v[start] = 1
        for r in [a % d for a in indices if a % d]:
            v = list(map(operator.sub, v, v[-r:] + v[:-r]))
        for i in range(d - 1, n - 1, -1):
            for j in range(n):
                v[i - n + j] -= v[i] * phi[j]
        sides.append(v[:n])
    top, bottom = sides
    k = next(k for k, c in enumerate(bottom) if c)
    if any(t * bottom[k] != b * top[k] for t, b in zip(top, bottom)):
        raise NonIntegerValue(f"value at a primitive {d}-th root is irrational")
    val = (Fraction(expr.scalar) * Fraction(top[k], bottom[k])
           * math.prod(a for a in expr.num if a % d == 0)
           / math.prod(b for b in expr.den if b % d == 0))
    if val.denominator != 1:
        raise NonIntegerValue(f"value at a primitive {d}-th root is {val}")
    return int(val)
