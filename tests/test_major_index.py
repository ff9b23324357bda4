"""The sieving polynomials as a member statistic: the major index.

maj(w) is the sum of the 1-based positions i with w_i > w_{i+1}, the letters
ordered ( < ) < b and E < W < N < S.  Over each family's members, the
histogram of maj (shifted where a theorem's polynomial starts above q^0) is
the coefficient list of the theorem's polynomial.  Nothing in the library
computes maj: these tests read it off the member words alone.
"""
import pytest

from sieveforest.csp import InfeasibleParams, build_instance

RANK = {letter: rank for rank, letter in enumerate("()b")}
RANK.update({letter: rank for rank, letter in enumerate("EWNS")})


def maj(word: str) -> int:
    return sum(i for i in range(1, len(word))
               if RANK[word[i - 1]] > RANK[word[i]])


def histogram(values) -> list[int]:
    values = list(values)
    out = [0] * (max(values, default=-1) + 1)
    for v in values:
        out[v] += 1
    return out


def leaves_params():
    return [{"n": n, "k": k} for n in range(2, 10) for k in range(2, n + 1)]


def plain(word, params):
    return maj(word)


def tmn_statistic(word, params):
    """maj plus (n + 1 - i)(n - i), i the map's tree edges (its E letters)."""
    n, i = params["n"], word.count("E")
    return maj(word) + (n + 1 - i) * (n - i)


# theorem -> (parameters, shift of the histogram, statistic of a member)
CASES = {
    "ord": ([{"n": n} for n in range(10)], lambda p: 0, plain),
    "ncm_rotation": ([{"j": j} for j in range(9)], lambda p: 0, plain),
    "ord_leaves": (leaves_params(), lambda p: p["k"] * (p["k"] - 2), plain),
    "ext": (leaves_params(), lambda p: p["k"] * (p["k"] - 2), plain),
    "int": (leaves_params(), lambda p: p["k"] * (p["k"] - 1), plain),
    "btij": ([{"b": b, "n": n} for b in range(8) for n in range(8 - b)],
             lambda p: 0, plain),
    "tmij": ([{"i": i, "j": j} for i in range(5) for j in range(5 - i)],
             lambda p: 0, plain),
    "tmn": ([{"n": n} for n in range(5)], lambda p: 0, tmn_statistic),
}


@pytest.mark.parametrize("theorem", list(CASES))
def test_major_index_histogram_is_the_polynomial(theorem):
    params_list, shift, statistic = CASES[theorem]
    for params in params_list:
        try:
            instance = build_instance(theorem, **params)
        except InfeasibleParams:
            # only the one-member family of size 0, whose rotation has order 0
            assert not any(params.values()), (theorem, params)
            continue
        got = histogram(statistic(m.word, params)
                        for m in instance.family.members())
        assert got == [0] * shift(params) + list(instance.polynomial().coeffs), \
            (theorem, params)
