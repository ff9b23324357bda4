"""An independent reference for the b-tree word table of `trees`.

`reference_words(b, n)` places n '(' and b buds in every way among 2n + b
letters, the rest ')', and keeps the words the kernel's validator accepts,
in word order ('(' < ')' < 'b'); with no buds they are the plane-tree
words.  `reference_table(b, n)` groups them by the (degree distribution,
root degree) a parse of each word reads.  Neither shares code with the
walk that builds the table, and the cost is one candidate per arrangement:
C(20, 10) = 184,756 for the plane trees with 10 edges.
"""
import functools
import itertools

from sieveforest.trees import _validate_word, degree_distribution, node_degrees


def _accepted(word: str) -> bool:
    try:
        _validate_word(word, "()b")
    except ValueError:
        return False
    return True


@functools.lru_cache(maxsize=None)
def reference_words(b: int, n: int) -> tuple[str, ...]:
    size = 2 * n + b
    words = []
    for buds in itertools.combinations(range(size), b):
        rest = [i for i in range(size) if i not in buds]
        for opens in itertools.combinations(rest, n):
            letters = [")"] * size
            for i in buds:
                letters[i] = "b"
            for i in opens:
                letters[i] = "("
            words.append("".join(letters))
    return tuple(sorted(filter(_accepted, words)))


@functools.lru_cache(maxsize=None)
def reference_table(b: int, n: int) -> dict[tuple, tuple[str, ...]]:
    groups: dict[tuple, list[str]] = {}
    for word in reference_words(b, n):
        degree = node_degrees(word)
        groups.setdefault((degree_distribution(degree), degree[0]), []).append(word)
    return {key: tuple(words) for key, words in groups.items()}
