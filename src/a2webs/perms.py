"""Permutations, reduced words, pattern avoidance, and tableau counts.

Permutations on n letters are tuples (w(1), ..., w(n)) with values 1..n.
Generator indices are 1-based: s_i swaps the values in positions i, i+1.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

from .exactmath import quoted
from .webcore import WebError

Perm = tuple[int, ...]


def identity_perm(n: int) -> Perm:
    return tuple(range(1, n + 1))


def is_perm(w: Sequence[int]) -> bool:
    """Whether w lists 1..len(w) once each, as exact ints: a bool or a
    float that equals an int is refused."""
    return all(type(x) is int for x in w) and sorted(w) == list(range(1, len(w) + 1))


def times_s(w: Perm, i: int) -> Perm:
    """w * s_i (swap positions i, i+1; 1-based i < n)."""
    if not 1 <= i < len(w):
        raise WebError(f"generator index {quoted(i)} out of range for n={len(w)}")
    lst = list(w)
    lst[i - 1], lst[i] = lst[i], lst[i - 1]
    return tuple(lst)


def perm_length(w: Perm) -> int:
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def descents(w: Perm) -> list[int]:
    return [i for i in range(1, len(w)) if w[i - 1] > w[i]]


def perm_from_word(n: int, word: Sequence[int]) -> Perm:
    w = identity_perm(n)
    for i in word:
        w = times_s(w, i)
    return w


def first_reduced_word(w: Perm) -> tuple[int, ...]:
    """Reduced word chosen by repeatedly stripping the smallest descent."""
    rev: list[int] = []
    while True:
        ds = descents(w)
        if not ds:
            break
        rev.append(ds[0])
        w = times_s(w, ds[0])
    return tuple(reversed(rev))


def all_reduced_words(w: Perm) -> list[tuple[int, ...]]:
    """Every reduced word of the permutation w; anything else is
    refused with a WebError."""
    if not is_perm(w):
        raise WebError(f"{quoted(w)} is not a permutation")
    cache: dict[Perm, list[tuple[int, ...]]] = {}

    def go(u: Perm) -> list[tuple[int, ...]]:
        if u in cache:
            return cache[u]
        ds = descents(u)
        if not ds:
            cache[u] = [()]
        else:
            out = []
            for i in ds:
                for word in go(times_s(u, i)):
                    out.append(word + (i,))
            cache[u] = out
        return cache[u]

    return go(w)


def all_perms(n: int) -> Iterator[Perm]:
    """The permutations of 1..n in lexicographic order; a negative n is
    refused, so count_avoiding and tlbridge.avoiding_321 refuse it too."""
    _check_nonnegative("all_perms", n)
    return itertools.permutations(range(1, n + 1))


def _check_nonnegative(name: str, n: int) -> None:
    if n < 0:
        raise WebError(f"{name} needs n >= 0, got {quoted(n)}")


def avoids(w: Perm, pattern: Perm) -> bool:
    """Whether no letters of w stand in the relative order of pattern.
    A w or a pattern that is not a permutation is refused with a
    WebError quoting it, so count_avoiding refuses a bad pattern too."""
    for x in (w, pattern):
        if not is_perm(x):
            raise WebError(f"{quoted(x)} is not a permutation")
    k = len(pattern)
    rel = tuple(sorted(range(k), key=lambda i: pattern[i]))
    for sub in itertools.combinations(w, k):
        if tuple(sorted(range(k), key=lambda i: sub[i])) == rel:
            return False
    return True


def count_avoiding(n: int, pattern: Perm) -> int:
    return sum(1 for w in all_perms(n) if avoids(w, pattern))


def catalan(n: int) -> int:
    _check_nonnegative("catalan", n)
    return math.comb(2 * n, n) // (n + 1)


def kostka_three_column(n: int) -> int:
    """Count SSYT of rectangular shape n rows x 3 columns whose content
    uses each of the letters 1..n once and each of n+1..2n twice.

    Semistandard: rows weakly increase left to right, columns strictly
    increase top to bottom.  Counted by the Pieri rule (Stanley, EC2
    7.10): the cells holding one letter form a horizontal strip, so
    filling letter by letter adds at most one cell to each column.  A
    shape is its three column lengths, at most n each, and the count
    walks all of them once per letter.  A negative n is refused.
    """
    _check_nonnegative("kostka_three_column", n)
    ways = {(0, 0, 0): 1}
    for size in [1] * n + [2] * n:
        grown: dict[tuple[int, int, int], int] = {}
        for (a, b, c), k in ways.items():
            for step in itertools.product((0, 1), repeat=3):
                if sum(step) != size:
                    continue
                shape = (a + step[0], b + step[1], c + step[2])
                if n >= shape[0] >= shape[1] >= shape[2]:
                    grown[shape] = grown.get(shape, 0) + k
        ways = grown
    return ways.get((n, n, n), 0)
