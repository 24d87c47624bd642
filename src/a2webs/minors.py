"""Products of three complementary minors, expanded in web immanants.

A triple of minors is complementary when the three row index sets
partition 1..n and the three column sets do too, with matching sizes.
Such a product of minors expands exactly as

    minor_1 * minor_2 * minor_3 = sum over D of |L_{D,g}| Imm_D

where g is the boundary word that marks each source position with the
number of the row block containing it (likewise sinks and column
blocks), and |L_{D,g}| is the plain count of consistent labelings.
The coefficients are therefore nonnegative integers computable with
no linear algebra at all; the identity itself is checked numerically
on random rational matrices, and the coefficient matrix over all
triples has full column rank, so the immanants are exactly the span
of these products.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .exactmath import rank, rank_mod2
from .immanants import ExactMatrix, evaluate_immanant, irreducible_webs
from .labelings import word_counts
from .webcore import Web, WebError


def index_set(xs: Sequence[int], n: Optional[int] = None) -> tuple[int, ...]:
    """xs sorted, refusing a repeat and, when n is given, an index
    outside 1..n."""
    out = tuple(sorted(int(x) for x in xs))
    if len(set(out)) != len(out):
        raise WebError(f"repeated index in {tuple(xs)}")
    for x in out:
        if n is not None and not 1 <= x <= n:
            raise WebError(f"index {x} out of range 1..{n}")
    return out


@dataclass(frozen=True)
class MinorTriple:
    """Row blocks (I1, I2, I3) and column blocks (J1, J2, J3)."""

    rows: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    cols: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

    def __post_init__(self):
        flat_r = [m for blk in self.rows for m in blk]
        flat_c = [m for blk in self.cols for m in blk]
        n = len(flat_r)
        if sorted(flat_r) != list(range(1, n + 1)):
            raise WebError("row blocks must partition 1..n")
        if sorted(flat_c) != list(range(1, n + 1)):
            raise WebError("column blocks must partition 1..n")
        if any(len(i) != len(j) for i, j in zip(self.rows, self.cols)):
            raise WebError("paired blocks must have equal sizes")

    @classmethod
    def from_sets(cls, I1, I2, I3, J1, J2, J3) -> "MinorTriple":
        return cls(
            (index_set(I1), index_set(I2), index_set(I3)),
            (index_set(J1), index_set(J2), index_set(J3)),
        )

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.rows)


def boundary_from_triple(T: MinorTriple) -> tuple[int, ...]:
    """The boundary word of T: source m gets the number of the row
    block holding m, and sinks read the column blocks the same way."""
    n = T.n
    src = [0] * n
    snk = [0] * n
    for k, blk in enumerate(T.rows, start=1):
        for m in blk:
            src[m - 1] = k
    for k, blk in enumerate(T.cols, start=1):
        for m in blk:
            snk[m - 1] = k
    return tuple(src + snk)


def minor(X: ExactMatrix, I: Sequence[int], J: Sequence[int]) -> Fraction:
    """Determinant of the (I, J) submatrix, 1-indexed; empty gives 1."""
    I, J = index_set(I, X.n), index_set(J, X.n)
    if len(I) != len(J):
        raise WebError(f"minor needs equal index sets, got {I} and {J}")
    return X.submatrix([i - 1 for i in I], [j - 1 for j in J]).det()


# n -> boundary word (source labels then sink labels, a plain tuple)
# -> {irreducible web: labeling count}, webs in irreducible_webs order.
# Bounded: irreducible_webs refuses n above its strand bound.
@cache
def _decompositions(n: int) -> dict[tuple[int, ...], dict[Web, int]]:
    table = {}
    for D in irreducible_webs(n):
        for g, c in word_counts(D).items():
            table.setdefault(g, {})[D] = c
    return table


def decompose_triple(T: MinorTriple) -> dict[Web, int]:
    """Webs with nonzero coefficient in the expansion of T's product,
    each coefficient a plain labeling count.  The counts of every web
    on T.n strands are enumerated once, on the first call for that n."""
    return dict(_decompositions(T.n).get(boundary_from_triple(T), {}))


def triple_product(T: MinorTriple, X: ExactMatrix) -> Fraction:
    return (
        minor(X, T.rows[0], T.cols[0])
        * minor(X, T.rows[1], T.cols[1])
        * minor(X, T.rows[2], T.cols[2])
    )


def check_triple(T: MinorTriple, X: ExactMatrix, imm_cache: Optional[dict] = None) -> bool:
    """Numeric verification of the expansion on one matrix.  Pass a
    dict when checking many triples against the same matrix; immanant
    values are reused through it."""
    if imm_cache is None:
        imm_cache = {}
    rhs = Fraction(0)
    for D, c in decompose_triple(T).items():
        if D.code not in imm_cache:
            imm_cache[D.code] = evaluate_immanant(D, X)
        rhs += c * imm_cache[D.code]
    return triple_product(T, X) == rhs


def iter_triples(n: int) -> Iterator[MinorTriple]:
    """Every complementary triple on 1..n, rows and columns both
    running over all 3-block ordered set partitions of matching sizes,
    made one at a time."""
    by_sizes: dict = {}
    assignments = list(itertools.product((1, 2, 3), repeat=n))
    for assign in assignments:
        blocks = tuple(
            tuple(m for m in range(1, n + 1) if assign[m - 1] == k)
            for k in (1, 2, 3)
        )
        sizes = tuple(len(b) for b in blocks)
        by_sizes.setdefault(sizes, []).append(blocks)
    for sizes, row_choices in sorted(by_sizes.items()):
        for rows in row_choices:
            for cols in by_sizes[sizes]:
                yield MinorTriple(rows, cols)


def all_triples(n: int) -> list[MinorTriple]:
    """The triples of iter_triples(n), in its order."""
    return list(iter_triples(n))


def random_triple(n: int, rng: random.Random) -> MinorTriple:
    assign = [rng.randint(1, 3) for _ in range(n)]
    rows = tuple(
        tuple(m for m in range(1, n + 1) if assign[m - 1] == k) for k in (1, 2, 3)
    )
    labels = [k for k, blk in enumerate(rows, start=1) for _ in blk]
    rng.shuffle(labels)
    cols = tuple(
        tuple(m for m in range(1, n + 1) if labels[m - 1] == k) for k in (1, 2, 3)
    )
    return MinorTriple(rows, cols)


def random_rational_matrix(n: int, rng: random.Random) -> ExactMatrix:
    """Entries p/q with |p| <= 9 and 1 <= q <= 5, drawn row by row."""
    return ExactMatrix.from_rows(
        [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)]
    )


def column_rank(rows: Callable[[], Iterable[Mapping[Web, int]]], webs: Sequence[Web]) -> tuple[int, str]:
    """Rank of the matrix whose rows are the {web: int} dicts that
    rows() yields, one column per entry of webs, and the route that
    found it.  The F_2 certificate (rank_mod2) runs first; when it falls
    short of full column rank, rows() is called again and the exact
    elimination gives the rank."""
    column = {D: k for k, D in enumerate(webs)}
    r = rank_mod2((((column[D], c) for D, c in row.items()) for row in rows()), len(webs))
    if r == len(webs):
        return r, "mod 2"
    return rank([row.get(D, 0) for D in webs] for row in rows()), "exact"


def rank_check(n: int) -> dict:
    """Rank of the coefficient matrix (triples by webs).  Full column
    rank means the immanants are a basis for the span of complementary
    minor products.  The report also records the largest coefficient
    seen, since the expansion is not multiplicity free in general, and
    the route of column_rank that found the rank."""
    webs = irreducible_webs(n)
    triples, max_coeff, max_at = 0, 0, None

    # iter_triples, not all_triples: at n = 6 the list raised peak RSS
    # from 163 to 199 MiB
    def coefficient_rows():
        nonlocal triples, max_coeff, max_at
        triples = 0
        for T in iter_triples(n):
            triples += 1
            row = decompose_triple(T)
            top = max(row.values(), default=0)
            if top > max_coeff:
                max_coeff, max_at = top, T
            yield row

    r, route = column_rank(coefficient_rows, webs)
    report = {
        "n": n,
        "triples": triples,
        "webs": len(webs),
        "rank": r,
        "rank_route": route,
        "max_coefficient": max_coeff,
        "max_coefficient_triple": None,
        "passed": r == len(webs),
    }
    if max_at is not None:
        report["max_coefficient_triple"] = {
            "rows": [list(b) for b in max_at.rows],
            "cols": [list(b) for b in max_at.cols],
        }
    return report
