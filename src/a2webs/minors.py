"""Products of three complementary minors, expanded in web immanants.

A triple of minors is complementary when the three row index sets
partition 1..n and the three column sets do too, with matching sizes.
Such a product of minors expands exactly as

    minor_1 * minor_2 * minor_3 = sum over D of |L_{D,g}| Imm_D

where g is the boundary word that marks each source position with the
number of the row block containing it (likewise sinks and column
blocks), and |L_{D,g}| is the plain count of consistent labelings.
So a triple is its boundary word (`triple_word` makes it from blocks,
`triple_blocks` reads them back): 2n labels in {1, 2, 3}, each as
often among the sources as among the sinks.
The coefficients are therefore nonnegative integers computable with
no linear algebra at all; the identity itself is checked numerically
on random rational matrices, and the coefficient matrix over all
triples has full column rank, so the immanants are exactly the span
of these products.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from fractions import Fraction
from functools import cache
from typing import Iterator, Optional, Sequence

from .exactmath import quoted
from .immanants import ExactMatrix, evaluate_immanant, irreducible_webs
from .labelings import _boundary_edges, enumerate_labelings
from .webcore import Web, WebError, int_entries


def index_set(xs: Sequence[int], n: Optional[int] = None) -> tuple[int, ...]:
    """xs sorted, refusing an entry that is no int (see int_entries), a
    repeat and, when n is given, an index outside 1..n."""
    xs = int_entries(xs)
    out = tuple(sorted(xs))
    if len(set(out)) != len(out):
        raise WebError(f"repeated index in {quoted(xs)}")
    for x in out:
        if n is not None and not 1 <= x <= n:
            raise WebError(f"index {quoted(x)} out of range 1..{n}")
    return out


def triple_word(rows: Sequence[Sequence[int]], cols: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The boundary word of the triple with row blocks (I1, I2, I3) and
    column blocks (J1, J2, J3): source m gets the number of the row
    block holding m, and sinks read the column blocks the same way.
    Refuses blocks that are not a complementary triple's."""
    rows = [index_set(b) for b in rows]
    cols = [index_set(b) for b in cols]
    n = sum(len(b) for b in rows)
    for blocks, what in ((rows, "row"), (cols, "column")):
        if sorted(m for b in blocks for m in b) != list(range(1, n + 1)):
            raise WebError(f"{what} blocks must partition 1..n")
    if any(len(i) != len(j) for i, j in zip(rows, cols)):
        raise WebError("paired blocks must have equal sizes")
    g = [0] * (2 * n)
    for k, (I, J) in enumerate(zip(rows, cols), start=1):
        for m in I:
            g[m - 1] = k
        for m in J:
            g[n + m - 1] = k
    return tuple(g)


def _checked_word(g: Sequence[int]) -> tuple[int, ...]:
    """g as a tuple of ints (see int_entries), refusing a word that is
    no triple's."""
    g = int_entries(g)
    n, odd = divmod(len(g), 2)
    if odd:
        raise WebError(f"a triple's word has an even length, got {len(g)} labels")
    if not set(g) <= {1, 2, 3}:
        raise WebError(f"a triple's labels lie in 1..3, got {quoted(g)}")
    if sorted(g[:n]) != sorted(g[n:]):
        raise WebError(f"each label of {quoted(g)} must mark as many sources as sinks")
    return g


def triple_blocks(g: Sequence[int]) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """The row blocks and the column blocks of the triple whose boundary
    word is g; refuses a word that is no triple's."""
    g = _checked_word(g)
    n = len(g) // 2
    return tuple(
        tuple(tuple(m for m, b in enumerate(half, start=1) if b == k) for k in (1, 2, 3))
        for half in (g[:n], g[n:])
    )


def minor(X: ExactMatrix, I: Sequence[int], J: Sequence[int]) -> Fraction:
    """Determinant of the (I, J) submatrix, 1-indexed; empty gives 1."""
    I, J = index_set(I, X.n), index_set(J, X.n)
    if len(I) != len(J):
        raise WebError(f"minor needs equal index sets, got {I} and {J}")
    return X.submatrix([i - 1 for i in I], [j - 1 for j in J]).det()


@cache
def _decompositions(n: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """The word of every complementary triple on 1..n, in iter_triples
    order, mapped to the positions in irreducible_webs(n) of the webs
    its labelings are of, one position per labeling: a web with c
    labelings appears c times.  Each web's labelings are enumerated
    once, in any order, and each appends the web's position to the row
    of its boundary word, read by one itemgetter; the webs are taken in
    position order, so every row is ascending by construction.  At n = 6
    these rows of plain ints hold 1,197,741 labelings of 35,169 words in
    about 16 MiB, where one {web: count} dict per word held 50 MiB.
    Each word's list becomes a tuple in place: building a second dict of
    tuples peaked 2 MiB higher at n = 6.  Bounded: irreducible_webs
    refuses n above its strand bound."""
    rows: dict = {g: [] for g in iter_triples(n)}
    for k, D in enumerate(irreducible_webs(n)):
        word = operator.itemgetter(*_boundary_edges(D))
        for f in enumerate_labelings(D):
            rows[word(f)].append(k)
    for g, ks in rows.items():
        rows[g] = tuple(ks)
    return rows


def decompose_triple(g: Sequence[int]) -> dict[Web, int]:
    """Webs with nonzero coefficient in the expansion of the product of
    the triple with boundary word g, each coefficient a plain labeling
    count, in irreducible_webs order.  The counts of every web on n
    strands are enumerated once, on the first call for that n; each
    call tallies the word's row of positions into a new dict, every web
    at 1 and then each repeated position by its count."""
    g = _checked_word(g)
    n = len(g) // 2
    webs = irreducible_webs(n)
    row = _decompositions(n)[g]
    counts = dict.fromkeys(map(webs.__getitem__, row), 1)
    if len(counts) < len(row):  # a web with more than one labeling
        for k in {k for k, j in zip(row, row[1:]) if k == j}:
            counts[webs[k]] = row.count(k)
    return counts


def triple_product(g: Sequence[int], X: ExactMatrix) -> Fraction:
    """The product of the three minors of X that the triple with
    boundary word g picks out; refuses a word that is no triple's and
    a matrix whose size is not the word's strand count."""
    rows, cols = triple_blocks(g)
    if X.n != len(g) // 2:
        raise WebError(f"a triple on {len(g) // 2} strands against a {X.n} by {X.n} matrix")
    return math.prod(minor(X, I, J) for I, J in zip(rows, cols))


def check_triple(g: Sequence[int], X: ExactMatrix, imm_cache: Optional[dict] = None) -> bool:
    """Numeric verification of the expansion on one matrix.  Pass a
    dict when checking many triples against the same matrix; immanant
    values are reused through it."""
    lhs = triple_product(g, X)
    if imm_cache is None:
        imm_cache = {}
    rhs = Fraction(0)
    for D, c in decompose_triple(g).items():
        if D.code not in imm_cache:
            imm_cache[D.code] = evaluate_immanant(D, X)
        rhs += c * imm_cache[D.code]
    return lhs == rhs


def iter_triples(n: int) -> Iterator[tuple[int, ...]]:
    """The boundary word of every complementary triple on 1..n, made
    one at a time: by block sizes, then the sources' labels, then the
    sinks', each half in itertools.product order."""
    by_sizes: dict = {}
    for half in itertools.product((1, 2, 3), repeat=n):
        by_sizes.setdefault(tuple(map(half.count, (1, 2, 3))), []).append(half)
    for sizes in sorted(by_sizes):
        halves = by_sizes[sizes]
        for src in halves:
            for snk in halves:
                yield src + snk


def all_triples(n: int) -> list[tuple[int, ...]]:
    """The words of iter_triples(n), in its order."""
    return list(iter_triples(n))


def random_triple(n: int, rng: random.Random) -> tuple[int, ...]:
    """The word of a random triple: each source's label drawn from
    1..3, the sinks a shuffle of the same labels."""
    src = [rng.randint(1, 3) for _ in range(n)]
    snk = sorted(src)
    rng.shuffle(snk)
    return tuple(src + snk)


def random_rational_matrix(n: int, rng: random.Random) -> ExactMatrix:
    """Entries p/q with |p| <= 9 and 1 <= q <= 5, drawn row by row."""
    return ExactMatrix.from_rows(
        [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)]
    )


def rank_check(n: int) -> dict:
    """Rank of the coefficient matrix (triples by webs), certified in
    one pass over the rows of _decompositions(n), in iter_triples order.
    The first triple whose row holds web D is D's least word g_D, so
    only a row that holds a position not met before is decomposed, and
    D's count there is recorded.  The webs with one labeling at g_D, one
    per distinct g_D and sorted by it, give a unitriangular minor, since
    no web has a labeling before its own least word (Khovanov-Kuperberg's
    triangularity by minimal states); their count is the rank reported,
    a lower bound on the rank over Q.  The check passes when that is the
    number of webs, so the immanants are a basis for the span of
    complementary minor products; up to n = 6 it is not short, and the
    g_D are distinct, so one row per web is decomposed.  The largest
    coefficient, the most repeated position of any row, is recorded on
    the way, since the expansion is not multiplicity free in general."""
    webs = irreducible_webs(n)
    table = _decompositions(n)
    max_coeff, max_at = 0, None
    least: dict[Web, tuple] = {}
    met: set[int] = set()
    for g, row in table.items():
        if not met.issuperset(row):
            met.update(row)
            for D, c in decompose_triple(g).items():
                least.setdefault(D, (g, c))
        # a row whose positions repeat fewer than max_coeff times in all
        # holds no web more than max_coeff times
        if row and len(row) - len(set(row)) >= max_coeff:
            # the row is ascending, so a repeated position is adjacent
            repeated = {k for k, j in zip(row, row[1:]) if k == j}
            top = max(map(row.count, repeated)) if repeated else 1
            if top > max_coeff:
                max_coeff, max_at = top, g
    r = len({g for g, c in least.values() if c == 1})
    report = {
        "n": n,
        "triples": len(table),
        "webs": len(webs),
        "rank": r,
        "max_coefficient": max_coeff,
        "max_coefficient_triple": None,
        "passed": r == len(webs),
    }
    if max_at is not None:
        rows, cols = triple_blocks(max_at)
        report["max_coefficient_triple"] = {
            "rows": [list(b) for b in rows],
            "cols": [list(b) for b in cols],
        }
    return report
