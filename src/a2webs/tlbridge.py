"""Matching layer and the bridge between its immanants and web immanants.

Noncrossing perfect matchings on n left and n right points are the
diagram basis of the rank-2 relative of our algebra, one for each
321-avoiding permutation.  Arcs with both ends on one side carry a
marked interior point; labelings assign 1 or 2 to each arc end and must
switch value exactly at the marked points.

The layer keeps no algebra and no gluing of its own.  The
Temperley-Lieb immanant of a 321-avoiding permutation w is the web
immanant of tl_web(w), the product of the E_i along w's reduced word,
which is irreducible (checked for every w up to the `webs` strand
bound), and w's matching is read off that web by the forgetful map
below.  The matching algebra's own route, after Rhoades and Skandera,
with its gluing by concatenation, lives in the tests.

Deleting the 3-labeled edges from a consistently labeled web leaves
each internal vertex with degree two, so the surviving edges join up
into such a matching.  Counting the web labelings that land on a fixed
matching turns products "matching immanant times a single minor" into
integer combinations of web immanants; bridge_expansion returns
those counts for every irreducible web.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Sequence

from .exactmath import quoted
from .immanants import ExactMatrix, evaluate_immanant, irreducible_webs
from .labelings import _boundary_edges, _check_counts, enumerate_labelings
from .minors import index_set
from .perms import Perm, all_perms, avoids, first_reduced_word
from .spider import product_web
from .webcore import Web, WebError

Arc = tuple[int, int]


def _circle_position(p: int, n: int) -> int:
    # boundary walk order: down the left side, then up the right
    return p if p < n else 3 * n - 1 - p


@dataclass(frozen=True)
class A1Web:
    """Noncrossing perfect matching on n left and n right points.

    Points 0..n-1 run down the left side, n..2n-1 down the right.  Arcs
    are stored as sorted pairs in sorted order, so equality is plain
    field equality.
    """

    n: int
    arcs: tuple[Arc, ...]

    def __post_init__(self):
        n = self.n
        arcs = tuple(sorted(tuple(sorted(a)) for a in self.arcs))
        object.__setattr__(self, "arcs", arcs)
        if sorted(p for a in arcs for p in a) != list(range(2 * n)):
            raise WebError("arcs must cover the 2n boundary points exactly once")
        pos = [sorted(_circle_position(p, n) for p in a) for a in arcs]
        for (a, b), (c, d) in itertools.combinations(pos, 2):
            if (a < c < b) != (a < d < b):
                raise WebError("arcs cross")

    def is_cross(self, arc: Arc) -> bool:
        a, b = arc
        return a < self.n <= b

    def to_json_obj(self) -> list:
        return [list(a) for a in self.arcs]


def _check_avoiding(w: Perm) -> None:
    if not avoids(w, (3, 2, 1)):  # refuses a non-permutation
        raise WebError(f"{quoted(w)} contains a 321 pattern")


def tl_web(w: Perm) -> Web:
    """The web of a 321-avoiding permutation: the product of the E_i
    along its reversed reduced word, the orientation the trivalent layer
    uses for its generator products.  It is irreducible, checked against
    the table (refused above the `webs` strand bound), and its immanant
    is w's Temperley-Lieb immanant.  w is checked before the memo, which
    (True, 2) would hit as (1, 2)."""
    _check_avoiding(w)
    return _tl_web(w)


@cache
def _tl_web(w: Perm) -> Web:
    webs = irreducible_webs(len(w))
    D = product_web(len(w), reversed(first_reduced_word(w)))
    if D not in webs:
        raise RuntimeError(f"the web of {w} is not an irreducible web of the table")
    return D


def matching_of_perm(w: Perm) -> A1Web:
    """Basis matching of a 321-avoiding permutation, read off its web:
    the forgetful image of the first labeling of tl_web(w), in search
    order, at the alternating word 1,2,1,2,...:1,2,1,2,...  Every
    product of E_i admits that word, since each E_i meets strands i
    and i+1 labeled 1 and 2 and can hand them on in the same order, and
    every labeling with no 3 on its boundary, 2^n of them, lands on
    this one matching, the concatenation of uncrossings along w's
    reduced word (tested); a web with none at that word is a failed
    invariant.  Bounded, checked and memoized as tl_web is."""
    _check_avoiding(w)
    return _matching(w)


@cache
def _matching(w: Perm) -> A1Web:
    D = _tl_web(w)
    found = enumerate_labelings(D, tuple(1 + k % 2 for k in range(len(w))) * 2)
    if not found:
        raise RuntimeError(f"the web of {w} has no labeling at the alternating boundary word")
    return forgetful(D, found[0])


def tl_immanant(w: Perm, Xp: ExactMatrix) -> Fraction:
    """Temperley-Lieb immanant of a 321-avoiding permutation: the web
    immanant of tl_web(w)."""
    if Xp.n != len(w):
        raise WebError(f"permutation of {len(w)} against a {Xp.n} by {Xp.n} matrix")
    return evaluate_immanant(tl_web(w), Xp)


# -- labelings of matchings -------------------------------------------
#
# A labeling assigns 1 or 2 to both ends of every arc.  Every arc end is
# a boundary point, so a labeling is its boundary word: 2n values, the
# left side then the right side.


def matching_labelings(m: A1Web) -> list[tuple[int, ...]]:
    """All consistent labelings: one binary choice per arc, in product
    order over the arcs."""
    out = []
    for xs in itertools.product((1, 2), repeat=len(m.arcs)):
        g = [0] * (2 * m.n)
        for (a, b), x in zip(m.arcs, xs):
            g[a], g[b] = x, x if m.is_cross((a, b)) else 3 - x
        out.append(tuple(g))
    return out


def admits(m: A1Web, g: Sequence[int]) -> bool:
    """Whether the boundary word g is a consistent labeling of m: arcs
    joining the two sides keep one value, one-sided arcs switch value
    at their marked interior point."""
    if len(g) != 2 * m.n:
        raise WebError(f"boundary must list {m.n} values per side")
    if any(x not in (1, 2) for x in g):
        raise WebError("matching boundaries live in {1, 2}")
    return all((g[a] == g[b]) == m.is_cross((a, b)) for a, b in m.arcs)


@cache
def avoiding_321(n: int) -> tuple[Perm, ...]:
    """The 321-avoiding permutations of 1..n, in all_perms order."""
    return tuple(w for w in all_perms(n) if avoids(w, (3, 2, 1)))


def pair_boundary(n: int, rows1: Sequence[int], cols1: Sequence[int]) -> tuple[int, ...]:
    """Boundary word for a complementary pair of minors: 1 at the named
    rows and columns, 2 elsewhere."""
    rows1, cols1 = index_set(rows1, n), index_set(cols1, n)
    if len(rows1) != len(cols1):
        raise WebError("row and column sets must have equal size")
    return tuple(1 if p in side else 2 for side in (rows1, cols1) for p in range(1, n + 1))


def pair_expansion(
    n: int, rows1: Sequence[int], cols1: Sequence[int]
) -> dict[Perm, int]:
    """The 321-avoiding permutations whose matching admits the pair
    boundary; each carries coefficient one.  Their immanants sum to the
    product of the two complementary minors (tested)."""
    g = pair_boundary(n, rows1, cols1)
    return {w: 1 for w in avoiding_321(n) if admits(matching_of_perm(w), g)}


# -- the forgetful map and bridge coefficients ------------------------


def forgetful(w: Web, f: tuple[int, ...]) -> A1Web:
    """Delete the 3-labeled edges of a labeled web and read off what is
    left.  Internal vertices drop to degree two, so the surviving edges
    concatenate into arcs between the surviving boundary points; closed
    curves and drawn loops are discarded without any factor.  The
    matching's labeling is f's boundary word with its 3s removed."""
    _check_counts(w, f)
    m = w.pmap
    nb = 2 * m.n
    bedge = _boundary_edges(w)
    keep = [lbl != 3 for lbl in f[: len(m.edges)]]
    srcs = [v for v in range(m.n) if keep[bedge[v]]]
    snks = [v for v in range(m.n, nb) if keep[bedge[v]]]
    if len(srcs) != len(snks):
        raise WebError("labeling is unbalanced across the boundary")
    k = len(srcs)
    newid = {v: i for i, v in enumerate(srcs)}
    newid.update({v: k + i for i, v in enumerate(snks)})

    arcs, visited = [], set()
    for v0 in srcs + snks:
        if v0 in visited:
            continue
        d = m.rot[v0][0]
        first = f[d >> 1]
        while True:
            e = d >> 1
            u = m.dart_vertex[d ^ 1]
            if u < nb:
                break
            nxt = [x for x in m.rot[u] if (x >> 1) != e and keep[x >> 1]]
            if len(nxt) != 1:
                raise WebError("labeling is not consistent at an internal vertex")
            d = nxt[0]
        visited.update((v0, u))
        cross = (v0 < m.n) != (u < m.n)
        if (first == f[d >> 1]) != cross:
            raise RuntimeError("a forgotten arc breaks the matching labeling rule")
        arcs.append((newid[v0], newid[u]))
    return A1Web(k, tuple(arcs))


def lifted_boundaries(
    n: int, w: Perm, rows3: Sequence[int] = (), cols3: Sequence[int] = ()
) -> list[tuple[int, ...]]:
    """Full web boundary words with 3s exactly at the given rows and
    columns and the rest showing some consistent labeling of w's
    matching.  Any of these certifies the same bridge coefficient.
    Each arc offers two labelings, so the list is never empty."""
    rows3, cols3 = index_set(rows3, n), index_set(cols3, n)
    if len(rows3) != len(cols3):
        raise WebError("deleted row and column sets must have equal size")
    k = n - len(rows3)
    if len(w) != k:
        raise WebError(
            f"need a permutation of {k} with {len(rows3)} deleted rows at n={n}"
        )

    def lift(vals, threes):
        it = iter(vals)
        return tuple(3 if p in threes else next(it) for p in range(1, n + 1))

    return [
        lift(g[:k], rows3) + lift(g[k:], cols3)
        for g in matching_labelings(matching_of_perm(w))
    ]


def bridge_expansion(
    n: int, w: Perm, rows3: Sequence[int] = (), cols3: Sequence[int] = ()
) -> dict[Web, int]:
    """Bridge coefficient of every irreducible web, nonzero entries
    only, all counted against one shared admissible boundary.  The
    strand bound is checked first: the boundary list is exponential
    in n."""
    webs = irreducible_webs(n)
    boundary = lifted_boundaries(n, w, rows3, cols3)[0]
    target = matching_of_perm(w)
    out = {}
    for D in webs:
        # labelings of D with that boundary that forget onto w's matching
        c = sum(1 for f in enumerate_labelings(D, boundary) if forgetful(D, f) == target)
        if c:
            out[D] = c
    return out
