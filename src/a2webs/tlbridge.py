"""Matching layer and the bridge between its immanants and web immanants.

Noncrossing perfect matchings on n left and n right points are the
diagram basis of the rank-2 relative of our algebra.  They multiply by
concatenation, every erased loop is worth 2 (the q = 1 loop value), and
the basis diagrams are the generator products along reduced words of
321-avoiding permutations.  Arcs with both ends on one side carry a
marked interior point; labelings assign 1 or 2 to each arc end and must
switch value exactly at the marked points.

Deleting the 3-labeled edges from a consistently labeled web leaves
each internal vertex with degree two, so the surviving edges join up
into such a matching.  Counting the web labelings that land on a fixed
matching turns products "matching immanant times a single minor" into
integer combinations of web immanants; those counts are what
bridge_coefficient returns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Optional, Sequence

from .immanants import ExactMatrix, irreducible_webs
from .labelings import enumerate_labelings
from .minors import index_set
from .perms import Perm, all_perms, avoids, first_reduced_word, is_perm
from .webcore import Combo, Web, WebError

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

    def partners(self) -> dict:
        out: dict[int, int] = {}
        for a, b in self.arcs:
            out[a] = b
            out[b] = a
        return out

    def to_json_obj(self) -> list:
        return [list(a) for a in self.arcs]

    @classmethod
    def from_json_obj(cls, obj, n: Optional[int] = None) -> "A1Web":
        arcs = tuple((int(a), int(b)) for a, b in obj)
        if n is None:
            n = len(arcs)
        return cls(n, arcs)


def identity_matching(n: int) -> A1Web:
    return A1Web(n, tuple((p, n + p) for p in range(n)))


def tl_generator(n: int, i: int) -> A1Web:
    """The i-th uncrossing: points i, i+1 cupped on both sides (1-based)."""
    if not 1 <= i < n:
        raise WebError(f"generator index {i} out of range for n={n}")
    arcs = [(i - 1, i), (n + i - 1, n + i)]
    arcs += [(p, n + p) for p in range(n) if p not in (i - 1, i)]
    return A1Web(n, tuple(arcs))


@cache
def all_a1_webs(n: int) -> tuple[A1Web, ...]:
    """Every noncrossing matching; Catalan many (tested)."""
    walk = list(range(n)) + list(range(2 * n - 1, n - 1, -1))

    def go(seq):
        if not seq:
            return [[]]
        out = []
        for k in range(1, len(seq), 2):
            for inner in go(seq[1:k]):
                for outer in go(seq[k + 1 :]):
                    out.append([(seq[0], seq[k])] + inner + outer)
        return out

    webs = [A1Web(n, tuple(arcs)) for arcs in go(tuple(walk))]
    return tuple(sorted(webs, key=lambda w: w.arcs))


def tl_concat(a: A1Web, b: A1Web) -> tuple[A1Web, int]:
    """Glue a's right side to b's left side.

    Returns the resulting matching and the number of closed loops
    erased.  Junction j means a's point n+j fused with b's point j.
    """
    if a.n != b.n:
        raise WebError(f"cannot concatenate matchings on {a.n} and {b.n} strands")
    n = a.n
    pa, pb = a.partners(), b.partners()

    seen: set[int] = set()

    def trace(diag: str, pt: int) -> tuple[str, int]:
        while True:
            q = (pa if diag == "a" else pb)[pt]
            if diag == "a":
                if q < n:
                    return ("a", q)
                seen.add(q - n)
                diag, pt = "b", q - n
            else:
                if q >= n:
                    return ("b", q)
                seen.add(q)
                diag, pt = "a", n + q

    arcs = []
    done: set[tuple[str, int]] = set()
    for start in [("a", p) for p in range(n)] + [("b", p) for p in range(n, 2 * n)]:
        if start in done:
            continue
        end = trace(*start)
        done.add(start)
        done.add(end)
        arcs.append((start[1], end[1]))

    loops = 0
    left = set(range(n)) - seen
    while left:
        start = left.pop()
        loops += 1
        j = start
        while True:
            j1 = pa[n + j] - n
            if j1 != start:
                left.remove(j1)
            j = pb[j1]
            if j == start:
                break
            left.remove(j)
    return A1Web(n, tuple(arcs)), loops


class TLCombo(Combo):
    """Integer combination of matchings, multiplied by concatenation
    with every erased loop worth a factor of two."""

    __slots__ = ()

    @classmethod
    def unit(cls, n: int) -> "TLCombo":
        return cls(n, {identity_matching(n): 1})

    @classmethod
    def from_matching(cls, m: A1Web, coeff: int = 1) -> "TLCombo":
        return cls(m.n, {m: coeff})

    @staticmethod
    def _sort_key(m: A1Web) -> tuple[Arc, ...]:
        return m.arcs

    @staticmethod
    def _product(a: A1Web, b: A1Web) -> tuple:
        prod, loops = tl_concat(a, b)
        return ((prod, 2 ** loops),)


def tl_generator_combo(n: int, i: int) -> TLCombo:
    return TLCombo.from_matching(tl_generator(n, i))


@cache
def matching_of_perm(w: Perm) -> A1Web:
    """Basis matching of a 321-avoiding permutation: the concatenation
    of uncrossings along a reduced word.  The word is taken reversed,
    the same orientation the trivalent layer uses for its generator
    products; reduced words never produce loops, which is checked."""
    if not avoids(w, (3, 2, 1)):
        raise WebError(f"{w} contains a 321 pattern")
    n = len(w)
    m = identity_matching(n)
    for i in reversed(first_reduced_word(w)):
        m, loops = tl_concat(m, tl_generator(n, i))
        if loops:
            raise RuntimeError("a reduced word produced a loop")
    return m


@cache
def _perm_by_matching(n: int) -> dict:
    return {
        matching_of_perm(w): w for w in all_perms(n) if avoids(w, (3, 2, 1))
    }


def perm_of_matching(m: A1Web) -> Perm:
    table = _perm_by_matching(m.n)
    if m not in table:
        raise WebError("matching is not a generator product")
    return table[m]


@cache
def theta_two(v: Perm) -> TLCombo:
    """Image of a permutation under s_i -> (uncrossing i) - 1 at q = 1,
    multiplied along the reversed reduced word as in matching_of_perm."""
    if not is_perm(v):
        raise WebError(f"{v} is not a permutation")
    n = len(v)
    acc = TLCombo.unit(n)
    for i in reversed(first_reduced_word(v)):
        acc = acc * (tl_generator_combo(n, i) - TLCombo.unit(n))
    return acc


def tl_immanant(w: Perm, Xp: ExactMatrix) -> Fraction:
    """Matrix function of a 321-avoiding permutation: sum over all v of
    the coefficient of w's matching in theta_two(v) times the entry
    product of v, read from the matrix's cached monomials."""
    if not avoids(w, (3, 2, 1)):
        raise WebError(f"{w} contains a 321 pattern")
    n = len(w)
    if Xp.n != n:
        raise WebError(f"permutation of {n} against a {Xp.n} by {Xp.n} matrix")
    target = matching_of_perm(w)
    den, mono = Xp.monomials
    return Fraction(sum(theta_two(v).coeff(target) * m for v, m in mono.items()), den)


# -- labelings of matchings -------------------------------------------


@dataclass(frozen=True)
class A1Labeling:
    """Labels in {1, 2} at both ends of every arc, aligned with
    web.arcs.  Arcs joining the two sides keep one value; one-sided
    arcs switch value at their marked interior point."""

    web: A1Web
    ends: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.ends) != len(self.web.arcs):
            raise WebError("one end pair per arc required")
        for arc, (x, y) in zip(self.web.arcs, self.ends):
            if x not in (1, 2) or y not in (1, 2):
                raise WebError("matching labels live in {1, 2}")
            if self.web.is_cross(arc):
                if x != y:
                    raise WebError("an arc joining the two sides keeps one value")
            elif x == y:
                raise WebError("a one-sided arc must switch value")

    def boundary(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        n = self.web.n
        lab = [0] * (2 * n)
        for arc, e in zip(self.web.arcs, self.ends):
            lab[arc[0]], lab[arc[1]] = e
        return tuple(lab[:n]), tuple(lab[n:])


def matching_labelings(m: A1Web) -> list[A1Labeling]:
    """All consistent labelings: one binary choice per arc."""
    opts = [
        ((1, 1), (2, 2)) if m.is_cross(arc) else ((1, 2), (2, 1))
        for arc in m.arcs
    ]
    return [A1Labeling(m, ends) for ends in itertools.product(*opts)]


def matching_labeling(
    m: A1Web, sources: Sequence[int], sinks: Sequence[int]
) -> Optional[A1Labeling]:
    """The unique consistent labeling showing the given boundary, or
    None.  A boundary either pins every arc or contradicts one, so
    there is never more than a single labeling."""
    n = m.n
    if len(sources) != n or len(sinks) != n:
        raise WebError(f"boundary must list {n} values per side")
    lab = list(sources) + list(sinks)
    if any(x not in (1, 2) for x in lab):
        raise WebError("matching boundaries live in {1, 2}")
    ends = []
    for arc in m.arcs:
        x, y = lab[arc[0]], lab[arc[1]]
        if (x == y) != m.is_cross(arc):
            return None
        ends.append((x, y))
    return A1Labeling(m, tuple(ends))


def pair_boundary(
    n: int, rows1: Sequence[int], cols1: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Boundary values for a complementary pair of minors: 1 at the
    named rows and columns, 2 elsewhere."""
    rows1, cols1 = index_set(rows1, n), index_set(cols1, n)
    if len(rows1) != len(cols1):
        raise WebError("row and column sets must have equal size")
    src = tuple(1 if p in rows1 else 2 for p in range(1, n + 1))
    snk = tuple(1 if p in cols1 else 2 for p in range(1, n + 1))
    return src, snk


def pair_expansion(
    n: int, rows1: Sequence[int], cols1: Sequence[int]
) -> dict[Perm, int]:
    """The 321-avoiding permutations whose matching admits the pair
    boundary; each carries coefficient one.  Their immanants sum to the
    product of the two complementary minors (tested)."""
    src, snk = pair_boundary(n, rows1, cols1)
    out = {}
    for m in all_a1_webs(n):
        if matching_labeling(m, src, snk) is not None:
            out[perm_of_matching(m)] = 1
    return out


# -- the forgetful map and bridge coefficients ------------------------


def forgetful(w: Web, f: tuple[int, ...]) -> tuple[A1Web, A1Labeling]:
    """Delete the 3-labeled edges of a labeled web and read off what is
    left.  Internal vertices drop to degree two, so the surviving edges
    concatenate into arcs between the surviving boundary points; closed
    curves and drawn loops are discarded without any factor."""
    m = w.pmap
    nb = 2 * m.n
    bedge = [m.rot[v][0] >> 1 for v in range(nb)]
    keep = [lbl != 3 for lbl in f[: len(m.edges)]]
    srcs = [v for v in range(m.n) if keep[bedge[v]]]
    snks = [v for v in range(m.n, nb) if keep[bedge[v]]]
    if len(srcs) != len(snks):
        raise WebError("labeling is unbalanced across the boundary")
    k = len(srcs)
    newid = {v: i for i, v in enumerate(srcs)}
    newid.update({v: k + i for i, v in enumerate(snks)})

    arcs, ends, visited = [], [], set()
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
        p, q = newid[v0], newid[u]
        if p < q:
            arcs.append((p, q))
            ends.append((first, f[d >> 1]))
        else:
            arcs.append((q, p))
            ends.append((f[d >> 1], first))
    order = sorted(range(k), key=lambda t: arcs[t])
    aweb = A1Web(k, tuple(arcs[t] for t in order))
    return aweb, A1Labeling(aweb, tuple(ends[t] for t in order))


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

    out = []
    for lab in matching_labelings(matching_of_perm(w)):
        src, snk = lab.boundary()
        out.append(lift(src, rows3) + lift(snk, cols3))
    return out


def _count_onto(D: Web, boundary: tuple[int, ...], target: A1Web) -> int:
    """Labelings of D with the given boundary that forget onto target."""
    return sum(1 for f in enumerate_labelings(D, boundary) if forgetful(D, f)[0] == target)


def bridge_coefficient(
    D: Web,
    w: Perm,
    rows3: Sequence[int] = (),
    cols3: Sequence[int] = (),
    boundary: Optional[tuple[int, ...]] = None,
) -> int:
    """Number of consistent labelings of D showing an admissible full
    boundary whose surviving part, after the 3-labeled edges are
    deleted, is exactly w's matching.

    This is the coefficient of D's immanant in the product of w's
    matching immanant (on the matrix with the given rows and columns
    removed) with the minor on those rows and columns.  Every
    admissible boundary gives the same count; the default takes the
    first in enumeration order, and passing one pins the choice."""
    cands = lifted_boundaries(D.n, w, rows3, cols3)
    if boundary is None:
        boundary = cands[0]
    elif boundary not in cands:
        raise WebError("boundary does not fit the deleted sets and the matching")
    return _count_onto(D, boundary, matching_of_perm(w))


def bridge_expansion(
    n: int, w: Perm, rows3: Sequence[int] = (), cols3: Sequence[int] = ()
) -> dict[Web, int]:
    """Bridge coefficient of every irreducible web, nonzero entries
    only, all counted against one shared admissible boundary."""
    boundary = lifted_boundaries(n, w, rows3, cols3)[0]
    target = matching_of_perm(w)
    out = {}
    for D in irreducible_webs(n):
        c = _count_onto(D, boundary, target)
        if c:
            out[D] = c
    return out
