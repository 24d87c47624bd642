"""Independent routes the tests check the library against.  No program
path calls these."""

import math
import operator
import random
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, permutations, product
from typing import Iterable, Mapping, Optional

from a2webs.exactmath import LaurentPoly, eval_q1, exact_div
from a2webs.immanants import irreducible_webs, theta_image
from a2webs.labelings import LABELS, _boundary_edges, _check_word, boundary_profile, word_counts
from a2webs.minors import decompose_triple, iter_triples, triple_blocks
from a2webs.networks import PlanarNetwork, _multiplicities, _sliced_web
from a2webs.perms import first_reduced_word, is_perm
from a2webs.spider import WebCombo, generator_combo, product_web, reduce_web, rewrite_at, rewrite_sites
from a2webs.tlbridge import A1Web
from a2webs.webcore import (
    LEFT,
    RIGHT,
    TILE_ARITY,
    VERTEX_DIRS,
    Column,
    PlanarMap,
    SliceDiagram,
    Web,
    WebError,
    _encode_from,
    _walk_memo,
    canonical_edge_order,
    canonical_form,
)


def parabolic_image(n: int, i: int, j: int) -> WebCombo:
    """Sum of theta images at q = 1 over the subgroup permuting the
    letters i..j only.  Width 2 gives E_i, width 3 gives D2_i, and
    anything wider dies."""
    if not 1 <= i < j <= n:
        raise WebError(f"need 1 <= i < j <= n, got ({i}, {j}) at n = {n}")
    window = range(i, j + 1)
    terms = []
    for block in permutations(window):
        w = list(range(1, n + 1))
        for pos, val in zip(window, block):
            w[pos - 1] = val
        terms += [(D, LaurentPoly.const(eval_q1(c))) for D, c in theta_image(tuple(w)).terms()]
    return WebCombo(n, terms)


def hecke_fold(n: int, word: tuple[int, ...]) -> list[WebCombo]:
    """The image of every prefix of word, shortest first, each folded
    from the one before in three passes, as spider.hecke_image did: the
    product by E_i, a scale by t^2, then the previous image subtracted,
    each pass a new combination."""
    images = [WebCombo.unit(n)]
    for i in word:
        prev = images[-1]
        images.append((prev * generator_combo(n, i)).scale(LaurentPoly.t_power(2)) - prev)
    return images


def oracle_second_generator(n: int, i: int) -> Web:
    """D2_i by its definition: E_i E_{i+1} E_i reduced, less E_i, which
    must be one bare web and equal E_{i+1} E_i E_{i+1} reduced, less
    E_{i+1}."""
    lo = reduce_web(product_web(n, (i, i + 1, i))) - generator_combo(n, i)
    hi = reduce_web(product_web(n, (i + 1, i, i + 1))) - generator_combo(n, i + 1)
    assert lo == hi, (n, i)
    [(web, coeff)] = lo.terms()
    assert coeff == 1, (n, i, coeff)
    return web


def oracle_features(w: Web) -> list[tuple]:
    """Every rewrite site of w, found by one pass over its faces: the
    loop site when it has loops, then each inner face of two or four
    sides in faces() order, bigons and squares mixed."""
    m = w.pmap
    feats: list[tuple] = [("loop",)] if m.loops else []
    outer = m.outer_face_indices()
    for fi, orbit in enumerate(m.faces()):
        if fi not in outer and len(orbit) in (2, 4):
            feats.append(("bigon" if len(orbit) == 2 else "square", orbit))
    return feats


_RULE_RANK = {"loop": 0, "bigon": 1, "square": 2}


def oracle_sites(w: Web) -> tuple[tuple, ...]:
    """The rewrite sites of w sorted into rule priority: loops first,
    then bigons before squares, then by each face's first dart."""
    return tuple(sorted(oracle_features(w), key=lambda f: (_RULE_RANK[f[0]], f[1][0] if len(f) > 1 else 0)))


def reduce_random_order(x, rng: random.Random) -> WebCombo:
    """Reduce a web or a WebCombo with every rewrite site chosen by rng,
    through the library's memo of sites and outcomes.  Confluence says
    the answer cannot depend on those choices, so this must agree with
    reduce_web on every input."""
    start = x if isinstance(x, WebCombo) else WebCombo.from_web(x)
    done = []
    work = list(start.terms())
    while work:
        w, c = work.pop()
        host, sites = rewrite_sites(w)
        if not sites:
            done.append((w, c))
            continue
        for oc in rewrite_at(host, rng.randrange(len(sites))):
            work.append((oc.child, c * oc.coeff))
    return WebCombo(start.n, done)


def profile_sum(*pairs) -> dict:
    """The sum of c times p over pairs (c, p) of a coefficient and a
    profile (a map from boundary word to Laurent coefficient), zero
    sums dropped: the linear combinations the tests take of
    labelings.boundary_profile, which keeps none of its own."""
    acc = {}
    for c, p in pairs:
        for g, v in p.items():
            acc[g] = acc[g] + c * v if g in acc else c * v
    return {g: v for g, v in acc.items() if v}


def reduce_by_labelings(w: Web) -> WebCombo:
    """w in the basis irreducible_webs(w.n), read off weighted labeling
    counts with no rewrite rule.  Each basis web D has one labeling at
    its least word g_D in iter_triples order, so its profile there is
    one monomial, and no basis web has a labeling before its own least
    word.  So, in g_D order, each coefficient c_D is what w's profile at
    g_D leaves over the earlier webs' share, divided by D's monomial.
    The sum of c_D times D's profile must then be w's profile on every
    word."""
    n = w.n
    rank = {g: k for k, g in enumerate(iter_triples(n))}
    basis = []
    for D in irreducible_webs(n):
        profile = boundary_profile(D)
        g = min((g for g in profile if g in rank), key=rank.__getitem__)
        assert [c for _, c in profile[g].items()] == [1], (D.code, g)
        basis.append((rank[g], g, D, profile))
    basis.sort(key=lambda b: b[0])
    assert len({b[0] for b in basis}) == len(basis)  # distinct least words
    target = boundary_profile(w)
    zero = LaurentPoly.zero()
    share = {}
    coeffs = []
    for _, g, D, profile in basis:
        c = exact_div(target.get(g, zero) - share.get(g, zero), profile[g])
        if c:
            share = profile_sum((1, share), (c, profile))
        coeffs.append((D, c))
    assert share == target, w.code
    return WebCombo(n, coeffs)


@cache
def all_a1_webs(n: int) -> tuple[A1Web, ...]:
    """Every noncrossing matching on n left and n right points, by
    recursion on the partner of the first point along the boundary
    walk; Catalan many (tested)."""
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


def identity_matching(n: int) -> A1Web:
    return A1Web(n, tuple((p, n + p) for p in range(n)))


def tl_generator(n: int, i: int) -> A1Web:
    """The i-th uncrossing: points i, i+1 cupped on both sides (1-based)."""
    if not 1 <= i < n:
        raise WebError(f"generator index {i} out of range for n={n}")
    arcs = [(i - 1, i), (n + i - 1, n + i)]
    arcs += [(p, n + p) for p in range(n) if p not in (i - 1, i)]
    return A1Web(n, tuple(arcs))


def tl_concat(a: A1Web, b: A1Web) -> tuple[A1Web, int]:
    """Glue a's right side to b's left side.

    Returns the resulting matching and the number of closed loops
    erased.  b's point p is numbered 2n + p, so junction j joins a's
    point n + j to b's point 2n + j, and the outer points are 0..n-1
    and 3n..4n-1.  One walk runs from each outer point, then from each
    junction point, not yet reached: along an arc, across the junction
    it meets, and on until it reaches an outer point or comes back
    round, closing a loop.
    """
    if a.n != b.n:
        raise WebError(f"cannot concatenate matchings on {a.n} and {b.n} strands")
    n = a.n
    mate = [0] * (4 * n)
    for off, m in ((0, a), (2 * n, b)):
        for p, q in m.arcs:
            mate[off + p], mate[off + q] = off + q, off + p
    seen = [False] * (4 * n)
    arcs, loops = [], 0
    for start in [*range(n), *range(3 * n, 4 * n), *range(n, 3 * n)]:
        if seen[start]:
            continue
        p = start
        while True:
            seen[p] = True
            p = mate[p]
            seen[p] = True
            if not n <= p < 3 * n:
                arcs.append((start % (2 * n), p % (2 * n)))
                break
            p += n if p < 2 * n else -n
            if p == start:
                loops += 1
                break
    return A1Web(n, tuple(arcs)), loops


def matching_by_concatenation(u: tuple[int, ...]) -> A1Web:
    """The basis matching of a 321-avoiding u by the matching layer's
    own gluing: the uncrossings concatenated along u's reversed reduced
    word, the route tlbridge.matching_of_perm, which reads the matching
    off u's web, is checked against.  Reduced words never produce
    loops, which is checked."""
    n = len(u)
    m = identity_matching(n)
    for i in reversed(first_reduced_word(u)):
        m, loops = tl_concat(m, tl_generator(n, i))
        if loops:
            raise RuntimeError("a reduced word produced a loop")
    return m


class TLCombo:
    """Integer combination of matchings on n strands, a dict from
    matching to nonzero coefficient, multiplied by concatenation with
    every erased loop worth a factor of two: the Temperley-Lieb algebra
    at q = 1, the matching layer's own algebra."""

    def __init__(self, n: int, terms: Iterable[tuple] = ()):
        acc = Counter()
        for m, c in terms:
            acc[m] += c
        self.n = n
        self._terms = {m: c for m, c in acc.items() if c}

    @classmethod
    def unit(cls, n: int) -> "TLCombo":
        return cls(n, [(identity_matching(n), 1)])

    def coeff(self, m: A1Web) -> int:
        return self._terms.get(m, 0)

    def scale(self, c: int) -> "TLCombo":
        return TLCombo(self.n, [(m, v * c) for m, v in self._terms.items()])

    def __add__(self, other: "TLCombo") -> "TLCombo":
        return TLCombo(self.n, chain(self._terms.items(), other._terms.items()))

    def __neg__(self) -> "TLCombo":
        return self.scale(-1)

    def __sub__(self, other: "TLCombo") -> "TLCombo":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return TLCombo(self.n, [
            (k, v * ca * cb)
            for a, ca in self._terms.items()
            for b, cb in other._terms.items()
            for k, v in tl_product(a, b)
        ])

    __rmul__ = scale

    def __eq__(self, other) -> bool:
        return isinstance(other, TLCombo) and self.n == other.n and self._terms == other._terms


def tl_product(a: A1Web, b: A1Web) -> tuple:
    """The product of two matchings, as (matching, coefficient) pairs:
    their gluing, worth 2 per erased loop."""
    prod, loops = tl_concat(a, b)
    return ((prod, 2 ** loops),)


def tl_generator_combo(n: int, i: int) -> TLCombo:
    return TLCombo(n, [(tl_generator(n, i), 1)])


@cache
def theta_two(v: tuple[int, ...]) -> TLCombo:
    """Image of a permutation under s_i -> (uncrossing i) - 1 at q = 1,
    multiplied along the reversed reduced word as in
    matching_by_concatenation.  The coefficient of u's matching is the
    Temperley-Lieb immanant's f_u(v) (Rhoades and Skandera, Ann.
    Comb. 9, 2005): the route the library's web immanant of
    tlbridge.tl_web(u) is checked against."""
    if not is_perm(v):
        raise WebError(f"{v} is not a permutation")
    n = len(v)
    acc = TLCombo.unit(n)
    for i in reversed(first_reduced_word(v)):
        acc = acc * (tl_generator_combo(n, i) - TLCombo.unit(n))
    return acc


def triple_coefficient(g: tuple[int, ...], w: tuple[int, ...]) -> int:
    """L_g(w): the coefficient of x_{1,w(1)} ... x_{n,w(n)} in the
    product of the three minors whose boundary word is g.  It is the
    product over the blocks of the sign of w from row block k onto
    column block k when w maps each row block onto its column block,
    and 0 otherwise."""
    n = len(w)
    if any(g[i] != g[n + w[i] - 1] for i in range(n)):
        return 0
    inversions = sum(g[i] == g[j] and w[i] > w[j] for i in range(n) for j in range(i + 1, n))
    return -1 if inversions % 2 else 1


def table_by_least_words(n: int, counts=None, coefficient=triple_coefficient) -> dict[Web, dict]:
    """The rows f_D of the immanant table with no Hecke algebra, from
    the triple identity coefficientwise over S_n,
        sum over D of c_D(g) f_D(w) = L_g(w),
    with c_D(g) D's plain labeling count at g.  Each basis web D has
    one labeling at its least word g_D, and the g_D are distinct, so
    every other web with a labeling at g_D has a smaller least word.
    In g_D order, then, f_D = L_{g_D} - sum of c_{D'}(g_D) f_{D'} over
    the webs solved before it.  counts (one Counter per web of
    irreducible_webs(n), word_counts by default) and coefficient (L)
    may be replaced, for the controls."""
    webs = irreducible_webs(n)
    if counts is None:
        counts = [word_counts(D) for D in webs]
    perms = list(permutations(range(1, n + 1)))
    least = sorted((min(c), k) for k, c in enumerate(counts))
    assert len({g for g, _ in least}) == len(webs)
    rows: dict[int, dict] = {}
    for g, k in least:
        assert counts[k][g] == 1, (webs[k].code, g)
        row = Counter({w: coefficient(g, w) for w in perms})
        for j, solved in rows.items():
            c = counts[j][g]
            if c:
                for w, v in solved.items():
                    row[w] -= c * v
        rows[k] = {w: v for w, v in row.items() if v}
    return {webs[k]: rows[k] for k in range(len(webs))}


def is_balanced(g: tuple[int, ...]) -> bool:
    """Whether each label occurs equally often on both sides of the
    boundary word g.  Restrictions of consistent labelings always are."""
    n = len(g) // 2
    return all(g[:n].count(i) == g[n:].count(i) for i in LABELS)


def brute_force_labelings(w: Web, g=None) -> list[tuple[int, ...]]:
    """Every assignment of LABELS to the edges and loops of w that puts
    three distinct labels at each internal vertex and shows the
    boundary word g, if given, sorted.  Exponential in the edge count:
    for small webs only."""
    m = w.pmap
    at_vertex = {v: [] for v in m.internal_vertices()}
    for e, ends in enumerate(m.edges):
        for v in ends:
            if v in at_vertex:
                at_vertex[v].append(e)
    boundary = [m.rot[v][0] >> 1 for v in range(2 * m.n)]
    return sorted(
        f for f in product(LABELS, repeat=len(m.edges) + m.loops)
        if all(len({f[e] for e in es}) == 3 for es in at_vertex.values())
        and (g is None or all(f[e] == x for e, x in zip(boundary, g)))
    )


def oracle_labelings(
    w: Web, g: Optional[tuple[int, ...]] = None
) -> list[tuple[int, ...]]:
    """All consistent labelings of w, sorted, restricted to boundary
    word g if given: the library's edge-at-a-time search, kept as the
    reference for `enumerate_labelings`.

    Backtracks over edges in a breadth-first order seeded by the pinned
    boundary edges, so the distinctness constraint prunes early.
    Recurses once per edge, so only for webs of a few hundred edges.
    """
    m = w.pmap
    ne = len(m.edges)
    pinned: dict[int, int] = {}
    if g is not None:
        _check_word(g, m.n)
        for e, lbl in zip(_boundary_edges(w), g):
            if pinned.setdefault(e, lbl) != lbl:
                return []

    internal = set(m.internal_vertices())
    at_vertex: dict[int, list[int]] = {v: [] for v in internal}
    for e, (t, h) in enumerate(m.edges):
        for v in (t, h):
            if v in internal:
                at_vertex[v].append(e)

    order: list[int] = []
    seen: set[int] = set()
    queue: deque[int] = deque(sorted(pinned))
    seen.update(queue)
    while len(order) < ne:
        if not queue:
            e0 = min(e for e in range(ne) if e not in seen)
            seen.add(e0)
            queue.append(e0)
        e = queue.popleft()
        order.append(e)
        for v in m.edges[e]:
            for e2 in at_vertex.get(v, ()):
                if e2 not in seen:
                    seen.add(e2)
                    queue.append(e2)

    # each edge in visiting order, its allowed labels, and the other
    # edges at its internal ends: a label is consistent when none of
    # those carries it already (unlabeled edges hold 0)
    steps = [
        (
            e,
            (pinned[e],) if e in pinned else LABELS,
            tuple(e2 for v in m.edges[e] for e2 in at_vertex.get(v, ()) if e2 != e),
        )
        for e in order
    ]
    labels = [0] * ne
    out: list[tuple[int, ...]] = []

    def go(k: int) -> None:
        if k == ne:
            out.append(tuple(labels))
            return
        e, choices, nbrs = steps[k]
        used = {labels[e2] for e2 in nbrs}
        for lbl in choices:
            if lbl not in used:
                labels[e] = lbl
                go(k + 1)
        labels[e] = 0

    go(0)
    if m.loops:
        out = [f + free for f in out for free in product(LABELS, repeat=m.loops)]
    out.sort()
    return out


def oracle_kappa_product(a: Mapping, b: Mapping) -> dict:
    """The product of two profiles by testing every pair of boundary
    words: a pair whose middle words match (a's sink word, b's source
    word) adds the product of their coefficients at its outer words,
    and zero sums are dropped."""
    n, m = len(next(iter(a), ())) // 2, len(next(iter(b), ())) // 2
    if a and b and n != m:
        raise WebError(f"strand counts differ: {n} vs {m}")
    acc = {}
    for g1, c1 in a.items():
        for g2, c2 in b.items():
            if g1[n:] == g2[:n]:
                g = g1[:n] + g2[n:]
                acc[g] = acc.get(g, LaurentPoly.zero()) + c1 * c2
    return {g: c for g, c in acc.items() if c}


def oracle_components(m: PlanarMap) -> list[set[int]]:
    """Vertex sets of m's components by a union-find over its edges,
    sorted by least vertex (loops not included): the library's route
    before one walk per component found them, kept as the reference."""
    parent = list(range(len(m.rot)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for t, h in m.edges:
        rt, rh = find(t), find(h)
        if rt != rh:
            parent[rt] = rh
    groups: dict[int, set[int]] = {}
    for v in range(len(m.rot)):
        groups.setdefault(find(v), set()).add(v)
    return sorted(groups.values(), key=min)


def _boundary_rank(m: PlanarMap, v: int) -> int:
    """Position of boundary vertex v in the cycle src1..srcn, snkn..snk1."""
    return v if v < m.n else 3 * m.n - 1 - v


def oracle_roots(m: PlanarMap) -> list[tuple[list[int], list[int], int, int]]:
    """(block, edge order, root dart, outer dart) per component of
    oracle_components, in code order.  A component touching the
    boundary is rooted at its vertex of least boundary rank, and its
    outer dart is that vertex's dart.  A closed component is rooted at
    the first dart, in vertex order, whose block is least, every dart
    of the component tried; its outer dart is its smallest dart."""
    keyed = []
    for comp in oracle_components(m):
        bnd = [v for v in comp if v < 2 * m.n]
        if bnd:
            first = min(bnd, key=lambda v: _boundary_rank(m, v))
            root = m.rot[first][0]
            block, eorder, _ = _encode_from(m, root)
            keyed.append(((0, _boundary_rank(m, first)), block, eorder, root, root))
        else:
            (block, eorder, _), root = min(
                ((_encode_from(m, d), d) for v in sorted(comp) for d in m.rot[v]),
                key=lambda walk: walk[0][0],
            )
            outer = min(d for v in comp for d in m.rot[v])
            keyed.append(((1, tuple(block)), block, eorder, root, outer))
    keyed.sort(key=lambda k: k[0])
    return [walk for _, *walk in keyed]


def oracle_code(m: PlanarMap) -> tuple[int, ...]:
    """The canonical code assembled from the blocks of oracle_roots."""
    roots = oracle_roots(m)
    code = [m.n, m.loops, len(roots)]
    for block, *_ in roots:
        code += [len(block), *block]
    return tuple(code)


@dataclass(frozen=True)
class DrawingGeometry:
    """What the labeling weight once read off one drawing.

    vertex_sides: per internal vertex, (left edge ids, right edge ids),
    each listed top to bottom.  edge_turns: per edge, the signs of its
    vertical tangencies (+1 for a turn that reads upward through a
    right-opening tangency or downward through a left-opening one).
    loop_turns: the same, per drawn closed loop.
    """

    vertex_sides: Mapping[int, tuple[tuple[int, ...], tuple[int, ...]]]
    edge_turns: Mapping[int, tuple[int, ...]]
    loop_turns: tuple[tuple[int, ...], ...]


def oracle_to_map(diagram: SliceDiagram) -> tuple[PlanarMap, DrawingGeometry]:
    """`webcore.to_map` as it was while the weight read a drawing: the
    rotation system of a drawing, with the turn signs of its cup and cap
    tangencies and the sides of each vertex's legs, kept as the drawing
    route of the weight.  Its map is the library's, edge ids included."""
    n = diagram.n
    # segment s has the ends 2s (left) and 2s + 1 (right); each end is
    # held by a vertex or joined to another end by a cup or a cap
    seg_dir = [RIGHT] * n
    wires = list(range(n))
    caps: list[tuple[int, int, int]] = []  # (end, end, turn sign) per cup or cap
    # slot 3v + k holds the end at leg k of vertex v: sources, then
    # sinks (slot 3v only), then internal vertices in column order, each
    # holding its left legs, then its right legs, top to bottom
    slot_end = [-1] * (6 * n)
    slot_end[0 : 3 * n : 3] = range(0, 2 * n, 2)
    sinks = [False] * n + [True] * n  # per vertex: do its edges point in?
    lefts: dict[int, int] = {}  # internal vertex -> number of left legs

    for ci, col in enumerate(diagram.columns):
        p, tile, dirs = col.pos, col.tile, col.dirs
        used = TILE_ARITY[tile][0]
        if not 1 <= p <= len(wires) - used + 1:
            raise WebError(f"column {ci}: position {p} out of range")
        incoming = wires[p - 1 : p - 1 + used]
        if tuple([seg_dir[w] for w in incoming]) != dirs[:used]:
            raise WebError(f"column {ci}: leg directions disagree with incoming wires")
        made = list(range(len(seg_dir), len(seg_dir) + len(dirs) - used))
        seg_dir += dirs[used:]
        ends = [2 * w + 1 for w in incoming] + [2 * s for s in made]
        if tile == "cup" or tile == "cap":
            if dirs[0] == dirs[1]:
                raise WebError(f"column {ci}: {tile} legs must run in opposite senses")
            caps.append((ends[0], ends[1], 1 if dirs[0] == RIGHT else -1))
        else:
            sink = dirs[0] == RIGHT  # its first leg runs into it
            if dirs != VERTEX_DIRS[(tile, sink)]:
                raise WebError(f"column {ci}: vertex is neither all-in nor all-out")
            lefts[len(sinks)] = used
            sinks.append(sink)
            slot_end += ends
        wires[p - 1 : p - 1 + used] = made

    if len(wires) != n:
        raise WebError(f"diagram ends with {len(wires)} wires, expected {n}")
    for j, s in enumerate(wires):
        if seg_dir[s] != RIGHT:
            raise WebError(f"sink strand {j + 1} arrives oriented leftward")
        slot_end[3 * (n + j)] = 2 * s + 1

    join = [-1] * (2 * len(seg_dir))  # end -> the end its cup or cap joins it to
    sign = [0] * len(join)  # end -> that cup's or cap's turn sign
    for a, b, sg in caps:
        join[a], join[b], sign[a], sign[b] = b, a, sg, sg
    slot_of = [-1] * len(join)  # end -> the slot holding it
    for slot, end in enumerate(slot_end):
        if end >= 0:
            slot_of[end] = slot

    # walk each edge once, from its first slot, across its segments
    # through cups and caps to the end held at its other slot; its head
    # is the end at a sink
    walked = bytearray(len(seg_dir))
    dart = [-1] * len(slot_end)
    edge_turns: dict[int, tuple[int, ...]] = {}
    for slot, end in enumerate(slot_end):
        if end < 0 or dart[slot] >= 0:
            continue
        walked[end >> 1] = 1
        turns = []
        cur = end ^ 1
        while join[cur] >= 0:
            turns.append(sign[cur])
            cur = join[cur]
            walked[cur >> 1] = 1
            cur ^= 1
        eid = len(edge_turns)
        edge_turns[eid] = tuple(turns)
        dart[slot] = 2 * eid + sinks[slot // 3]
        dart[slot_of[cur]] = dart[slot] ^ 1

    # a segment no edge crossed lies on a closed loop: walk it round
    loop_turns = []
    for s, done in enumerate(walked):
        if not done:
            turns = []
            cur = 2 * s
            while True:
                turns.append(sign[cur])
                cur = join[cur]
                walked[cur >> 1] = 1
                cur ^= 1
                if cur == 2 * s:
                    break
            loop_turns.append(tuple(turns))

    # CCW from the top right leg: it, the left legs top to bottom, then
    # the other right leg; a merge reads right, left-top, left-bottom and
    # a split right-top, left, right-bottom
    rot = [(d,) for d in dart[0 : 6 * n : 3]]
    vertex_sides = {}
    for v, nl in lefts.items():
        a, b, c = dart[3 * v : 3 * v + 3]
        if nl == 2:
            rot.append((c, a, b))
            vertex_sides[v] = ((a >> 1, b >> 1), (c >> 1,))
        else:
            rot.append((b, a, c))
            vertex_sides[v] = ((a >> 1,), (b >> 1, c >> 1))

    m = PlanarMap(n, rot, loops=len(loop_turns))
    return m, DrawingGeometry(vertex_sides, edge_turns, tuple(loop_turns))


def oracle_geom(w: Web) -> DrawingGeometry:
    """The geometry of w's drawing (oracle_to_map of w.diagram), carried
    onto the edge and vertex ids of w.pmap through the canonical edge
    matching, as `Web` once did when it drew."""
    m = w.pmap
    drawn, geom = oracle_to_map(w.diagram)
    if canonical_form(drawn) != w.code:
        raise RuntimeError("drawing round-trip produced a different map")
    eid = dict(zip(canonical_edge_order(drawn), canonical_edge_order(m)))
    vid = {drawn.edges[a][k]: m.edges[b][k] for a, b in eid.items() for k in (0, 1)}
    sides = {
        vid[v]: tuple(tuple(eid[e] for e in side) for side in lr)
        for v, lr in geom.vertex_sides.items()
    }
    turns = {eid[e]: t for e, t in geom.edge_turns.items()}
    return DrawingGeometry(sides, turns, geom.loop_turns)


def oracle_weight(w: Web, f: tuple[int, ...], geom: Optional[DrawingGeometry] = None) -> int:
    """The t-exponent of labeling f of w, read off w's drawing vertex by
    vertex and edge by edge: the library's route before it read the
    weight off the map, kept as the reference.  An internal vertex gives
    +1 or -1 by the order of its same-side pair of legs, top to bottom,
    mirrored on a right-side pair and again at a sink (heads read the
    primed order); every vertical tangency of an edge or loop labeled i
    gives (4 - 2i) times its turn sign.  geom, if given, is
    oracle_geom(w), made once for many labelings."""
    m, geom = w.pmap, geom or oracle_geom(w)
    total = 0
    for v, (left, right) in geom.vertex_sides.items():
        if len(left) == 2:
            upper_bigger = f[left[0]] > f[left[1]]
        else:
            upper_bigger = f[right[1]] > f[right[0]]  # mirrored side
        if m.is_sink(v):
            upper_bigger = not upper_bigger  # heads read the primed order
        total += 1 if upper_bigger else -1
    for e, turns in geom.edge_turns.items():
        total += (4 - 2 * f[e]) * sum(turns)
    for turns, lbl in zip(geom.loop_turns, f[len(m.edges):]):
        total += (4 - 2 * lbl) * sum(turns)
    return total


def _relabeled(w: Web, boundary, darts) -> Web:
    """w with boundary vertex v renumbered boundary(v) and each rotation
    list darts(list), read back through `Web.from_map`."""
    m = w.pmap
    rot = list(m.rot)
    for v, r in enumerate(m.rot):
        rot[boundary(v) if v < 2 * m.n else v] = darts(r)
    return Web.from_map(PlanarMap(m.n, rot, m.loops))


def flip(w: Web) -> Web:
    """w mirrored top to bottom: each rotation list reversed, source i
    moved to source n-1-i and sink j to sink n-1-j, orientation kept.  It
    sends E_i to E_(n-i) and the table row of w at v to the row of
    flip(w) at w0 v w0."""
    n = w.n
    return _relabeled(w, lambda v: n - 1 - v if v < n else 3 * n - 1 - v, lambda r: r[::-1])


def turn(w: Web) -> Web:
    """w mirrored left to right: each rotation list reversed, each dart
    swapped with its twin, so every edge is reversed, and source i
    exchanged with sink i.  It reverses products of generators and sends
    the table row of w at v to the row of turn(w) at v^-1."""
    n = w.n
    return _relabeled(w, lambda v: v + n if v < n else v - n, lambda r: tuple(d ^ 1 for d in reversed(r)))


def disjoint_union(a: PlanarNetwork, b: PlanarNetwork) -> PlanarNetwork:
    """Stack a above b; entries and exits concatenate in order."""
    drop = min(p[1] for p in a.pos.values()) - max(p[1] for p in b.pos.values()) - 1
    vertices = [(f"u.{v}", a.pos[v][0], a.pos[v][1]) for v in a.ids]
    vertices += [(f"l.{v}", b.pos[v][0], b.pos[v][1] + drop) for v in b.ids]
    edges = [(f"u.{e.tail}", f"u.{e.head}", e.weight) for e in a.edges]
    edges += [(f"l.{e.tail}", f"l.{e.head}", e.weight) for e in b.edges]
    return PlanarNetwork(
        a.n + b.n,
        vertices,
        edges,
        [f"u.{s}" for s in a.sources] + [f"l.{s}" for s in b.sources],
        [f"u.{t}" for t in a.sinks] + [f"l.{t}" for t in b.sinks],
    )


def oracle_paths(net: PlanarNetwork, i: int, j: int) -> list[tuple[int, ...]]:
    """Every path from entry i to exit j as its edge ids, by a plain
    depth-first walk over `net.edges` that takes each vertex's
    out-edges top to bottom and walks every dead end: the order in
    which the network lists its paths, found without its path table."""
    out = []
    stack = [(net.sources[i], ())]
    while stack:
        v, path = stack.pop()
        if v == net.sinks[j]:
            out.append(path)
        for eid in reversed(net.out_edges[v]):
            stack.append((net.edges[eid].head, path + (eid,)))
    return out


def path_vertices(net: PlanarNetwork, path: tuple[int, ...]) -> set[str]:
    """The vertices of a path given by its edge ids."""
    return {net.edges[path[0]].tail} | {net.edges[e].head for e in path}


def marking_weight(net: PlanarNetwork, marks: Iterable[tuple[int, int]]) -> Fraction:
    """The product of weight ** multiplicity over the marked edges,
    taken over integer numerators and denominators, the marking checked
    as `uncross` checks it: the reference for the integer weights of
    `networks._scales`."""
    num = den = 1
    for eid, m in _multiplicities(net, marks).items():
        w = net.edges[eid].weight
        num *= w.numerator ** m
        den *= w.denominator ** m
    return Fraction(num, den)


def oracle_families(net: PlanarNetwork, w):
    """Every family of the product of the path pools of connection w
    (entry i to exit w(i)), with the largest number of its paths on one
    vertex: the enumeration by `itertools.product` and a `Counter` of
    vertices, kept as the oracle for the library's family walk."""
    pools = [oracle_paths(net, i, w[i] - 1) for i in range(net.n)]
    vertices = {p: path_vertices(net, p) for pool in pools for p in pool}
    for combo in product(*pools):
        counts = Counter(chain.from_iterable(map(vertices.__getitem__, combo)))
        yield combo, max(counts.values())


def oracle_uncross(net: PlanarNetwork, marks) -> Web:
    """`networks.uncross` as it was before it read the network's sweep
    table: it finds each stop's vertex, role and marked edges from the
    network itself, and works out every vertex's columns.  Only the
    positions of edge ends, entries and exits are computed here, as the
    network's old sweep table gave them."""
    mult = _multiplicities(net, marks)
    # the sweep stops only at the marked edges' ends, the entries and
    # the exits: at any other vertex no strand passes and nothing is
    # checked
    where = {v: k for k, v in enumerate(net.order)}
    ends = {eid: (where[e.tail], where[e.head]) for eid, e in enumerate(net.edges)}
    stops = tuple(where[v] for v in net.sources + net.sinks)
    at = set(stops)
    for eid in mult:
        at.update(ends[eid])
    # marked edge ids, unreached entries and reached exits, top to bottom
    line: list = list(net.sources)
    cols: list[tuple] = []  # (pos, tile, dirs) of each Column
    for v in [net.order[k] for k in sorted(at)]:
        ins = [e for e in net.in_edges[v] if e in mult]
        outs = [e for e in net.out_edges[v] if e in mult]
        k_in, k_out = sum(mult[e] for e in ins), sum(mult[e] for e in outs)
        if v in net.sources:
            if k_in or k_out != 1:
                raise WebError(f"entry {v!r} must start exactly one strand")
            i = line.index(v)
            above = next((e for e in reversed(line[:i]) if type(e) is int), None)
            below = next((e for e in line[i + 1:] if type(e) is int), None)
            if ((above is not None and net._gap(v, above) <= 0)
                    or (below is not None and net._gap(v, below) >= 0)):
                raise WebError(f"entry {v!r} lies outside the gap its strand enters")
            line[i] = outs[0]
            continue
        if v in net.sinks:
            if k_out or k_in != 1:
                raise WebError(f"exit {v!r} must end exactly one strand")
            line[line.index(ins[0])] = v
            continue
        if k_in != k_out:
            raise WebError(f"marking is unbalanced at vertex {v!r}")
        if k_in > 3:
            raise WebError(f"four or more strands pass through vertex {v!r}")
        if not ins:
            continue
        at = sorted(line.index(e) for e in ins)
        i, j = at[0], at[-1] + 1
        if j - i != len(at):
            raise WebError(f"the strands into vertex {v!r} enclose a boundary strand")
        p = 1 + sum(mult.get(e) != 3 for e in line[:i])
        left = [RIGHT if mult[e] == 1 else LEFT for e in line[i:j] if mult[e] != 3]
        right = [RIGHT if mult[e] == 1 else LEFT for e in outs if mult[e] != 3]
        if len(set(left)) == 2:
            cols.append((p, "cap", tuple(left)))
        elif len(left) > 1:
            cols.append((p, "merge", (RIGHT, RIGHT, LEFT)))
            if len(left) == 3:
                cols.append((p, "cap", (LEFT, RIGHT)))
        if len(set(right)) == 2:
            cols.append((p, "cup", tuple(right)))
        elif len(right) > 1:
            if len(right) == 3:
                cols.append((p, "cup", (RIGHT, LEFT)))
            cols.append((p + len(right) - 2, "split", (LEFT, RIGHT, RIGHT)))
        line[i:j] = outs
    if line != list(net.sinks):
        raise WebError("the exits are not reached in order, top to bottom")
    return _sliced_web(net.n, tuple(cols))


def oracle_render(m: PlanarMap, salt: int = 0) -> SliceDiagram:
    """`webcore.render` as it was before it drew in one sweep: a
    depth-first search over (frontier, placed vertices) states, with an
    explicit stack of each state's untried moves, kept as the reference.
    It takes exponential time on some maps with no drawing.

    Produce some drawing of m.  Any embedding is acceptable; the
    weight statistic is drawing-independent.  Different salts may give
    different embeddings.  Loop components must be removed first.  A
    map with no drawing, both boundary sides in order, is refused."""
    if m.loops:
        raise WebError("cannot draw a map with abstract loop components")
    # components numbered by their least vertex, each with its edges
    comps = sorted(
        (min(v for e in eorder for v in m.edges[e]), sorted(eorder)) for _, *eorder in _walk_memo(m)
    )
    comp_of = {v: ci for ci, (_, eids) in enumerate(comps) for e in eids for v in m.edges[e]}
    # initial frontier: the far ends of all source edges, top to bottom
    frontier = tuple(m.rot[i][0] ^ 1 for i in range(m.n))
    target = tuple(m.rot[m.n + j][0] for j in range(m.n))
    rng = random.Random(salt) if salt else None

    def flag(d: int) -> str:
        # wire runs rightward when its pending end is the edge's head
        return RIGHT if d & 1 else LEFT

    # A move replaces the k frontier darts at position p by new ones and
    # adds tiles at p: (p, k, new darts, (tile, dirs) pairs, vertex placed
    # or None).

    def vertex_moves(F: tuple[int, ...], placed: frozenset[int]):
        """Place a vertex whose k frontier darts sit one after another in
        its rotation: k = 1 splits, 2 merges, 3 merges and caps.  Its
        other darts, taken on in rotation order, become the frontier
        from the bottom up."""
        pos_of: dict[int, list[int]] = {}
        for p, d in enumerate(F):
            v = m.dart_vertex[d]
            if v >= 2 * m.n and v not in placed:
                pos_of.setdefault(v, []).append(p)
        moves = []
        for v, ps in pos_of.items():
            p, k = ps[0], len(ps)
            rot = m.rot[v]
            i = rot.index(F[p])
            darts = tuple(rot[(i + j) % 3] for j in range(3))
            if F[p : p + k] != darts[:k]:
                continue
            tile = "split" if k == 1 else "merge"
            dirs = VERTEX_DIRS[(tile, m.is_sink(v))]
            tiles = [(tile, dirs)]
            if k == 3:  # the merged wire and the third leg's wire meet in a cap
                tiles.append(("cap", (dirs[2], dirs[0])))
            moves.append((p, k, tuple(d ^ 1 for d in reversed(darts[k:])), tiles, v))
        return moves  # in position order: pos_of meets each vertex at its first dart

    def seed_moves(F: tuple[int, ...], placed: frozenset[int]):
        # the first component not yet started that has no source starts
        # from a cup on one of its edges; codes record no nesting, so a
        # closed one may sit anywhere and is seeded only at the top, where
        # it parts no wires
        started = {comp_of[m.dart_vertex[d]] for d in F} | {comp_of[v] for v in placed}
        for ci, (low, eids) in enumerate(comps):
            if low >= m.n and ci not in started:
                spots = range(1) if low >= 2 * m.n else range(len(F) + 1)
                return [
                    (p, 0, order, [("cup", (flag(order[0]), flag(order[1])))], None)
                    for e in eids
                    for p in spots
                    for order in ((2 * e + 1, 2 * e), (2 * e, 2 * e + 1))
                ]
        return []

    # A depth-first search with an explicit stack, so a long web needs
    # no frame per placed vertex: one entry per state on the current
    # path, holding its frontier, its placed vertices, its untried moves
    # and the length of cols before the move into it.
    visited = set()
    cols: list[Column] = []
    stack = []
    F, placed, start = frontier, frozenset(), 0
    while True:
        if len(placed) == m.internal_vertex_count and F == target:
            return SliceDiagram(m.n, tuple(cols))
        if (F, placed) in visited:
            del cols[start:]
        else:
            visited.add((F, placed))
            moves = vertex_moves(F, placed) + seed_moves(F, placed)
            if rng is not None:
                rng.shuffle(moves)
            stack.append((F, placed, iter(moves), start))
        while stack:
            F, placed, untried, start = stack[-1]
            move = next(untried, None)
            if move is not None:
                break
            del cols[start:]
            stack.pop()
        else:
            raise WebError("map admits no slice drawing with the prescribed boundary")
        p, k, new, tiles, v = move
        start = len(cols)
        cols += [Column(p + 1, tile, dirs) for tile, dirs in tiles]
        F, placed = F[:p] + new + F[p + k :], placed if v is None else placed | {v}


def redrawn(w: Web, salt: int) -> Web:
    """A web on w's own map whose drawing is oracle_render's at salt,
    plus one cup/cap pair below the strands per loop: another drawing of
    the same map, with the same edge ids."""
    m = w.pmap
    loop = (Column(m.n + 1, "cup", (RIGHT, LEFT)), Column(m.n + 1, "cap", (RIGHT, LEFT)))
    drawing = SliceDiagram(m.n, oracle_render(m.without_loops(), salt).columns + loop * m.loops)
    return Web(m, w.code, drawing)


def oracle_rank_check(n: int) -> dict:
    """minors.rank_check(n) with every triple decomposed: each web's
    count at the first triple whose dict holds it, and the largest
    coefficient the largest value of any triple's dict (the first
    triple to reach it is the one recorded)."""
    webs = irreducible_webs(n)
    triples, max_coeff, max_at = 0, 0, None
    least: dict[Web, tuple] = {}
    for g in iter_triples(n):
        triples += 1
        row = decompose_triple(g)
        for D, c in row.items():
            least.setdefault(D, (g, c))
        top = max(row.values(), default=0)
        if top > max_coeff:
            max_coeff, max_at = top, g
    r = len({g for g, c in least.values() if c == 1})
    report = {
        "n": n,
        "triples": triples,
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


def rank_over_q(rows) -> int:
    """Rank over Q of a matrix of rational rows (int or Fraction
    entries), by fraction-free (Bareiss) elimination over the integers.
    Each row is first scaled by the lcm of its denominators, which keeps
    the rank.  A step takes the first row that is nonzero in the leading
    column as pivot p and replaces every other row r by
    (p[0] * r - r[0] * p) / d, where d is the pivot before; the division
    is exact, since each entry is then a minor of the scaled matrix.
    The leading column is dropped, and so is each row that becomes
    zero."""
    scaled = []
    for r in rows:
        d = math.lcm(*(x.denominator for x in r))
        if any(r):
            scaled.append([x.numerator * (d // x.denominator) for x in r])
    rows = scaled
    rank, prev = 0, 1
    while rows:
        piv = next((r for r in rows if r[0]), None)
        if piv is None:
            rows = [r[1:] for r in rows]
            continue
        p, tail = piv[0], piv[1:]
        rows = [
            new for new in (
                [(p * x - r[0] * y) // prev for x, y in zip(r[1:], tail)] for r in rows if r is not piv
            ) if any(new)
        ]
        prev = p
        rank += 1
    return rank


def rank_mod2(rows: Iterable[Iterable[tuple[int, int]]], width: int) -> int:
    """Rank over F_2 of an integer matrix with width columns, each row
    given as (column, entry) pairs, so a dense row r is enumerate(r).
    A row becomes the bitset of its odd entries, each XORed in, so the
    entries of a repeated column add: two odd ones cancel, three count
    once.  It is then reduced by XOR against the pivots so far, each
    keyed by its top bit.  Entries must be ints (operator.index).  Once
    the rank reaches width each later row is still read, so a generator
    of rows runs to its end, but not looked into.

    The rank over Q is at least this one, and equal to width when this
    one is: full rank over F_2 means some maximal minor is odd, so it is
    not zero."""
    pivots: dict[int, int] = {}
    for row in rows:
        if len(pivots) == width:
            continue
        bits = 0
        for k, x in row:
            if operator.index(x) & 1:
                bits ^= 1 << k
        while bits:
            top = bits.bit_length() - 1
            piv = pivots.get(top)
            if piv is None:
                pivots[top] = bits
                break
            bits ^= piv
    return len(pivots)


def _inversions(w: tuple[int, ...]) -> int:
    return sum(a > b for i, a in enumerate(w) for b in w[i + 1:])


def bruhat_leq(x: tuple[int, ...], y: tuple[int, ...]) -> bool:
    """x <= y in Bruhat order: for each k, the sorted first k values of
    x lie below those of y, entry by entry (the tableau criterion)."""
    return all(a <= b for k in range(1, len(x)) for a, b in zip(sorted(x[:k]), sorted(y[:k])))


@cache
def kl_polynomials(n: int) -> dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[int, ...]]:
    """The Kazhdan-Lusztig polynomials P_{x,y}(q) of S_n, for every x <=
    y in Bruhat order, as coefficient tuples from q^0 up; P_{x,y} is 0
    for any other pair.  Permutations are value tuples, and ys swaps
    positions i and i+1 of y.

    By the recursion of Kazhdan and Lusztig (Bjorner and Brenti,
    Combinatorics of Coxeter Groups, ch. 5): for a right descent s of y
    (ys < y), with c = 1 if xs < x and 0 otherwise,
        P_{x,y} = q^(1-c) P_{xs,ys} + q^c P_{x,ys}
                  - sum of mu(z, ys) q^((l(y)-l(z))/2) P_{x,z}
    over z in [x, ys) with zs < z, where mu(z, u) is the coefficient of
    q^((l(u)-l(z)-1)/2) in P_{z,u}.  The nonzero mu(z, u) are kept per
    u, so the sum runs only over them."""
    perms = sorted(permutations(range(1, n + 1)), key=_inversions)
    length = {w: _inversions(w) for w in perms}
    P: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[int, ...]] = {}
    mu: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}

    def swap(w: tuple[int, ...], i: int) -> tuple[int, ...]:
        return w[:i] + (w[i + 1], w[i]) + w[i + 2:]

    for y in perms:
        if not length[y]:
            P[y, y] = (1,)
        else:
            i = next(k for k in range(n - 1) if y[k] > y[k + 1])
            ys = swap(y, i)
            for x in perms:
                if length[x] > length[y] or not bruhat_leq(x, y):
                    continue
                c = int(x[i] > x[i + 1])
                acc = [0] * (length[y] // 2 + 2)
                for shift, poly in ((1 - c, P.get((swap(x, i), ys), ())), (c, P.get((x, ys), ()))):
                    for k, a in enumerate(poly):
                        acc[k + shift] += a
                for z, m in mu[ys]:
                    if z[i] > z[i + 1] and (x, z) in P:
                        shift = (length[y] - length[z]) // 2
                        for k, a in enumerate(P[x, z]):
                            acc[k + shift] -= m * a
                while acc and not acc[-1]:
                    acc.pop()
                P[x, y] = tuple(acc)
        mu[y] = []
        for x in perms:
            gap, p = length[y] - length[x], P.get((x, y), ())
            if gap > 0 and gap % 2 and len(p) > gap // 2 and p[gap // 2]:
                mu[y].append((x, p[gap // 2]))
    return P
