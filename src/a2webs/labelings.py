"""Consistent labelings, their weighted counts, and label transport.

A labeling of a web assigns 1, 2, or 3 to every edge (and to every
closed loop) so that the three edges meeting at an internal vertex
carry three different values.  Each labeling gets a monomial weight
t^k read off the map; summing the weights of the labelings with a
fixed boundary word gives a web's profile, a map from boundary word
to weighted count (boundary_profile), which multiplies under
concatenation (profile_product) and separates irreducible webs.  That
is what makes reduction coefficients recoverable by counting: the
coefficient of an irreducible child equals the weighted count of
parent labelings that transport onto it, divided by the child's own
weighted count.

A labeling is a plain tuple: the label of each edge by edge id, then
one label per closed loop.  A boundary word is the tuple of the 2n
labels read along the boundary, sources then sinks; sink labels are
stored unprimed, and the weight reverses its vertex term at a sink
in their place.

The weight is that of a drawing with 120-degree internal corners,
sources top to bottom on the left and sinks on the right, read off the
map: webcore.edge_turns solves each edge's turn, tail to head in half
turns counterclockwise, once per map (PlanarMap.turns).  The
t-exponent is minus (4 - 2i) times the turn of each edge labeled i,
minus 1/3 at an internal source whose labels rise counterclockwise
(plus 1/3 where they fall, reversed at a sink), plus 2(4 - 2i) per
closed loop labeled i.  Its sign is a convention of this form: a web's
mirror image negates every edge and vertex term.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter, deque
from functools import cache
from types import MappingProxyType
from typing import Callable, Mapping, Optional

from .exactmath import InexactDivisionError, LaurentPoly, eval_q1, exact_div, parse_int, quoted
from .spider import Outcome, rewrite_step
from .webcore import Web, WebError, canonical_edge_order, int_entries

LABELS = (1, 2, 3)


def word_from_text(text: str) -> tuple[int, ...]:
    """The boundary word written like 1,2:1,2, sources then sinks."""
    parts = text.split(":")
    if len(parts) != 2:
        raise WebError(f"boundary {quoted(text)} must look like 1,2:1,2")
    try:
        src, snk = ([parse_int(x) for x in part.split(",")] for part in parts)
    except ValueError as exc:
        raise WebError(f"boundary {quoted(text)} has a non-integer entry") from exc
    except OverflowError as exc:
        raise WebError(f"boundary {quoted(text)}: {exc}") from exc
    if len(src) != len(snk):
        raise WebError("source and sink words must have equal length")
    return tuple(src + snk)


def word_to_text(g: tuple[int, ...]) -> str:
    n = len(g) // 2
    return ",".join(map(str, g[:n])) + ":" + ",".join(map(str, g[n:]))


def _boundary_edges(w: Web) -> list[int]:
    m = w.pmap
    return [m.rot[v][0] >> 1 for v in range(2 * m.n)]


def boundary_restriction(w: Web, f: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(f[e] for e in _boundary_edges(w))


def _check_word(g: tuple[int, ...], n: int) -> tuple[int, ...]:
    """g as a tuple of ints (see int_entries), refusing a word that is
    not one on n strands."""
    g = int_entries(g)
    if len(g) % 2:
        raise WebError("source and sink words must have equal length")
    for x in g:
        if x not in LABELS:
            raise WebError(f"boundary label {quoted(x)} out of range")
    if len(g) != 2 * n:
        raise WebError(f"boundary has {len(g) // 2} strands, web has {n}")
    return g


# The most partial labelings advanced as one list: the pending chunks,
# not a whole level of the search, hold its memory besides the output.
CHUNK = 256
_PERMS = tuple(itertools.permutations(LABELS))
# _OTHERS[a]: the two orders of the two labels other than a
_OTHERS = (None,) + tuple(tuple(itertools.permutations(x for x in LABELS if x != a)) for a in LABELS)
_FREE = tuple((a,) for a in LABELS)


def _plan(w: Web, pinned: dict[int, int]) -> tuple[tuple, list[tuple], list[int]]:
    """The start partial (the pinned labels), the steps, and each edge's
    position in a partial.  The internal vertices are visited breadth
    first from the pinned edges, then each unpinned through-strand.  A
    step holds the positions of the legs labeled before it, and the
    labels its new legs may take when there are none: _PERMS at a
    vertex, _FREE on a through-strand."""
    m = w.pmap
    internal = m.internal_vertices()
    at_vertex: dict[int, list[int]] = {v: [] for v in internal}
    for e, (t, h) in enumerate(m.edges):
        for v in (t, h):
            if v in at_vertex:
                at_vertex[v].append(e)
    pins = sorted(pinned)
    where = [-1] * len(m.edges)
    for k, e in enumerate(pins):
        where[e] = k
    filled = len(pins)
    queue = deque(v for e in pins for v in m.edges[e] if v in at_vertex)
    queued = set(queue)
    unreached = (v for v in internal if v not in queued)
    steps: list[tuple] = []
    while True:
        if not queue:  # start a component no pinned edge reaches
            v = next(unreached, None)
            if v is None:
                break
            queued.add(v)
            queue.append(v)
        legs = at_vertex[queue.popleft()]
        steps.append((tuple(where[e] for e in legs if where[e] >= 0), _PERMS))
        for e in legs:
            if where[e] < 0:
                where[e] = filled
                filled += 1
                for u in m.edges[e]:
                    if u in at_vertex and u not in queued:
                        queued.add(u)
                        queue.append(u)
    for e, k in enumerate(where):
        if k < 0:
            where[e] = filled
            filled += 1
            steps.append(((), _FREE))
    return tuple(pinned[e] for e in pins), steps, where


def enumerate_labelings(
    w: Web, g: Optional[tuple[int, ...]] = None
) -> list[tuple[int, ...]]:
    """All consistent labelings of w, restricted to boundary word g if
    given, each once, in the search's order: sorted(...) gives the
    lexicographic one.  The order depends on w's map, g and CHUNK
    alone, never on string hashing.

    Labels a vertex at a time, with no recursion.  A partial labeling
    is a tuple in visit order: the pinned boundary edges first, then
    the legs of each internal vertex breadth first from them, then the
    unpinned through-strands.  Each step extends a whole list of
    partials by what it has already labeled: no leg, the six
    permutations; one leg labeled a, the two orders of the other two
    labels; two legs a != b, the forced 6 - a - b; all three, a check
    that they differ.  Lists are taken depth first from an explicit
    stack in chunks of at most CHUNK partials, and one itemgetter puts
    each finished labeling in edge-id order.
    """
    m = w.pmap
    pinned: dict[int, int] = {}
    if g is not None:
        g = _check_word(g, m.n)
        for e, lbl in zip(_boundary_edges(w), g):
            if pinned.setdefault(e, lbl) != lbl:
                return []
    start, steps, where = _plan(w, pinned)
    last = len(steps)
    in_edge_order = operator.itemgetter(*where) if where != list(range(len(where))) else None
    out: list[tuple[int, ...]] = []
    stack = [(0, [start])]
    while stack:
        k, parts = stack.pop()
        while k < last and parts and len(parts) <= CHUNK:
            known, choices = steps[k]
            k += 1
            if not known:
                parts = [p + q for p in parts for q in choices]
            elif len(known) == 1:
                i, = known
                parts = [p + q for p in parts for q in _OTHERS[p[i]]]
            elif len(known) == 2:
                i, j = known
                parts = [p + (6 - p[i] - p[j],) for p in parts if p[i] != p[j]]
            else:
                i, j, h = known
                parts = [p for p in parts if p[i] != p[j] and p[i] + p[j] + p[h] == 6]
        if k < last and parts:
            stack.extend((k, parts[s:s + CHUNK]) for s in range(0, len(parts), CHUNK))
        else:
            out += map(in_edge_order, parts) if in_edge_order else parts
    if m.loops:
        out = [f + free for f in out for free in itertools.product(LABELS, repeat=m.loops)]
    return out


def word_counts(w: Web) -> Counter:
    """Plain labeling count of w per boundary word, from one
    unrestricted enumeration; words without a labeling are absent.
    word_counts(w)[g] == len(enumerate_labelings(w, g))."""
    return Counter(map(operator.itemgetter(*_boundary_edges(w)), enumerate_labelings(w)))


# ---------------------------------------------------------------------------
# The weight statistic


def _check_counts(w: Web, f: tuple[int, ...]) -> None:
    # a labeling has one label per edge, then one per closed loop
    if len(f) != len(w.pmap.edges) + w.pmap.loops:
        raise WebError("labeling does not match the web's edge and loop counts")


# a closed loop labeled k is read like a vertex whose two legs are the
# loop, at row k and column k: 2(4 - 2k) in thirds
_LOOP = ((0,) * 4, (0, 12, 0, 0), (0,) * 4, (0, 0, 0, -12))


def _compile_weight(w: Web) -> Callable[[tuple[int, ...]], int]:
    """The t-exponent of a labeling of w, from one read of w's map: per
    internal vertex, a table of its term in thirds at row a, column b,
    for the labels a, b of its first two legs in rotation order.  Each
    edge's turn joins its tail's table, or its head's when its tail is
    a boundary source; a through-strand turns 0."""
    m = w.pmap
    turn = m.turns()
    tables = []
    for v in m.internal_vertices():
        darts = m.rot[v]
        sign = -1 if m.is_sink(v) else 1
        owned = [(k, turn[d & ~1]) for k, d in enumerate(darts) if sign > 0 or m.edges[d >> 1][0] < m.n]
        table = [[0] * 4 for _ in range(4)]
        for a, b, c in _PERMS:
            rise = 1 if (b - a) % 3 == 1 else -1
            table[a][b] = -sign * rise - sum((4 - 2 * (a, b, c)[k]) * t for k, t in owned)
        tables.append((darts[0] >> 1, darts[1] >> 1, tuple(map(tuple, table))))
    tables += [(e, e, _LOOP) for e in range(len(m.edges), len(m.edges) + m.loops)]

    def exponent(f: tuple[int, ...]) -> int:
        total = 0
        for a, b, table in tables:
            total += table[f[a]][f[b]]
        return total // 3

    return exponent


def labeling_weight(w: Web, f: tuple[int, ...]) -> LaurentPoly:
    """The monomial t^k of one labeling, read off w's map.  A closed
    component has no outside of its own: its weights follow the outer
    face its map declares (see webcore.edge_turns), and another choice
    would change single weights, though not the weighted counts of
    boundary_profile."""
    _check_counts(w, f)
    return LaurentPoly.t_power(_compile_weight(w)(f))


def weighted_count(w: Web, g: tuple[int, ...]) -> LaurentPoly:
    """Sum of labeling weights over the labelings with boundary g.
    At t = 1 this is the plain count."""
    return LaurentPoly(Counter(map(_compile_weight(w), enumerate_labelings(w, g))))


@cache
def boundary_profile(w: Web) -> Mapping[tuple[int, ...], LaurentPoly]:
    """The weighted counts of w, a read-only map from each boundary
    word that admits a labeling to its weighted count.  Memoized per
    web code: the counts do not depend on the map's edge numbering or
    on the outer face a closed component declares, so the first web
    met with a code stands for all of them, and every call shares one
    map."""
    exponent, word = _compile_weight(w), operator.itemgetter(*_boundary_edges(w))
    per_word: dict[tuple[int, ...], Counter] = {}
    for f in enumerate_labelings(w):
        per_word.setdefault(word(f), Counter())[exponent(f)] += 1
    return MappingProxyType({g: LaurentPoly(c) for g, c in per_word.items()})


def profile_product(a: Mapping, b: Mapping) -> dict[tuple[int, ...], LaurentPoly]:
    """The profile of a concatenation from its factors' profiles: the
    words of a and b whose middle words match (a's sink word, b's
    source word) join, and their counts multiply.  b's words are
    indexed by source word, so each word of a meets only those it
    joins; zero sums are dropped."""
    n, m = len(next(iter(a), ())) // 2, len(next(iter(b), ())) // 2
    if a and b and n != m:
        raise WebError(f"strand counts differ: {n} vs {m}")
    by_source: dict[tuple, list] = {}
    for g, c in b.items():
        by_source.setdefault(g[:n], []).append((g[n:], c))
    acc: dict = {}
    for g, ca in a.items():
        src = g[:n]
        for snk, cb in by_source.get(g[n:], ()):
            k, c = src + snk, ca * cb
            acc[k] = acc[k] + c if k in acc else c
    return {k: c for k, c in acc.items() if c}


# ---------------------------------------------------------------------------
# Transport through the rewrite steps
#
# Transport walks the engine's own cached steps (spider.rewrite_step),
# one per web code.  An equal-code web reached by another path may have
# a different map (hence a different edge numbering) from the host web
# the step was made on, so before each step the labeling is re-indexed
# onto the host through the canonical edge matching.  A step is chosen
# by the labels alone: a branch carries the labeling when each of its
# fused runs meets one label outside the face, and of a square's two
# branches that both do, the one fusing through the face edges labeled
# 2 unless the outside label is 2, and through those labeled 3 when it is.


def _reindex(f: tuple[int, ...], src: Web, dst: Web) -> tuple[int, ...]:
    if src.code != dst.code:
        raise RuntimeError("reindexing requires equal canonical codes")
    arr = [0] * len(dst.pmap.edges)
    for a, b in zip(canonical_edge_order(src.pmap), canonical_edge_order(dst.pmap)):
        arr[b] = f[a]
    return tuple(arr) + f[len(src.pmap.edges):]


def _transport_step(outcomes, f: tuple[int, ...]) -> tuple[Outcome, tuple[int, ...]]:
    """The outcome the label rule above picks, and f carried onto its
    child: each child edge takes the label of the parent edge that the
    outcome's carry names.  When both branches of a square carry f, the
    four outside edges share one label x and the face edges alternate
    the other two, so the face edge of each branch's first run,
    runs[0][1], decides: labeled 2 unless x is 2, then 3."""
    carried = [oc for oc in outcomes if all(len({f[e] for e in run[::2]}) == 1 for run in oc.runs)]
    if len(carried) == 2:
        via = 3 if f[carried[0].runs[0][0]] == 2 else 2
        carried = [oc for oc in carried if f[oc.runs[0][1]] == via]
    if not carried:
        raise RuntimeError(
            "no outcome of a rewrite step carries the labeling; "
            "the counting identity would fail here"
        )
    oc = carried[0]
    return oc, tuple(f[e] for e in oc.carry)


def transport_and_type(w: Web, f: tuple[int, ...]) -> tuple[Web, tuple[int, ...]]:
    """Carry a labeling of w down the rewrite steps to an irreducible
    web, its type.  Loop labels are forgotten, a collapsing two-sided
    face hands its forced outside label to the fused edge, and a
    four-sided face picks the resolution whose fused runs each meet one
    label outside the face.  When both do, the four outside edges share
    one label and the face edges alternate the other two; the
    resolution fusing through the face edges labeled 2 is taken, or
    through those labeled 3 when the face edges are labeled 1 and 3.
    The choice reads the labels alone, not the drawing.  An irreducible
    w is its own type, in its own edge numbering."""
    _check_counts(w, f)
    cur_w, cur_f = w, f
    while True:
        host, outcomes = rewrite_step(cur_w)
        if not outcomes:
            return cur_w, cur_f
        if host is not cur_w:
            cur_f = _reindex(cur_f, cur_w, host)
        oc, cur_f = _transport_step(outcomes, cur_f)
        cur_w = oc.child


def coefficient_via_labelings(
    w: Web, target: Web, g: tuple[int, ...]
) -> LaurentPoly:
    """The coefficient of the irreducible web target in the reduction
    of w, extracted by counting: the weighted count of labelings of w
    whose type is target, divided by target's own weighted count.
    Zero when target has no labelings with boundary g."""
    den = weighted_count(target, g)
    if eval_q1(den) == 0:
        return LaurentPoly.zero()
    exponent = _compile_weight(w)
    num = LaurentPoly(Counter(
        exponent(f) for f in enumerate_labelings(w, g)
        if transport_and_type(w, f)[0].code == target.code
    ))
    try:
        return exact_div(num, den)
    except InexactDivisionError as exc:
        raise RuntimeError(
            "weighted labeling counts fail the exact-ratio identity "
            f"for boundary {word_to_text(g)}: {exc}"
        ) from exc
