"""Consistent labelings, their weighted counts, and label transport.

A labeling of a web assigns 1, 2, or 3 to every edge (and to every
closed loop) so that the three edges meeting at an internal vertex
carry three different values.  Each labeling gets a monomial weight
t^k read off the drawing; summing the weights of the labelings with a
fixed boundary word gives a vector over boundary words that is
drawing-independent, multiplies under concatenation, and separates
irreducible webs.  That is what makes reduction coefficients
recoverable by counting: the coefficient of an irreducible child
equals the weighted count of parent labelings that transport onto it,
divided by the child's own weighted count.

A labeling is a plain tuple: the label of each edge by edge id, then
one label per closed loop in drawing order.  A boundary word is the
tuple of the 2n labels read along the boundary, sources then sinks;
sink labels are stored unprimed, since the primed reading only changes
comparison order inside the weight statistic.

Weight bookkeeping, in t-exponents:

- an internal vertex contributes +1 or -1 according to how the labels
  of its same-side pair of legs are ordered top to bottom; the
  comparison is mirrored on right-side pairs, and mirrored again at
  vertices whose edges all point inward (edge heads read their label
  in the reversed, primed order);
- every vertical tangency of an edge or loop labeled i contributes
  (4 - 2i) times the recorded turn sign.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter, deque
from typing import Optional

from .exactmath import InexactDivisionError, LaurentPoly, eval_q1, exact_div, parse_int, quoted
from .spider import Outcome, rewrite_step
from .webcore import (
    ROLE_SINK,
    Combo,
    Web,
    WebError,
    canonical_edge_order,
)

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


def _check_word(g: tuple[int, ...], n: int) -> None:
    if len(g) % 2:
        raise WebError("source and sink words must have equal length")
    for x in g:
        if x not in LABELS:
            raise WebError(f"boundary label {x!r} out of range")
    if len(g) != 2 * n:
        raise WebError(f"boundary has {len(g) // 2} strands, web has {n}")


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
    """All consistent labelings of w, sorted, restricted to boundary
    word g if given.

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
        _check_word(g, m.n)
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
    out.sort()
    return out


def word_counts(w: Web) -> Counter:
    """Plain labeling count of w per boundary word, from one
    unrestricted enumeration; words without a labeling are absent.
    word_counts(w)[g] == len(enumerate_labelings(w, g))."""
    return Counter(map(operator.itemgetter(*_boundary_edges(w)), enumerate_labelings(w)))


# ---------------------------------------------------------------------------
# The weight statistic


def _vertex_sign(role: str, left, right, lab) -> int:
    if len(left) == 2:
        upper_bigger = lab[left[0]] > lab[left[1]]
    else:
        upper_bigger = lab[right[1]] > lab[right[0]]  # mirrored side
    if role == ROLE_SINK:
        upper_bigger = not upper_bigger  # heads read the primed order
    return 1 if upper_bigger else -1


def _check_counts(w: Web, f: tuple[int, ...]) -> None:
    # a labeling has one label per edge, then one per closed loop
    if len(f) != len(w.pmap.edges) + w.pmap.loops:
        raise WebError("labeling does not match the web's edge and loop counts")


def labeling_weight(w: Web, f: tuple[int, ...]) -> LaurentPoly:
    """The monomial t^k of one labeling, read off w's drawing.  The
    value does not depend on which drawing of the map is used."""
    _check_counts(w, f)
    m, geom = w.pmap, w.geom
    ne = len(m.edges)
    total = 0
    for v, (left, right) in geom.vertex_sides.items():
        total += _vertex_sign(m.roles[v][0], left, right, f)
    for e, turns in geom.edge_turns.items():
        if turns:
            total += (4 - 2 * f[e]) * sum(turns)
    for turns, lbl in zip(geom.loop_turns, f[ne:]):
        total += (4 - 2 * lbl) * sum(turns)
    return LaurentPoly.t_power(total)


def weighted_count(w: Web, g: tuple[int, ...]) -> LaurentPoly:
    """Sum of labeling weights over the labelings with boundary g.
    At t = 1 this is the plain count."""
    acc = LaurentPoly.zero()
    for f in enumerate_labelings(w, g):
        acc = acc + labeling_weight(w, f)
    return acc


class KappaVector(Combo):
    """Sparse vector of weighted counts per boundary word.  The product
    joins entries whose middle words match (the left factor's sink word
    against the right's source word)."""

    __slots__ = ()
    ZERO = LaurentPoly.zero()

    @staticmethod
    def _product(g1: tuple, g2: tuple) -> tuple:
        n = len(g1) // 2
        if g1[n:] != g2[:n]:
            return ()
        return ((g1[:n] + g2[n:], 1),)


def boundary_profile(w: Web) -> KappaVector:
    """The full vector of weighted counts of w, one entry per boundary
    word that admits a labeling."""
    be = _boundary_edges(w)
    return KappaVector(w.n, (
        (tuple(f[e] for e in be), labeling_weight(w, f)) for f in enumerate_labelings(w)
    ))


# ---------------------------------------------------------------------------
# Transport through the rewrite steps
#
# Transport walks the engine's own cached steps (spider.rewrite_step),
# one per web code.  An equal-code web reached by another path may have
# a different map (hence a different edge numbering) from the host web
# the step was made on, so before each step the labeling is re-indexed
# onto the host through the canonical edge matching.


def _reindex(f: tuple[int, ...], src: Web, dst: Web) -> tuple[int, ...]:
    if src.code != dst.code:
        raise RuntimeError("reindexing requires equal canonical codes")
    arr = [0] * len(dst.pmap.edges)
    for a, b in zip(canonical_edge_order(src.pmap), canonical_edge_order(dst.pmap)):
        arr[b] = f[a]
    return tuple(arr) + f[len(src.pmap.edges):]


def _ghost_sign(geom, c: int, arrive: int, depart: int) -> int:
    # tangency created where corner c is smoothed away; zero when the
    # two strand legs leave c on opposite sides
    left, right = geom.vertex_sides[c]
    if arrive in left and depart in left:
        return 1 if arrive == left[0] else -1
    if arrive in right and depart in right:
        return 1 if arrive == right[1] else -1
    return 0


def _square_balance(w: Web, f: tuple[int, ...], oc: Outcome) -> int:
    """Exponent surplus of the labeling's local weight over the branch's
    rerouted strands; the matching branch balances to zero.

    Left side: corner vertex signs plus face-edge tangencies.  Right
    side, per rerouted strand: tangencies at the smoothed corners,
    minus the tangencies of the face edges it runs through, which are
    traversed against their drawn flow.  External tangencies appear
    identically on both sides and are omitted.
    """
    m, geom = w.pmap, w.geom
    lhs = 0
    for c in oc.corners:
        left, right = geom.vertex_sides[c]
        lhs += _vertex_sign(m.roles[c][0], left, right, f)
    for e in oc.face_edges:
        lhs += (4 - 2 * f[e]) * sum(geom.edge_turns[e])
    rhs = 0
    for ch in oc.chains:
        wgt = 4 - 2 * f[ch.edges[0]]
        for j in range(1, len(ch.edges), 2):
            rhs -= wgt * sum(geom.edge_turns[ch.edges[j]])
        k = len(ch.edges)
        closed = ch.child_eid < 0
        for i, c in enumerate(ch.corners):
            arrive = ch.edges[i]
            depart = ch.edges[(i + 1) % k] if closed else ch.edges[i + 1]
            rhs += wgt * _ghost_sign(geom, c, arrive, depart)
    return lhs - rhs


def _chain_label(f: tuple[int, ...], ch) -> Optional[int]:
    # externals sit at even positions; a transportable strand carries
    # one label across all of them
    labs = {f[ch.edges[j]] for j in range(0, len(ch.edges), 2)}
    return labs.pop() if len(labs) == 1 else None


def _carry(f: tuple[int, ...], oc: Outcome, chain_labels: dict) -> tuple[int, ...]:
    arr = [0] * len(oc.child.pmap.edges)
    for old, new in oc.edge_map.items():
        arr[new] = f[old]
    for ch, lbl in chain_labels.items():
        arr[ch.child_eid] = lbl
    if 0 in arr:
        raise RuntimeError("transport left a child edge unlabeled")
    return tuple(arr)


def _transport_step(w: Web, outcomes, f: tuple[int, ...]) -> tuple[Outcome, tuple[int, ...]]:
    # an outcome carries f when each fused run meets one label on its
    # outside edges and, if it is one of two, its local weight balances
    admissible = []
    for oc in outcomes:
        chain_labels = {}
        for ch in oc.chains:
            lbl = _chain_label(f, ch)
            if lbl is None:
                break
            if ch.child_eid >= 0:
                chain_labels[ch] = lbl
        else:
            if len(outcomes) == 1 or _square_balance(w, f, oc) == 0:
                admissible.append((oc, chain_labels))
    if len(admissible) == 1:
        oc, chain_labels = admissible[0]
    elif len(admissible) == 2:
        # both resolutions carry the labeling with the same weight; pair
        # the two parent labelings (they differ by swapping the two
        # face-edge labels) with the two branches deterministically
        tup = tuple(f[e] for e in outcomes[0].face_edges)
        a, b = sorted(set(tup))
        swapped = tuple(a if x == b else b for x in tup)
        oc, chain_labels = admissible[0] if tup < swapped else admissible[1]
    else:
        raise RuntimeError(
            "no outcome of a rewrite step carries the labeling; "
            "the counting identity would fail here"
        )
    return oc, _carry(f, oc, chain_labels)


def transport_and_type(w: Web, f: tuple[int, ...]) -> tuple[Web, tuple[int, ...]]:
    """Carry a labeling of w down the rewrite steps to an irreducible
    web, its type.  Loop labels are forgotten, a collapsing two-sided
    face hands its forced outside label to the fused edge, and a
    four-sided face picks the resolution that carries the labeling.
    An irreducible w is its own type, in its own edge numbering."""
    _check_counts(w, f)
    cur_w, cur_f = w, f
    while True:
        host, outcomes = rewrite_step(cur_w)
        if not outcomes:
            return cur_w, cur_f
        if host is not cur_w:
            cur_f = _reindex(cur_f, cur_w, host)
        oc, cur_f = _transport_step(host, outcomes, cur_f)
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
    num = LaurentPoly.zero()
    for f in enumerate_labelings(w, g):
        ty, _ = transport_and_type(w, f)
        if ty.code == target.code:
            num = num + labeling_weight(w, f)
    try:
        return exact_div(num, den)
    except InexactDivisionError as exc:
        raise RuntimeError(
            "weighted labeling counts fail the exact-ratio identity "
            f"for boundary {word_to_text(g)}: {exc}"
        ) from exc
