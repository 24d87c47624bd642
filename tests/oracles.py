"""Independent routes the tests check the library against.  No program
path calls these."""

from collections import deque
from functools import cache
from itertools import permutations, product
from typing import Optional

from a2webs.exactmath import LaurentPoly, eval_q1
from a2webs.immanants import theta_image
from a2webs.labelings import LABELS, _boundary_edges, _check_word
from a2webs.networks import PlanarNetwork, _known_edge, _sliced_web
from a2webs.spider import WebCombo
from a2webs.tlbridge import A1Web
from a2webs.webcore import LEFT, RIGHT, Web, WebError


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


def oracle_uncross(net: PlanarNetwork, marks) -> Web:
    """`networks.uncross` as it was before it read the network's sweep
    table: it finds each stop's vertex, role and marked edges from the
    network itself, and works out every vertex's columns.  Only the
    positions of edge ends, entries and exits are computed here, as the
    network's old sweep table gave them."""
    mult = dict(marks)
    # the sweep stops only at the marked edges' ends, the entries and
    # the exits: at any other vertex no strand passes and nothing is
    # checked
    where = {v: k for k, v in enumerate(net.order)}
    ends = {eid: (where[e.tail], where[e.head]) for eid, e in enumerate(net.edges)}
    stops = tuple(where[v] for v in net.sources + net.sinks)
    at = set(stops)
    for eid in mult:
        at.update(ends[_known_edge(net, eid)])
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
