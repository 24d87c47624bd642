"""Weighted planar flow networks and their web immanants.

A network is a finite digraph drawn in the plane with straight edges
that advance strictly left to right, n entry vertices on the left and
n exits on the right, and a rational weight on every edge.  The path
matrix collects, for each entry/exit pair, the total weight of the
directed paths between them, a path weighing the product of its edge
weights.  With positive weights every minor of this matrix counts
vertex-disjoint path families, so the matrix is totally nonnegative.

Web immanants of the path matrix can be computed on the network
itself.  A covering family of n paths, one per entry and one per
exit, no vertex on four of them, uses each edge once, twice or
thrice; forgetting which path went where leaves a marked subnetwork.
Uncrossing a marked subnetwork yields a web: a singly used edge stays
a plain strand, a doubly used run collapses to one edge aimed the
other way (it carries the one flow value the run does not), a triply
used run carries nothing, and the meeting points of strands become
the trivalent vertices of the web calculus.  The immanant is then the
sum, over marked subnetworks, of the edge-weight product times the
coefficient of the basis web in the reduction of the uncrossed web.
The equality of the two computations is the main consistency check on
this module and is exercised heavily by the tests.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .exactmath import eval_q1, parse_rational
from .immanants import ExactMatrix, evaluate_immanant, irreducible_webs
from .perms import Perm, all_perms, identity_perm
from .spider import reduce_web
from .webcore import (
    ROLE_SINK,
    ROLE_SOURCE,
    ROLE_SNK,
    ROLE_SRC,
    PlanarMap,
    Web,
    WebError,
)

Point = tuple[Fraction, Fraction]


def _frac(x) -> Fraction:
    try:
        return parse_rational(x)
    except ValueError as exc:
        raise WebError(str(exc)) from exc


# ---------------------------------------------------------------------------
# The drawing check


def _check_drawing(pos: Mapping[str, Point], edges: Sequence[NetEdge],
                   at: Mapping[Fraction, Mapping[Fraction, str]]) -> None:
    """Refuse a drawing in which two edges cross or overlap, or a vertex
    sits on an edge it does not end.  `at` maps each vertex abscissa to
    its column, height -> vertex id.  Every edge advances strictly in
    x, so one sweep over the abscissae sees every meeting: at an
    abscissa as two equal heights, inside the strip up to the next one
    as two edges whose height order inverts or that coincide."""
    xs = sorted(at)
    rank = {x: k for k, x in enumerate(xs)}
    spans = [(rank[pos[e.tail][0]], rank[pos[e.head][0]]) for e in edges]

    def clash(i: int, j: int) -> WebError:
        a, b = edges[min(i, j)], edges[max(i, j)]
        return WebError(f"edges {a.tail!r}->{a.head!r} and {b.tail!r}->{b.head!r} "
                        "cross or overlap in the drawing")

    prev: dict[int, Fraction] = {}
    for k, x in enumerate(xs):
        cur = {}
        for i, (lo, hi) in enumerate(spans):
            if lo <= k <= hi:
                (tx, ty), (hx, hy) = pos[edges[i].tail], pos[edges[i].head]
                cur[i] = ty + (hy - ty) * (x - tx) / (hx - tx)
        strip = sorted((prev[i], y, i) for i, y in cur.items() if spans[i][0] < k)
        for (l1, r1, i), (l2, r2, j) in zip(strip, strip[1:]):
            if r1 > r2 or (l1, r1) == (l2, r2):
                raise clash(i, j)
        column, met = at[x], {}
        for i, y in cur.items():
            e = edges[i]
            vid = column.get(y)
            if vid is not None and vid not in (e.tail, e.head):
                raise WebError(f"vertex {vid!r} lies on edge {e.tail!r}->{e.head!r}")
            if vid is None and y in met:
                raise clash(met[y], i)
            met[y] = i
        prev = cur


# ---------------------------------------------------------------------------
# Networks


@dataclass(frozen=True)
class NetEdge:
    tail: str
    head: str
    weight: Fraction


class PlanarNetwork:
    """Straight-line drawing of a weighted acyclic digraph.

    Vertices carry exact rational coordinates and every edge must gain
    x from tail to head, which keeps the graph acyclic and gives each
    vertex a clean left side (incoming) and right side (outgoing).
    Entries are listed top to bottom and may not receive edges; exits
    are listed top to bottom and may not emit any.  The drawing itself
    is validated: no two edges may cross or overlap, and no vertex may
    sit in the interior of an edge.
    """

    __slots__ = ("n", "ids", "pos", "edges", "sources", "sinks",
                 "out_edges", "in_edges", "_paths")

    def __init__(
        self,
        n: int,
        vertices: Sequence[tuple],
        edges: Sequence[tuple],
        sources: Sequence,
        sinks: Sequence,
    ):
        if n < 1:
            raise WebError(f"strand count must be positive, got {n}")
        self.n = n
        pos: dict[str, Point] = {}
        order = []
        for vid, x, y in vertices:
            key = str(vid)
            if key in pos:
                raise WebError(f"vertex id {key!r} repeated")
            pos[key] = (_frac(x), _frac(y))
            order.append(key)
        self.ids = tuple(order)
        self.pos = pos
        at: dict[Fraction, dict[Fraction, str]] = {}
        for vid in order:
            x, y = pos[vid]
            column = at.setdefault(x, {})
            if y in column:
                raise WebError(f"vertices {column[y]!r} and {vid!r} share a position")
            column[y] = vid
        self.sources = tuple(str(s) for s in sources)
        self.sinks = tuple(str(t) for t in sinks)
        if len(self.sources) != n or len(self.sinks) != n:
            raise WebError(f"expected {n} entries and {n} exits")
        named = list(self.sources) + list(self.sinks)
        if len(set(named)) != len(named):
            raise WebError("entries and exits must be distinct vertices")
        for vid in named:
            if vid not in pos:
                raise WebError(f"boundary vertex {vid!r} is not in the vertex list")
        for role, vids in (("entries", self.sources), ("exits", self.sinks)):
            ys = [pos[v][1] for v in vids]
            if any(a <= b for a, b in zip(ys, ys[1:])):
                raise WebError(f"{role} must be listed top to bottom")
        es = []
        for t, h, w in edges:
            t, h = str(t), str(h)
            if t not in pos or h not in pos:
                raise WebError(f"edge {t!r}->{h!r} references a missing vertex")
            if pos[t][0] >= pos[h][0]:
                raise WebError(f"edge {t!r}->{h!r} must advance left to right")
            es.append(NetEdge(t, h, _frac(w)))
        self.edges = tuple(es)
        out: dict[str, list[int]] = {v: [] for v in order}
        inc: dict[str, list[int]] = {v: [] for v in order}
        for eid, e in enumerate(self.edges):
            out[e.tail].append(eid)
            inc[e.head].append(eid)
        def leg_key(eid: int) -> tuple:
            e = self.edges[eid]
            return (-pos[e.head][1], pos[e.head][0], e.head, eid)
        self.out_edges = {v: tuple(sorted(out[v], key=leg_key)) for v in order}
        self.in_edges = {v: tuple(inc[v]) for v in order}
        for s in self.sources:
            if self.in_edges[s]:
                raise WebError(f"entry {s!r} has an incoming edge")
        for t in self.sinks:
            if self.out_edges[t]:
                raise WebError(f"exit {t!r} has an outgoing edge")
        _check_drawing(pos, self.edges, at)
        self._paths = None

    def source_rank(self, vid: str) -> int:
        return self.sources.index(vid)

    def sink_rank(self, vid: str) -> int:
        return self.sinks.index(vid)

    # -- serialization ----------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "vertices": [
                {
                    "id": v,
                    "x": str(self.pos[v][0]),
                    "y": str(self.pos[v][1]),
                }
                for v in self.ids
            ],
            "edges": [
                {"from": e.tail, "to": e.head, "weight": str(e.weight)}
                for e in self.edges
            ],
            "sources": list(self.sources),
            "sinks": list(self.sinks),
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "PlanarNetwork":
        try:
            n = obj["n"]
            vertices = [(v["id"], v["x"], v["y"]) for v in obj["vertices"]]
            edges = [(e["from"], e["to"], e["weight"]) for e in obj["edges"]]
            sources = list(obj["sources"])
            sinks = list(obj["sinks"])
        except (KeyError, TypeError) as exc:
            raise WebError(f"malformed network JSON: {exc}") from exc
        if type(n) is not int:
            raise WebError(f"network 'n' must be an integer, got {n!r}")
        for key in ("vertices", "edges", "sources", "sinks"):
            if type(obj[key]) is not list:
                raise WebError(f"network {key!r} must be a JSON list")
        return cls(n, vertices, edges, sources, sinks)

    # -- paths ------------------------------------------------------------

    def _path_table(self) -> dict[tuple[int, int], tuple[tuple[int, ...], ...]]:
        """All directed paths entry i -> exit j, as edge id tuples."""
        if self._paths is None:
            table: dict[tuple[int, int], list[tuple[int, ...]]] = {}
            snk_rank = {t: j for j, t in enumerate(self.sinks)}
            for i, s in enumerate(self.sources):
                stack = [(s, ())]
                while stack:
                    v, acc = stack.pop()
                    j = snk_rank.get(v)
                    if j is not None:
                        table.setdefault((i, j), []).append(acc)
                        continue
                    for eid in reversed(self.out_edges[v]):
                        stack.append((self.edges[eid].head, acc + (eid,)))
            self._paths = {k: tuple(v) for k, v in table.items()}
        return self._paths

    def paths_between(self, i: int, j: int) -> tuple[tuple[int, ...], ...]:
        return self._path_table().get((i, j), ())

    def path_vertices(self, path: Sequence[int]) -> tuple[str, ...]:
        if not path:
            return ()
        out = [self.edges[path[0]].tail]
        for eid in path:
            out.append(self.edges[eid].head)
        return tuple(out)

    def path_weight(self, path: Sequence[int]) -> Fraction:
        w = Fraction(1)
        for eid in path:
            w *= self.edges[eid].weight
        return w


def path_matrix(net: PlanarNetwork) -> ExactMatrix:
    """Total path weight from each entry to each exit.  A plain
    forward sweep in x order; the monotone drawing is what guarantees
    this order is topological."""
    order = sorted(net.ids, key=lambda v: (net.pos[v][0], net.pos[v][1], v))
    rows = []
    for s in net.sources:
        acc = {v: Fraction(0) for v in net.ids}
        acc[s] = Fraction(1)
        for v in order:
            if acc[v]:
                for eid in net.out_edges[v]:
                    e = net.edges[eid]
                    acc[e.head] += acc[v] * e.weight
        rows.append([acc[t] for t in net.sinks])
    return ExactMatrix.from_rows(rows)


def lindstrom_check(net: PlanarNetwork) -> dict:
    """Compare det(path matrix) against the weighted count of
    vertex-disjoint families connecting entry i to exit i.  Crossing
    connections cancel in a planar picture, so the two must agree."""
    X = path_matrix(net)
    det = X.det()
    total = Fraction(0)
    count = 0
    for combo in _families(net, identity_perm(net.n), 1):
        count += 1
        w = Fraction(1)
        for p in combo:
            w *= net.path_weight(p)
        total += w
    return {
        "n": net.n,
        "det": str(det),
        "disjoint_families": count,
        "family_sum": str(total),
        "passed": det == total,
    }


# ---------------------------------------------------------------------------
# Marked subnetworks and their uncrossing


@dataclass(frozen=True, eq=False)
class MarkedSubnetwork:
    """Edge multiset of a covering path family: each used edge with
    its multiplicity 1, 2 or 3."""

    network: PlanarNetwork
    marks: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        norm = []
        for eid, m in self.marks:
            if not 0 <= eid < len(self.network.edges):
                raise WebError(f"marked edge {eid} does not exist")
            if eid in seen:
                raise WebError(f"edge {eid} marked twice")
            seen.add(eid)
            if m not in (1, 2, 3):
                raise WebError(f"edge {eid} carries multiplicity {m}, want 1..3")
            norm.append((eid, m))
        object.__setattr__(self, "marks", tuple(sorted(norm)))

    @classmethod
    def from_family(cls, network: PlanarNetwork, paths: Sequence[Sequence[int]]) -> "MarkedSubnetwork":
        counts = Counter(eid for p in paths for eid in p)
        bad = [eid for eid, m in counts.items() if m > 3]
        if bad:
            raise WebError(f"edge {bad[0]} is used by four paths")
        return cls(network, tuple(counts.items()))

    def multiplicity(self, eid: int) -> int:
        for e, m in self.marks:
            if e == eid:
                return m
        return 0

    def weight(self) -> Fraction:
        w = Fraction(1)
        for eid, m in self.marks:
            w *= self.network.edges[eid].weight ** m
        return w


def _ccw_slots(slots: list[tuple[tuple[int, int], Point]]) -> list[tuple[int, int]]:
    """Order vertex slots counterclockwise from the positive x axis by
    the exact direction each strand leaves in."""

    def half(v: Point) -> int:
        return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1

    def cmp(a, b) -> int:
        va, vb = a[1], b[1]
        ha, hb = half(va), half(vb)
        if ha != hb:
            return ha - hb
        cr = va[0] * vb[1] - va[1] * vb[0]
        if cr > 0:
            return -1
        if cr < 0:
            return 1
        raise WebError("two strands leave a crossing in the same direction")

    return [end for end, _ in sorted(slots, key=cmp_to_key(cmp))]


def uncross(sub: MarkedSubnetwork) -> Web:
    """The web of a marked subnetwork.

    Each vertex is resolved by one rule.  A doubled run is one curve
    aimed against the flow and a tripled run carries nothing.  On each
    side of the vertex, a single strand next to a doubled run turns
    back into it.  Of the curve ends left over, one arriving and one
    leaving pass through, three meet at a sink or a source, and two and
    two meet at a sink and a source joined by a middle edge aimed
    against the flow.  Strand ends that close up on themselves become
    closed loops.  The resulting rotation system is validated here, so a
    marking whose entries and exits are not laid out along the outer
    face is rejected rather than mis-drawn when the web is drawn.
    """
    net = sub.network
    n = net.n
    mult = dict(sub.marks)

    # one curve per marked edge of multiplicity 1 or 2; a doubled run
    # is drawn against the arrow of the network edge
    rev = {eid: m == 2 for eid, m in mult.items() if m != 3}

    def seg_end_at(eid: int, v: str) -> tuple[int, int]:
        e = net.edges[eid]
        at_head = v == e.head
        if rev[eid]:
            return (eid, 0 if at_head else 1)
        return (eid, 1 if at_head else 0)

    joins: dict[tuple[int, int], tuple[int, int]] = {}
    bnd_attach: dict[tuple[int, int], int] = {}
    gadgets: list[tuple[str, list[tuple[tuple[int, int], Point]]]] = []
    mid_ids: list[int] = []

    def direction(eid: int, v: str) -> Point:
        e = net.edges[eid]
        o = net.pos[e.head if v == e.tail else e.tail]
        p = net.pos[v]
        return (o[0] - p[0], o[1] - p[1])

    for v in sorted(net.ids, key=lambda u: (net.pos[u][0], -net.pos[u][1], u)):
        ins = [eid for eid in net.in_edges[v] if eid in mult]
        outs = [eid for eid in net.out_edges[v] if eid in mult]
        k_in = sum(mult[e] for e in ins)
        k_out = sum(mult[e] for e in outs)
        if v in net.sources:
            if k_in or k_out != 1:
                raise WebError(f"entry {v!r} must start exactly one strand")
            bnd_attach[(outs[0], 0)] = net.source_rank(v)
            continue
        if v in net.sinks:
            if k_out or k_in != 1:
                raise WebError(f"exit {v!r} must end exactly one strand")
            bnd_attach[(ins[0], 1)] = n + net.sink_rank(v)
            continue
        if k_in != k_out:
            raise WebError(f"marking is unbalanced at vertex {v!r}")
        if k_in == 0:
            continue
        if k_in > 3:
            raise WebError(f"four or more strands pass through vertex {v!r}")

        def slot(eid: int) -> tuple[tuple[int, int], Point]:
            return (seg_end_at(eid, v), direction(eid, v))

        # curves that end at v and curves that start there: a single
        # strand's curve runs with its edge, a doubled run's against it,
        # and a tripled run carries none
        arrive, depart = [], []
        for side, singles_arrive in ((ins, True), (outs, False)):
            ones = [e for e in side if mult[e] == 1]
            twos = [e for e in side if mult[e] == 2]
            a, d = (ones, twos) if singles_arrive else (twos, ones)
            if ones and twos:
                # a single strand next to a doubled run turns back into it
                joins[(a[0], 1)] = (d[0], 0)
            else:
                arrive += a
                depart += d
        if len(arrive) == len(depart) == 1:
            joins[(arrive[0], 1)] = (depart[0], 0)
        elif len(arrive) == len(depart) == 2:
            mid = len(net.edges) + len(mid_ids)
            mid_ids.append(mid)
            gadgets.append(
                (ROLE_SINK, [slot(e) for e in arrive] + [((mid, 1), (Fraction(1), Fraction(0)))])
            )
            gadgets.append(
                (ROLE_SOURCE, [slot(e) for e in depart] + [((mid, 0), (Fraction(-1), Fraction(0)))])
            )
        else:
            # three ends meet at a sink or a source, on either side or both
            if arrive:
                gadgets.append((ROLE_SINK, [slot(e) for e in arrive]))
            if depart:
                gadgets.append((ROLE_SOURCE, [slot(e) for e in depart]))

    # stitch the spliced curves into web edges and closed loops
    slot_vertex: dict[tuple[int, int], int] = dict(bnd_attach)
    for gi, (_, slots) in enumerate(gadgets):
        for end, _ in slots:
            slot_vertex[end] = 2 * n + gi
    all_sids = sorted(set(rev) | set(mid_ids))
    consumed = set()
    chains: list[tuple[tuple[int, int], tuple[int, int]]] = []
    for start in sorted(e for e in slot_vertex if e[1] == 0):
        sid = start[0]
        consumed.add(sid)
        while (sid, 1) in joins:
            sid = joins[(sid, 1)][0]
            consumed.add(sid)
        stop = (sid, 1)
        if stop not in slot_vertex:
            raise WebError("a strand end dangles after uncrossing")
        chains.append((start, stop))
    loops = 0
    left = set(all_sids) - consumed
    while left:
        s0 = min(left)
        s = s0
        while True:
            left.discard(s)
            nxt = joins.get((s, 1))
            if nxt is None:
                raise WebError("a strand end dangles after uncrossing")
            s = nxt[0]
            if s == s0:
                break
        loops += 1

    chain_ref: dict[tuple[int, int], tuple[int, int]] = {}
    edges = []
    for ci, (start, stop) in enumerate(chains):
        edges.append((slot_vertex[start], slot_vertex[stop]))
        chain_ref[start] = (ci, 0)
        chain_ref[stop] = (ci, 1)

    roles: list[tuple] = [(ROLE_SRC, i + 1) for i in range(n)]
    roles += [(ROLE_SNK, j + 1) for j in range(n)]
    roles += [(role,) for role, _ in gadgets]
    rot_refs: list[list[tuple[int, int]]] = []
    for b in range(2 * n):
        owner = [end for end, vid in bnd_attach.items() if vid == b]
        if len(owner) != 1:
            raise WebError("marking must touch every entry and exit once")
        rot_refs.append([chain_ref[owner[0]]])
    for _, slots in gadgets:
        rot_refs.append([chain_ref[end] for end in _ccw_slots(slots)])

    pmap = PlanarMap(n, roles, rot_refs, edges, loops=loops)
    pmap.validate()
    return Web.from_map(pmap)


# ---------------------------------------------------------------------------
# Families, markings, immanants


def _families(net: PlanarNetwork, w: Perm, cap: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All families of paths joining entry i to exit w(i), no vertex on
    more than cap of them."""
    pools = [net.paths_between(i, w[i] - 1) for i in range(net.n)]
    for combo in itertools.product(*pools):
        counts = Counter(v for p in combo for v in net.path_vertices(p))
        if max(counts.values()) <= cap:
            yield combo


def covering_families(net: PlanarNetwork) -> Iterator[tuple[Perm, tuple[tuple[int, ...], ...]]]:
    """All families of n paths, one per entry, exits hit once each, no
    vertex on four paths.  Yields (connection, paths)."""
    for w in all_perms(net.n):
        for combo in _families(net, w, 3):
            yield w, combo


def covering_markings(net: PlanarNetwork) -> list[tuple[tuple[int, int], ...]]:
    """Distinct marked subnetworks over all covering families."""
    found = set()
    for _, combo in covering_families(net):
        counts = Counter(eid for p in combo for eid in p)
        found.add(tuple(sorted(counts.items())))
    return sorted(found)


def network_immanants(net: PlanarNetwork) -> dict[Web, Fraction]:
    """Every basis web immanant of the path matrix, computed from the
    network by uncrossing marked subnetworks."""
    totals = {D: Fraction(0) for D in irreducible_webs(net.n)}
    for marks in covering_markings(net):
        sub = MarkedSubnetwork(net, marks)
        combo = reduce_web(uncross(sub))
        w = sub.weight()
        for D, c in combo.terms():
            if D not in totals:
                raise WebError("reduction left the basis catalogue")
            totals[D] += eval_q1(c) * w
    return totals


def corollary_check(net: PlanarNetwork) -> dict:
    """Immanants computed on the network against immanants of the
    path matrix, one row per basis web."""
    X = path_matrix(net)
    vals = network_immanants(net)
    rows = []
    ok = True
    for D in irreducible_webs(net.n):
        a = vals[D]
        b = evaluate_immanant(D, X)
        rows.append(
            {
                "web": list(D.code),
                "from_network": str(a),
                "from_matrix": str(b),
                "match": a == b,
            }
        )
        ok = ok and a == b
    return {"n": net.n, "passed": ok, "immanants": rows}


# ---------------------------------------------------------------------------
# Builders


def identity_network(n: int, weights: Optional[Sequence] = None) -> PlanarNetwork:
    """n disjoint horizontal strands; the path matrix is diagonal."""
    ws = [Fraction(1)] * n if weights is None else [_frac(w) for w in weights]
    if len(ws) != n:
        raise WebError(f"expected {n} weights")
    vertices = []
    edges = []
    for i in range(n):
        y = n - i
        vertices.append((f"s{i + 1}", 0, y))
        vertices.append((f"t{i + 1}", 1, y))
        edges.append((f"s{i + 1}", f"t{i + 1}", ws[i]))
    return PlanarNetwork(
        n,
        vertices,
        edges,
        [f"s{i + 1}" for i in range(n)],
        [f"t{i + 1}" for i in range(n)],
    )


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


def _rnd_weight(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 4), rng.randint(1, 3))


def random_planar_network(n: int, rng: random.Random, steps: int = 4) -> PlanarNetwork:
    """Layered random network on n wires.  Each step advances every
    wire one column and may add one feature between neighbours: a
    slanted edge, a merge/split pair with a shared middle run, or (on
    three wires) a three-way junction.  Weights are positive, so the
    path matrix is totally nonnegative."""
    if steps < 1:
        raise WebError("need at least one step")
    ys = [Fraction(n - i) for i in range(n)]
    vertices = [(f"c0.{i}", Fraction(0), ys[i]) for i in range(n)]
    heads = [f"c0.{i}" for i in range(n)]
    edges: list[tuple] = []
    for t in range(1, steps + 1):
        x = Fraction(t)
        kinds = ["plain", "plain"]
        if n >= 2:
            kinds += ["drop", "rise", "funnel2"]
        if n >= 3:
            kinds += ["funnel3", "hub"]
        kind = rng.choice(kinds)
        lo = rng.randrange(n - 1) if n >= 2 else 0
        if kind == "funnel3" or kind == "hub":
            lo = rng.randrange(n - 2)
        col = [f"c{t}.{i}" for i in range(n)]
        newv = [(col[i], x, ys[i]) for i in range(n)]
        if kind in ("plain", "drop", "rise"):
            vertices += newv
            for i in range(n):
                w = _rnd_weight(rng) if rng.random() < 0.5 else Fraction(1)
                edges.append((heads[i], col[i], w))
            if kind == "drop":
                edges.append((heads[lo], col[lo + 1], _rnd_weight(rng)))
            elif kind == "rise":
                edges.append((heads[lo + 1], col[lo], _rnd_weight(rng)))
        elif kind == "funnel2":
            ym = (ys[lo] + ys[lo + 1]) / 2
            m, s = f"m{t}", f"w{t}"
            vertices += newv
            vertices += [(m, x - Fraction(2, 3), ym), (s, x - Fraction(1, 3), ym)]
            edges.append((heads[lo], m, _rnd_weight(rng)))
            edges.append((heads[lo + 1], m, _rnd_weight(rng)))
            edges.append((m, s, _rnd_weight(rng)))
            edges.append((s, col[lo], Fraction(1)))
            edges.append((s, col[lo + 1], Fraction(1)))
            for i in range(n):
                if i not in (lo, lo + 1):
                    edges.append((heads[i], col[i], Fraction(1)))
        elif kind == "funnel3":
            m, s = f"m{t}", f"w{t}"
            vertices += newv
            vertices += [
                (m, x - Fraction(2, 3), ys[lo + 1]),
                (s, x - Fraction(1, 3), ys[lo + 1]),
            ]
            for i in (lo, lo + 1, lo + 2):
                edges.append((heads[i], m, _rnd_weight(rng)))
            edges.append((m, s, _rnd_weight(rng)))
            for i in (lo, lo + 1, lo + 2):
                edges.append((s, col[i], Fraction(1)))
            for i in range(n):
                if i not in (lo, lo + 1, lo + 2):
                    edges.append((heads[i], col[i], Fraction(1)))
        else:  # hub
            h = f"h{t}"
            vertices += newv
            vertices.append((h, x - Fraction(1, 2), ys[lo + 1]))
            for i in (lo, lo + 1, lo + 2):
                edges.append((heads[i], h, _rnd_weight(rng)))
                edges.append((h, col[i], Fraction(1)))
            for i in range(n):
                if i not in (lo, lo + 1, lo + 2):
                    edges.append((heads[i], col[i], Fraction(1)))
        heads = col
    sources = [f"c0.{i}" for i in range(n)]
    return PlanarNetwork(n, vertices, edges, sources, heads)


def random_tnn_matrix(n: int, seed: int) -> ExactMatrix:
    """Path matrix of a random positive planar network; all minors of
    the result are nonnegative."""
    rng = random.Random(seed)
    net = random_planar_network(n, rng, steps=rng.randint(2, 4))
    return path_matrix(net)
