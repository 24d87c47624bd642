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

Uncrossing reads the network's own drawing.  One sweep in x order
(`PlanarNetwork.order`, with out-edges in slope order) keeps the marked
edges crossing the sweep line, top to bottom, and writes the slice
diagram of their curves, one vertex rule at a time; `webcore.to_map`
then builds the web's map.  Entries start as placeholder wires from
the left and exits run on to the right, so the drawing must leave them
room: an entry must lie between the nearest marked edges above and
below its placeholder, the marked edges into a vertex must be adjacent
on the sweep line, and the exits must be reached in order.  A marking
that breaks this contract is refused.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .exactmath import eval_q1, parse_rational, quoted
from .immanants import ExactMatrix, evaluate_immanant, irreducible_webs
from .perms import Perm, all_perms, identity_perm
from .spider import reduce_web
from .webcore import LEFT, RIGHT, Column, SliceDiagram, Web, WebError, to_map

Point = tuple[Fraction, Fraction]

# The most entry-to-exit paths, and the most candidate path families
# (one path from each entry, the exits in any order), of a network whose
# paths are listed; the networks of perfbench/networks.jsonl have at
# most 159 paths and 19,440 candidate families.
MAX_PATH_FAMILIES = 1_000_000

# The most decimal digits of the lcm of the x (or the y) denominators,
# ten times the 1,000 characters one coordinate may have.  `_grid`
# scales every coordinate by that lcm, so the bound is checked before
# any coordinate is scaled.  The benchmark networks' denominators are
# 1, 2 and 3.
MAX_GRID_DIGITS = 10_000
_GRID_BOUND = 10 ** MAX_GRID_DIGITS


def _frac(x) -> Fraction:
    try:
        return parse_rational(x)
    except ValueError as exc:
        raise WebError(str(exc)) from exc


# ---------------------------------------------------------------------------
# The drawing check


def _common_denominator(axis: str, dens: Iterable[int]) -> int:
    """The lcm of dens, refused once it has more than MAX_GRID_DIGITS
    digits."""
    d = 1
    for den in dens:
        d = math.lcm(d, den)
        if d >= _GRID_BOUND:
            raise WebError(f"the {axis} coordinates' common denominator has more than "
                           f"{MAX_GRID_DIGITS:,} digits")
    return d


def _grid(pos: Mapping[str, Point]) -> dict[str, tuple[int, int]]:
    """pos scaled to integers: each x times the lcm of the x
    denominators, each y times the lcm of the y denominators.  Both
    factors are positive, so the scaled drawing keeps every order,
    slope order and coincidence of the original."""
    dx = _common_denominator("x", {x.denominator for x, _ in pos.values()})
    dy = _common_denominator("y", {y.denominator for _, y in pos.values()})
    return {v: (x.numerator * (dx // x.denominator), y.numerator * (dy // y.denominator))
            for v, (x, y) in pos.items()}


def _check_drawing(grid: Mapping[str, tuple[int, int]], edges: Sequence[NetEdge]) -> None:
    """Refuse a drawing in which two edges cross or overlap, or a vertex
    sits on an edge it does not end; grid holds the integer coordinates
    of `_grid`.  Every edge advances strictly in x, so one sweep over
    the vertex abscissae sees every meeting: at an abscissa as two equal
    heights, inside the strip up to the next one as two edges whose
    height order inverts or that coincide.  An edge is live from its
    tail's abscissa to its head's, and only the live edges are visited.
    At each abscissa their heights are integers over the lcm of their
    x-spans, so heights at one abscissa compare exactly."""
    at: dict[int, dict[int, str]] = {}
    for vid, (x, y) in grid.items():
        at.setdefault(x, {})[y] = vid
    xs = sorted(at)
    rank = {x: k for k, x in enumerate(xs)}
    joins: list[list[int]] = [[] for _ in xs]
    leaves: list[list[int]] = [[] for _ in xs]
    lines = []  # per edge: height * run at abscissa 0, rise, run
    for i, e in enumerate(edges):
        (tx, ty), (hx, hy) = grid[e.tail], grid[e.head]
        joins[rank[tx]].append(i)
        leaves[rank[hx]].append(i)
        lines.append((ty * (hx - tx) - (hy - ty) * tx, hy - ty, hx - tx))

    def clash(i: int, j: int) -> WebError:
        a, b = edges[min(i, j)], edges[max(i, j)]
        return WebError(f"edges {quoted(a.tail)}->{quoted(a.head)} and {quoted(b.tail)}->{quoted(b.head)} "
                        "cross or overlap in the drawing")

    live: set[int] = set()
    prev: dict[int, int] = {}
    for k, x in enumerate(xs):
        live.update(joins[k])
        ids = sorted(live)
        den = math.lcm(*{lines[i][2] for i in ids})
        cur = {}
        for i in ids:
            base, rise, run = lines[i]
            cur[i] = (base + rise * x) * (den // run)
        strip = sorted((prev[i], y, i) for i, y in cur.items() if i in prev)
        for (l1, r1, i), (l2, r2, j) in zip(strip, strip[1:]):
            if r1 > r2 or (l1, r1) == (l2, r2):
                raise clash(i, j)
        column, met = at[x], {}
        for i, y in cur.items():
            e = edges[i]
            q, r = divmod(y, den)
            vid = None if r else column.get(q)
            if vid is not None and vid not in (e.tail, e.head):
                raise WebError(f"vertex {quoted(vid)} lies on edge {quoted(e.tail)}->{quoted(e.head)}")
            if vid is None and y in met:
                raise clash(met[y], i)
            met[y] = i
        prev = cur
        live.difference_update(leaves[k])


def _by_slope(grid: Mapping[str, tuple[int, int]], edges: Sequence[NetEdge],
              eids: Sequence[int]) -> tuple[int, ...]:
    """Out-edges of one vertex top to bottom as they leave it: by slope,
    steepest rise first, each slope an integer over the lcm of their
    x-spans."""
    runs = [grid[edges[e].head][0] - grid[edges[e].tail][0] for e in eids]
    den = math.lcm(*runs)
    rises = [grid[edges[e].head][1] - grid[edges[e].tail][1] for e in eids]
    key = {e: -rise * (den // run) for e, rise, run in zip(eids, rises, runs)}
    return tuple(sorted(eids, key=key.__getitem__))


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
    sit in the interior of an edge.  `order` lists the vertices in
    sweep order, by x and top to bottom within a column; `out_edges`
    lists each vertex's out-edges top to bottom as they leave it, by
    slope.  Both orders, the drawing check and uncross's entry-side test
    read the coordinates scaled to integers once (`_grid`); `pos` keeps
    the exact rationals.  The path table, the sweep table and the path
    matrix are built on first use and kept on the network.
    """

    __slots__ = ("n", "ids", "pos", "edges", "sources", "sinks", "order",
                 "out_edges", "in_edges", "_grid", "_paths", "_sweep", "_matrix", "_gaps")

    def __init__(
        self,
        n: int,
        vertices: Sequence[tuple],
        edges: Sequence[tuple],
        sources: Sequence,
        sinks: Sequence,
    ):
        if n < 1:
            raise WebError(f"strand count must be positive, got {quoted(n)}")
        self.n = n
        pos: dict[str, Point] = {}
        ids = []
        for vid, x, y in vertices:
            key = str(vid)
            if key in pos:
                raise WebError(f"vertex id {quoted(key)} repeated")
            pos[key] = (_frac(x), _frac(y))
            ids.append(key)
        self.ids = tuple(ids)
        self.pos = pos
        self._grid = grid = _grid(pos)
        seen: dict[tuple[int, int], str] = {}
        for vid in ids:
            first = seen.setdefault(grid[vid], vid)
            if first != vid:
                raise WebError(f"vertices {quoted(first)} and {quoted(vid)} share a position")
        self.sources = tuple(str(s) for s in sources)
        self.sinks = tuple(str(t) for t in sinks)
        if len(self.sources) != n or len(self.sinks) != n:
            raise WebError(f"expected {quoted(n)} entries and {quoted(n)} exits")
        named = list(self.sources) + list(self.sinks)
        if len(set(named)) != len(named):
            raise WebError("entries and exits must be distinct vertices")
        for vid in named:
            if vid not in pos:
                raise WebError(f"boundary vertex {quoted(vid)} is not in the vertex list")
        for role, vids in (("entries", self.sources), ("exits", self.sinks)):
            ys = [grid[v][1] for v in vids]
            if any(a <= b for a, b in zip(ys, ys[1:])):
                raise WebError(f"{role} must be listed top to bottom")
        es = []
        for t, h, w in edges:
            t, h = str(t), str(h)
            if t not in pos or h not in pos:
                raise WebError(f"edge {quoted(t)}->{quoted(h)} references a missing vertex")
            if grid[t][0] >= grid[h][0]:
                raise WebError(f"edge {quoted(t)}->{quoted(h)} must advance left to right")
            es.append(NetEdge(t, h, _frac(w)))
        self.edges = tuple(es)
        out: dict[str, list[int]] = {v: [] for v in ids}
        inc: dict[str, list[int]] = {v: [] for v in ids}
        for eid, e in enumerate(self.edges):
            out[e.tail].append(eid)
            inc[e.head].append(eid)
        self.order = tuple(sorted(ids, key=lambda v: (grid[v][0], -grid[v][1], v)))
        self.out_edges = {v: _by_slope(grid, self.edges, out[v]) for v in ids}
        self.in_edges = {v: tuple(inc[v]) for v in ids}
        for s in self.sources:
            if self.in_edges[s]:
                raise WebError(f"entry {quoted(s)} has an incoming edge")
        for t in self.sinks:
            if self.out_edges[t]:
                raise WebError(f"exit {quoted(t)} has an outgoing edge")
        _check_drawing(grid, self.edges)
        self._paths = self._sweep = self._matrix = None
        self._gaps: dict[tuple[str, int], int] = {}

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
            raise WebError(f"network 'n' must be an integer, got {quoted(n)}")
        for key in ("vertices", "edges", "sources", "sinks"):
            if type(obj[key]) is not list:
                raise WebError(f"network {key!r} must be a JSON list")
        return cls(n, vertices, edges, sources, sinks)

    # -- paths ------------------------------------------------------------

    def _path_table(self) -> dict[tuple[int, int], tuple[tuple[int, int], ...]]:
        """All directed paths entry i -> exit j, each as its (vertex
        mask, edge mask): one bit per index in `ids` and one per edge
        id.  The paths are counted first, and a network with more than
        MAX_PATH_FAMILIES paths or candidate families is refused before
        any path is listed."""
        if self._paths is None:
            counts = _path_sums(self, [1] * len(self.edges), 1)
            paths = sum(map(sum, counts))
            if paths > MAX_PATH_FAMILIES or _permanent(counts) > MAX_PATH_FAMILIES:
                raise WebError(f"network has more than {MAX_PATH_FAMILIES:,} entry-to-exit paths "
                               "or candidate path families")
            bit = {v: 1 << k for k, v in enumerate(self.ids)}
            # the vertices an exit is reached from: the walk below enters no
            # other, so every prefix it lists is part of a path
            live = set(self.sinks)
            for v in reversed(self.order):
                if any(self.edges[eid].head in live for eid in self.out_edges[v]):
                    live.add(v)
            table: dict[tuple[int, int], list[tuple[int, int]]] = {}
            snk_rank = {t: j for j, t in enumerate(self.sinks)}
            for i, s in enumerate(self.sources):
                stack = [(s, bit[s], 0)]
                while stack:
                    v, vmask, emask = stack.pop()
                    j = snk_rank.get(v)
                    if j is not None:
                        table.setdefault((i, j), []).append((vmask, emask))
                        continue
                    for eid in reversed(self.out_edges[v]):
                        h = self.edges[eid].head
                        if h in live:
                            stack.append((h, vmask | bit[h], emask | 1 << eid))
            self._paths = {k: tuple(v) for k, v in table.items()}
        return self._paths

    # -- the sweep of uncross ---------------------------------------------

    def _sweep_table(self) -> tuple[tuple[tuple[int, int], ...], tuple, tuple[int, ...]]:
        """The positions in `order` of each edge's tail and head; at
        each position its vertex, its role ("entry", "exit" or None) and
        its in- and out-edges; and the positions of the entries and
        exits."""
        if self._sweep is None:
            at = {v: k for k, v in enumerate(self.order)}
            role = dict.fromkeys(self.sources, "entry") | dict.fromkeys(self.sinks, "exit")
            self._sweep = (tuple((at[e.tail], at[e.head]) for e in self.edges),
                           tuple((v, role.get(v), self.in_edges[v], self.out_edges[v]) for v in self.order),
                           tuple(at[v] for v in self.sources + self.sinks))
        return self._sweep

    def _gap(self, entry: str, eid: int) -> int:
        """The sign of edge eid's height above entry, at the entry's
        abscissa: 1 above, 0 level, -1 below."""
        key = (entry, eid)
        side = self._gaps.get(key)
        if side is None:
            e = self.edges[eid]
            (x, y), (tx, ty), (hx, hy) = self._grid[entry], self._grid[e.tail], self._grid[e.head]
            gap = (ty - y) * (hx - tx) + (hy - ty) * (x - tx)
            side = self._gaps[key] = (gap > 0) - (gap < 0)
        return side


def _path_sums(net: PlanarNetwork, weights: Sequence, one) -> list[list]:
    """Row i: for each exit, the summed weight of the paths from entry
    i, a path weighing the product of weights[eid] over its edges.  A
    plain forward sweep in x order; the monotone drawing is what
    guarantees this order is topological."""
    rows = []
    for s in net.sources:
        acc = dict.fromkeys(net.ids, one - one)
        acc[s] = one
        for v in net.order:
            if acc[v]:
                for eid in net.out_edges[v]:
                    acc[net.edges[eid].head] += acc[v] * weights[eid]
        rows.append([acc[t] for t in net.sinks])
    return rows


def _permanent(rows: Sequence[Sequence[int]]) -> int:
    """Sum over permutations w of the products rows[i][w(i)], summed
    row by row over the sets of columns already used."""
    acc = {0: 1}
    for row in rows:
        nxt: dict[int, int] = {}
        for used, v in acc.items():
            for j, c in enumerate(row):
                if c and not used >> j & 1:
                    nxt[used | 1 << j] = nxt.get(used | 1 << j, 0) + v * c
        acc = nxt
    return sum(acc.values())


def path_matrix(net: PlanarNetwork) -> ExactMatrix:
    """Total path weight from each entry to each exit, summed once per
    network: the matrix, and the monomials it caches, are kept on it."""
    if net._matrix is None:
        net._matrix = ExactMatrix.from_rows(_path_sums(net, [e.weight for e in net.edges], Fraction(1)))
    return net._matrix


def lindstrom_check(net: PlanarNetwork) -> dict:
    """Compare det(path matrix) against the weighted count of
    vertex-disjoint families connecting entry i to exit i.  Crossing
    connections cancel in a planar picture, so the two must agree."""
    X = path_matrix(net)
    det = X.det()
    total, count = Fraction(0), 0
    for lo, hi in _families(net, identity_perm(net.n), 1):
        count += 1
        total += marking_weight(net, _marks(lo, hi))
    return {
        "n": net.n,
        "det": str(det),
        "disjoint_families": count,
        "family_sum": str(total),
        "passed": det == total,
    }


# ---------------------------------------------------------------------------
# Markings and their uncrossing


def _known_edge(net: PlanarNetwork, eid: int) -> int:
    """eid, refused with WebError unless the network has that edge."""
    if not 0 <= eid < len(net.edges):
        raise WebError(f"marking names edge {eid}, but the edge ids run 0..{len(net.edges) - 1}")
    return eid


def marking_weight(net: PlanarNetwork, marks: Iterable[tuple[int, int]]) -> Fraction:
    """The product of weight ** multiplicity over the marked edges,
    taken over integer numerators and denominators."""
    num = den = 1
    for eid, m in marks:
        w = net.edges[_known_edge(net, eid)].weight
        num *= w.numerator ** m
        den *= w.denominator ** m
    return Fraction(num, den)


def uncross(net: PlanarNetwork, marks: Iterable[tuple[int, int]]) -> Web:
    """The web of a marking, read off the network's drawing.  A marking
    is the (edge id, multiplicity) pairs that `covering_markings` lists.

    One sweep from left to right turns the drawing into a slice diagram.
    It keeps the marked edges that cross the sweep line, top to bottom.
    A single strand is one curve running with its edge (flag R), a
    doubled run one curve against it (flag L), and a tripled run stays
    in the list as a ghost with no curve.  Each entry starts as a
    placeholder wire from the left, which its strand takes over; each
    exit's strand runs on to the right.  At a vertex the curves of its
    incoming block end and those of its out-edges begin, by one rule:
    on a mixed side a single strand turns back into the doubled run (a
    cap on the left, a cup on the right); two or three curves on the
    left meet in a merge, the third capped onto the merged wire; two or
    three curves on the right leave a split, the first cupped off it;
    one curve on each side passes straight through.  `to_map` then
    builds the web's map, once per distinct diagram (`_sliced_web`).

    The marking is refused with WebError unless it names only edges of
    the network, each entry starts one strand, each exit ends one, each
    other vertex passes as many strands out as in and at most three,
    and the drawing leaves room for the boundary: at each entry the
    nearest marked edges above and below its placeholder must pass
    above and below the entry, the marked edges into a vertex must be
    adjacent on the sweep line, and the exits must be reached in order,
    top to bottom.
    """
    mult = dict(marks)
    # the sweep stops only at the marked edges' ends, the entries and
    # the exits: at any other vertex no strand passes and nothing is
    # checked
    ends, sweep, stops = net._sweep_table()
    at = set(stops)
    for eid in mult:
        at.update(ends[_known_edge(net, eid)])
    # marked edge ids, unreached entries and reached exits, top to bottom
    line: list = list(net.sources)
    cols: list[tuple] = []  # (pos, tile, dirs) of each Column
    for k in sorted(at):
        v, role, into, out = sweep[k]
        ins = [e for e in into if e in mult]
        outs = [e for e in out if e in mult]
        k_in, k_out = sum(map(mult.__getitem__, ins)), sum(map(mult.__getitem__, outs))
        if role == "entry":
            if k_in or k_out != 1:
                raise WebError(f"entry {quoted(v)} must start exactly one strand")
            i = line.index(v)
            above = next((e for e in reversed(line[:i]) if type(e) is int), None)
            below = next((e for e in line[i + 1:] if type(e) is int), None)
            if ((above is not None and net._gap(v, above) <= 0)
                    or (below is not None and net._gap(v, below) >= 0)):
                raise WebError(f"entry {quoted(v)} lies outside the gap its strand enters")
            line[i] = outs[0]
            continue
        if role == "exit":
            if k_out or k_in != 1:
                raise WebError(f"exit {quoted(v)} must end exactly one strand")
            line[line.index(ins[0])] = v
            continue
        if k_in != k_out:
            raise WebError(f"marking is unbalanced at vertex {quoted(v)}")
        if k_in > 3:
            raise WebError(f"four or more strands pass through vertex {quoted(v)}")
        if not ins:
            continue
        if len(ins) == 1 == len(outs):  # one run passes straight through
            line[line.index(ins[0])] = outs[0]
            continue
        idx = sorted(map(line.index, ins))
        i, j = idx[0], idx[-1] + 1
        if j - i != len(idx):
            raise WebError(f"the strands into vertex {quoted(v)} enclose a boundary strand")
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


@functools.cache
def _sliced_web(n: int, cols: tuple[tuple[int, str, tuple[str, ...]], ...]) -> Web:
    """The web of the slice diagram whose columns are the (pos, tile,
    dirs) triples cols.  Many markings of one network sweep into the
    same diagram, so each diagram is mapped and put in canonical form
    once."""
    pmap, _ = to_map(SliceDiagram(n, tuple(Column(*c) for c in cols)))
    return Web.from_map(pmap)


# ---------------------------------------------------------------------------
# Families, markings, immanants


def _families(net: PlanarNetwork, w: Perm, cap: int) -> Iterator[tuple[int, int]]:
    """All families of paths joining entry i to exit w(i), no vertex on
    more than cap of them, in `itertools.product` order over the path
    pools.  A family is its edge planes (lo, hi): bit e of lo and of hi
    are the low and high bits of how many of its paths use edge e.  The
    pools are walked depth first, and each path is added as a two-bit
    count: its edge mask into the edge planes, its vertex mask into two
    vertex planes.  A path that meets a vertex set in both vertex
    planes would carry out of them: that vertex is already on three
    paths, and the branch is pruned.  So no edge count passes 3 either.
    For cap 1 the high vertex plane starts as all ones, so a vertex on
    one path blocks every later one; 1 and 3 are the only caps
    accepted."""
    if cap not in (1, 3):
        raise ValueError(f"vertex cap must be 1 or 3, got {cap}")
    table = net._path_table()
    pools = [table.get((i, w[i] - 1), ()) for i in range(net.n)]
    last = net.n - 1

    def extend(i: int, lo: int, hi: int, elo: int, ehi: int) -> Iterator[tuple[int, int]]:
        full = lo & hi
        for vmask, emask in pools[i]:
            if vmask & full:
                continue
            if i == last:
                yield elo ^ emask, ehi ^ elo & emask
            else:
                yield from extend(i + 1, lo ^ vmask, hi ^ lo & vmask, elo ^ emask, ehi ^ elo & emask)

    return extend(0, 0, 0 if cap == 3 else -1, 0, 0)


def covering_families(net: PlanarNetwork) -> Iterator[tuple[Perm, tuple[int, int]]]:
    """All families of n paths, one per entry, exits hit once each, no
    vertex on four paths.  Yields (connection, edge planes)."""
    for w in all_perms(net.n):
        for planes in _families(net, w, 3):
            yield w, planes


def _marks(lo: int, hi: int) -> tuple[tuple[int, int], ...]:
    """The sorted (eid, multiplicity) pairs of a family's edge planes."""
    out = []
    used = lo | hi
    while used:
        eid = (used & -used).bit_length() - 1
        out.append((eid, (lo >> eid & 1) | (hi >> eid & 1) << 1))
        used &= used - 1
    return tuple(out)


def covering_markings(net: PlanarNetwork) -> list[tuple[tuple[int, int], ...]]:
    """Distinct marked subnetworks over all covering families: the
    distinct edge planes, each decoded once into sorted (eid,
    multiplicity) pairs."""
    return sorted(_marks(lo, hi) for lo, hi in {planes for _, planes in covering_families(net)})


def network_immanants(net: PlanarNetwork) -> dict[Web, Fraction]:
    """Every basis web immanant of the path matrix, computed from the
    network by uncrossing marked subnetworks.  The markings' weights are
    summed per uncrossed web, and each distinct web is reduced once."""
    weights: dict[Web, Fraction] = {}
    for marks in covering_markings(net):
        web = uncross(net, marks)
        weights[web] = weights.get(web, 0) + marking_weight(net, marks)
    totals = {D: Fraction(0) for D in irreducible_webs(net.n)}
    for web, w in weights.items():
        for D, c in reduce_web(web).terms():
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
        rows.append({"web": list(D.code), "from_network": str(a), "from_matrix": str(b), "match": a == b})
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
    return PlanarNetwork(n, vertices, edges, [f"s{i + 1}" for i in range(n)], [f"t{i + 1}" for i in range(n)])


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
        elif kind in ("funnel2", "funnel3"):
            span = range(lo, lo + (2 if kind == "funnel2" else 3))
            ym = (ys[span[0]] + ys[span[-1]]) / 2
            m, s = f"m{t}", f"w{t}"
            vertices += newv
            vertices += [(m, x - Fraction(2, 3), ym), (s, x - Fraction(1, 3), ym)]
            for i in span:
                edges.append((heads[i], m, _rnd_weight(rng)))
            edges.append((m, s, _rnd_weight(rng)))
            for i in span:
                edges.append((s, col[i], Fraction(1)))
            for i in range(n):
                if i not in span:
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
