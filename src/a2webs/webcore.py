"""Web storage: slice drawings, combinatorial maps, and canonical codes.

A web on n strands is a planar graph drawn in a horizontal band with n
univalent source vertices on the left boundary, n univalent sink
vertices on the right, and trivalent internal vertices, every edge
oriented so that each vertex is all-in (a sink) or all-out (a source).

Three representations cooperate:

- SliceDiagram: a concrete drawing, one tile per vertical slice.  Webs
  are multiplied by concatenating drawings.
- PlanarMap: the embedding-free rotation system (darts, twins, cyclic
  orders) plus a count of closed loops.  The algebra lives here.  The
  rotations are the whole map: a web is bipartite, so a dart's parity
  (tail or head) gives each vertex's role, and edge ends are where
  each edge's two darts sit.
- canonical code: an integer tuple identifying a PlanarMap up to
  boundary-preserving isomorphism.  Webs hash and compare by code.

Closed loops carry no chirality or nesting data: every quantity the
package computes is invariant under both, so a bare count suffices.
The module holds no arithmetic: combinations of webs are spider's.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .exactmath import quoted

RIGHT = "R"
LEFT = "L"

# tile -> (wires consumed, wires produced)
TILE_ARITY = {"merge": (2, 1), "split": (1, 2), "cup": (0, 2), "cap": (2, 0)}

# (tile, internal vertex is a sink) -> the direction flags of its legs
VERTEX_DIRS = {
    ("merge", True): (RIGHT, RIGHT, LEFT),
    ("merge", False): (LEFT, LEFT, RIGHT),
    ("split", True): (RIGHT, LEFT, LEFT),
    ("split", False): (LEFT, RIGHT, RIGHT),
}


class WebError(ValueError):
    """Structurally invalid web data."""


NO_DRAWING = "map admits no slice drawing with the prescribed boundary"


def int_entries(xs: Iterable) -> tuple[int, ...]:
    """xs as a tuple of ints, each read through operator.index: an entry
    that is no integer, a float or a string among them, raises one
    WebError that quotes it."""
    out = []
    for x in xs:
        try:
            out.append(operator.index(x))
        except TypeError:
            raise WebError(f"not an integer: {quoted(x)}") from None
    return tuple(out)


# ---------------------------------------------------------------------------
# Slice diagrams


@dataclass(frozen=True)
class Column:
    """One tile at wire position pos (1-based, counted from the top).

    dirs holds the direction flags of the tile's legs: merge
    (left-top, left-bottom, right), split (left, right-top,
    right-bottom), cup and cap (top, bottom).  A flag is "R" when the
    edge's source-to-sink orientation runs with the x-axis on that leg.
    """

    pos: int
    tile: str
    dirs: tuple[str, ...]

    def __post_init__(self):
        if self.tile not in TILE_ARITY:
            raise WebError(f"unknown tile {self.tile!r}")
        if type(self.dirs) is not tuple:
            raise WebError(f"dirs {self.dirs!r} for {self.tile} must be a tuple")
        want = sum(TILE_ARITY[self.tile])
        if len(self.dirs) != want or any(d not in (RIGHT, LEFT) for d in self.dirs):
            raise WebError(f"bad dirs {self.dirs!r} for {self.tile}")
        if self.pos < 1:
            raise WebError(f"position {self.pos} out of range")


@dataclass(frozen=True)
class SliceDiagram:
    n: int
    columns: tuple[Column, ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise WebError(f"strand count must be positive, got {self.n}")


def identity_web(n: int) -> SliceDiagram:
    """n parallel strands, no internal vertices."""
    return SliceDiagram(n)


def generator_web(n: int, i: int) -> SliceDiagram:
    """Two-vertex web on strands i, i+1: the strands run into an internal
    sink, and a mirrored internal source feeds strands i, i+1 on the
    right; one leftward middle edge runs from the source to the sink."""
    if not 1 <= i <= n - 1:
        raise WebError(f"generator position {quoted(i)} out of range for n={n}")
    return SliceDiagram(
        n,
        (
            Column(i, "merge", (RIGHT, RIGHT, LEFT)),
            Column(i, "split", (LEFT, RIGHT, RIGHT)),
        ),
    )


def concatenate(a: SliceDiagram, b: SliceDiagram) -> SliceDiagram:
    if a.n != b.n:
        raise WebError(f"strand counts differ: {a.n} vs {b.n}")
    return SliceDiagram(a.n, a.columns + b.columns)


# ---------------------------------------------------------------------------
# Planar maps


class PlanarMap:
    """Rotation system of a web.

    Vertices are 0..2n-1 for the boundary (sources then sinks, by
    position) followed by internal vertices.  Edge k owns darts 2k (at
    its tail, the source side) and 2k+1 (at its head); twin(d) = d^1.
    rot[v] lists v's darts in counterclockwise order (x right, y up).
    The rest is read off rot: dart_vertex, edges as (tail, head) pairs,
    and each vertex's role.  A boundary vertex's role is its index; an
    internal vertex is a sink exactly when its darts are heads.
    component_walks(m) keeps each component's root dart and edge order
    on the map, for the readers that need no block.
    """

    __slots__ = ("n", "rot", "edges", "loops", "dart_vertex", "_faces", "_walks", "_turns")

    def __init__(self, n: int, rot: Sequence[Sequence[int]], loops: int = 0):
        self.n = n
        self.rot = rot = tuple(map(tuple, rot))
        self.loops = loops
        self._faces = None
        self._walks: Optional[tuple[tuple[int, ...], ...]] = None
        self._turns: Optional[tuple[int, ...]] = None
        if loops < 0:
            raise WebError("negative loop count")
        if len(rot) < 2 * n:
            raise WebError("boundary vertices missing")
        nd = sum(map(len, rot))
        dv = [-1] * (nd + nd % 2)
        top = len(dv)
        try:
            for v, darts in enumerate(rot):
                for d in darts:
                    # a dart out of range leaves one in range missing
                    if 0 <= d < top:
                        if dv[d] >= 0:
                            raise WebError(f"dart {d} listed twice")
                        dv[d] = v
        except TypeError:
            dv = None  # only a dart that is no int fails to compare or to index
        if dv is None or -1 in dv:
            bad = [d for darts in rot for d in darts if not isinstance(d, int)]
            if bad:
                raise WebError(f"dart {bad[0]!r} is not an int")
            raise WebError(f"dart {dv.index(-1)} missing from rotations")
        self.dart_vertex = tuple(dv)
        self.edges = edges = tuple(zip(dv[::2], dv[1::2]))
        for t, h in edges:
            if t == h:
                raise WebError(f"edge with both ends at vertex {t}")
        # vertex by vertex, boundary first: its degree, then its parity
        for v in range(2 * n):
            darts = rot[v]
            if len(darts) != 1:
                raise WebError(f"vertex {v} has degree {len(darts)}, wants 1")
            if darts[0] & 1 != (v >= n):
                raise WebError(f"boundary source {v} holds an edge head" if v < n
                               else f"boundary sink {v} holds an edge tail")
        for v in range(2 * n, len(rot)):
            darts = rot[v]
            if len(darts) != 3:
                raise WebError(f"vertex {v} has degree {len(darts)}, wants 3")
            a, b, c = darts
            if (a ^ b | a ^ c) & 1:
                raise WebError(f"vertex {v} mixes edge heads and tails")

    # -- basic structure ------------------------------------------------

    def without_loops(self) -> "PlanarMap":
        """The same map, edge ids included, with its loop count at zero."""
        out = PlanarMap(self.n, self.rot, loops=0)
        out._walks = self._walks  # loops take no part in the walks
        return out

    def is_sink(self, v: int) -> bool:
        """Whether v's edges all point into it: its darts are heads."""
        return bool(self.rot[v][0] & 1)

    def internal_vertices(self) -> list[int]:
        return list(range(2 * self.n, len(self.rot)))

    @property
    def internal_vertex_count(self) -> int:
        return len(self.rot) - 2 * self.n

    def face_successors(self) -> list[int]:
        """The face-next permutation as a list: the dart after d round
        its face is the one after d's twin, counterclockwise round the
        twin's vertex."""
        nxt = [0] * len(self.dart_vertex)
        for r in self.rot:
            prev = r[-1]
            for d in r:
                nxt[prev ^ 1] = d
                prev = d
        return nxt

    def faces(self) -> tuple[tuple[int, ...], ...]:
        """All face walks, as dart orbits of the face-next permutation,
        each from its least dart."""
        if self._faces is None:
            self._faces = orbits(self.face_successors())
        return self._faces

    def turns(self) -> tuple[int, ...]:
        """edge_turns(self), solved on the first call and kept, so the
        check of a code and the labeling weight share one solve.  A map
        with no drawing raises edge_turns' WebError on every call."""
        if self._turns is None:
            self._turns = tuple(edge_turns(self))
        return self._turns

    def outer_face_indices(self) -> set[int]:
        """Index (into faces()) of the unbounded face of each component,
        read off its walk (component_walks).

        For a component touching the boundary this is the face through
        its root, its first boundary dart.  A closed component has no
        intrinsic outside; its face through the smallest dart, the tail
        of its least edge, stands in, which is sound for reduction
        because rewriting is confluent on closed webs wherever the
        outside is declared.
        """
        where = {d: fi for fi, orbit in enumerate(self.faces()) for d in orbit}
        return {
            where[root if self.dart_vertex[root] < 2 * self.n else 2 * min(eorder)]
            for root, *eorder in _walk_memo(self)
        }


def orbits(nxt: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The cycles of the permutation nxt of range(len(nxt)), each from
    its least entry, in the order of their least entries."""
    seen = bytearray(len(nxt))
    out = []
    for d in range(len(nxt)):
        orbit = []
        while not seen[d]:
            seen[d] = 1
            orbit.append(d)
            d = nxt[d]
        if orbit:
            out.append(tuple(orbit))
    return tuple(out)


# ---------------------------------------------------------------------------
# Reading a drawing


def to_map(diagram: SliceDiagram) -> PlanarMap:
    """Assemble the rotation system of a drawing.  Cup and cap
    tangencies are erased: an edge is a maximal chain of wire segments.
    """
    n = diagram.n
    # segment s has the ends 2s (left) and 2s + 1 (right); each end is
    # held by a vertex or joined to another end by a cup or a cap
    seg_dir = [RIGHT] * n
    wires = list(range(n))
    join: dict[int, int] = {}  # end -> the end its cup or cap joins it to
    # slot 3v + k holds the end at leg k of vertex v: sources, then
    # sinks (slot 3v only), then internal vertices in column order, each
    # holding its left legs, then its right legs, top to bottom
    slot_end = [-1] * (6 * n)
    slot_end[0 : 3 * n : 3] = range(0, 2 * n, 2)
    sinks = [False] * n + [True] * n  # per vertex: do its edges point in?
    lefts: list[int] = []  # per internal vertex, its number of left legs

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
            join[ends[0]], join[ends[1]] = ends[1], ends[0]
        else:
            sink = dirs[0] == RIGHT  # its first leg runs into it
            if dirs != VERTEX_DIRS[(tile, sink)]:
                raise WebError(f"column {ci}: vertex is neither all-in nor all-out")
            lefts.append(used)
            sinks.append(sink)
            slot_end += ends
        wires[p - 1 : p - 1 + used] = made

    if len(wires) != n:
        raise WebError(f"diagram ends with {len(wires)} wires, expected {n}")
    for j, s in enumerate(wires):
        if seg_dir[s] != RIGHT:
            raise WebError(f"sink strand {j + 1} arrives oriented leftward")
        slot_end[3 * (n + j)] = 2 * s + 1

    slot_of = [-1] * (2 * len(seg_dir))  # end -> the slot holding it
    for slot, end in enumerate(slot_end):
        if end >= 0:
            slot_of[end] = slot

    # walk each edge once, from its first slot, across its segments
    # through cups and caps to the end held at its other slot; its head
    # is the end at a sink
    walked = bytearray(len(seg_dir))
    dart = [-1] * len(slot_end)
    edges = 0
    for slot, end in enumerate(slot_end):
        if end < 0 or dart[slot] >= 0:
            continue
        walked[end >> 1] = 1
        cur = end ^ 1
        while cur in join:
            cur = join[cur]
            walked[cur >> 1] = 1
            cur ^= 1
        dart[slot] = 2 * edges + sinks[slot // 3]
        dart[slot_of[cur]] = dart[slot] ^ 1
        edges += 1

    # a segment no edge crossed lies on a closed loop: walk it round
    loops = 0
    for s, done in enumerate(walked):
        if not done:
            loops += 1
            cur = 2 * s
            while not walked[cur >> 1]:
                walked[cur >> 1] = 1
                cur = join[cur ^ 1]

    # CCW from the top right leg: it, the left legs top to bottom, then
    # the other right leg; a merge reads right, left-top, left-bottom and
    # a split right-top, left, right-bottom
    rot = [(d,) for d in dart[0 : 6 * n : 3]]
    for v, nl in enumerate(lefts, 2 * n):
        a, b, c = dart[3 * v : 3 * v + 3]
        rot.append((c, a, b) if nl == 2 else (b, a, c))
    return PlanarMap(n, rot, loops=loops)


# ---------------------------------------------------------------------------
# Canonical codes

def _encode_from(m: PlanarMap, root_dart: int) -> tuple[list[int], list[int], list[int]]:
    """The block of root_dart's component, walked breadth first from
    it, with its edges and vertices in the order the walk meets them."""
    rot, dv, n = m.rot, m.dart_vertex, m.n
    vnum = {dv[root_dart]: 0}
    enum: dict[int, int] = {}
    eorder: list[int] = []
    out: list[int] = []
    queue = [root_dart]  # each vertex's entry dart, in the order met
    for entry in queue:
        v = dv[entry]
        r = rot[v]
        # a vertex record opens with its kind and index: source i is
        # (1, i), sink j is (2, j), then (3, 0) or (4, 0) for an internal
        # sink or source
        if v < n:
            out += (1, v + 1)
        elif v < 2 * n:
            out += (2, v - n + 1)
        else:
            out += (4 - (r[0] & 1), 0)
        i = r.index(entry)
        for d in r[i:] + r[:i]:
            e = d >> 1
            k = enum.get(e)
            if k is None:
                k = enum[e] = len(eorder)
                eorder.append(e)
                w = dv[d ^ 1]
                if w not in vnum:
                    vnum[w] = len(vnum)
                    queue.append(d ^ 1)
            out.append(k)
    return out, eorder, list(vnum)


def component_walks(m: PlanarMap) -> list[tuple[list[int], list[int], int, list[int]]]:
    """One walk per component of m (loops aside), in code order: its
    block, edge order, root dart and vertices.  Each component's root
    dart and edge order are kept on m (see _walk_memo).

    The boundary cycle src1..srcn, snkn..snk1 is read in order, and
    each boundary vertex not yet met roots its component at its dart.
    Each internal vertex not yet met then starts a closed component,
    rooted at the dart that minimizes its block; closed components
    follow in order of block.  A block opens with its root's record,
    (3, 0) at an internal sink and (4, 0) at a source, so only a sink's
    darts are tried, the first walk's among them.
    """
    n = m.n
    seen: set[int] = set()
    walks, closed = [], []
    for v in (*range(n), *range(2 * n - 1, n - 1, -1), *range(2 * n, len(m.rot))):
        if v in seen:
            continue
        # a closed component's first walk starts at a sink: v, or the
        # far end of v's first edge
        root = m.rot[v][0] if v < 2 * n or m.is_sink(v) else m.rot[v][0] ^ 1
        first = _encode_from(m, root)
        block, eorder, verts = first
        seen.update(verts)
        if v < 2 * n:
            walks.append((block, eorder, root, verts))
        else:
            # equal blocks come from a symmetry; the tie goes to the first
            # dart in vertex order
            closed.append(min(
                (
                    (*(first if d == root else _encode_from(m, d))[:2], d, verts)
                    for u in sorted(verts) if m.is_sink(u)
                    for d in m.rot[u]
                ),
                key=lambda walk: walk[0],
            ))
    closed.sort(key=lambda walk: walk[0])
    walks += closed
    m._walks = tuple((root, *eorder) for _, eorder, root, _ in walks)
    return walks


def _walk_memo(m: PlanarMap) -> tuple[tuple[int, ...], ...]:
    """Per component of m, in code order, its root dart followed by its
    edge order: kept by component_walks(m), which is made here if need
    be.  One flat tuple per component keeps the memo small."""
    if m._walks is None:
        component_walks(m)
    return m._walks


def canonical_form(m: PlanarMap) -> tuple[int, ...]:
    """Deterministic, isomorphism-complete code of a map: the header
    (n, loops, number of components), then each component's block in
    the order of component_walks.  Loop components contribute only
    their count.
    """
    walks = component_walks(m)
    code = [m.n, m.loops, len(walks)]
    for block, _, _, _ in walks:
        code.append(len(block))
        code.extend(block)
    return tuple(code)


def canonical_edge_order(m: PlanarMap) -> tuple[int, ...]:
    """Edge ids of m listed in the order canonical encoding meets them.
    Two maps with equal codes are matched edge-for-edge by zipping
    their orders."""
    return tuple(e for walk in _walk_memo(m) for e in walk[1:])


def decode_code(code: Sequence[int]) -> PlanarMap:
    """Rebuild a PlanarMap from a canonical code; rejects junk input by
    re-encoding and comparing; an entry that is no int is refused."""
    code = int_entries(code)
    # the header, then a record of at least 3 ints per boundary vertex
    if len(code) < 3 or len(code) < 3 + 6 * code[0]:
        raise WebError("code too short")
    n, loops, ncomp = code[0], code[1], code[2]
    if n < 1 or loops < 0 or ncomp < 0:
        raise WebError("bad code header")
    pos = 3
    rot: list[Optional[list[int]]] = [None] * (2 * n)
    base = 0  # edges numbered by earlier blocks
    for _ in range(ncomp):
        if pos >= len(code):
            raise WebError("truncated code")
        blen = code[pos]
        pos += 1
        block = code[pos : pos + blen]
        if len(block) != blen:
            raise WebError("truncated code")
        pos += blen
        # parse vertex records: kind, index, then 1 or 3 edge numbers; a
        # sink's darts are edge heads
        i = 0
        top = -1
        while i < len(block):
            if i + 2 > len(block):
                raise WebError("truncated vertex record")
            kind, param = block[i], block[i + 1]
            if kind not in (1, 2, 3, 4):
                raise WebError(f"unknown vertex kind {quoted(kind)}")
            deg = 1 if kind in (1, 2) else 3
            if i + 2 + deg > len(block):
                raise WebError("truncated vertex record")
            elist = block[i + 2 : i + 2 + deg]
            if min(elist) < 0:
                raise WebError(f"negative edge number {quoted(min(elist))}")
            if max(elist) >= blen:
                # a block numbers its edges below its own length
                raise WebError(f"edge number {quoted(max(elist))} out of range")
            i += 2 + deg
            if kind > 2:
                v = len(rot)
                rot.append(None)
            elif not 1 <= param <= n:
                raise WebError(f"{'source' if kind == 1 else 'sink'} index out of range")
            else:
                v = param - 1 + n * (kind - 1)
            if rot[v] is not None:
                raise WebError("vertex appears in two components")
            sink = kind in (2, 3)
            rot[v] = [2 * (base + e) + sink for e in elist]
            top = max(top, *elist)
        base += top + 1
    if pos != len(code):
        raise WebError("trailing data in code")
    for v in range(2 * n):
        if rot[v] is None:
            raise WebError(f"boundary vertex {v} missing from code")
    m = PlanarMap(n, rot, loops=loops)
    if canonical_form(m) != code:
        raise WebError("code is not in canonical form")
    return m


# ---------------------------------------------------------------------------
# Checking that a map is a web


def edge_turns(m: PlanarMap) -> list[int]:
    """Per dart, the turn of its edge walked along it, in thirds of a
    half turn, in a drawing with 120-degree internal corners, sources
    top to bottom on the left and sinks on the right.  Each face is
    walked with the face on its right; at the boundary the walk goes on
    clockwise along the disk's frame to the next boundary vertex,
    turning -1 between neighbouring sources or sinks and -2 across the
    top or the bottom.  Every internal corner turns -1/3, and a face -2
    in all, but a closed component's outside +2: its face through its
    least edge's tail dart, as PlanarMap.outer_face_indices declares it.
    The turns are solved on a spanning tree of the faces peeled from its
    leaves, 0 off the tree.  The root faces are the check of a web: they
    close up exactly on the maps render draws, else WebError."""
    n, rot, dv = m.n, m.rot, m.dart_vertex
    nxt = m.face_successors()
    bend = [-1] * len(nxt)  # per dart, the turn where its walk goes on
    ring = [0, *range(n, 2 * n), *range(n - 1, 0, -1)]  # the frame, clockwise from source 1
    for u, v in zip(ring, ring[1:] + ring[:1]):
        d = rot[u][0] ^ 1  # the dart that reaches u
        nxt[d], bend[d] = rot[v][0], -6 if u in (0, 2 * n - 1) else -3
    faces = orbits(nxt)
    face = {d: k for k, orbit in enumerate(faces) for d in orbit}
    outside = {face[2 * min(eorder)] for root, *eorder in _walk_memo(m) if dv[root] >= 2 * n}
    turn = [0] * len(nxt)
    up: dict[int, int] = {}  # per face, its dart on the edge to its parent; -1 at a root
    for root in (k for k in range(len(faces)) if k not in up):  # a face of each component
        up[root], tree = -1, [root]
        for k in tree:
            for d in faces[k]:
                if face[d ^ 1] not in up:
                    up[face[d ^ 1]] = d ^ 1
                    tree.append(face[d ^ 1])
        for k in reversed(tree):
            rest = (6 if k in outside else -6) - sum(bend[d] + turn[d] for d in faces[k])
            d = up[k]
            if d >= 0:
                turn[d], turn[d ^ 1] = rest, -rest
            elif rest:
                raise WebError(NO_DRAWING)
    return turn


# ---------------------------------------------------------------------------
# Rendering a map back to a slice diagram


def render(m: PlanarMap) -> SliceDiagram:
    """Produce some drawing of m.  Any embedding serves: a drawing is
    read back only as a map (to_map), and the labeling weight reads the
    map.  Loop components must be removed first.  A map with no
    drawing, both boundary sides in order, is refused, as edge_turns
    refuses it.

    One left-to-right sweep that never backtracks: each step places the
    first placeable vertex, and only when none is placeable does the
    next component without a source start, from one cup."""
    if m.loops:
        raise WebError("cannot draw a map with abstract loop components")
    n = m.n
    # each component as its least vertex and its edges; those without a
    # source start from a cup, least vertex first
    comps = sorted((min(v for e in eorder for v in m.edges[e]), eorder) for _, *eorder in _walk_memo(m))
    seeds = [c for c in comps if c[0] >= n][::-1]
    # initial frontier: the far ends of all source edges, top to bottom
    F = tuple(m.rot[i][0] ^ 1 for i in range(n))
    target = tuple(m.rot[n + j][0] for j in range(n))

    # A move replaces the k frontier darts at position p by new ones and
    # adds tiles at p: (p, k, new darts, (tile, dirs) pairs).

    def vertex_moves():
        """Place a vertex whose k frontier darts sit one after another in
        its rotation: k = 1 splits, 2 merges, 3 merges and caps.  Its
        other darts, taken on in rotation order, become the frontier
        from the bottom up.  Placing a vertex takes all its frontier
        darts, so no frontier dart is at a placed vertex."""
        pos_of: dict[int, list[int]] = {}
        for p, d in enumerate(F):
            v = m.dart_vertex[d]
            if v >= 2 * n:
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
            moves.append((p, k, tuple(d ^ 1 for d in reversed(darts[k:])), tiles))
        return moves  # in position order: pos_of meets each vertex at its first dart

    def seed_move(low: int, eorder: list[int]):
        """A cup on dart d's edge, d on top, that starts the component
        with least vertex low.  Codes record no nesting, so a closed
        component sits at the top, on the head of its least edge, where
        it parts no wires.  A component with sinks starts just below the
        wires of the sinks above its top sink, on the dart of least edge
        on its face from that sink's dart to the first dart that reaches
        the boundary."""
        if low >= 2 * n:
            p, d = 0, 2 * min(eorder) + 1
        else:
            nxt = m.face_successors()
            walked = [m.rot[low][0]]
            while m.dart_vertex[walked[-1] ^ 1] >= 2 * n:
                walked.append(nxt[walked[-1]])
            d = min(walked, key=lambda d: d >> 1)
            p = max((p + 1 for p, x in enumerate(F) if n <= m.dart_vertex[x] < low), default=0)
        # a wire runs rightward when its pending end is the edge's head
        return p, 0, (d, d ^ 1), [("cup", (RIGHT, LEFT) if d & 1 else (LEFT, RIGHT))]

    cols: list[Column] = []
    while True:
        moves = vertex_moves()
        if not moves and seeds:
            moves = [seed_move(*seeds.pop())]
        if not moves:
            break
        p, k, new, tiles = moves[0]
        cols += [Column(p + 1, tile, dirs) for tile, dirs in tiles]
        F = F[:p] + new + F[p + k :]
    # every component has started, so an unplaced vertex leaves a dart
    # on the frontier
    if F != target:
        raise WebError(NO_DRAWING)
    return SliceDiagram(n, tuple(cols))


# ---------------------------------------------------------------------------
# The bundled web object


class Web:
    """A web as (map, code); identity is the code.  Only products read a
    drawing (spider.web_product, except those its fork rule reads off
    the map), made on the first read of diagram."""

    __slots__ = ("pmap", "code", "_hash", "_drawing")

    def __init__(self, pmap: PlanarMap, code: tuple[int, ...], drawing: Optional[SliceDiagram] = None):
        self.pmap = pmap
        self.code = code
        self._hash = hash(code)  # webs key every cache: hash the code once
        self._drawing = drawing

    @classmethod
    def from_slice(cls, diagram: SliceDiagram) -> "Web":
        pmap = to_map(diagram)
        return cls(pmap, canonical_form(pmap), diagram)

    @classmethod
    def from_map(cls, pmap: PlanarMap) -> "Web":
        """Keep pmap as the web's map; nothing is drawn."""
        return cls(pmap, canonical_form(pmap))

    @classmethod
    def from_code(cls, code: Sequence[int]) -> "Web":
        """The web of a code read from input, checked on its map, with no
        drawing, by decode_code and the map's turns (kept on the map for
        the labeling weight); decode_code's check that the map encodes
        back to the code stands for from_map's encoding.  Loops are
        refused: each one triples the labelings a short code asks for."""
        code = int_entries(code)
        m = decode_code(code)
        if m.loops:
            raise WebError("codes with loop components have no canonical drawing")
        m.turns()
        return cls(m, code)

    @property
    def diagram(self) -> SliceDiagram:
        """render's drawing of the map without its loops, plus a cup/cap
        pair below the strands per loop, checked to read back as the web."""
        if self._drawing is None:
            m = self.pmap
            drawing = render(m.without_loops() if m.loops else m)
            loop = (Column(m.n + 1, "cup", (RIGHT, LEFT)), Column(m.n + 1, "cap", (RIGHT, LEFT)))
            diagram = SliceDiagram(m.n, drawing.columns + loop * m.loops)
            if canonical_form(to_map(diagram)) != self.code:
                raise RuntimeError("drawing round-trip produced a different map")
            self._drawing = diagram
        return self._drawing

    @property
    def n(self) -> int:
        return self.pmap.n

    def __eq__(self, other) -> bool:
        return isinstance(other, Web) and self.code == other.code

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"<Web n={self.n} v={self.pmap.internal_vertex_count} e={len(self.pmap.edges)}>"
