import hashlib
import itertools
import json
import math
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from a2webs import clear_caches, networks, webcore
from a2webs.immanants import evaluate_immanant, irreducible_webs
from a2webs.labelings import boundary_profile, boundary_restriction, enumerate_labelings
from a2webs.minors import all_triples, decompose_triple, triple_blocks, triple_product
from a2webs.networks import (
    MAX_GRID_DIGITS,
    MAX_PATH_FAMILIES,
    NetEdge,
    PlanarNetwork,
    _check_drawing,
    _common_denominator,
    _families,
    _grid,
    _sliced_web,
    corollary_check,
    covering_markings,
    identity_network,
    lindstrom_check,
    marking_weight,
    network_immanants,
    path_matrix,
    random_planar_network,
    random_tnn_matrix,
    uncross,
)
from a2webs.perms import all_perms
from a2webs.spider import apply_rule, reduce_web, second_generator
from a2webs.webcore import Column, SliceDiagram, Web, WebError, generator_web, identity_web
from oracles import brute_force_labelings, disjoint_union, oracle_paths, oracle_uncross

SEED = 20260816
BENCH_NETWORKS = Path(__file__).parents[1] / "perfbench" / "networks.jsonl"


def diamond_net():
    """Two entries crossing at a single interior point."""
    return PlanarNetwork(
        2,
        [("a", 0, 2), ("b", 0, 1), ("v", 1, Fraction(3, 2)), ("c", 2, 2), ("d", 2, 1)],
        [("a", "v", 2), ("b", "v", 3), ("v", "c", 5), ("v", "d", 7)],
        ["a", "b"],
        ["c", "d"],
    )


def funnel2_net():
    """Two wires merged through a doubled two-edge corridor."""
    return PlanarNetwork(
        2,
        [("a", 0, 2), ("b", 0, 1), ("m", 1, Fraction(3, 2)), ("r", 2, Fraction(3, 2)),
         ("s", 3, Fraction(3, 2)), ("c", 4, 2), ("d", 4, 1)],
        [("a", "m", 1), ("b", "m", 2), ("m", "r", 3), ("r", "s", 1),
         ("s", "c", 1), ("s", "d", 5)],
        ["a", "b"],
        ["c", "d"],
    )


def funnel3_net():
    """Three wires merged through a tripled corridor."""
    return PlanarNetwork(
        3,
        [("a", 0, 3), ("b", 0, 2), ("c", 0, 1), ("m", 1, 2), ("s", 2, 2),
         ("d", 3, 3), ("e", 3, 2), ("f", 3, 1)],
        [("a", "m", 1), ("b", "m", 2), ("c", "m", 3), ("m", "s", 1),
         ("s", "d", 1), ("s", "e", 2), ("s", "f", 1)],
        ["a", "b", "c"],
        ["d", "e", "f"],
    )


def hub_net():
    """Three wires through a single six-way junction point."""
    return PlanarNetwork(
        3,
        [("a", 0, 3), ("b", 0, 2), ("c", 0, 1), ("h", 1, 2),
         ("d", 2, 3), ("e", 2, 2), ("f", 2, 1)],
        [("a", "h", 1), ("b", "h", 2), ("c", "h", 3),
         ("h", "d", 1), ("h", "e", 2), ("h", "f", 1)],
        ["a", "b", "c"],
        ["d", "e", "f"],
    )


def eye_net():
    """A tripled corridor that splits into a single and a doubled
    route and re-merges.  Two of its markings close a strand into a
    drawn loop, which must survive uncrossing as a loop component."""
    return PlanarNetwork(
        3,
        [("a", 0, 3), ("b", 0, 2), ("c", 0, 1), ("m", 1, 2), ("u", 2, 2),
         ("p", 3, 3), ("q", 3, 1), ("w", 4, 2), ("s", 5, 2),
         ("d", 6, 3), ("e", 6, 2), ("f", 6, 1)],
        [("a", "m", 1), ("b", "m", 2), ("c", "m", 3), ("m", "u", 5),
         ("u", "p", 1), ("p", "w", 2), ("u", "q", 3), ("q", "w", 1),
         ("w", "s", 7), ("s", "d", 1), ("s", "e", 2), ("s", "f", 1)],
        ["a", "b", "c"],
        ["d", "e", "f"],
    )


def path_vertices(net, path):
    """The vertices of a path given by its edge ids."""
    return {net.edges[path[0]].tail} | {net.edges[e].head for e in path}


def edge_planes(counts):
    """The edge planes (lo, hi) of edge counts: bits e of lo and hi are
    the low and high bits of counts[e]."""
    return (sum(1 << e for e, c in counts.items() if c & 1),
            sum(1 << e for e, c in counts.items() if c & 2))


def block_families(net, g):
    """Path families refining the block triple with boundary word g:
    within each block the paths are vertex-disjoint, across blocks
    they may share freely."""
    out = [[]]
    for I, J in zip(*triple_blocks(g)):
        block_opts = []
        for perm in itertools.permutations(J):
            pools = [oracle_paths(net, i - 1, j - 1) for i, j in zip(I, perm)]
            if any(not p for p in pools):
                continue
            for combo in itertools.product(*pools):
                used = set()
                ok = True
                for p in combo:
                    vs = path_vertices(net, p)
                    if used.intersection(vs):
                        ok = False
                        break
                    used.update(vs)
                if ok:
                    block_opts.append(combo)
        out = [prev + [c] for prev in out for c in block_opts]
        if not out:
            return []
    return [tuple(p for blk in fam for p in blk) for fam in out]


class TestConstruction:
    def test_identity_matrix_is_diagonal(self):
        X = path_matrix(identity_network(2, ["3/2", 5]))
        assert [[X.entry(i, j) for j in range(2)] for i in range(2)] == [
            [Fraction(3, 2), 0],
            [0, 5],
        ]

    def test_rejects_duplicate_ids(self):
        with pytest.raises(WebError):
            PlanarNetwork(1, [("a", 0, 1), ("a", 1, 1)], [("a", "a", 1)], ["a"], ["a"])

    def test_rejects_shared_position(self):
        with pytest.raises(WebError):
            PlanarNetwork(
                1,
                [("a", 0, 1), ("b", 1, 1), ("x", 1, 1)],
                [("a", "b", 1)],
                ["a"],
                ["b"],
            )

    def test_rejects_leftward_edge(self):
        with pytest.raises(WebError):
            PlanarNetwork(
                1,
                [("a", 0, 1), ("b", 1, 1), ("x", 2, 2)],
                [("a", "b", 1), ("x", "b", 1)],
                ["a"],
                ["b"],
            )

    def test_rejects_vertical_edge(self):
        with pytest.raises(WebError):
            PlanarNetwork(
                1,
                [("a", 0, 1), ("b", 1, 1), ("x", 1, 2)],
                [("a", "b", 1), ("b", "x", 1)],
                ["a"],
                ["b"],
            )

    def test_rejects_missing_endpoint(self):
        with pytest.raises(WebError):
            PlanarNetwork(1, [("a", 0, 1), ("b", 1, 1)], [("a", "z", 1)], ["a"], ["b"])

    def test_rejects_entry_with_incoming_edge(self):
        with pytest.raises(WebError):
            PlanarNetwork(
                1,
                [("x", 0, 2), ("a", 1, 1), ("b", 2, 1)],
                [("x", "a", 1), ("a", "b", 1)],
                ["a"],
                ["b"],
            )

    def test_rejects_exit_with_outgoing_edge(self):
        with pytest.raises(WebError):
            PlanarNetwork(
                1,
                [("a", 0, 1), ("b", 1, 1), ("x", 2, 1)],
                [("a", "b", 1), ("b", "x", 1)],
                ["a"],
                ["b"],
            )

    def test_rejects_entries_out_of_order(self):
        with pytest.raises(WebError):
            PlanarNetwork(
                2,
                [("a", 0, 1), ("b", 0, 2), ("c", 1, 1), ("d", 1, 2)],
                [("a", "c", 1), ("b", "d", 1)],
                ["a", "b"],
                ["d", "c"],
            )

    def test_rejects_crossing_edges(self):
        with pytest.raises(WebError):
            PlanarNetwork(
                2,
                [("a", 0, 2), ("b", 0, 1), ("c", 1, 2), ("d", 1, 1)],
                [("a", "d", 1), ("b", "c", 1)],
                ["a", "b"],
                ["c", "d"],
            )

    def test_rejects_overlapping_collinear_edges(self):
        with pytest.raises(WebError):
            PlanarNetwork(
                1,
                [("a", 0, 1), ("b", 2, 1), ("m", 1, 1)],
                [("a", "b", 1), ("a", "m", 1)],
                ["a"],
                ["b"],
            )

    def test_rejects_vertex_on_edge_interior(self):
        with pytest.raises(WebError):
            PlanarNetwork(
                2,
                [("a", 0, 2), ("b", 0, 1), ("c", 2, 2), ("d", 2, 1), ("x", 1, 2)],
                [("a", "c", 1), ("b", "d", 1), ("b", "x", 1)],
                ["a", "b"],
                ["c", "d"],
            )

    def test_touching_at_shared_endpoint_is_fine(self):
        net = diamond_net()
        assert len(net.edges) == 4

    def test_rejects_identical_parallel_edges(self):
        with pytest.raises(WebError, match="edges 'a'->'b' and 'a'->'b' cross or overlap"):
            PlanarNetwork(1, [("a", 0, 1), ("b", 1, 1)], [("a", "b", 2), ("a", "b", 2)], ["a"], ["b"])

    def test_rejects_crossing_at_another_vertex_abscissa(self):
        # a->d and b->c cross at (1, 1); v shares the abscissa 1, not the point
        with pytest.raises(WebError, match="edges 'a'->'d' and 'b'->'c' cross or overlap"):
            PlanarNetwork(
                2,
                [("a", 0, 2), ("b", 0, 0), ("v", 1, 3), ("c", 2, 2), ("d", 2, 0)],
                [("a", "d", 1), ("b", "c", 1), ("a", "v", 1), ("v", "c", 1)],
                ["a", "b"],
                ["c", "d"],
            )

    def test_rejects_vertex_on_edge_at_strip_boundary(self):
        # v splits a->c into two strips and touches no other edge
        with pytest.raises(WebError, match="vertex 'v' lies on edge 'a'->'c'"):
            PlanarNetwork(
                2,
                [("a", 0, 2), ("b", 0, 1), ("v", 1, 2), ("c", 2, 2), ("d", 2, 1)],
                [("a", "c", 1), ("b", "d", 1)],
                ["a", "b"],
                ["c", "d"],
            )

    def test_json_roundtrip(self):
        net = funnel2_net()
        blob = json.dumps(net.to_json_obj())
        back = PlanarNetwork.from_json_obj(json.loads(blob))
        assert back.to_json_obj() == net.to_json_obj()
        assert path_matrix(back).to_json_obj() == path_matrix(net).to_json_obj()

    def test_json_rejects_missing_field(self):
        obj = identity_network(1).to_json_obj()
        del obj["sinks"]
        with pytest.raises(WebError):
            PlanarNetwork.from_json_obj(obj)

    @pytest.mark.parametrize("n", ["x", "1", 2.7, 1.0, True, None])
    def test_json_rejects_non_integer_n(self, n):
        obj = identity_network(1).to_json_obj()
        obj["n"] = n
        with pytest.raises(WebError, match="must be an integer"):
            PlanarNetwork.from_json_obj(obj)

    @pytest.mark.parametrize("key, value", [
        ("sources", "s1"), ("sinks", "t1"), ("sources", {"s1": 0}), ("edges", {}), ("vertices", {}),
    ])
    def test_json_requires_lists(self, key, value):
        obj = identity_network(1).to_json_obj()
        obj[key] = value
        with pytest.raises(WebError, match=f"network '{key}' must be a JSON list"):
            PlanarNetwork.from_json_obj(obj)

    def test_json_accepts_fraction_strings(self):
        obj = {
            "n": 1,
            "vertices": [
                {"id": "a", "x": "0", "y": "1/3"},
                {"id": "b", "x": "5/2", "y": "1/3"},
            ],
            "edges": [{"from": "a", "to": "b", "weight": "7/11"}],
            "sources": ["a"],
            "sinks": ["b"],
        }
        X = path_matrix(PlanarNetwork.from_json_obj(obj))
        assert X.entry(0, 0) == Fraction(7, 11)


# The pairwise predicate that _check_drawing replaced, kept as its oracle.


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _in_box(a, b, p):
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def _segments_clash(p1, q1, p2, q2):
    """Whether two closed segments meet anywhere besides a single
    endpoint common to both."""
    d1 = _cross(p2, q2, p1)
    d2 = _cross(p2, q2, q1)
    d3 = _cross(p1, q1, p2)
    d4 = _cross(p1, q1, q2)
    if ((d1 > 0) != (d2 > 0) and d1 != 0 and d2 != 0) and (
        (d3 > 0) != (d4 > 0) and d3 != 0 and d4 != 0
    ):
        return True
    contacts = set()
    for p, seg, d in ((p1, (p2, q2), d1), (q1, (p2, q2), d2), (p2, (p1, q1), d3), (q2, (p1, q1), d4)):
        if d == 0 and _in_box(seg[0], seg[1], p):
            contacts.add(p)
    if not contacts:
        return False
    if len(contacts) > 1:
        return True
    (c,) = contacts
    return not (c in (p1, q1) and c in (p2, q2))


def oracle_faults(pos, edges):
    """Every refusal message the pairwise check could give."""
    out = set()
    for i, a in enumerate(edges):
        pa, qa = pos[a.tail], pos[a.head]
        for b in edges[i + 1:]:
            if _segments_clash(pa, qa, pos[b.tail], pos[b.head]):
                out.add(f"edges {a.tail!r}->{a.head!r} and {b.tail!r}->{b.head!r} "
                        "cross or overlap in the drawing")
        for vid, p in pos.items():
            if vid not in (a.tail, a.head) and _cross(pa, qa, p) == 0 and _in_box(pa, qa, p):
                out.add(f"vertex {vid!r} lies on edge {a.tail!r}->{a.head!r}")
    return out


def sweep_fault(pos, edges):
    """The refusal message of _check_drawing, or None."""
    try:
        _check_drawing(_grid(pos), edges)
    except WebError as exc:
        return str(exc)
    return None


def mutations(net, rng):
    """Drawings near net: a moved vertex, an added or doubled edge, a
    vertex on an edge at an abscissa it spans and one just off it."""
    pos, edges = dict(net.pos), list(net.edges)
    ids = list(pos)
    ys = sorted({y for _, y in pos.values()})
    xs = sorted({x for x, _ in pos.values()})
    moved = dict(pos)
    v = rng.choice(ids)
    moved[v] = (pos[v][0], rng.choice(ys) + rng.choice((0, 0, Fraction(1, 2), Fraction(-1, 3))))
    yield moved, edges
    u, w = rng.sample(ids, 2)
    if pos[u][0] > pos[w][0]:
        u, w = w, u
    if pos[u][0] < pos[w][0]:
        yield pos, edges + [NetEdge(u, w, Fraction(1))]
    yield pos, edges + [rng.choice(edges)]
    e = rng.choice(edges)
    (tx, ty), (hx, hy) = pos[e.tail], pos[e.head]
    x = rng.choice([x for x in xs if tx < x < hx] or [(tx + hx) / 2])
    y = ty + (hy - ty) * (x - tx) / (hx - tx)
    yield {**pos, "on": (x, y)}, edges
    yield {**pos, "off": (x, y + Fraction(1, 7))}, edges


class TestDrawingSweep:
    def test_sweep_agrees_with_pairwise_oracle(self):
        rng = random.Random(SEED)
        lines = (Path(__file__).parents[1] / "perfbench" / "networks.jsonl").read_text().splitlines()
        nets = [PlanarNetwork.from_json_obj(json.loads(line)) for line in lines[::10]]
        nets += [random_planar_network(rng.randint(1, 4), rng, steps=rng.randint(1, 4)) for _ in range(40)]
        verdicts = Counter()
        for net in nets:
            assert oracle_faults(net.pos, net.edges) == set()
            for pos, edges in mutations(net, rng):
                if len(set(pos.values())) < len(pos):
                    continue  # the constructor refuses a shared position first
                got = sweep_fault(pos, edges)
                faults = oracle_faults(pos, edges)
                assert got in faults if faults else got is None
                verdicts[got is None] += 1
        assert verdicts[True] > 50 and verdicts[False] > 50

    def test_sweep_agrees_with_pairwise_oracle_on_mixed_denominators(self):
        # each coordinate nudged by -1, 0 or 1 over 60 times 7, 11 or 13,
        # then the drawing under a positive affine map of 1,000-digit numbers
        rng = random.Random(SEED + 15)
        big = 10 ** 999
        verdicts = Counter()
        for _ in range(40):
            net = random_planar_network(rng.randint(1, 3), rng, steps=rng.randint(1, 3))
            a, c = Fraction(big + rng.randrange(big), 7), Fraction(big + rng.randrange(big), 11)
            b, d = Fraction(rng.randrange(-big, big), 13), Fraction(rng.randrange(-big, big), 7 * 11)
            for pos, edges in mutations(net, rng):
                if len(set(pos.values())) < len(pos):
                    continue
                nudged = {v: (x + Fraction(rng.randint(-1, 1), 60 * rng.choice((7, 11, 13))),
                              y + Fraction(rng.randint(-1, 1), 60 * rng.choice((7, 11, 13))))
                          for v, (x, y) in pos.items()}
                for drawn in (nudged, {v: (a * x + b, c * y + d) for v, (x, y) in nudged.items()}):
                    if len(set(drawn.values())) < len(drawn):
                        continue
                    got = sweep_fault(drawn, edges)
                    faults = oracle_faults(drawn, edges)
                    assert got in faults if faults else got is None
                    verdicts[got is None] += 1
        assert verdicts[True] > 20 and verdicts[False] > 20


# Coordinates moved by a positive affine map of about 200 digits still
# read within parse_rational's 1,000 characters, and so do points on
# the edges between them.
FAR = 10 ** 200


def _drawn(obj, pos, edges=None):
    """obj with its vertices at pos, and with edges if given."""
    return {**obj, "vertices": [{"id": v, "x": str(x), "y": str(y)} for v, (x, y) in pos.items()],
            "edges": obj["edges"] if edges is None else edges}


def redrawn(obj, rng):
    """Network JSON objects near obj: a vertex moved up or down, or
    sideways by a half, a seventh, an eleventh or a thirteenth; an added
    or doubled edge; a vertex on an edge at an abscissa it spans and one
    just off it; the whole drawing under a positive affine map with
    denominators 7, 11 and 13 and 200-digit coefficients, alone and with
    one of the changes above."""
    pos = {v["id"]: (Fraction(v["x"]), Fraction(v["y"])) for v in obj["vertices"]}
    ids, edges = list(pos), obj["edges"]

    def moved(pos):
        v = rng.choice(ids)
        x, y = pos[v]
        if rng.random() < 0.5:
            y = rng.choice([q for _, q in pos.values()]) + rng.choice(
                (0, 0, Fraction(1, 2), Fraction(-1, 3), Fraction(1, 7), Fraction(-2, 11), Fraction(3, 13)))
        else:
            x += Fraction(rng.choice((-1, 1)), rng.choice((2, 7, 11, 13)))
        return {**pos, v: (x, y)}

    def on_edge(pos, lift):
        e = rng.choice(edges)
        (tx, ty), (hx, hy) = pos[e["from"]], pos[e["to"]]
        x = rng.choice([x for x, _ in pos.values() if tx < x < hx] or [(tx + hx) / 2])
        return {**pos, "on": (x, ty + (hy - ty) * (x - tx) / (hx - tx) + lift)}

    a, c = Fraction(FAR + rng.randrange(FAR), 7), Fraction(FAR + rng.randrange(FAR), 13)
    b, d = Fraction(rng.randrange(-FAR, FAR), 11), Fraction(rng.randrange(-FAR, FAR), 7 * 11 * 13)
    far = {v: (a * x + b, c * y + d) for v, (x, y) in pos.items()}
    u, w = rng.sample(ids, 2)
    yield _drawn(obj, moved(pos))
    yield _drawn(obj, moved(pos))
    yield _drawn(obj, pos, edges + [{"from": u, "to": w, "weight": "1"}])
    yield _drawn(obj, pos, edges + [rng.choice(edges)])
    yield _drawn(obj, on_edge(pos, 0))
    yield _drawn(obj, on_edge(pos, Fraction(1, 7)))
    yield _drawn(obj, far)
    yield _drawn(obj, moved(far))
    yield _drawn(obj, far, edges + [{"from": u, "to": w, "weight": "1"}])
    yield _drawn(obj, on_edge(far, 0))
    yield _drawn(obj, on_edge(far, Fraction(1, 7)))


def drawing_outcome(obj):
    """The refusal message of a network JSON object, or its sweep
    order and out-edge lists."""
    try:
        net = PlanarNetwork.from_json_obj(obj)
    except WebError as exc:
        return str(exc)
    return repr((net.order, net.out_edges))


class TestDrawingPins:
    # sha256 over the sweep order and out-edge lists of the benchmark
    # networks, and over the outcome of each of their redrawings,
    # recorded while the drawing was checked in Fraction heights
    ORDER_DIGEST = "a759c32384cb644d6c8d369afa5641d7d85c14e324cf5aa0b7bda62f1f2ededd"
    OUTCOME_DIGEST = "cf4ffbe182b83a2b7abe2e98a9af7bda2697127f6971e31f3caa38a4e0410a83"

    def test_benchmark_orders_are_pinned(self):
        digest = hashlib.sha256()
        for line in BENCH_NETWORKS.read_text().splitlines():
            digest.update(drawing_outcome(json.loads(line)).encode())
        assert digest.hexdigest() == self.ORDER_DIGEST

    def test_redrawn_outcomes_are_pinned(self):
        rng = random.Random(SEED + 14)
        digest = hashlib.sha256()
        verdicts = Counter()
        for line in BENCH_NETWORKS.read_text().splitlines():
            obj = json.loads(line)
            base = drawing_outcome(obj)
            for k, moved in enumerate(redrawn(obj, rng)):
                got = drawing_outcome(moved)
                if k == 6:  # the affine image keeps every order
                    assert got == base
                digest.update(got.encode())
                verdicts[next((kind for kind in ("cross or overlap", "lies on edge", "((") if kind in got),
                              "other")] += 1
        assert digest.hexdigest() == self.OUTCOME_DIGEST
        assert verdicts == {"((": 326, "lies on edge": 124, "cross or overlap": 119, "other": 91}


class TestPathMatrix:
    def test_two_parallel_routes_add(self):
        net = PlanarNetwork(
            1,
            [("a", 0, 1), ("p", 1, 2), ("q", 1, 0), ("b", 2, 1)],
            [("a", "p", 2), ("p", "b", 3), ("a", "q", 5), ("q", "b", 7)],
            ["a"],
            ["b"],
        )
        assert path_matrix(net).entry(0, 0) == 2 * 3 + 5 * 7

    def test_series_weights_multiply(self):
        net = PlanarNetwork(
            1,
            [("a", 0, 0), ("m", 1, 0), ("b", 2, 0)],
            [("a", "m", Fraction(2, 3)), ("m", "b", Fraction(9, 4))],
            ["a"],
            ["b"],
        )
        assert path_matrix(net).entry(0, 0) == Fraction(3, 2)

    def test_diamond_matrix_has_rank_one(self):
        X = path_matrix(diamond_net())
        assert X.entry(0, 0) * X.entry(1, 1) == X.entry(0, 1) * X.entry(1, 0)
        assert X.det() == 0

    def test_path_enumeration_matches_matrix(self):
        rng = random.Random(SEED)
        for _ in range(5):
            net = random_planar_network(2, rng, steps=rng.randint(2, 4))
            X = path_matrix(net)
            for i in range(2):
                for j in range(2):
                    total = sum(
                        (math.prod((net.edges[e].weight for e in p), start=Fraction(1))
                         for p in oracle_paths(net, i, j)),
                        Fraction(0),
                    )
                    assert total == X.entry(i, j)

    def test_one_matrix_per_network(self, monkeypatch):
        net = funnel3_net()
        X = path_matrix(net)
        assert path_matrix(net) is X
        read = []
        monkeypatch.setattr(networks, "path_matrix", lambda net: read.append(path_matrix(net)) or read[-1])
        assert corollary_check(net)["passed"] and lindstrom_check(net)["passed"]
        assert len(read) == 2 and all(Y is X for Y in read)
        assert "monomials" in vars(X)  # the corollary's evaluations filled X's own cache
        # a round trip through JSON builds a new network and a new matrix
        back = PlanarNetwork.from_json_obj(net.to_json_obj())
        assert path_matrix(back) == X and path_matrix(back) is not X


class TestLindstrom:
    def test_identity_determinant(self):
        rep = lindstrom_check(identity_network(3, [2, "1/3", 5]))
        assert rep["passed"]
        assert rep["det"] == "10/3"
        assert rep["disjoint_families"] == 1

    def test_diamond_has_no_disjoint_family(self):
        rep = lindstrom_check(diamond_net())
        assert rep["passed"]
        assert rep["det"] == "0"
        assert rep["disjoint_families"] == 0

    def test_random_networks(self):
        rng = random.Random(SEED)
        for n in (1, 2, 3):
            for _ in range(4):
                net = random_planar_network(n, rng, steps=rng.randint(2, 4))
                assert lindstrom_check(net)["passed"]


def oracle_families(net, w):
    """Every family of the product of the path pools, with the largest
    number of its paths on one vertex: the enumeration by
    `itertools.product` and a `Counter` of vertices, kept as the oracle
    for the masks."""
    pools = [oracle_paths(net, i, w[i] - 1) for i in range(net.n)]
    vertices = {p: path_vertices(net, p) for pool in pools for p in pool}
    for combo in itertools.product(*pools):
        counts = Counter(itertools.chain.from_iterable(map(vertices.__getitem__, combo)))
        yield combo, max(counts.values())


def diamond_chain(k):
    """The vertices and edges of k diamonds in series, from v0 at the
    origin to vk: 2^k paths from v0 to vk."""
    vertices, edges = [("v0", 0, 0)], []
    for i in range(1, k + 1):
        vertices += [(f"u{i}", 2 * i - 1, 1), (f"d{i}", 2 * i - 1, -1), (f"v{i}", 2 * i, 0)]
        edges += [(f"v{i - 1}", f"u{i}", 1), (f"v{i - 1}", f"d{i}", 1),
                  (f"u{i}", f"v{i}", 1), (f"d{i}", f"v{i}", 1)]
    return vertices, edges


def fanned_chain(k):
    """Two entries joined into k diamonds in series, which fan out to
    two exits: 4 * 2^k paths and 2 * 4^k candidate families."""
    vertices, edges = diamond_chain(k)
    vertices += [("a", -1, 1), ("b", -1, -1), ("c", 2 * k + 1, 1), ("d", 2 * k + 1, -1)]
    edges += [("a", "v0", 1), ("b", "v0", 1), (f"v{k}", "c", 1), (f"v{k}", "d", 1)]
    return PlanarNetwork(2, vertices, edges, ["a", "b"], ["c", "d"])


def oracle_nets():
    """The benchmark networks and 200 seeded random ones."""
    nets = [PlanarNetwork.from_json_obj(json.loads(line))
            for line in BENCH_NETWORKS.read_text().splitlines()]
    rng = random.Random(SEED + 13)
    return nets + [random_planar_network(rng.randint(1, 4), rng, steps=rng.randint(1, 5)) for _ in range(200)]


class TestFamilyOracle:
    def test_path_table_matches_the_path_oracle(self):
        for net in oracle_nets():
            bit = {v: 1 << k for k, v in enumerate(net.ids)}
            want = {}
            for i in range(net.n):
                for j in range(net.n):
                    paths = oracle_paths(net, i, j)
                    if paths:
                        want[i, j] = tuple((sum(bit[v] for v in path_vertices(net, p)), sum(1 << e for e in p))
                                           for p in paths)
            assert net._path_table() == want

    def test_families_and_markings_match_the_product_oracle(self):
        rejected = at_three = 0
        for net in oracle_nets():
            markings = set()
            for w in all_perms(net.n):
                fams = []
                for combo, load in oracle_families(net, w):
                    counts = Counter(itertools.chain.from_iterable(combo))
                    fams.append((edge_planes(counts), load))
                    if load <= 3:
                        markings.add(tuple(sorted(counts.items())))
                for cap in (1, 3):
                    assert list(_families(net, w, cap)) == [planes for planes, load in fams if load <= cap]
                rejected += sum(load > 3 for _, load in fams)
                at_three += sum(load == 3 for _, load in fams)
            assert covering_markings(net) == sorted(markings)
        assert rejected and at_three

    @pytest.mark.parametrize("cap", [0, 2, 4, 5, 6])
    def test_other_caps_are_refused(self, cap):
        with pytest.raises(ValueError):
            _families(funnel3_net(), (1, 2, 3), cap)

    def test_common_denominator_is_bounded(self):
        assert MAX_GRID_DIGITS == 10_000
        assert _common_denominator("x", [1, 2, 3, 4]) == 12
        widest = 9 * 10 ** 9_999  # 10,000 digits
        assert _common_denominator("y", [widest, 3]) == widest
        for dens in ([10 ** 10_000], [2 ** 20_000, 5 ** 20_000], [widest, 7]):
            with pytest.raises(WebError, match="common denominator has more than 10,000 digits"):
                _common_denominator("y", dens)

    def test_paths_are_counted_before_they_are_listed(self):
        assert len(PlanarNetwork(1, *diamond_chain(4), ["v0"], ["v4"])._path_table()[0, 0]) == 16
        for k in (20, 30):  # 2^20 and 2^30 paths, both past the bound
            net = PlanarNetwork(1, *diamond_chain(k), ["v0"], [f"v{k}"])
            with pytest.raises(WebError, match="candidate path families"):
                net._path_table()
        assert 2 ** 19 < MAX_PATH_FAMILIES < 2 ** 20

    def test_candidate_families_are_bounded(self):
        # 4 * 512 paths and 2 * 512^2 families pass; 4 * 1024 paths
        # pass the path bound, but not 2 * 1024^2 families
        assert 2 * 4 ** 9 <= MAX_PATH_FAMILIES < 2 * 4 ** 10
        assert len(fanned_chain(9)._path_table()[0, 1]) == 512
        with pytest.raises(WebError, match="candidate path families"):
            fanned_chain(10)._path_table()

    def test_dead_ends_are_not_walked(self):
        # 2^30 prefixes run into the chain's end, which is not an exit
        vertices, edges = diamond_chain(30)
        net = PlanarNetwork(1, vertices + [("t", 1, 5)], edges + [("v0", "t", 1)], ["v0"], ["t"])
        # the one path v0 -> t, as its (vertex mask, edge mask)
        assert net._path_table() == {(0, 0): ((1 | 1 << len(vertices), 1 << len(edges)),)}


def mutated_markings(net, marks, rng):
    """Four damaged copies of a marking, each refused or uncrossed: one
    edge dropped, one multiplicity raised, an edge id the network lacks
    added, and one unit moved onto a sibling out-edge (None when no
    marked edge has a sibling)."""
    marks = list(marks)
    k = rng.randrange(len(marks))
    raised = marks[:k] + [(marks[k][0], marks[k][1] + 1)] + marks[k + 1:]
    unknown = marks + [(rng.choice([-1, len(net.edges), len(net.edges) + 7]), 1)]
    rng.shuffle(unknown)
    moved = None
    movable = [e for e, _ in marks if len(net.out_edges[net.edges[e].tail]) > 1]
    if movable:
        e = rng.choice(movable)
        f = rng.choice([x for x in net.out_edges[net.edges[e].tail] if x != e])
        mult = dict(marks)
        mult[e] -= 1
        mult[f] = mult.get(f, 0) + 1
        moved = sorted((x, c) for x, c in mult.items() if c)
    return [marks[:k] + marks[k + 1:], raised, unknown, moved]


class TestUncrossOracle:
    def test_uncross_matches_the_oracle_on_damaged_markings(self):
        nets = [PlanarNetwork.from_json_obj(json.loads(line))
                for line in BENCH_NETWORKS.read_text().splitlines()]
        rng = random.Random(SEED + 13)
        nets += [random_planar_network(rng.randint(1, 4), rng, steps=rng.randint(1, 5)) for _ in range(200)]
        nets.append(joined_diamond_net())  # one covering marking is refused
        # the strand from s2 rises above s1 before s1 starts, so the
        # edge below s1's placeholder passes above s1: refused
        nets.append(PlanarNetwork(2, [("s1", 2, 0), ("s2", 0, -1), ("a", 1, 1), ("t1", 3, 1), ("t2", 3, -1)],
                                  [("s2", "a", 1), ("a", "t1", 1), ("s1", "t2", 1)], ["s1", "s2"], ["t1", "t2"]))
        rng = random.Random(SEED + 29)

        def outcome(fn, net, marks):
            try:
                return fn(net, marks)
            except WebError as exc:
                return str(exc)

        seen = Counter()
        for net in nets:
            for marks in covering_markings(net):
                for kind, mutant in enumerate([marks, *mutated_markings(net, marks, rng)]):
                    if mutant is None:
                        continue
                    got = outcome(uncross, net, mutant)
                    assert got == outcome(oracle_uncross, net, mutant), (net.to_json_obj(), mutant)
                    seen[kind, "web" if type(got) is Web else re.sub(r"'[^']*'|-?\d+", "_", got)] += 1
        assert seen[0, "web"] and all(any(k == kind and m != "web" for k, m in seen) for kind in range(1, 5))
        assert {m for _, m in seen} >= {
            "entry _ lies outside the gap its strand enters",
            "entry _ must start exactly one strand",
            "exit _ must end exactly one strand",
            "marking is unbalanced at vertex _",
            "marking names edge _, but the edge ids run _.._",
        }


class TestMarking:
    def test_rejects_multiplicity_four(self):
        net = identity_network(1)
        with pytest.raises(WebError):
            uncross(net, ((0, 4),))

    def test_rejects_unknown_edge(self):
        net = identity_network(1)
        with pytest.raises(WebError):
            uncross(net, ((3, 1),))
        # beside a marking that covers the network on its own, an id
        # past either end of the edge list is refused, not skipped or
        # read from the other end
        net = identity_network(2, [2, 3])
        marks = ((0, 1), (1, 1))
        assert uncross(net, marks) == uncross(identity_network(2), marks)
        assert marking_weight(net, marks) == 6
        for eid in (99, -1):
            for fn in (uncross, marking_weight):
                with pytest.raises(WebError, match=f"edge {eid}"):
                    fn(net, marks + ((eid, 1),))

    def test_rejects_repeated_edge(self):
        net = identity_network(2)
        with pytest.raises(WebError):
            uncross(net, ((0, 1), (0, 2)))

    def test_weight_is_the_product_of_powers(self):
        # weights redrawn with zeros, negatives and mixed denominators
        rng = random.Random(SEED + 14)
        for _ in range(60):
            obj = random_planar_network(rng.randint(1, 4), rng, steps=rng.randint(1, 4)).to_json_obj()
            for e in obj["edges"]:
                e["weight"] = str(Fraction(rng.randint(-6, 6), rng.randint(1, 7)))
            net = PlanarNetwork.from_json_obj(obj)
            eids = rng.sample(range(len(net.edges)), rng.randint(0, len(net.edges)))
            marks = tuple((e, rng.randint(1, 3)) for e in eids)
            want = Fraction(1)
            for eid, m in marks:
                want *= net.edges[eid].weight ** m
            assert marking_weight(net, marks) == want


class TestUncross:
    def test_identity_marks_give_identity_web(self):
        net = identity_network(2)
        (marks,) = covering_markings(net)
        assert uncross(net, marks) == Web.from_slice(identity_web(2))

    def test_diamond_gives_crossing_web(self):
        net = diamond_net()
        (marks,) = covering_markings(net)
        assert uncross(net, marks) == Web.from_slice(generator_web(2, 1))

    def test_doubled_corridor_gives_crossing_web(self):
        net = funnel2_net()
        (marks,) = covering_markings(net)
        assert uncross(net, marks) == Web.from_slice(generator_web(2, 1))

    def test_tripled_corridor_gives_claw_pair(self):
        net = funnel3_net()
        (marks,) = covering_markings(net)
        assert uncross(net, marks) == second_generator(3, 1)

    def test_junction_web_reduces_like_its_matrix(self):
        net = hub_net()
        (marks,) = covering_markings(net)
        w = uncross(net, marks)
        assert w.pmap.internal_vertex_count == 2
        assert len(w.pmap.edges) == 6

    def test_closed_strand_becomes_loop_component(self):
        net = eye_net()
        by_loops = Counter()
        for marks in covering_markings(net):
            w = uncross(net, marks)
            by_loops[w.pmap.loops] += 1
        assert by_loops == Counter({0: 2, 1: 2})

    def test_loops_are_drawn_below_the_strands(self):
        net = eye_net()
        loop_webs = [
            w for w in (uncross(net, marks) for marks in covering_markings(net))
            if w.pmap.loops
        ]
        assert loop_webs
        for w in loop_webs:
            assert len(w.geom.loop_turns) == w.pmap.loops
            # the drawing uncross used to make: the loop-free web's
            # drawing with one cup/cap pair below the strands per loop
            (stripped,) = apply_rule(w, ("loop",))
            pair = (Column(net.n + 1, "cup", ("R", "L")), Column(net.n + 1, "cap", ("R", "L")))
            cols = stripped.child.diagram.columns + pair * w.pmap.loops
            drawn = Web.from_slice(SliceDiagram(net.n, cols))
            assert w.diagram == drawn.diagram
            assert boundary_profile(w) == boundary_profile(drawn)

    def test_loop_webs_label_like_the_brute_force(self):
        net = eye_net()
        loop_webs = [
            w for w in (uncross(net, marks) for marks in covering_markings(net))
            if w.pmap.loops
        ]
        assert loop_webs
        for w in loop_webs:
            fs = enumerate_labelings(w)
            assert fs == brute_force_labelings(w)
            for g in {boundary_restriction(w, f) for f in fs}:
                assert enumerate_labelings(w, g) == brute_force_labelings(w, g)

    def test_uncross_never_draws(self, monkeypatch):
        net = eye_net()
        markings = covering_markings(net)
        want = [uncross(net, marks).code for marks in markings]

        def refuse(*args, **kwargs):
            raise AssertionError("uncross drew a web")

        monkeypatch.setattr(webcore, "render", refuse)
        assert [uncross(net, marks).code for marks in markings] == want

    def test_one_diagram_is_mapped_once(self, monkeypatch):
        # one strand through 6 diamonds in series: its 64 markings all
        # sweep into the same slice diagram
        net = PlanarNetwork(1, *diamond_chain(6), ["v0"], ["v6"])
        markings = covering_markings(net)
        assert len(markings) == 64
        clear_caches()
        drawn = []
        to_map = networks.to_map
        monkeypatch.setattr(networks, "to_map", lambda d: drawn.append(d) or to_map(d))
        codes = {uncross(net, marks).code for marks in markings}
        assert len(codes) == 1
        assert len(drawn) == 1

    def test_memo_gives_the_outcomes_of_fresh_sweeps(self):
        rng = random.Random(SEED + 15)
        lines = BENCH_NETWORKS.read_text().splitlines()
        nets = [joined_diamond_net()]
        nets += [PlanarNetwork.from_json_obj(json.loads(line)) for line in lines[::6]]
        while len(nets) < 60:
            net = displaced(random_planar_network(rng.randint(2, 3), rng, steps=rng.randint(1, 3)), rng)
            if net is not None:
                nets.append(net)

        def outcome(net, marks):
            try:
                return uncross(net, marks).code
            except WebError as exc:
                return str(exc)

        refused = 0
        for net in nets:
            markings = covering_markings(net)
            memo = [outcome(net, marks) for marks in markings]
            fresh = []
            for marks in markings:
                _sliced_web.cache_clear()
                fresh.append(outcome(net, marks))
            assert memo == fresh
            refused += sum(type(o) is str for o in memo)
        assert refused

    def test_rejects_unbalanced_marking(self):
        net = diamond_net()
        with pytest.raises(WebError):
            uncross(net, ((0, 1), (2, 1), (3, 1)))

    def test_rejects_marking_missing_an_entry(self):
        net = identity_network(2)
        with pytest.raises(WebError):
            uncross(net, ((0, 1),))

    def test_rejects_four_strands_through_a_vertex(self):
        net = PlanarNetwork(
            2,
            [("a", 0, 2), ("b", 0, 1), ("v", 1, Fraction(3, 2)), ("c", 2, 2), ("d", 2, 1)],
            [("a", "v", 1), ("b", "v", 1), ("v", "c", 1), ("v", "d", 1)],
            ["a", "b"],
            ["c", "d"],
        )
        with pytest.raises(WebError):
            uncross(net, ((0, 2), (1, 2), (2, 2), (3, 2)))

    def test_gadget_profile_coverage(self):
        # the random corpus must exercise every legal multiplicity
        # profile at interior vertices, fourteen in all
        seen = set()
        for n in (2, 3):
            for seed in range(40):
                rng = random.Random(7000 * n + seed)
                net = random_planar_network(n, rng, steps=rng.randint(2, 5))
                for marks in covering_markings(net):
                    mult = dict(marks)
                    for v in net.ids:
                        if v in net.sources or v in net.sinks:
                            continue
                        ins = tuple(sorted(mult[e] for e in net.in_edges[v] if e in mult))
                        outs = tuple(sorted(mult[e] for e in net.out_edges[v] if e in mult))
                        if ins or outs:
                            seen.add((ins, outs))
        profiles = set()
        for k_in in ((1,), (1, 1), (2,), (1, 1, 1), (1, 2), (3,)):
            for k_out in ((1,), (1, 1), (2,), (1, 1, 1), (1, 2), (3,)):
                if sum(k_in) == sum(k_out):
                    profiles.add((k_in, k_out))
        assert seen == profiles


class TestImmanantCorollary:
    def test_fixture_networks(self):
        for net in (identity_network(2, [2, 3]), diamond_net(), funnel2_net(),
                    funnel3_net(), hub_net(), eye_net()):
            rep = corollary_check(net)
            assert rep["passed"], rep

    def test_eye_network_has_loop_contributions(self):
        # the agreement here depends on drawn loops carrying their
        # three closed flow values
        rep = corollary_check(eye_net())
        assert rep["passed"]
        assert any(row["from_network"] != "0" for row in rep["immanants"])

    def test_random_networks(self):
        rng = random.Random(SEED)
        for n in (1, 2, 3):
            for _ in range(4):
                net = random_planar_network(n, rng, steps=rng.randint(2, 4))
                assert corollary_check(net)["passed"]

    def test_single_immanant_lookup(self):
        net = diamond_net()
        D = Web.from_slice(generator_web(2, 1))
        assert network_immanants(net)[D] == evaluate_immanant(D, path_matrix(net))

    def test_single_immanant_rejects_non_basis_web(self):
        net = identity_network(2)
        stacked = Web.from_slice(generator_web(2, 1))
        vals = network_immanants(net)
        assert Web.from_slice(identity_web(3)) not in vals
        assert vals[stacked] == 0

    def test_additive_over_disjoint_union(self):
        a = random_planar_network(1, random.Random(SEED + 5), steps=2)
        b = random_planar_network(2, random.Random(SEED + 9), steps=3)
        u = disjoint_union(a, b)
        assert u.n == 3
        assert corollary_check(u)["passed"]
        X = path_matrix(u)
        Xa, Xb = path_matrix(a), path_matrix(b)
        for i in range(1):
            for j in range(2):
                assert X.entry(i, 1 + j) == 0
                assert X.entry(1 + j, i) == 0
        assert X.entry(0, 0) == Xa.entry(0, 0)
        assert X.entry(1, 1) == Xb.entry(0, 0)


class TestTripleMinorsOnNetworks:
    def test_all_triples_on_fixtures(self):
        for net in (funnel3_net(), hub_net()):
            X = path_matrix(net)
            vals = network_immanants(net)
            for g in all_triples(3):
                rhs = sum(
                    (Fraction(c) * vals[D] for D, c in decompose_triple(g).items()),
                    Fraction(0),
                )
                assert triple_product(g, X) == rhs

    def test_all_triples_on_random_networks(self):
        rng = random.Random(SEED)
        for _ in range(2):
            net = random_planar_network(3, rng, steps=rng.randint(2, 4))
            X = path_matrix(net)
            vals = network_immanants(net)
            for g in all_triples(3):
                rhs = sum(
                    (Fraction(c) * vals[D] for D, c in decompose_triple(g).items()),
                    Fraction(0),
                )
                assert triple_product(g, X) == rhs


class TestFamilyLabelingBijection:
    def check_net(self, net, triples):
        for g in triples:
            fams = block_families(net, g)
            per = Counter()
            for fam in fams:
                marks = tuple(sorted(Counter(e for p in fam for e in p).items()))
                per[marks] += 1
            for marks, cnt in per.items():
                w = uncross(net, marks)
                assert len(enumerate_labelings(w, g)) == cnt
            total = sum(
                len(enumerate_labelings(uncross(net, m), g))
                for m in covering_markings(net)
            )
            assert total == len(fams)

    def test_junction_families_count_labelings(self):
        self.check_net(hub_net(), all_triples(3))

    def test_corridor_families_count_labelings(self):
        self.check_net(funnel3_net(), all_triples(3))

    def test_shared_marking_counts_all_routings(self):
        # one marking of this network is reached by twelve distinct
        # families, so the labeling count must also be twelve
        net = random_planar_network(3, random.Random(2), steps=3)
        g = (1, 2, 3, 1, 2, 3)
        fams = block_families(net, g)
        per = Counter()
        for fam in fams:
            per[tuple(sorted(Counter(e for p in fam for e in p).items()))] += 1
        assert max(per.values()) == 12
        self.check_net(net, [g])


class TestRandomMatrices:
    def test_same_seed_same_matrix(self):
        assert random_tnn_matrix(3, SEED).to_json_obj() == random_tnn_matrix(3, SEED).to_json_obj()

    def test_all_minors_nonnegative(self):
        for k in range(20):
            X = random_tnn_matrix(3, SEED + k)
            for r in range(1, 4):
                for I in itertools.combinations(range(3), r):
                    for J in itertools.combinations(range(3), r):
                        assert X.submatrix(I, J).det() >= 0

    def test_identity_network_matrix(self):
        X = path_matrix(identity_network(3))
        assert all(X.entry(i, j) == (1 if i == j else 0) for i in range(3) for j in range(3))


def _vertex_profiles(net, marks):
    """The (in, out) multiplicity profile of each interior vertex a
    marking passes through."""
    mult = dict(marks)
    found = set()
    for v in net.ids:
        if v in net.sources or v in net.sinks:
            continue
        ins = tuple(sorted(mult[e] for e in net.in_edges[v] if e in mult))
        outs = tuple(sorted(mult[e] for e in net.out_edges[v] if e in mult))
        if ins or outs:
            found.add((ins, outs))
    return found


class TestUncrossDigest:
    # sha256 over the uncrossed code of every covering marking, recorded
    # before uncross applied one rule per vertex in place of a table of
    # multiplicity profiles
    DIGEST = "11a8aa4622d2e98f8b07de89008596425034450460f8f883af338d2efd820b52"

    def test_uncrossed_codes_are_pinned(self):
        rng = random.Random(SEED + 12)
        lines = (Path(__file__).parents[1] / "perfbench" / "networks.jsonl").read_text().splitlines()
        nets = [PlanarNetwork.from_json_obj(json.loads(line)) for line in lines[::5]]
        nets += [random_planar_network(rng.randint(1, 4), rng, steps=rng.randint(1, 5)) for _ in range(40)]
        digest = hashlib.sha256()
        profiles = set()
        for net in nets:
            for marks in covering_markings(net):
                w = uncross(net, marks)
                w.pmap.validate()
                digest.update(repr(w.code).encode())
                profiles |= _vertex_profiles(net, marks)
        sides = ((1,), (2,), (1, 1), (3,), (1, 2), (1, 1, 1))
        assert profiles == {(a, b) for a in sides for b in sides if sum(a) == sum(b)}
        assert len(profiles) == 14
        assert digest.hexdigest() == self.DIGEST


def displaced(net, rng):
    """net with each entry moved right and each exit moved left, by a
    random fraction of the way to its nearest neighbour; None when the
    moved drawing is refused."""
    obj = net.to_json_obj()
    where = {v["id"]: v for v in obj["vertices"]}
    for v in net.sources:
        x = net.pos[v][0]
        reach = min(net.pos[net.edges[e].head][0] for e in net.out_edges[v])
        where[v]["x"] = str(x + (reach - x) * Fraction(rng.randint(1, 9), 10))
    for v in net.sinks:
        x = net.pos[v][0]
        reach = max(net.pos[net.edges[e].tail][0] for e in net.in_edges[v])
        where[v]["x"] = str(x + (reach - x) * Fraction(rng.randint(1, 9), 10))
    try:
        return PlanarNetwork.from_json_obj(obj)
    except WebError:
        return None


class TestDisplacedBoundaryDigest:
    # sha256 over the outcome (code, or "refused") of every covering
    # marking of 300 random networks whose entries and exits sit inside
    # the drawing, recorded when uncross still built its map by hand
    DIGEST = "a2891a29d494f8bb2f251e03aae39b9abfdc593b02575ce84333f14a5357ea64"

    def test_outcomes_are_pinned(self):
        rng = random.Random(SEED + 13)
        nets = []
        while len(nets) < 300:
            net = displaced(random_planar_network(rng.randint(2, 3), rng, steps=rng.randint(1, 3)), rng)
            if net is not None:
                nets.append(net)
        digest = hashlib.sha256()
        for net in nets:
            for marks in covering_markings(net):
                try:
                    outcome = repr(uncross(net, marks).code)
                except WebError:
                    outcome = "refused"
                digest.update(outcome.encode())
        assert digest.hexdigest() == self.DIGEST


def joined_diamond_net():
    """The strand from s1 runs round a diamond above or below the entry
    s2; below it, s2 could reach the left only across that strand, so
    that marking is refused."""
    return PlanarNetwork(
        2,
        [("s1", 0, 1), ("a", 1, 0), ("b", 2, 1), ("c", 2, -1), ("s2", 2, 0),
         ("d", 3, 0), ("t1", 4, 1), ("t2", 4, -1)],
        [("s1", "a", 1), ("a", "b", 1), ("a", "c", 1), ("b", "d", 1), ("c", "d", 1),
         ("s2", "d", 1), ("d", "t1", 1), ("d", "t2", 1)],
        ["s1", "s2"],
        ["t1", "t2"],
    )


def _outcomes(net):
    """Each covering marking's uncrossed code, or None when refused."""
    out = []
    for marks in covering_markings(net):
        try:
            out.append(uncross(net, marks).code)
        except WebError:
            out.append(None)
    return out


class TestBoundaryContract:
    """Uncrossing refuses a marking whose drawing leaves no room to run
    the entries out to the left and the exits out to the right."""

    def test_entry_inside_a_diamond_that_joins_it(self):
        assert _outcomes(joined_diamond_net()) == [Web.from_slice(generator_web(2, 1)).code, None]

    def test_exit_whose_ray_a_later_edge_crosses(self):
        # s2's strand climbs past t1's rightward ray to the upper exit
        net = PlanarNetwork(
            2,
            [("s1", 0, 2), ("t1", 1, 1), ("s2", 0, 0), ("u", 2, 0), ("t2", 3, 3)],
            [("s1", "t1", 1), ("s2", "u", 1), ("u", "t2", 1)],
            ["s1", "s2"],
            ["t2", "t1"],
        )
        assert _outcomes(net) == [None]

    def test_strands_into_a_vertex_around_a_later_entry(self):
        net = PlanarNetwork(
            3,
            [("s1", 0, 2), ("s3", 0, -2), ("v", 1, 0), ("t1", 3, 1), ("t3", 3, -1),
             ("s2", 2, 0), ("t2", Fraction(5, 2), 0)],
            [("s1", "v", 1), ("s3", "v", 1), ("v", "t1", 1), ("v", "t3", 1), ("s2", "t2", 1)],
            ["s1", "s2", "s3"],
            ["t1", "t2", "t3"],
        )
        assert _outcomes(net) == [None]

    def test_pair_enclosed_in_a_diamond(self):
        # s2 -> t2 is its own component inside the diamond.  Above the
        # diamond's lower curve s2 could reach the left only across the
        # strand from s1, so that marking is refused; the map alone,
        # two disjoint strands, would pass validate().
        net = PlanarNetwork(
            2,
            [("s1", 0, 1), ("a", 1, 0), ("b", 2, 2), ("c", 2, -2), ("d", 4, 0),
             ("t1", 5, 1), ("s2", 2, 0), ("t2", 3, 0)],
            [("s1", "a", 1), ("a", "b", 1), ("a", "c", 1), ("b", "d", 1), ("c", "d", 1),
             ("d", "t1", 1), ("s2", "t2", 1)],
            ["s1", "s2"],
            ["t1", "t2"],
        )
        upper, lower = covering_markings(net)
        assert (net.edges[1].head, net.edges[2].head) == ("b", "c")
        assert 1 in dict(upper) and 2 in dict(lower)
        assert _outcomes(net) == [Web.from_slice(identity_web(2)).code, None]
