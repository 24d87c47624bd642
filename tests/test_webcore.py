import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from a2webs import webcore
from a2webs.webcore import (
    LEFT,
    RIGHT,
    VERTEX_DIRS,
    Column,
    PlanarMap,
    SliceDiagram,
    Web,
    WebError,
    canonical_edge_order,
    canonical_form,
    component_walks,
    concatenate,
    decode_code,
    edge_turns,
    generator_web,
    identity_web,
    render,
    to_map,
)
from oracles import (
    oracle_code,
    oracle_components,
    oracle_features,
    oracle_geom,
    oracle_render,
    oracle_roots,
    oracle_to_map,
)

R, L = RIGHT, LEFT
SEED = 20260816


def web(diagram):
    return Web.from_slice(diagram)


def role_tag(m, v):
    """The tag of vertex v in the notation maps once stored beside their
    rotations: ("src", i) and ("snk", j) on the boundary, numbered from
    1, then ("sink",) or ("source",) inside."""
    if v < m.n:
        return ("src", v + 1)
    if v < 2 * m.n:
        return ("snk", v - m.n + 1)
    return ("sink",) if m.is_sink(v) else ("source",)


class TestIdentity:
    def test_three_strands(self):
        m = to_map(identity_web(3))
        assert m.n == 3
        assert m.internal_vertex_count == 0
        assert len(m.edges) == 3
        assert m.loops == 0
        Web.from_map(m).diagram
        # three strand components, each bounded by a single face
        assert len(component_walks(m)) == 3
        assert all(len(f) == 2 for f in m.faces())

    def test_code_roundtrip(self):
        m = to_map(identity_web(3))
        code = canonical_form(m)
        m2 = decode_code(code)
        assert canonical_form(m2) == code

    def test_unit_law(self):
        e = generator_web(3, 2)
        left = web(concatenate(identity_web(3), e))
        right_ = web(concatenate(e, identity_web(3)))
        assert left == right_ == web(e)


class TestGeneratorWeb:
    def test_shape(self):
        m = to_map(generator_web(2, 1))
        assert m.internal_vertex_count == 2
        assert len(m.edges) == 5
        Web.from_map(m).diagram
        u, v = m.internal_vertices()
        assert {m.is_sink(u), m.is_sink(v)} == {True, False}
        # middle edge runs from the internal source to the internal sink
        middle = [e for e, (t, h) in enumerate(m.edges) if t >= 4 and h >= 4]
        assert len(middle) == 1

    def test_single_face(self):
        m = to_map(generator_web(2, 1))
        faces = m.faces()
        assert len(faces) == 1
        assert len(faces[0]) == 10

    def test_boundary_walk_order(self):
        m = to_map(generator_web(2, 1))
        (orbit,) = m.faces()
        bnd = [role_tag(m, m.dart_vertex[d]) for d in orbit
               if m.dart_vertex[d] < 2 * m.n]
        k = bnd.index(("src", 1))
        bnd = bnd[k:] + bnd[:k]
        assert bnd == [("src", 1), ("src", 2), ("snk", 2), ("snk", 1)]

    def test_geometry_sides(self):
        m, geom = oracle_to_map(generator_web(2, 1))
        u = next(v for v in m.internal_vertices() if m.is_sink(v))
        left_edges, right_edges = geom.vertex_sides[u]
        assert len(left_edges) == 2 and len(right_edges) == 1

    def test_position_matters(self):
        assert web(generator_web(3, 1)) != web(generator_web(3, 2))
        assert web(generator_web(2, 1)) != web(identity_web(2))

    def test_bad_position(self):
        with pytest.raises(WebError):
            generator_web(2, 2)
        with pytest.raises(WebError):
            generator_web(3, 0)


class TestSinkFlags:
    """is_sink, read off dart parity, agrees with the leg directions
    VERTEX_DIRS gives each tile."""

    def test_drawn_vertices(self):
        d = generator_web(3, 1)
        m = to_map(d)
        cols = [c for c in d.columns if c.tile in ("merge", "split")]
        assert len(cols) == m.internal_vertex_count == 2
        for v, c in zip(m.internal_vertices(), cols):
            assert VERTEX_DIRS[(c.tile, m.is_sink(v))] == c.dirs

    def test_rewrite_children(self):
        # a child's map is rebuilt from its parent's darts, not drawn; the
        # geometry of its drawing names each vertex's legs on its own ids
        from a2webs.spider import apply_rule, product_web

        w = product_web(3, (2, 1, 1, 2))
        children = [o.child for f in oracle_features(w) for o in apply_rule(w, f)]
        assert children
        for child in children:
            m, geom = child.pmap, oracle_geom(child)
            for v in m.internal_vertices():
                left, right = geom.vertex_sides[v]
                tile = "merge" if len(left) == 2 else "split"
                for e, flag in zip(left + right, VERTEX_DIRS[(tile, m.is_sink(v))]):
                    # R: the edge runs rightward, into v on its left side
                    assert (m.edges[e][1] == v) == ((flag == RIGHT) == (e in left))


class TestWiggle:
    # same map as generator_web(2, 1), drawn with a detour whose two
    # vertical tangencies cancel
    WIGGLE = SliceDiagram(2, (
        Column(1, "merge", (R, R, L)),
        Column(2, "cup", (R, L)),
        Column(1, "cap", (L, R)),
        Column(1, "split", (L, R, R)),
    ))

    def test_same_code(self):
        assert web(self.WIGGLE) == web(generator_web(2, 1))

    def test_turns_recorded_and_cancel(self):
        m, geom = oracle_to_map(self.WIGGLE)
        turned = [t for t in geom.edge_turns.values() if t]
        assert turned == [(-1, 1)] or turned == [(1, -1)]


def double_tripod_map():
    # two internal vertices: a sink absorbing all three sources and a
    # source feeding all three sinks; the two halves are not connected
    # edges (0, 6), (1, 6), (2, 6), (7, 3), (7, 4), (7, 5): edge e has
    # darts 2e at its tail and 2e + 1 at its head
    return PlanarMap(3, [[0], [2], [4], [7], [9], [11], [1, 3, 5], [8, 6, 10]])


def assert_geometry_on_own_ids(w):
    # every internal vertex of the web's map has its sides, and they
    # list exactly the edges the map attaches to it
    m = w.pmap
    geom = oracle_geom(w)
    assert set(geom.vertex_sides) == set(m.internal_vertices())
    for v, (left, right) in geom.vertex_sides.items():
        ends = [e for e, (a, b) in enumerate(m.edges) for x in (a, b) if x == v]
        assert sorted(left + right) == sorted(ends)


class TestRender:
    def test_double_tripod_roundtrip(self):
        m = double_tripod_map()
        w = Web.from_map(m)
        # reading the drawing renders it and runs the round-trip check
        assert Web.from_slice(w.diagram) == w
        assert_geometry_on_own_ids(w)
        assert w.pmap.internal_vertex_count == 2
        assert len(w.pmap.edges) == 6

    def test_two_column_web(self):
        d = concatenate(generator_web(3, 1), generator_web(3, 2))
        w = web(d)
        w2 = Web.from_map(w.pmap)
        assert Web.from_slice(w2.diagram) == w
        assert_geometry_on_own_ids(w2)

    def test_loops_refused(self):
        m = to_map(circle_diagram())
        with pytest.raises(WebError):
            render(m)

    def test_a_long_product_draws_in_bounded_depth(self):
        # 300 vertices to place; one frame per vertex would overrun the limit
        from a2webs.spider import product_web

        code = product_web(2, (1,) * 150).code
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            w = Web.from_code(code)
            columns = w.diagram.columns
        finally:
            sys.setrecursionlimit(limit)
        assert w.code == code
        assert len(columns) == 300


def rewrite_children(starts):
    """Every web that some sequence of rewrites reaches from starts, by
    code, each as the child Web the first rewrite to reach it made."""
    from a2webs.spider import apply_rule

    webs, work = {}, list(starts)
    while work:
        w = work.pop()
        for feature in oracle_features(w):
            for o in apply_rule(w, feature):
                if o.child.code not in webs:
                    webs[o.child.code] = o.child
                    work.append(o.child)
    return webs


def sweep_corpus():
    """Irreducible webs on 2-5 strands, the rewrite descendants of
    seeded products on 2-6 strands, and the webs uncrossed from seeded
    random networks, every other one with its entries and exits moved
    inside the drawing: one web per code."""
    from a2webs.immanants import irreducible_webs
    from a2webs.networks import covering_markings, random_planar_network, uncross
    from a2webs.spider import product_web
    from test_networks import displaced

    rng = random.Random(SEED + 32)
    webs = {w.code: w for n in range(2, 6) for w in irreducible_webs(n)}
    webs.update(rewrite_children([
        product_web(n, [rng.randrange(1, n) for _ in range(rng.randint(2, 7))])
        for n in range(2, 7)
        for _ in range(10)
    ]))
    for k in range(80):
        net = random_planar_network(rng.randint(2, 4), rng, steps=rng.randint(1, 4))
        if k % 2:
            net = displaced(net, rng)
        for marks in covering_markings(net) if net is not None else ():
            try:
                w = uncross(net, marks)
            except WebError:  # a displaced entry or exit may leave no room
                continue
            webs.setdefault(w.code, w)
    return list(webs.values())


def mutated_corpus():
    """Each web of sweep_corpus() without its loops, as (map, mutated):
    the map itself, then with one internal rotation reversed, or with
    two sources or two sinks swapped."""
    out = []
    for w in sweep_corpus():
        m = w.pmap.without_loops()
        out.append((m, False))
        rots = []
        for v in m.internal_vertices():
            rot = list(m.rot)
            rot[v] = rot[v][::-1]
            rots.append(rot)
        for side in (range(m.n), range(m.n, 2 * m.n)):
            for i in side:
                for j in side[side.index(i) + 1:]:
                    rot = list(m.rot)
                    rot[i], rot[j] = rot[j], rot[i]
                    rots.append(rot)
        out += [(PlanarMap(m.n, rot), True) for rot in rots]
    return out


def accepted(check, m):
    """Whether check(m) passes, as against raising WebError."""
    try:
        check(m)
    except WebError:
        return False
    return True


def sourceless(m):
    """Whether some component of m has no boundary source."""
    return any(min(verts) >= m.n for *_, verts in component_walks(m))


class TestSweep:
    # render draws in one sweep where it once searched; the search is
    # kept as oracle_render, and the drawings agree byte for byte, on
    # the 78 maps with a component that touches no source too
    def test_drawings_match_the_search(self):
        corpus = sweep_corpus()
        seeded = 0
        for w in corpus:
            m = w.pmap.without_loops()
            d = render(m)
            assert canonical_form(to_map(d)) == canonical_form(m)
            assert d == oracle_render(m)
            seeded += sourceless(m)
        assert (len(corpus), seeded) == (231, 78)

    # one rotation reversed, or two sinks swapped, in each web of the
    # corpus with at most four internal vertices: the sweep refuses
    # exactly the maps the search refused, and what it draws round-trips.
    # The 3,118 such maps of up to 16 internal vertices agree too, but
    # the search takes 30-50 s on them (2 cores)
    def test_refusals_match_the_search(self):
        def drawn(draw, m):
            try:
                d = draw(m)
            except WebError:
                return False
            assert canonical_form(to_map(d)) == canonical_form(m)
            return True

        counts = [0, 0]
        for w in sweep_corpus():
            m = w.pmap
            if m.internal_vertex_count > 4:
                continue
            rots = []
            for v in m.internal_vertices():
                rot = list(m.rot)
                rot[v] = rot[v][::-1]
                rots.append(rot)
            for i in range(m.n, 2 * m.n):
                for j in range(i + 1, 2 * m.n):
                    rot = list(m.rot)
                    rot[i], rot[j] = rot[j], rot[i]
                    rots.append(rot)
            for rot in rots:
                ok = drawn(render, PlanarMap(m.n, rot))
                assert ok == drawn(oracle_render, PlanarMap(m.n, rot))
                counts[ok] += 1
        assert counts == [863, 45]

    # the turn check refuses exactly the maps render cannot draw: of the
    # 5,087 maps of the mutated corpus, the 231 webs included, render
    # draws 363
    def test_the_turn_check_accepts_what_render_draws(self):
        counts = [0, 0]
        for m, _ in mutated_corpus():
            ok = accepted(edge_turns, m)
            assert ok == accepted(render, m), canonical_form(m)
            counts[ok] += 1
        assert counts == [4724, 363]

    # Web.from_code checks a code by its map: with render made to raise,
    # it still reads every web of the corpus and refuses each mutated
    # map that render cannot draw
    def test_from_code_draws_nothing(self, monkeypatch):
        maps = mutated_corpus()
        drawn = [accepted(render, m) for m, _ in maps]

        def no_drawing(m):
            raise AssertionError("Web.from_code drew a map")

        monkeypatch.setattr(webcore, "render", no_drawing)
        read = [accepted(Web.from_code, canonical_form(m)) for m, _ in maps]
        assert read == drawn
        assert all(ok for (_, mutated), ok in zip(maps, read) if not mutated)
        assert (sum(read), len(read)) == (363, 5087)

    def test_a_long_code_with_no_drawing_is_refused(self):
        # 60 internal vertices with one rotation reversed, past the
        # oracle's reach: it runs for minutes on a third as many
        from a2webs.spider import product_web

        rng = random.Random(SEED + 33)
        m = product_web(4, [rng.randrange(1, 4) for _ in range(30)]).pmap
        mid = 2 * m.n + m.internal_vertex_count // 2
        rot = list(m.rot)
        rot[mid] = rot[mid][::-1]
        code = canonical_form(PlanarMap(m.n, rot))
        assert len(rot) - 2 * m.n == 60
        with pytest.raises(WebError, match="no slice drawing"):
            Web.from_code(code)


class TestComponentWalks:
    # every rewrite descendant of seeded products on 3-5 strands and of
    # E1 E2 E1 E1 E1 E2 E1, the shortest product on 3 strands with a
    # closed component of four vertices among its descendants.  Two of
    # that component's darts give equal blocks; numbered backwards, as
    # each map also is, the tie goes to the first in vertex order
    def test_walks_match_the_union_find(self):
        from a2webs.spider import product_web

        rng = random.Random(SEED + 30)
        webs = rewrite_children([product_web(3, (1, 2, 1, 1, 1, 2, 1))] + [
            product_web(n, [rng.randrange(1, n) for _ in range(rng.randint(2, 8))])
            for n in (3, 4, 5)
            for _ in range(15)
        ])
        closed = sink_only = 0
        for w in webs.values():
            m = w.pmap
            lows = [min(c) for c in oracle_components(m)]
            closed += any(low >= 2 * m.n for low in lows)
            sink_only += any(m.n <= low < 2 * m.n for low in lows)
            flipped = PlanarMap(m.n, m.rot[: 2 * m.n] + m.rot[: 2 * m.n - 1 : -1], m.loops)
            for m in (m, flipped):
                comps = sorted((set(verts) for *_, verts in component_walks(m)), key=min)
                assert comps == oracle_components(m)
                roots = oracle_roots(m)
                where = {d: fi for fi, orbit in enumerate(m.faces()) for d in orbit}
                assert m.outer_face_indices() == {where[outer] for *_, outer in roots}
                assert canonical_edge_order(m) == tuple(e for _, eorder, _, _ in roots for e in eorder)
        assert (len(webs), closed, sink_only) == (309, 4, 97)

    # the edge orders and roots a map keeps from its first walk, read by
    # the outer faces, the edge order and render, against a fresh map
    # of the same rotations and against the oracle, which tries every
    # dart of a closed component where the library tries only sinks'
    def test_kept_walks_match_a_fresh_map(self):
        from a2webs.networks import PlanarNetwork, covering_markings, uncross
        from a2webs.spider import product_web

        rng = random.Random(SEED + 31)
        webs = list(rewrite_children(
            product_web(n, [rng.randrange(1, n) for _ in range(rng.randint(2, 8))])
            for n in (3, 4, 5)
            for _ in range(15)
        ).values())
        lines = (Path(__file__).parents[1] / "perfbench" / "networks.jsonl").read_text().splitlines()
        for line in lines:
            net = PlanarNetwork.from_json_obj(json.loads(line))
            webs += [uncross(net, marks) for marks in covering_markings(net)]
        closed = 0
        for w in webs:
            m = w.pmap
            kept = m._walks
            fresh = PlanarMap(m.n, m.rot, m.loops)
            walks = component_walks(fresh)
            roots = oracle_roots(m)
            assert kept == tuple((root, *eorder) for _, eorder, root, _ in walks)
            assert kept == tuple((root, *eorder) for _, eorder, root, _ in roots)
            where = {d: fi for fi, orbit in enumerate(m.faces()) for d in orbit}
            outer = {where[d] for *_, d in roots}
            assert m.outer_face_indices() == PlanarMap(m.n, m.rot, m.loops).outer_face_indices() == outer
            assert w.code == canonical_form(fresh) == oracle_code(m)
            closed += any(m.dart_vertex[root] >= 2 * m.n for root, *_ in kept)
        assert (len(webs), closed) == (1917, 225)


def circle_diagram():
    # one strand plus a free circle below it
    return SliceDiagram(1, (
        Column(2, "cup", (R, L)),
        Column(2, "cap", (R, L)),
    ))


class TestLoops:
    def test_circle_counts_as_loop(self):
        m, geom = oracle_to_map(circle_diagram())
        assert m.loops == 1
        assert m.internal_vertex_count == 0
        assert len(m.edges) == 1
        assert geom.loop_turns == ((1, 1),)

    def test_loop_changes_code(self):
        m = to_map(circle_diagram())
        mid = to_map(identity_web(1))
        assert canonical_form(m) != canonical_form(mid)


class TestValidation:
    def test_crossing_strands_rejected(self):
        # edges (0, 3) and (1, 2)
        m = PlanarMap(2, [[0], [2], [3], [1]])
        with pytest.raises(WebError, match="no slice drawing"):
            Web.from_map(m).diagram

    @pytest.mark.parametrize("rot", [[[0], []], [[0], [3]], [[0], [-1]]])
    def test_missing_dart(self, rot):
        with pytest.raises(WebError, match="dart 1 missing from rotations"):
            PlanarMap(1, rot)

    def test_dart_listed_twice(self):
        with pytest.raises(WebError, match="dart 0 listed twice"):
            PlanarMap(1, [[0], [0]])

    @pytest.mark.parametrize("rot, message", [
        ([[0], [1.0]], "dart 1.0 is not an int"),
        ([[0], ["1"]], "dart '1' is not an int"),
        ([[0], [5.0]], "dart 5.0 is not an int"),
    ])
    def test_a_dart_that_is_no_int(self, rot, message):
        with pytest.raises(WebError) as err:
            PlanarMap(1, rot)
        assert str(err.value) == message

    @pytest.mark.parametrize("dirs", ["RL", ["R", "L"]])
    def test_column_dirs_must_be_a_tuple(self, dirs):
        with pytest.raises(WebError) as err:
            Column(1, "cup", dirs)
        assert str(err.value) == f"dirs {dirs!r} for cup must be a tuple"

    def test_edge_with_both_ends_at_one_vertex(self):
        # edge 1 runs from vertex 2 round to itself
        with pytest.raises(WebError, match="edge with both ends at vertex 2"):
            PlanarMap(1, [[0], [1], [2, 3, 4], [5, 6, 7]])

    def test_wrong_degree(self):
        with pytest.raises(WebError, match="vertex 2 has degree 2, wants 3"):
            PlanarMap(1, [[0], [3], [1, 2]])
        with pytest.raises(WebError, match="vertex 1 has degree 2, wants 1"):
            PlanarMap(1, [[0], [1, 3], [2]])

    def test_vertex_mixing_heads_and_tails(self):
        # a bigon whose two edges both run from vertex 2 to vertex 3, so
        # the strand passes through: each vertex has one edge in and two
        # out, or two in and one out
        with pytest.raises(WebError, match="vertex 2 mixes edge heads and tails"):
            PlanarMap(1, [[0], [7], [1, 2, 4], [3, 5, 6]])

    def test_boundary_source_holding_a_head(self):
        # the double tripod with its sources fed by an internal source
        with pytest.raises(WebError, match="boundary source 0 holds an edge head"):
            PlanarMap(3, [[1], [3], [5], [7], [9], [11], [0, 2, 4], [8, 6, 10]])

    def test_boundary_sink_holding_a_tail(self):
        # the double tripod with its sinks draining into an internal sink:
        # while every source holds a tail, heads and tails balance only
        # when the sinks holding tails number a multiple of three
        with pytest.raises(WebError, match="boundary sink 3 holds an edge tail"):
            PlanarMap(3, [[0], [2], [4], [6], [8], [10], [1, 3, 5], [9, 7, 11]])

    # which refusal comes first, where a map or a diagram has two faults
    def test_a_dart_listed_twice_before_a_degree(self):
        # vertex 2 has degree 2, and vertex 3 lists dart 4 twice
        with pytest.raises(WebError) as err:
            PlanarMap(1, [[0], [3], [1, 2], [4, 5, 4]])
        assert str(err.value) == "dart 4 listed twice"

    def test_a_boundary_source_before_a_later_mixed_vertex(self):
        # source 0 holds a head, sink 5 a tail, and vertex 7 mixes them
        with pytest.raises(WebError) as err:
            PlanarMap(3, [[1], [3], [5], [7], [9], [10], [0, 2, 4], [8, 6, 11]])
        assert str(err.value) == "boundary source 0 holds an edge head"

    def test_a_sink_before_a_later_degree(self):
        with pytest.raises(WebError) as err:
            PlanarMap(1, [[0], [2], [1, 3]])
        assert str(err.value) == "boundary sink 1 holds an edge tail"

    @pytest.mark.parametrize("cols, message", [
        ((Column(1, "merge", (R, L, L)), Column(5, "cap", (R, L))),
         "column 0: leg directions disagree with incoming wires"),
        ((Column(3, "cap", (R, L)), Column(1, "merge", (R, L, L))), "column 0: position 3 out of range"),
        ((Column(1, "cup", (R, L)), Column(1, "merge", (R, L, R)), Column(9, "cap", (R, L))),
         "column 1: vertex is neither all-in nor all-out"),
        ((Column(1, "split", (R, L, L)), Column(1, "cap", (L, L))),
         "column 1: cap legs must run in opposite senses"),
        ((Column(1, "split", (R, L, L)), Column(2, "cap", (L, R))), "diagram ends with 1 wires, expected 2"),
    ])
    def test_a_diagram_with_two_bad_columns_names_the_first(self, cols, message):
        with pytest.raises(WebError) as err:
            to_map(SliceDiagram(2, cols))
        assert str(err.value) == message

    def test_edge_into_source_rejected(self):
        # one edge from source 1 into source 2
        with pytest.raises(WebError):
            PlanarMap(2, [[0], [1], [], []])

    def test_merge_direction_mismatch(self):
        with pytest.raises(WebError):
            to_map(SliceDiagram(2, (Column(1, "merge", (R, L, L)),)))

    def test_vertex_orientation_mismatch(self):
        bad = SliceDiagram(1, (
            Column(2, "cup", (R, L)),
            Column(2, "merge", (R, L, R)),
        ))
        with pytest.raises(WebError):
            to_map(bad)

    def test_wrong_final_wire_count(self):
        with pytest.raises(WebError):
            to_map(SliceDiagram(2, (Column(1, "cup", (R, L)),)))

    def test_cup_same_direction(self):
        with pytest.raises(WebError):
            Column(1, "cup", (R, R)) and to_map(
                SliceDiagram(1, (Column(1, "cup", (R, R)),)))

    def test_decode_rejects_junk(self):
        code = list(web(generator_web(2, 1)).code)
        code[3] += 1
        with pytest.raises(WebError):
            decode_code(code)


class TestCodes:
    FUZZ_ACCEPTED = 1331
    FUZZ_SHA256 = "2a4bc39eeefb5994ff7d503e6dfe21273fb4f5584cd00beef4dee0f58b0e3154"

    def test_decode_many(self):
        diagrams = [
            identity_web(1),
            identity_web(3),
            generator_web(2, 1),
            generator_web(4, 2),
            concatenate(generator_web(3, 1), generator_web(3, 2)),
            TestWiggle.WIGGLE,
        ]
        for d in diagrams:
            w = web(d)
            m2 = decode_code(w.code)
            assert canonical_form(m2) == w.code

    def test_from_code(self):
        w = web(concatenate(generator_web(3, 2), generator_web(3, 1)))
        assert Web.from_code(w.code) == w

    def test_from_code_encodes_once(self, monkeypatch):
        # decode_code's check that the map encodes back to the code is
        # the only encoding; the web keeps the checked code
        encode = webcore.canonical_form
        calls = []
        monkeypatch.setattr(webcore, "canonical_form", lambda m: calls.append(m) or encode(m))
        from a2webs.spider import product_web

        rng = random.Random(48)
        webs = [web(identity_web(1))]
        webs += [product_web(n, [rng.randrange(1, n) for _ in range(6)]) for n in (2, 3, 4)]
        for w in webs:
            calls.clear()
            got = Web.from_code(list(w.code))
            assert len(calls) == 1 and got == w and type(got.code) is tuple

    def test_from_code_and_the_weight_share_one_turn_solve(self, monkeypatch):
        # the turns that check a code are kept on its map, and the
        # labeling weight reads them there; a map with no drawing keeps
        # nothing and is refused by the same message on every read
        from a2webs import labelings
        from a2webs.spider import product_web

        solve = webcore.edge_turns
        calls = []

        def counting(m):
            calls.append(m)
            return solve(m)

        monkeypatch.setattr(webcore, "edge_turns", counting)
        monkeypatch.setattr(labelings, "edge_turns", counting, raising=False)
        rng = random.Random(50)
        for n in (2, 3, 4):
            w = product_web(n, [rng.randrange(1, n) for _ in range(6)])
            g = labelings.boundary_restriction(w, min(labelings.enumerate_labelings(w)))
            calls.clear()
            got = Web.from_code(list(w.code))
            count = labelings.weighted_count(got, g)
            assert len(calls) == 1 and calls[0] is got.pmap
            assert count == labelings.weighted_count(w, g) and not count.is_zero()
        m = canonical_form(PlanarMap(2, [[0], [2], [3], [1]]))
        calls.clear()
        for _ in range(2):
            with pytest.raises(WebError, match=webcore.NO_DRAWING):
                Web.from_code(m)
        assert len(calls) == 2

    def test_from_code_refuses_a_code_with_no_drawing(self):
        # two strands that cross: the code decodes, but no drawing exists
        m = PlanarMap(2, [[0], [2], [3], [1]])
        decode_code(canonical_form(m))
        with pytest.raises(WebError):
            Web.from_code(canonical_form(m))

    @pytest.mark.parametrize("k, bad", [(0, 2.7), (0, "2"), (7, 3.0), (7, "3")])
    def test_from_code_refuses_an_entry_that_is_no_int(self, k, bad):
        # read through int(), 2.7 in place of the header's 2 gave E1
        code = list(web(generator_web(2, 1)).code)
        code[k] = bad
        with pytest.raises(WebError, match=f"not an integer: {bad!r}"):
            Web.from_code(code)
        with pytest.raises(WebError, match="not an integer"):
            decode_code(code)

    def test_decode_refuses_negative_edge_numbers(self):
        with pytest.raises(WebError, match="negative edge number"):
            decode_code((1, 0, 1, 6, 1, 1, -1, 2, 1, -1))

    def test_decode_refuses_a_short_code_before_building(self):
        # 2n boundary vertices need a record of at least 3 ints each
        with pytest.raises(WebError, match="too short"):
            decode_code((10**6, 0, 0))

    def test_huge_edge_number_is_refused_before_allocating(self):
        # one edge list slot per edge number: 10**12 would exhaust memory
        with pytest.raises(WebError, match="edge number 1000000000000 out of range"):
            decode_code((1, 0, 1, 6, 1, 1, 0, 2, 1, 10**12))

    def test_decode_fuzz(self):
        """Random short codes, and real codes with one entry changed or
        one value renamed past the header, entries in -2..6: each one
        decodes to a map whose code it is, or raises WebError.  The count
        and sha256 of the accepted codes pin which codes the decoder
        accepts; they were recorded while maps still stored vertex roles
        and edge ends beside their rotations."""
        rng = random.Random(2)
        diagrams = [
            identity_web(1),
            identity_web(3),
            generator_web(2, 1),
            generator_web(4, 2),
            concatenate(generator_web(3, 1), generator_web(3, 2)),
        ]
        real = [web(d).code for d in diagrams]
        decoded, digest = 0, hashlib.sha256()
        for _ in range(20000):
            if rng.random() < 0.5:
                code = [rng.randint(-2, 6) for _ in range(rng.randint(0, 24))]
            else:
                code = list(rng.choice(real))
                i, x = rng.randrange(len(code)), rng.randint(-2, 6)
                if rng.random() < 0.5:
                    code[i] = x
                else:
                    code = code[:3] + [x if v == code[i] else v for v in code[3:]]
            try:
                m = decode_code(code)
            except WebError:
                continue
            assert canonical_form(m) == tuple(code), code
            digest.update(repr(tuple(code)).encode())
            decoded += 1
        assert decoded == self.FUZZ_ACCEPTED
        assert digest.hexdigest() == self.FUZZ_SHA256


def drawing_record(d):
    """Everything the drawing route of the weight reads off one drawing
    (oracle_to_map), as text.  Its map is the library's."""
    m, g = oracle_to_map(d)
    assert (to_map(d).rot, to_map(d).loops) == (m.rot, m.loops)
    return repr((
        d.columns, tuple(role_tag(m, v) for v in range(len(m.rot))), m.rot, m.edges, m.loops,
        sorted(g.vertex_sides.items()), sorted(g.edge_turns.items()), g.loop_turns,
    ))


class TestDrawingDigest:
    # sha256 over the drawings render makes and over what oracle_to_map reads
    # off each of them.  SALT0 covers render's drawing and each web's own
    # drawing, unchanged since to_map stitched tagged terminals and render
    # kept one branch per kind of move
    SALT0 = "df7d26d38f36da70c5eaed3db0e2dde28285c18dce0681273a2f7fc0adf476c8"

    def test_drawings_are_pinned(self):
        from a2webs.networks import covering_markings, random_planar_network, uncross
        from a2webs.spider import apply_rule, product_web

        rng = random.Random(20261018)
        starts = [
            product_web(n, [rng.randrange(1, n) for _ in range(rng.randint(2, 7))])
            for n in (2, 3, 4, 5)
            for _ in range(8)
        ]
        webs, seen, work = [], set(), list(starts)
        while work:
            w = work.pop()
            webs.append(w)
            for feature in oracle_features(w):
                for o in apply_rule(w, feature):
                    if o.child.code not in seen:
                        seen.add(o.child.code)
                        work.append(o.child)
        for _ in range(80):
            net = random_planar_network(rng.randint(1, 4), rng, steps=rng.randint(1, 4))
            webs += [uncross(net, marks) for marks in covering_markings(net)]
        plain = hashlib.sha256()
        for w in webs:
            plain.update(drawing_record(render(w.pmap.without_loops())).encode())
            plain.update(drawing_record(w.diagram).encode())
        assert len(webs) > 300
        assert any(w.pmap.loops for w in webs)
        assert plain.hexdigest() == self.SALT0


def random_slice_diagram(n, rng, steps):
    """A random drawing on n strands: steps random tiles, each one that
    fits the wires it meets, then tiles that close the wires down to n
    rightward strands."""
    wires = [R] * n
    cols = []

    def put(p, tile, dirs):
        used = {"merge": 2, "split": 1, "cup": 0, "cap": 2}[tile]
        cols.append(Column(p + 1, tile, dirs))
        wires[p : p + used] = dirs[used:]

    def vertex(p, tile):
        # the one vertex whose legs agree with the wires at p
        sink = {"merge": (R, R, L), "split": (R, L, L)}[tile]
        source = {"merge": (L, L, R), "split": (L, R, R)}[tile]
        used = 2 if tile == "merge" else 1
        put(p, tile, sink if tuple(wires[p : p + used]) == sink[:used] else source)

    for _ in range(steps):
        k = len(wires)
        moves = [("cup", p) for p in range(k + 1)] if k < n + 4 else []
        moves += [("split", p) for p in range(k)] if k < n + 4 else []
        moves += [("merge", p) for p in range(k - 1) if wires[p] == wires[p + 1]]
        moves += [("cap", p) for p in range(k - 1) if wires[p] != wires[p + 1]]
        tile, p = rng.choice(moves)
        if tile == "cup":
            put(p, "cup", rng.choice([(R, L), (L, R)]))
        elif tile == "cap":
            put(p, "cap", (wires[p], wires[p + 1]))
        else:
            vertex(p, tile)
    # close: an L wire meets its neighbour in a cap or a source; then
    # surplus R wires merge into an L, and missing ones come from a cup
    # whose L leg splits into two R wires
    while len(wires) != n or L in wires:
        if L in wires:
            if len(wires) == 1:
                vertex(0, "split")
                continue
            p = rng.choice([p for p in range(len(wires) - 1) if L in wires[p : p + 2]])
            if wires[p] == wires[p + 1]:
                vertex(p, "merge")
            else:
                put(p, "cap", (wires[p], wires[p + 1]))
        elif len(wires) > n:
            vertex(rng.randrange(len(wires) - 1), "merge")
        else:
            p = rng.randrange(len(wires) + 1)
            put(p, "cup", (R, L))
            vertex(p + 1, "split")
    return SliceDiagram(n, tuple(cols))


class TestRandomDrawings:
    def test_to_map_code_draw_to_map(self):
        # a random drawing's code survives decoding and drawing again,
        # and the drawn geometry sits on the map's own ids
        rng = random.Random(20261019)
        shapes = set()
        for _ in range(300):
            n = rng.randint(1, 4)
            d = random_slice_diagram(n, rng, rng.randint(0, 12))
            m = to_map(d)
            code = canonical_form(m)
            w = Web.from_map(decode_code(code))
            assert canonical_form(to_map(w.diagram)) == code
            assert_geometry_on_own_ids(w)
            shapes.add((m.loops > 0, len(component_walks(m)) > n))
        assert shapes == {(False, False), (False, True), (True, False), (True, True)}
