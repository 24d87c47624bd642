import hashlib
import random
import sys

import pytest

from a2webs import clear_caches, spider, webcore
from a2webs.exactmath import LaurentPoly, qint
from a2webs.immanants import irreducible_webs
from a2webs.labelings import boundary_profile, profile_product, transport_and_type
from a2webs.perms import all_perms, all_reduced_words, first_reduced_word
from a2webs.spider import (
    WebCombo,
    all_orders_agree,
    apply_rule,
    generator_combo,
    hecke_generator,
    hecke_image,
    product_web,
    reduce_web,
    relation_suite,
    second_generator,
    second_generator_combo,
    web_product,
)
from a2webs.webcore import (
    Column,
    SliceDiagram,
    Web,
    concatenate,
    generator_web,
    identity_web,
)
from oracles import (
    TLCombo,
    flip,
    hecke_fold,
    oracle_features,
    oracle_geom,
    oracle_second_generator,
    oracle_sites,
    profile_sum,
    redrawn,
    reduce_random_order,
    tl_generator_combo,
    tl_product,
    turn,
)

SEED = 20260816


def gweb(n, i):
    return Web.from_slice(generator_web(n, i))


def with_loops(w, loops):
    """w with the given number of loops drawn below its strands, one
    cup/cap pair at position n + 1 each, as Web.diagram draws them."""
    pair = (Column(w.n + 1, "cup", ("R", "L")), Column(w.n + 1, "cap", ("R", "L")))
    return Web.from_slice(SliceDiagram(w.n, w.diagram.columns + pair * loops))


def sites(w):
    """The rewrite sites of w's host, in rule priority."""
    return spider.rewrite_sites(w)[1]


class TestFeatures:
    def test_identity_is_irreducible(self):
        assert sites(Web.from_slice(identity_web(3))) == ()

    def test_generator_is_irreducible(self):
        assert not sites(gweb(3, 1))

    def test_double_generator_has_bigon(self):
        assert [f[0] for f in sites(product_web(2, (1, 1)))] == ["bigon"]

    def test_triple_product_has_square(self):
        assert [f[0] for f in sites(product_web(3, (1, 2, 1)))] == ["square"]

    def test_drawn_loop_takes_priority(self):
        circle = SliceDiagram(2, (
            Column(2, "cup", ("R", "L")),
            Column(2, "cap", ("R", "L")),
        ))
        w = Web.from_slice(concatenate(circle, generator_web(2, 1)))
        assert sites(w) == (("loop",),)


class TestLoopRule:
    def test_circle_gives_three_units(self):
        circle = SliceDiagram(1, (
            Column(2, "cup", ("R", "L")),
            Column(2, "cap", ("R", "L")),
        ))
        combo = reduce_web(Web.from_slice(circle))
        [(w, coeff)] = combo.terms()
        assert w == Web.from_slice(identity_web(1))
        assert coeff == qint(3)


class TestBigonRule:
    def test_generator_squared(self):
        combo = reduce_web(product_web(2, (1, 1)))
        [(w, coeff)] = combo.terms()
        assert w == gweb(2, 1)
        assert coeff == qint(2)

    def test_combo_product_matches(self):
        e = generator_combo(3, 2)
        assert e * e == e.scale(qint(2))


def reduce_with_lowered_limit(w):
    """reduce_web(w) with the recursion limit 50 frames above the caller."""
    frame, here = sys._getframe(), 0
    while frame:
        frame, here = frame.f_back, here + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(here + 50)
    try:
        return reduce_web(w)
    finally:
        sys.setrecursionlimit(limit)


class TestReductionDepth:
    def test_a_long_product_reduces_in_bounded_depth(self):
        # 99 bigon steps; one frame per step would overrun the lowered limit
        clear_caches()
        combo = reduce_with_lowered_limit(product_web(2, (1,) * 100))
        assert combo == generator_combo(2, 1).scale(qint(2) ** 99)

    def test_a_transported_product_reduces_in_bounded_depth(self):
        # label transport steps all 99 bigons first, without reducing
        clear_caches()
        w = product_web(2, (1,) * 100)
        # each vertex: its two strand legs take 1 (top) and 2, its middle edge 3
        lab = [0] * len(w.pmap.edges)
        for left, right in oracle_geom(w).vertex_sides.values():
            (middle,), pair = (right, left) if len(left) == 2 else (left, right)
            lab[pair[0]], lab[pair[1]], lab[middle] = 1, 2, 3
        ty, _ = transport_and_type(w, tuple(lab))
        assert ty == gweb(2, 1)
        combo = reduce_with_lowered_limit(w)
        assert combo == generator_combo(2, 1).scale(qint(2) ** 99)


class TestWorklist:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_each_web_is_stepped_once(self, n, monkeypatch):
        rng = random.Random(n)
        step = spider.rewrite_step
        calls = []
        monkeypatch.setattr(spider, "rewrite_step", lambda w: calls.append(w) or step(w))
        shared = False
        for _ in range(3):
            w = product_web(n, [rng.randrange(1, n) for _ in range(3 * n)])
            clear_caches()
            calls.clear()
            reduce_web(w)
            assert len(calls) == spider.rewrite_sites.cache_info().misses
            assert reduce_web.cache_info().currsize == 1

            # only a square branches, so more paths than webs below w
            # means the two resolutions of some square meet again
            paths = {}
            for x in reversed(calls):
                paths[x] = 1 + sum(paths[o.child] for o in step(x)[1])
            shared |= paths[w] > len(calls)
        assert shared or n == 2


class TestRewriteSites:
    def test_each_site_is_rewritten_once(self, monkeypatch):
        # reduce_web, the every-site check and five random orders per
        # product share one memo per (code, site): apply_rule sees no
        # pair twice
        rng = random.Random(SEED + 5)
        rule = spider.apply_rule
        calls = []
        monkeypatch.setattr(spider, "apply_rule", lambda w, f: calls.append((w.code, f)) or rule(w, f))
        clear_caches()
        for _ in range(20):
            n = rng.randint(2, 4)
            w = product_web(n, [rng.randrange(1, n) for _ in range(rng.randint(1, 8))])
            base = reduce_web(w)
            assert all_orders_agree(w)
            for _ in range(5):
                assert reduce_random_order(w, rng) == base
        assert len(calls) == len(set(calls)) > 50
        assert len(calls) == spider.rewrite_at.cache_info().misses

    def test_sites_follow_the_rule_priority(self):
        # on every web reachable through any site from seeded products,
        # the in-order scan gives the sites of the sort into rule priority
        rng = random.Random(SEED + 6)
        clear_caches()
        work = []
        for i in range(200):
            n = rng.randint(2, 5)
            w = product_web(n, [rng.randrange(1, n) for _ in range(rng.randint(1, 8))])
            # every tenth product with a loop drawn below it
            work.append(with_loops(w, 1) if i % 10 == 0 else w)
        seen = set(work)
        kinds = set()
        while work:
            host, got = spider.rewrite_sites(work.pop())
            assert got == oracle_sites(host)
            kinds.update(f[0] for f in got)
            for k in range(len(got)):
                for o in spider.rewrite_at(host, k):
                    if o.child not in seen:
                        seen.add(o.child)
                        work.append(o.child)
        assert len(seen) == 745 and kinds == {"loop", "bigon", "square"}


class TestTripleProduct:
    def test_reduction_support(self):
        combo = reduce_web(product_web(3, (1, 2, 1)))
        assert len(combo.terms()) == 2
        assert combo.coeff(gweb(3, 1)) == LaurentPoly.one()
        d2 = second_generator(3, 1)
        assert combo.coeff(d2) == LaurentPoly.one()

    def test_trace_is_one_square_step(self):
        host, (feature,) = spider.rewrite_sites(product_web(3, (1, 2, 1)))
        assert feature[0] == "square"
        outcomes = apply_rule(host, feature)
        assert len(outcomes) == 2
        children = {o.child for o in outcomes}
        assert children == {gweb(3, 1), second_generator(3, 1)}
        for o in outcomes:
            assert o.coeff == LaurentPoly.one()
            assert not sites(o.child)

    def test_second_generator_shape(self):
        d2 = second_generator(3, 1)
        assert d2.pmap.internal_vertex_count == 2
        assert len(d2.pmap.edges) == 6
        assert len(webcore.component_walks(d2.pmap)) == 2
        assert d2 not in (gweb(3, 1), gweb(3, 2))

    def test_both_routes_agree(self):
        lo = reduce_web(product_web(4, (2, 3, 2))) - generator_combo(4, 2)
        hi = reduce_web(product_web(4, (3, 2, 3))) - generator_combo(4, 3)
        assert lo == hi

    @pytest.mark.parametrize("n", range(3, 8))
    def test_drawn_d2_is_the_reduced_one(self, n):
        # second_generator draws D2; the oracle reduces both triple
        # products, and render draws its web in the same four columns.
        # Empty memos make the oracle's web the reduction's own child.
        clear_caches()
        for i in range(1, n - 1):
            d2, want = second_generator(n, i), oracle_second_generator(n, i)
            assert d2 == want
            assert d2.diagram == want.diagram


class TestRewriteChildren:
    # rewriting never draws, so draw every child here: oracle_geom
    # renders the child's map and runs the drawing round-trip check
    def test_every_child_is_valid_and_drawable(self):
        rng = random.Random(SEED)
        circle = SliceDiagram(2, (
            Column(2, "cup", ("R", "L")),
            Column(2, "cap", ("R", "L")),
        ))
        starts = [Web.from_slice(concatenate(circle, generator_web(2, 1)))]
        for n in (4, 5):
            for _ in range(6):
                word = [rng.randrange(1, n) for _ in range(rng.randint(4, 8))]
                starts.append(product_web(n, word))
        kinds = set()
        seen = set()
        work = list(starts)
        while work:
            w = work.pop()
            for feature in oracle_features(w):
                for o in apply_rule(w, feature):
                    kinds.add(feature[0])
                    assert set(oracle_geom(o.child).vertex_sides) == set(o.child.pmap.internal_vertices())
                    if o.child.code not in seen:
                        seen.add(o.child.code)
                        work.append(o.child)
        assert kinds == {"loop", "bigon", "square"}


class TestThetaCollapse:
    def test_second_generator_squared(self):
        d2 = second_generator(3, 1)
        prod = Web.from_slice(concatenate(d2.diagram, d2.diagram))
        [(w, coeff)] = reduce_web(prod).terms()
        assert w == d2
        assert coeff == qint(2) * qint(3)
        host, (feature, *_) = spider.rewrite_sites(prod)
        assert feature[0] == "bigon"
        (outcome,) = apply_rule(host, feature)
        assert sum(run[0] not in outcome.carry for run in outcome.runs) == 1

    def test_second_generator_combo_square(self):
        d2 = second_generator_combo(3, 1)
        assert d2 * d2 == d2.scale(qint(2) * qint(3))


class TestFourStrandExample:
    def test_mixed_product(self):
        # the residual web here is a basis element that is not a
        # monomial in the generators
        d22 = second_generator(4, 2)
        prod = Web.from_slice(
            concatenate(
                generator_web(4, 2),
                concatenate(generator_web(4, 1), d22.diagram),
            )
        )
        combo = reduce_web(prod)
        assert len(combo.terms()) == 2
        assert combo.coeff(d22) == LaurentPoly.one()
        [(other, coeff)] = [(w, c) for w, c in combo.terms() if w != d22]
        assert coeff == LaurentPoly.one()
        assert not sites(other)
        assert other.n == 4 and other != second_generator(4, 1)


class TestNoDrawing:
    def test_reduction_never_draws(self, monkeypatch):
        w = product_web(4, (1, 2, 3, 2, 1))
        want = reduce_web(w)

        def refuse(*args, **kwargs):
            raise AssertionError("the rewrite engine drew a web")

        clear_caches()
        monkeypatch.setattr(webcore, "render", refuse)
        assert reduce_web(w) == want
        assert spider.rewrite_at.cache_info().currsize > 1


def drawn_product(a, b):
    """a b by the drawn route: the drawings concatenated, then reduced."""
    return reduce_web(Web.from_slice(concatenate(a.diagram, b.diagram)))


# per n, the pairs (D, E_i) with D irreducible, and those the fork rule takes
FORK_PAIRS = {1: (0, 0), 2: (2, 1), 3: (12, 6), 4: (69, 33), 5: (412, 188), 6: (2565, 1125)}


class TestForkRule:
    # web_product(a, E_i) is [2] reduce_web(a) when a's sinks i and i+1
    # leave one internal vertex, read off a's map; it must equal the
    # drawn route wherever it applies
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_equals_the_drawn_route_on_every_irreducible_web(self, n):
        pairs = absorbed = 0
        for D in irreducible_webs(n):
            for i in range(1, n):
                E = gweb(n, i)
                pairs += 1
                if spider.fork_absorbs(D, E):
                    absorbed += 1
                    assert WebCombo(n, web_product(D, E)) == drawn_product(D, E) == reduce_web(D).scale(qint(2))
        assert (pairs, absorbed) == FORK_PAIRS[n]

    def test_only_a_generator_closes_a_fork(self):
        # every pair of irreducible webs for n <= 4: the rule takes only
        # (D, E_i) pairs, and each product equals the drawn route
        absorbed = 0
        for n in range(1, 5):
            webs = irreducible_webs(n)
            gens = {gweb(n, i) for i in range(1, n)}
            for a in webs:
                for b in webs:
                    if spider.fork_absorbs(a, b):
                        absorbed += 1
                        assert b in gens
                    assert WebCombo(n, web_product(a, b)) == drawn_product(a, b)
        assert absorbed == sum(FORK_PAIRS[n][1] for n in range(1, 5))

    def test_reducible_webs_with_and_without_loops(self):
        # seeded products of generators and D2s, each with a fork at the
        # last generator's strands, with up to two loops drawn below
        rng = random.Random(SEED + 57)
        absorbed = reducible = looped = 0
        for _ in range(60):
            n = rng.randint(2, 5)
            a = product_web(n, [rng.randrange(1, n) for _ in range(rng.randint(1, 6))])
            if n > 2 and rng.random() < 0.5:
                d = second_generator(n, rng.randrange(1, n - 1))
                a = Web.from_slice(concatenate(a.diagram, d.diagram))
            a = with_loops(a, rng.randint(0, 2))
            for i in range(1, n):
                E = gweb(n, i)
                if spider.fork_absorbs(a, E):
                    absorbed += 1
                    reducible += bool(sites(a))
                    looped += a.pmap.loops > 0
                    assert WebCombo(n, web_product(a, E)) == drawn_product(a, E) == reduce_web(a).scale(qint(2))
        assert (absorbed, reducible, looped) == (98, 96, 58)

    def test_the_rule_draws_nothing(self, monkeypatch):
        # webs read from their codes have no drawing, and the rule makes none
        clear_caches()
        webs = [Web.from_code(D.code) for D in irreducible_webs(4)]
        gens = [gweb(4, i) for i in range(1, 4)]

        def refuse(*args, **kwargs):
            raise AssertionError("the fork rule drew a web")

        monkeypatch.setattr(webcore, "render", refuse)
        monkeypatch.setattr(webcore, "to_map", refuse)
        products = [web_product(D, E) for D in webs for E in gens if spider.fork_absorbs(D, E)]
        assert len(products) == FORK_PAIRS[4][1]

    def test_strand_counts_that_differ_are_refused(self):
        with pytest.raises(webcore.WebError, match="strand counts differ: 3 vs 2"):
            web_product(product_web(3, (1,)), gweb(2, 1))
        with pytest.raises(webcore.WebError, match="strand counts differ: 2 vs 3"):
            web_product(gweb(2, 1), gweb(3, 1))


class TestProductWeb:
    def test_refuses_a_generator_that_is_no_integer(self):
        for word, quoted in (((1, "a"), "'a'"), ((1.0,), "1.0"), ((None,), "None")):
            with pytest.raises(webcore.WebError, match=f"not an integer: {quoted}"):
                product_web(2, word)

    def test_refuses_a_generator_out_of_range(self):
        with pytest.raises(webcore.WebError, match="generator position 2 out of range for n=2"):
            product_web(2, (1, 2))

    def test_a_long_generator_is_quoted_by_a_prefix(self):
        with pytest.raises(webcore.WebError) as err:
            product_web(2, ("9" * 5000,))
        assert len(str(err.value)) < 200 and "(5,000 characters)" in str(err.value)


class TestClosure:
    def test_three_strand_span_has_six_webs(self):
        seen = {Web.from_slice(identity_web(3)).code}
        frontier = [()]
        while frontier:
            word = frontier.pop()
            if len(word) >= 4:
                continue
            for i in (1, 2):
                nxt = word + (i,)
                for w, _ in reduce_web(product_web(3, nxt)).terms():
                    if w.code not in seen:
                        seen.add(w.code)
                frontier.append(nxt)
        assert len(seen) == 6


class TestRelations:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_suite_passes(self, n):
        for name, ok in relation_suite(n):
            assert ok, name

    def test_a_wrong_d2_fails_the_triple_product_row(self, monkeypatch):
        # the row checks both triple products against the drawn D2 itself
        monkeypatch.setattr(spider, "second_generator_combo", lambda n, i: generator_combo(n, i + 1))
        failed = [name for name, ok in relation_suite(3) if not ok]
        assert "E1 E2 E1 - E1 = E2 E1 E2 - E2 = D2_1" in failed

    def test_far_commutation(self):
        a, b = generator_combo(4, 1), generator_combo(4, 3)
        assert a * b == b * a

    def test_braid(self):
        assert hecke_image(3, (1, 2, 1)) == hecke_image(3, (2, 1, 2))

    def test_image_is_the_left_fold(self):
        """The cached prefix build gives the product taken factor by
        factor from the unit, on words that need not be reduced."""
        rng = random.Random(SEED)
        for n in (2, 3, 4):
            for _ in range(6):
                word = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 6)))
                acc = WebCombo.unit(n)
                for i in word:
                    acc = acc * hecke_generator(n, i)
                assert hecke_image(n, word) == acc, (n, word)

    def test_hecke_quadratic(self):
        g = hecke_generator(2, 1)
        q = LaurentPoly.t_power(4)
        assert g * g == g.scale(q - LaurentPoly.one()) + WebCombo.unit(2).scale(q)


class TestConfluence:
    def test_pairwise_vs_single_reduction(self):
        rng = random.Random(SEED)
        for _ in range(15):
            n = rng.choice([2, 3, 4])
            word = [rng.randrange(1, n) for _ in range(rng.randrange(1, 6))]
            via_combo = WebCombo.unit(n)
            for i in word:
                via_combo = via_combo * generator_combo(n, i)
            assert via_combo == reduce_web(product_web(n, word))

    def test_a_face_rewrite_keeps_the_webs_loops(self):
        # a vertexless loop below a bigon: an order that rewrites the bigon
        # first must still meet the loop, worth [3]
        circle = SliceDiagram(2, (
            Column(3, "cup", ("R", "L")),
            Column(3, "cap", ("R", "L")),
        ))
        w = Web.from_slice(concatenate(circle, product_web(2, (1, 1)).diagram))
        host, sites = spider.rewrite_sites(w)
        assert [f[0] for f in sites] == ["loop", "bigon"]
        (o,) = spider.rewrite_at(host, 1)
        assert o.child.pmap.loops == 1
        base = reduce_web(w)
        assert base == generator_combo(2, 1).scale(qint(2) * qint(3))
        for seed in range(8):
            assert reduce_random_order(w, random.Random(seed)) == base


class TestComboAlgebra:
    def test_linear_ops(self):
        e1, e2 = generator_combo(3, 1), generator_combo(3, 2)
        z = e1 - e1
        assert z.is_zero()
        assert len((e1 + e2).terms()) == 2
        assert (e1 + e2) - e2 == e1
        assert e1.scale(2).coeff(gweb(3, 1)) == LaurentPoly.const(2)

    def test_power(self):
        e = generator_combo(2, 1)
        assert e * e * e == e.scale(qint(2) * qint(2))

    def test_unit(self):
        e = generator_combo(3, 2)
        one = WebCombo.unit(3)
        assert one * e == e * one == e


def product_as_it_was(x, y, product):
    """The product of two term dicts with each term's coefficient formed
    as v * ca * cb, zero sums dropped: the reference for
    WebCombo.__mul__, which forms ca * cb once per pair of terms."""
    acc = {}
    for a, ca in x.items():
        for b, cb in y.items():
            for k, v in product(a, b):
                c = v * ca * cb
                acc[k] = acc[k] + c if k in acc else c
    return {k: c for k, c in acc.items() if c}


def random_coefficient(rng):
    """1, -1, t^2, a random c*t^k or a random polynomial of a few terms."""
    pick = rng.randrange(5)
    if pick < 3:
        return (LaurentPoly.one(), LaurentPoly.const(-1), LaurentPoly.t_power(2))[pick]
    if pick == 3:
        return LaurentPoly({rng.randint(-8, 8): rng.choice([-3, -1, 1, 2])})
    return LaurentPoly({rng.randint(-8, 8): rng.randint(-4, 4) for _ in range(rng.randint(1, 4))})


def random_terms(rng, elements, coefficient, terms=(1, 4)):
    return [[(rng.choice(elements), coefficient()) for _ in range(rng.randint(*terms))] for _ in range(12)]


class TestComboFastPaths:
    # negation and products of both combination types equal scale(-1)
    # and the products with each coefficient formed as v * ca * cb
    def check(self, combos, product):
        for x in combos:
            assert -x == x.scale(-1) and type(-x) is type(x)
            for y in combos:
                assert (x * y)._terms == product_as_it_was(x._terms, y._terms, product)

    def test_web_combos(self):
        rng = random.Random(SEED + 50)
        terms = random_terms(rng, irreducible_webs(4), lambda: random_coefficient(rng))
        self.check([WebCombo(4, t) for t in terms], web_product)

    def test_matching_combos(self):
        # the reference route's own arithmetic (tests/oracles.py)
        rng = random.Random(SEED + 51)
        gens = [TLCombo.unit(4)] + [tl_generator_combo(4, i) for i in range(1, 4)]
        matchings = set()
        for _ in range(20):
            x = gens[0]
            for _ in range(rng.randint(0, 4)):
                x = x * rng.choice(gens)
            matchings.update(x._terms)
        matchings = sorted(matchings, key=lambda m: m.arcs)
        terms = random_terms(rng, matchings, lambda: rng.choice([1, -1, 2, -3, 7]))
        self.check([TLCombo(4, t) for t in terms], tl_product)

    def test_kappa_vectors(self):
        # profile_product, the join indexed by source word, against the
        # product of every pair of words
        rng = random.Random(SEED + 52)
        n = 3
        webs = irreducible_webs(n)
        words = sorted({g for D in webs for g in boundary_profile(D)})

        def join(a, b):
            return ((a[:n] + b[n:], 1),) if a[n:] == b[:n] else ()

        profiles = [profile_sum(*((c, {g: 1}) for g, c in t))
                    for t in random_terms(rng, words, lambda: random_coefficient(rng), (3, 12))]
        profiles += [profile_sum((random_coefficient(rng), boundary_profile(D))) for D in webs]
        for x in profiles:
            for y in profiles:
                assert profile_product(x, y) == product_as_it_was(x, y, join)
        assert sum(bool(profile_product(x, y)) for x in profiles for y in profiles) > 50


class TestProductMemo:
    def test_memoized_products_equal_direct_ones(self):
        # the direct product concatenates other drawings of the same two
        # webs, so it agrees with the memo only because reduction does
        # not depend on the drawing
        rng = random.Random(SEED + 9)
        moved = 0
        for n in range(2, 6):
            webs = irreducible_webs(n)
            for _ in range(25):
                a, b = rng.choice(webs), rng.choice(webs)
                salt = rng.randrange(1, 4)
                a2, b2 = redrawn(a, salt), redrawn(b, salt)
                moved += a2.diagram != a.diagram or b2.diagram != b.diagram
                direct = reduce_web(Web.from_slice(concatenate(a2.diagram, b2.diagram)))
                hits = web_product.cache_info().hits
                assert WebCombo.from_web(a) * WebCombo.from_web(b) == direct
                assert WebCombo.from_web(a2) * WebCombo.from_web(b2) == direct
                assert web_product.cache_info().hits > hits
        assert moved > 0


class TestHeckeImages:
    def test_every_prefix_of_every_first_word_is_the_three_pass_fold(self):
        clear_caches()
        checked = 0
        for n in range(1, 6):
            for v in all_perms(n):
                word = tuple(reversed(first_reduced_word(v)))
                for k, image in enumerate(hecke_fold(n, word)):
                    assert hecke_image(n, word[:k]) == image, (n, word[:k])
                    checked += 1
        # one image per prefix, the empty one included, of 153 words
        assert checked == 835

    def test_every_reduced_word_in_s4_is_the_three_pass_fold(self):
        words = 0
        for v in all_perms(4):
            for word in all_reduced_words(v):
                word = tuple(reversed(word))
                assert hecke_image(4, word) == hecke_fold(4, word)[-1], word
                words += 1
        assert words == 66

    def test_hecke_steps_are_memoized_by_value_and_shared(self, monkeypatch):
        clear_caches()
        t2 = LaurentPoly.t_power(2)
        step = spider._hecke_step(LaurentPoly.const(2), LaurentPoly.const(3))
        assert step == LaurentPoly.const(2) * t2 - LaurentPoly.const(3)
        # equal values, other objects: one entry, and the result shared
        assert spider._hecke_step(LaurentPoly.const(2), LaurentPoly.const(3)) is step
        assert spider._hecke_step.cache_info()[:2] == (1, 1)
        c = qint(3)
        assert spider._hecke_step(c, c * t2).is_zero()

        # the tables' images take no zero step, so one is forced: every
        # web of the prefix missing from prefix * E_2 steps to zero
        step = spider._hecke_step
        zero = LaurentPoly.zero()
        monkeypatch.setattr(spider, "_hecke_step", lambda c, p: step(c, p) if c else zero)
        clear_caches()
        try:
            below = hecke_image(3, (1,))
            above = below * generator_combo(3, 2)
            image = hecke_image(3, (1, 2))
            assert set(below._terms) - set(above._terms)
            assert image == WebCombo(3, [(D, c) for D, c in (above.scale(t2) - below).terms() if above.coeff(D)])
        finally:
            clear_caches()

    def test_cached_images_share_one_object_per_hecke_step(self):
        # an image of two letters or more holds the objects _hecke_step
        # returned; the images of shorter words hold their own
        clear_caches()
        coeffs, own = [], set()
        for n in range(1, 6):
            for v in all_perms(n):
                word = tuple(reversed(first_reduced_word(v)))
                for k in range(len(word) + 1):
                    image = hecke_image(n, word[:k]).terms()
                    coeffs += [c for _, c in image]
                    if k < 2:
                        own |= {id(c) for _, c in image}
        objects = {id(c) for c in coeffs}
        assert len(objects) <= spider._hecke_step.cache_info().currsize + len(own)
        assert (len(set(coeffs)), len(objects), len(coeffs)) == (38, 107, 9_937)


def child_eid(o, run):
    """The child edge a fused run became, or -1 when it closed up."""
    return o.carry.index(run[0]) if run[0] in o.carry else -1


class TestRewriteDigest:
    # sha256 over every outcome at every rewrite site reachable from the
    # starting webs, recorded before the two-sided face became the
    # one-pairing case of the face rule
    DIGEST = "c9eebe0f8b353bed5e2b4f499d3254071e33e6c06616a0ba8a6884fbe34b7cfd"
    # sha256 over the routing of the same outcomes: the face edges and
    # every fused run, open runs then closed ones
    ROUTING = "012f81936f342774e404ece779a59ac822f486d6a16a1094704a5a26db98f55d"
    # both were recorded from outcomes that named the rule ("loops",
    # "bigon" or "square"), mapped surviving parent edges to child edges
    # and kept the face edges; those inputs are rebuilt from the feature
    # and from each outcome's carry and runs

    @staticmethod
    def outcomes():
        """(feature, outcome) for every rewrite site reachable from the
        starting webs."""
        clear_caches()  # frees memory only: D2 is drawn and apply_rule reads no memo
        rng = random.Random(SEED + 5)
        circle = SliceDiagram(1, (
            Column(2, "cup", ("R", "L")),
            Column(2, "cap", ("R", "L")),
        ))
        d2 = second_generator(3, 1)
        starts = [Web.from_slice(circle), Web.from_slice(concatenate(d2.diagram, d2.diagram))]
        for n in (2, 3, 4, 5):
            for _ in range(6):
                starts.append(product_web(n, [rng.randrange(1, n) for _ in range(rng.randint(3, 8))]))
        seen = set()
        work = starts
        while work:
            w = work.pop()
            for feature in oracle_features(w):
                for o in apply_rule(w, feature):
                    yield feature, o
                    if o.child.code not in seen:
                        seen.add(o.child.code)
                        work.append(o.child)

    @staticmethod
    def kind(feature):
        return "loops" if feature[0] == "loop" else feature[0]

    def test_outcomes_are_pinned(self):
        digest = hashlib.sha256()
        kinds = set()
        closing_bigons = 0
        for feature, o in self.outcomes():
            on_runs = {e for run in o.runs for e in run}
            edge_map = [(e, k) for k, e in enumerate(o.carry) if e not in on_runs]
            eids = [child_eid(o, run) for run in o.runs]
            closed = eids.count(-1)
            kinds.add(self.kind(feature))
            closing_bigons += feature[0] == "bigon" and closed > 0
            digest.update(repr((
                self.kind(feature), o.coeff.to_json_obj(), o.child.code, edge_map,
                [k for k in eids if k >= 0], closed,
            )).encode())
        assert kinds == {"loops", "bigon", "square"}
        assert closing_bigons > 0
        assert digest.hexdigest() == self.DIGEST

    def test_routing_is_pinned(self):
        # transport reads each run's edges, not only its child edge
        digest = hashlib.sha256()
        closed = 0
        for feature, o in self.outcomes():
            eids = [child_eid(o, run) for run in o.runs]
            assert eids == sorted(eids, key=lambda k: k < 0)  # open runs first
            closed += eids.count(-1)
            face_edges = tuple(d >> 1 for d in feature[1]) if feature[0] != "loop" else ()
            digest.update(repr((face_edges, list(zip(o.runs, eids)))).encode())
        assert closed > 0
        assert digest.hexdigest() == self.ROUTING

    def test_carry_names_one_parent_edge_per_child_edge(self):
        # transport labels each child edge through carry alone, so carry
        # must cover the child's edges: the surviving edges ascending, off
        # every run, then each open run's first edge once
        closed_total = 0
        rule = {"bigon": qint(2), "square": LaurentPoly.one()}
        for feature, o in self.outcomes():
            assert len(o.carry) == len(o.child.pmap.edges)
            on_runs = {e for run in o.runs for e in run}
            opened = [run for run in o.runs if run[0] in o.carry]
            closed = [run for run in o.runs if run[0] not in o.carry]
            survivors = o.carry[:len(o.carry) - len(opened)]
            assert list(survivors) == sorted(survivors) and not on_runs & set(survivors)
            assert o.carry[len(survivors):] == tuple(run[0] for run in opened)
            assert all(o.carry.count(run[0]) == 1 for run in opened)
            assert not {e for run in closed for e in run} & set(o.carry)
            if feature[0] != "loop":
                assert o.coeff == rule[feature[0]] * qint(3) ** len(closed)
            closed_total += len(closed)
        assert closed_total > 0


class TestSymmetries:
    def test_flip_and_turn_mirror_products_and_commute_with_reduction(self):
        # flip mirrors a web top to bottom and turn left to right
        # (tests/oracles.py)
        rng = random.Random(SEED + 19)
        for _ in range(300):
            n = rng.randint(2, 4)
            word = [rng.randint(1, n - 1) for _ in range(rng.randint(1, 7))]
            w = product_web(n, word)
            assert flip(w) == product_web(n, [n - i for i in word])
            assert turn(w) == product_web(n, word[::-1])
            for sigma in (flip, turn):
                assert reduce_web(sigma(w)) == WebCombo(n, [(sigma(D), c) for D, c in reduce_web(w).terms()])
