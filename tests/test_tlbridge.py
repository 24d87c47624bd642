import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from a2webs import clear_caches, tlbridge
from a2webs.cli import run_suite
from a2webs.immanants import ExactMatrix, evaluate_immanant, immanant_table, irreducible_webs
from a2webs.labelings import _boundary_edges, boundary_restriction, enumerate_labelings
from a2webs.minors import decompose_triple, minor, random_rational_matrix
from a2webs.perms import all_perms, all_reduced_words, avoids, catalan, first_reduced_word, perm_length
from a2webs.spider import product_web, reduce_web, second_generator
from a2webs.tlbridge import (
    A1Web,
    admits,
    avoiding_321,
    bridge_expansion,
    forgetful,
    lifted_boundaries,
    matching_labelings,
    matching_of_perm,
    pair_boundary,
    pair_expansion,
    tl_immanant,
    tl_web,
)
from a2webs.webcore import Web, WebError, generator_web, identity_web
from oracles import (
    TLCombo,
    all_a1_webs,
    identity_matching,
    kl_polynomials,
    matching_by_concatenation,
    theta_two,
    tl_concat,
    tl_generator,
    tl_generator_combo,
)

SEED = 20260816

# sequences that are no permutation of 1..n: a repeat, values off 1..n,
# and values that only compare equal to ints
NON_PERMUTATIONS = [(1, 1), (0, 1), (1, 3), ("a", "b"), (True, 2), (2.0, 1.0)]


def idweb(n):
    return Web.from_slice(identity_web(n))


def gweb(n, i):
    return Web.from_slice(generator_web(n, i))


class TestA1Web:
    def test_identity_matching(self):
        m = identity_matching(2)
        assert m.arcs == ((0, 2), (1, 3))
        assert all(m.is_cross(a) for a in m.arcs)

    def test_generator_matching(self):
        m = tl_generator(3, 2)
        assert m.arcs == ((0, 3), (1, 2), (4, 5))
        assert not m.is_cross((1, 2))

    def test_arcs_normalized(self):
        m = A1Web(2, ((3, 1), (2, 0)))
        assert m.arcs == ((0, 2), (1, 3))

    def test_rejects_crossing(self):
        with pytest.raises(WebError):
            A1Web(2, ((0, 3), (1, 2)))

    def test_rejects_imperfect(self):
        with pytest.raises(WebError):
            A1Web(2, ((0, 1), (1, 3)))

    def test_counts_are_catalan(self):
        for n in range(6):
            assert len(all_a1_webs(n)) == catalan(n)

    def test_basis_bijection(self):
        for n in range(1, 5):
            avoiding = [w for w in all_perms(n) if avoids(w, (3, 2, 1))]
            assert len(avoiding) == catalan(n)
            images = {matching_of_perm(w) for w in avoiding}
            assert len(images) == len(avoiding)
            assert images == set(all_a1_webs(n))

    def test_321_pattern_rejected(self):
        with pytest.raises(WebError):
            matching_of_perm((3, 2, 1))

    def test_bounded_with_the_web(self):
        # the matching is read off tl_web(w), so it has the table's
        # bound; a 321 pattern or a non-permutation is refused first
        with pytest.raises(WebError, match="web enumeration is bounded at n = 6, got 7"):
            matching_of_perm(tuple(range(1, 8)))
        with pytest.raises(WebError, match="need n >= 1, got 0"):
            matching_of_perm(())
        with pytest.raises(WebError, match="contains a 321 pattern"):
            matching_of_perm(tuple(range(7, 0, -1)))
        with pytest.raises(WebError, match="is not a permutation"):
            matching_of_perm((1,) * 7)

    @pytest.mark.parametrize("w", NON_PERMUTATIONS)
    def test_non_permutation_rejected(self, w):
        # after the memo holds (1, 2) and (2, 1), which (True, 2) and
        # (2.0, 1.0) equal
        matching_of_perm((1, 2))
        matching_of_perm((2, 1))
        with pytest.raises(WebError, match="is not a permutation"):
            matching_of_perm(w)


class TestDiagramAlgebra:
    def test_square_erases_a_loop(self):
        e = tl_generator(2, 1)
        prod, loops = tl_concat(e, e)
        assert prod == e
        assert loops == 1

    def test_quadratic_relation(self):
        for n in (2, 3, 4):
            for i in range(1, n):
                e = tl_generator_combo(n, i)
                assert e * e == 2 * e

    def test_sandwich_relation(self):
        for n in (3, 4):
            for i in range(1, n - 1):
                a = tl_generator_combo(n, i)
                b = tl_generator_combo(n, i + 1)
                assert a * b * a == a
                assert b * a * b == b

    def test_far_commutation(self):
        a = tl_generator_combo(4, 1)
        b = tl_generator_combo(4, 3)
        assert a * b == b * a

    def test_unit_is_neutral(self):
        one = TLCombo.unit(3)
        x = tl_generator_combo(3, 1) * tl_generator_combo(3, 2)
        assert one * x == x
        assert x * one == x

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(WebError):
            tl_concat(tl_generator(2, 1), tl_generator(3, 1))

    # sha256 of the glued matching and loop count of every ordered pair
    # of matchings on 1..5 strands
    GLUED = "69b3915af3baa43d9f54c07e383fba8e45a72682547cf8b3750febdfc16dd602"

    def test_gluing_is_pinned(self):
        h = hashlib.sha256()
        pairs = 0
        for n in range(1, 6):
            webs = all_a1_webs(n)
            for a, b in itertools.product(webs, repeat=2):
                prod, loops = tl_concat(a, b)
                h.update(repr((a.arcs, b.arcs, prod.arcs, loops)).encode())
                pairs += 1
        assert pairs == 1990
        assert h.hexdigest() == self.GLUED


class TestThetaTwo:
    def test_identity_is_unit(self):
        assert theta_two((1, 2)) == TLCombo.unit(2)

    def test_rejects_non_permutation(self):
        with pytest.raises(WebError, match="not a permutation"):
            theta_two((2, 2, 1))

    def test_generator_image(self):
        t = theta_two((2, 1))
        assert t.coeff(tl_generator(2, 1)) == 1
        assert t.coeff(identity_matching(2)) == -1

    def test_involution_squares_to_one(self):
        for n in (2, 3):
            for i in range(1, n):
                t = theta_two(tuple(range(1, n + 1))[:i - 1] + (i + 1, i) + tuple(range(i + 2, n + 1)))
                assert t * t == TLCombo.unit(n)

    def test_word_independence(self):
        for v in all_perms(3):
            expected = theta_two(v)
            for word in all_reduced_words(v):
                acc = TLCombo.unit(3)
                for i in reversed(word):
                    acc = acc * (tl_generator_combo(3, i) - TLCombo.unit(3))
                assert acc == expected

    def test_immanant_fixtures(self):
        rng = random.Random(SEED)
        X = random_rational_matrix(2, rng)
        assert tl_immanant((1, 2), X) == X.det()
        assert tl_immanant((2, 1), X) == X.entry(0, 1) * X.entry(1, 0)

    def test_immanant_rejects_pattern(self):
        rng = random.Random(SEED)
        with pytest.raises(WebError):
            tl_immanant((3, 2, 1), random_rational_matrix(3, rng))

    def test_immanant_rejects_size_mismatch(self):
        rng = random.Random(SEED)
        with pytest.raises(WebError):
            tl_immanant((2, 1), random_rational_matrix(3, rng))

    @pytest.mark.parametrize("w", NON_PERMUTATIONS)
    def test_immanant_rejects_non_permutation(self, w):
        X = random_rational_matrix(2, random.Random(1))
        with pytest.raises(WebError, match="is not a permutation"):
            tl_immanant(w, X)

    def test_immanant_is_bounded_with_the_table(self):
        with pytest.raises(WebError, match="web enumeration is bounded at n = 6, got 7"):
            tl_immanant(tuple(range(1, 8)), ExactMatrix.identity(7))


class TestTemperleyLiebWebs:
    # Temperley-Lieb immanants are web immanants: the web of each
    # 321-avoiding u, the product of the E_i along its reduced word, is
    # irreducible and carries u's row of the matching algebra's route
    # (theta_two, tests/oracles.py); CI runs n = 6
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_each_web_is_irreducible_and_carries_its_tl_row(self, n):
        t = immanant_table(n)
        X = random_rational_matrix(n, random.Random(SEED + n))
        den, mono = X.monomials
        for u in avoiding_321(n):
            D = tl_web(u)
            assert D == product_web(n, reversed(first_reduced_word(u)))
            [(E, c)] = reduce_web(D).terms()
            assert E == D and c == 1, u
            m = matching_of_perm(u)
            want = {v: theta_two(v).coeff(m) for v in all_perms(n)}
            assert t._row(D) == {v: x for v, x in want.items() if x}, u
            assert tl_immanant(u, X) == Fraction(sum(want[v] * x for v, x in mono.items()), den)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_each_pair_word_decomposes_into_the_webs_of_its_expansion(self, n):
        everyone = range(1, n + 1)
        pairs = 0
        for k in range(n + 1):
            for rows1 in itertools.combinations(everyone, k):
                for cols1 in itertools.combinations(everyone, k):
                    want = {tl_web(u): 1 for u in pair_expansion(n, rows1, cols1)}
                    assert decompose_triple(pair_boundary(n, rows1, cols1)) == want, (rows1, cols1)
                    pairs += 1
        assert pairs == math.comb(2 * n, n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_the_matching_is_read_off_the_web(self, n):
        # every labeling of u's web with no 3 on its boundary, 2^n of
        # them, forgets onto the concatenation of u's uncrossings, the
        # alternating word 1,2,1,2,...:1,2,1,2,... among them, and
        # matching_of_perm reads the first at that word
        for u in avoiding_321(n):
            D = tl_web(u)
            bedge = _boundary_edges(D)
            images = [forgetful(D, f) for f in enumerate_labelings(D) if 3 not in map(f.__getitem__, bedge)]
            assert images == [matching_by_concatenation(u)] * 2 ** n, u
            alternating = enumerate_labelings(D, tuple(1 + k % 2 for k in range(n)) * 2)
            assert alternating and forgetful(D, alternating[0]) == matching_by_concatenation(u), u
            assert matching_of_perm(u) == images[0], u

    # per n: the rows that each control moves, of the catalan(n) webs:
    # P_{u,v} in place of P_{w0 v, w0 u}, and the sign dropped
    @pytest.mark.parametrize(
        "n, transposed, unsigned", [(1, 0, 0), (2, 0, 1), (3, 0, 5), (4, 5, 14), (5, 34, 42)]
    )
    def test_each_row_is_a_kazhdan_lusztig_immanant(self, n, transposed, unsigned):
        # Rhoades and Skandera: the Temperley-Lieb immanant of u is the
        # Kazhdan-Lusztig immanant f_u(v) = (-1)^(l(v)-l(u)) P_{w0 v, w0 u}(1);
        # CI runs n = 6
        t = immanant_table(n)
        P = kl_polynomials(n)

        def w0(v):
            return tuple(n + 1 - a for a in v)

        def kl_row(u, pair, sign):
            row = {v: sum(P.get(pair(v, u), ())) * sign(v, u) for v in all_perms(n)}
            return {v: x for v, x in row.items() if x}

        def signed(v, u):
            return (-1) ** (perm_length(v) - perm_length(u))

        moved = {"transposed": 0, "unsigned": 0}
        for u in avoiding_321(n):
            row = t._row(tl_web(u))
            assert row == kl_row(u, lambda v, u: (w0(v), w0(u)), signed), u
            moved["transposed"] += row != kl_row(u, lambda v, u: (u, v), signed)
            moved["unsigned"] += row != kl_row(u, lambda v, u: (w0(v), w0(u)), lambda v, u: 1)
        assert moved == {"transposed": transposed, "unsigned": unsigned}

    def test_a_web_with_no_labeling_off_3_is_a_failed_invariant(self, monkeypatch):
        clear_caches()
        monkeypatch.setattr(tlbridge, "enumerate_labelings", lambda D, g=None: [])
        try:
            with pytest.raises(RuntimeError, match=r"the web of \(2, 1\) has no labeling at the alternating boundary word"):
                matching_of_perm((2, 1))
        finally:
            monkeypatch.undo()
            clear_caches()

    @pytest.mark.parametrize("w", NON_PERMUTATIONS)
    def test_non_permutation_rejected(self, w):
        tl_web((1, 2))
        tl_web((2, 1))
        with pytest.raises(WebError, match="is not a permutation"):
            tl_web(w)

    def test_a_web_off_the_table_fails_the_bridge_check(self, monkeypatch):
        # every word doubled: the pair half reads each u's web for its
        # matching, in avoiding_321 order, so (1, 2, 3), whose word is
        # empty, passes and the web of (1, 3, 2), drawn as E2 E2, which
        # reduces, is the first failed invariant, which verify reports
        # as a failed check
        clear_caches()
        monkeypatch.setattr(tlbridge, "product_web", lambda n, word: product_web(n, list(word) * 2))
        try:
            [check] = run_suite("bridge", 3, seed=0)["checks"]
        finally:
            monkeypatch.undo()
            clear_caches()
        assert not check["passed"]
        assert check["details"]["error"] == "the web of (1, 3, 2) is not an irreducible web of the table"


class TestMatchingLabelings:
    def test_one_choice_per_arc(self):
        for n in range(1, 4):
            for m in all_a1_webs(n):
                labs = matching_labelings(m)
                assert len(labs) == 2 ** n
                assert len(set(labs)) == len(labs)

    def test_boundary_pins_or_contradicts(self):
        m = tl_generator(2, 1)
        assert admits(m, (1, 2, 2, 1))
        assert not admits(m, (1, 1, 1, 2))

    def test_cross_arc_keeps_value(self):
        m = identity_matching(1)
        assert admits(m, (1, 1)) and admits(m, (2, 2))
        assert not admits(m, (1, 2))
        assert not admits(m, (2, 1))

    def test_one_sided_arc_switches(self):
        m = tl_generator(2, 1)
        assert admits(m, (2, 1, 1, 2))
        assert not admits(m, (1, 1, 2, 1))
        assert not admits(m, (2, 1, 2, 2))

    def test_admits_exactly_the_labelings(self):
        # cross arcs keep one value, one-sided arcs switch: of all
        # 4^n words in {1, 2}^(2n), exactly the 2^n labelings pass
        for n in range(1, 4):
            for m in all_a1_webs(n):
                admitted = [
                    g for g in itertools.product((1, 2), repeat=2 * n) if admits(m, g)
                ]
                assert len(admitted) == 2 ** n
                assert admitted == sorted(matching_labelings(m))

    def test_admits_refuses_malformed_words(self):
        m = tl_generator(2, 1)
        with pytest.raises(WebError, match="2 values per side"):
            admits(m, (1, 2, 2))
        with pytest.raises(WebError, match=r"live in \{1, 2\}"):
            admits(m, (1, 2, 3, 1))


class TestPairOfMinors:
    def test_expansion_is_multiplicity_free(self):
        for k in range(3):
            for rows1 in itertools.combinations(range(1, 4), k):
                exp = pair_expansion(3, rows1, rows1)
                assert set(exp.values()) <= {1}
                assert all(avoids(w, (3, 2, 1)) for w in exp)

    def test_identity_all_pairs_n3(self):
        rng = random.Random(SEED)
        mats = [random_rational_matrix(3, rng) for _ in range(3)]
        for k in range(4):
            for rows1 in itertools.combinations(range(1, 4), k):
                for cols1 in itertools.combinations(range(1, 4), k):
                    rows2 = tuple(p for p in range(1, 4) if p not in rows1)
                    cols2 = tuple(p for p in range(1, 4) if p not in cols1)
                    exp = pair_expansion(3, rows1, cols1)
                    for X in mats:
                        lhs = minor(X, rows1, cols1) * minor(X, rows2, cols2)
                        rhs = sum(tl_immanant(w, X) for w in exp)
                        assert lhs == rhs

    def test_expansion_matches_a_walk_over_all_permutations(self):
        for n in range(1, 6):
            want = tuple(w for w in all_perms(n) if avoids(w, (3, 2, 1)))
            assert avoiding_321(n) == want and len(want) == catalan(n)
            for k in range(n + 1):
                for rows1 in itertools.combinations(range(1, n + 1), k):
                    for cols1 in itertools.combinations(range(1, n + 1), k):
                        g = pair_boundary(n, rows1, cols1)
                        exp = pair_expansion(n, rows1, cols1)
                        assert list(exp.items()) == [
                            (w, 1) for w in want if admits(matching_of_perm(w), g)
                        ]

    def test_boundary_values(self):
        assert pair_boundary(3, (1, 3), (2, 3)) == (1, 2, 1, 2, 1, 1)

    def test_uneven_pair_rejected(self):
        with pytest.raises(WebError):
            pair_boundary(3, (1, 2), (1,))


class TestForgetful:
    def test_identity_web_keeps_its_labels(self):
        w = idweb(2)
        f = min(enumerate_labelings(w, (1, 2, 1, 2)))
        aweb = forgetful(w, f)
        assert aweb == identity_matching(2)
        assert admits(aweb, (1, 2, 1, 2))

    def test_identity_web_drops_the_3_strand(self):
        w = idweb(3)
        f = min(enumerate_labelings(w, (1, 3, 2, 1, 3, 2)))
        aweb = forgetful(w, f)
        assert aweb == identity_matching(2)
        assert admits(aweb, (1, 2, 1, 2))

    def test_generator_web_middle_edge_3(self):
        w = gweb(2, 1)
        mid = next(
            e
            for e, (t, h) in enumerate(w.pmap.edges)
            if t >= 4 and h >= 4
        )
        hit = 0
        for f in enumerate_labelings(w):
            if f[mid] == 3:
                hit += 1
                assert forgetful(w, f) == tl_generator(2, 1)
        assert hit == 4

    def test_inconsistent_labeling_is_an_internal_error(self):
        # every kept edge labeled 1: the cup is one-sided but keeps
        # its value, which no consistent labeling can show
        w = gweb(2, 1)
        f = tuple(3 if t >= 4 and h >= 4 else 1 for t, h in w.pmap.edges)
        with pytest.raises(RuntimeError):
            forgetful(w, f)

    def test_two_claw_web_always_gives_the_cupcap(self):
        # both kept source edges meet at the source claw, so the image
        # is the one-sided arc pair no matter which labeling is chosen
        w = second_generator(3, 1)
        labs = enumerate_labelings(w)
        assert len(labs) == 36
        for f in labs:
            aweb = forgetful(w, f)
            assert aweb == tl_generator(2, 1)
            g = tuple(x for x in boundary_restriction(w, f) if x != 3)
            assert sorted(g[:2]) == sorted(g[2:]) == [1, 2]
            assert admits(aweb, g)

    def test_full_size_images_cover_matchings(self):
        seen = set()
        for web in (idweb(3), gweb(3, 1), gweb(3, 2)):
            for f in enumerate_labelings(web):
                aweb = forgetful(web, f)
                assert aweb.n in (0, 1, 2, 3)
                if aweb.n == 3:
                    seen.add(aweb)
        assert seen <= set(all_a1_webs(3))
        assert identity_matching(3) in seen
        assert tl_generator(3, 1) in seen and tl_generator(3, 2) in seen

    def test_rejects_labeling_of_wrong_length(self):
        w = product_web(2, [1])
        f = min(enumerate_labelings(w))
        for bad in (f[:-1], f + (1,), ()):
            with pytest.raises(WebError, match="edge and loop counts"):
                forgetful(w, bad)

    def test_closed_loops_are_discarded(self):
        w = product_web(2, (1, 1))
        labs = enumerate_labelings(w, (1, 2, 1, 2))
        # the two inner strands form a closed curve labeled 1 and 2
        assert len(labs) == 2
        for f in labs:
            assert forgetful(w, f) == tl_generator(2, 1)


class TestBridge:
    def test_embedding_at_n2(self):
        table = {
            (1, 2): idweb(2),
            (2, 1): gweb(2, 1),
        }
        for w, D in table.items():
            exp = bridge_expansion(2, w)
            assert exp == {D: 1}

    def test_identity_full_sweep_n3(self):
        rng = random.Random(SEED)
        mats = [random_rational_matrix(3, rng) for _ in range(2)]
        for s in (1, 2):
            perms = [w for w in all_perms(3 - s) if avoids(w, (3, 2, 1))]
            for rows3 in itertools.combinations(range(1, 4), s):
                for cols3 in itertools.combinations(range(1, 4), s):
                    keep_r = [p - 1 for p in range(1, 4) if p not in rows3]
                    keep_c = [p - 1 for p in range(1, 4) if p not in cols3]
                    for w in perms:
                        exp = bridge_expansion(3, w, rows3, cols3)
                        for X in mats:
                            lhs = tl_immanant(w, X.submatrix(keep_r, keep_c))
                            lhs *= minor(X, rows3, cols3)
                            rhs = sum(
                                c * evaluate_immanant(D, X) for D, c in exp.items()
                            )
                            assert lhs == rhs, (w, rows3, cols3)

    def test_identity_single_entry_case_n4(self):
        rng = random.Random(SEED)
        w, rows3, cols3 = (2, 3, 1), (3,), (4,)
        exp = bridge_expansion(4, w, rows3, cols3)
        assert set(exp.values()) == {1}
        for X in [random_rational_matrix(4, rng) for _ in range(2)]:
            lhs = tl_immanant(w, X.submatrix([0, 1, 3], [0, 1, 2]))
            lhs *= X.entry(2, 3)
            rhs = sum(c * evaluate_immanant(D, X) for D, c in exp.items())
            assert lhs == rhs

    def test_boundary_independence(self):
        rng = random.Random(SEED)
        for n in (3, 4):
            webs = irreducible_webs(n)
            for _ in range(12):
                D = rng.choice(webs)
                s = rng.randint(1, n - 1)
                rows3 = tuple(sorted(rng.sample(range(1, n + 1), s)))
                cols3 = tuple(sorted(rng.sample(range(1, n + 1), s)))
                perms = [w for w in all_perms(n - s) if avoids(w, (3, 2, 1))]
                w = rng.choice(perms)
                target = matching_of_perm(w)
                counts = {
                    sum(1 for f in enumerate_labelings(D, b) if forgetful(D, f) == target)
                    for b in lifted_boundaries(n, w, rows3, cols3)
                }
                assert len(counts) == 1

    def test_fiber_factorization(self):
        # every labeling of D with a fixed boundary lands on exactly one
        # matching, and that matching admits the surviving boundary
        rng = random.Random(SEED)
        for D in irreducible_webs(3):
            for _ in range(40):
                g = tuple(rng.choice((1, 2, 3)) for _ in range(6))
                labs = enumerate_labelings(D, g)
                src12 = tuple(x for x in g[:3] if x != 3)
                snk12 = tuple(x for x in g[3:] if x != 3)
                if len(src12) != len(snk12):
                    assert not labs
                    continue
                by = {}
                for f in labs:
                    aweb = forgetful(D, f)
                    by[aweb] = by.get(aweb, 0) + 1
                admissible = [
                    m for m in all_a1_webs(len(src12)) if admits(m, src12 + snk12)
                ]
                assert set(by) <= set(admissible)
                assert sum(by.get(m, 0) for m in admissible) == len(labs)

    def test_lifted_boundaries_shape(self):
        bds = lifted_boundaries(3, (2, 1), (2,), (3,))
        assert len(bds) == 4
        for b in bds:
            # sources b[0:3], sinks b[3:6]
            assert b[1] == 3 and b[5] == 3
            assert 3 not in (b[0], b[2], b[3], b[4])

    def test_uneven_deletion_rejected(self):
        with pytest.raises(WebError):
            lifted_boundaries(3, (2, 1), (1, 2), (3,))

    def test_wrong_permutation_size_rejected(self):
        with pytest.raises(WebError):
            lifted_boundaries(3, (1, 2, 3), (1,), (1,))

    @pytest.mark.parametrize("w", NON_PERMUTATIONS)
    def test_non_permutation_rejected(self, w):
        with pytest.raises(WebError, match="is not a permutation"):
            bridge_expansion(3, w, (1,), (1,))


class TestBridgeDigest:
    # sha256 of every bridge expansion at n = 4 (168 calls)
    N4 = "34f9572e64b304934ff65ac28e5fa93e8f5f60b68e14ba5c61dd3e433144d443"

    def test_n4_sweep_unchanged(self):
        n = 4
        h = hashlib.sha256()
        calls = 0
        for s in range(1, n):
            perms = [w for w in all_perms(n - s) if avoids(w, (3, 2, 1))]
            for rows3 in itertools.combinations(range(1, n + 1), s):
                for cols3 in itertools.combinations(range(1, n + 1), s):
                    for w in perms:
                        exp = bridge_expansion(n, w, rows3, cols3)
                        terms = sorted((D.code, c) for D, c in exp.items())
                        h.update(repr((w, rows3, cols3, terms)).encode())
                        calls += 1
        assert calls == 168
        assert h.hexdigest() == self.N4
