"""Acceptance gate: one test per headline identity, run with -v to get
one pass/fail line per criterion.  Everything here is exact; no check
tolerates an approximate match.
"""

import itertools
import random
from fractions import Fraction

import pytest

from a2webs.exactmath import LaurentPoly, eval_q1
from a2webs.immanants import (
    evaluate_immanant,
    irreducible_webs,
    theta_image,
    tnn_check,
)
from a2webs.labelings import (
    boundary_profile,
    boundary_restriction,
    coefficient_via_labelings,
    enumerate_labelings,
    profile_product,
)
from a2webs.minors import (
    all_triples,
    check_triple,
    minor,
    random_rational_matrix,
    random_triple,
    triple_product,
)
from a2webs.networks import (
    corollary_check,
    lindstrom_check,
    network_immanants,
    path_matrix,
    random_planar_network,
)
from a2webs.perms import (
    all_perms,
    all_reduced_words,
    avoids,
    count_avoiding,
    kostka_three_column,
)
from a2webs.spider import (
    all_orders_agree,
    generator_combo,
    product_web,
    reduce_web,
    relation_suite,
    rewrite_sites,
    second_generator_combo,
)
from a2webs.tlbridge import (
    bridge_expansion,
    forgetful,
    lifted_boundaries,
    matching_of_perm,
    pair_expansion,
    tl_immanant,
)
from oracles import oracle_geom, parabolic_image, rank_over_q, reduce_random_order, redrawn

SEED = 20260816


def random_product(rng, n_max=4, len_max=8, len_min=1):
    n = rng.randint(2, n_max)
    word = [rng.randrange(1, n) for _ in range(rng.randint(len_min, len_max))]
    return n, word


def test_c01_dimension_counts_match_both_oracles():
    expected = {1: 1, 2: 2, 3: 6, 4: 23}
    for n, count in expected.items():
        webs = len(irreducible_webs(n))
        assert webs == count
        assert count_avoiding(n, (4, 3, 2, 1)) == count
        assert kostka_three_column(n) == count


@pytest.mark.slow
def test_c01_dimension_count_n5():
    assert len(irreducible_webs(5)) == 103
    assert count_avoiding(5, (4, 3, 2, 1)) == 103
    assert kostka_three_column(5) == 103


def test_c02_defining_relations_at_generic_q():
    for n in (2, 3, 4):
        for name, ok in relation_suite(n):
            assert ok, f"n={n}: {name}"


def test_c03_reduction_is_confluent():
    rng = random.Random(SEED)
    for _ in range(100):
        n, word = random_product(rng)
        w = product_web(n, word)
        assert all_orders_agree(w), (n, word)
        base = reduce_web(w)
        for _ in range(5):
            assert reduce_random_order(w, rng) == base, (n, word)
    for _ in range(20):
        n = rng.randint(2, 4)
        w = tuple(rng.sample(range(1, n + 1), n))
        images = {theta_image(w, word) for word in all_reduced_words(w)}
        assert len(images) == 1
        assert images == {theta_image(w)}


def test_c04_boundary_profile_is_multiplicative_and_faithful():
    rng = random.Random(SEED + 1)
    for _ in range(50):
        n = rng.randint(2, 3)
        u = tuple(rng.randrange(1, n) for _ in range(rng.randint(1, 4)))
        v = tuple(rng.randrange(1, n) for _ in range(rng.randint(1, 4)))
        lhs = boundary_profile(product_web(n, u + v))
        rhs = profile_product(boundary_profile(product_web(n, u)), boundary_profile(product_web(n, v)))
        assert lhs == rhs, (n, u, v)
    for n in (1, 2, 3, 4):
        webs = irreducible_webs(n)
        vectors = [boundary_profile(w) for w in webs]
        cols = sorted({g for vec in vectors for g in vec})
        rows = [[Fraction(eval_q1(vec.get(g, LaurentPoly.zero()))) for g in cols] for vec in vectors]
        assert rank_over_q(rows) == len(webs), n


def test_c05_reduce_coefficients_recovered_by_counting():
    rng = random.Random(SEED + 2)
    webs = 0
    while webs < 30:
        n, word = random_product(rng, len_max=6, len_min=2)
        w = product_web(n, word)
        if not rewrite_sites(w)[1]:
            continue
        webs += 1
        for child, coeff in reduce_web(w).terms():
            bounds = sorted(
                {boundary_restriction(child, f) for f in enumerate_labelings(child)}
            )
            assert bounds, (n, word)
            for g in bounds:
                # raises if the weighted counts ever fail to divide
                assert coefficient_via_labelings(w, child, g) == coeff, (n, word, g)


def test_c06_weighted_counts_ignore_the_drawing():
    rng = random.Random(SEED + 3)
    somebody_bent = False
    for trial in range(22):
        n, word = random_product(rng, len_max=4)
        w = product_web(n, word)
        prof = boundary_profile(w)
        for salt in (1, 2):
            other = redrawn(w, salt)
            # past the memo, which keys on the code: the redrawing's own counts
            assert boundary_profile.__wrapped__(other) == prof, (n, word, salt)
            if any(sum(t) for t in oracle_geom(other).edge_turns.values()):
                somebody_bent = True
    assert somebody_bent


def test_c07_triple_of_minors_equals_immanant_sum():
    rng = random.Random(SEED + 4)
    mats3 = [random_rational_matrix(3, rng) for _ in range(5)]
    for X in mats3:
        cache: dict = {}
        for g in all_triples(3):
            assert check_triple(g, X, cache)
    mats4 = [random_rational_matrix(4, rng) for _ in range(5)]
    triples4 = [random_triple(4, rng) for _ in range(50)]
    for X in mats4:
        cache = {}
        for g in triples4:
            assert check_triple(g, X, cache)
    for n, mats in ((3, mats3), (4, mats4)):
        determinant = (1,) * (2 * n)
        for X in mats:
            assert triple_product(determinant, X) == X.det()
            assert check_triple(determinant, X)


def test_c08_parabolic_sums_give_generators_then_vanish():
    n = 4
    for i in (1, 2, 3):
        assert parabolic_image(n, i, i + 1) == generator_combo(n, i)
    for i in (1, 2):
        assert parabolic_image(n, i, i + 2) == second_generator_combo(n, i)
    assert parabolic_image(n, 1, 4).is_zero()


def test_c09_minor_pair_and_bridge_expansions():
    rng = random.Random(SEED + 5)
    n = 3
    mats = [random_rational_matrix(n, rng) for _ in range(2)]
    everyone = tuple(range(1, n + 1))
    for k in range(n + 1):
        for rows1 in itertools.combinations(everyone, k):
            for cols1 in itertools.combinations(everyone, k):
                rows2 = tuple(p for p in everyone if p not in rows1)
                cols2 = tuple(p for p in everyone if p not in cols1)
                matchings = pair_expansion(n, rows1, cols1)
                for X in mats:
                    lhs = minor(X, rows1, cols1) * minor(X, rows2, cols2)
                    assert lhs == sum(tl_immanant(w, X) for w in matchings)
    for s in (1, 2):
        perms = [w for w in all_perms(n - s) if avoids(w, (3, 2, 1))]
        for rows3 in itertools.combinations(everyone, s):
            for cols3 in itertools.combinations(everyone, s):
                keep_r = [p - 1 for p in everyone if p not in rows3]
                keep_c = [p - 1 for p in everyone if p not in cols3]
                for w in perms:
                    exp = bridge_expansion(n, w, rows3, cols3)
                    for X in mats:
                        lhs = tl_immanant(w, X.submatrix(keep_r, keep_c))
                        lhs *= minor(X, rows3, cols3)
                        rhs = sum(c * evaluate_immanant(D, X) for D, c in exp.items())
                        assert lhs == rhs, (w, rows3, cols3)
                    # the certifying boundary is a free choice
                    target = matching_of_perm(w)
                    for D in irreducible_webs(n):
                        counts = {
                            sum(1 for f in enumerate_labelings(D, b) if forgetful(D, f) == target)
                            for b in lifted_boundaries(n, w, rows3, cols3)
                        }
                        assert len(counts) == 1, (w, rows3, cols3)


def test_c10_networks_path_matrix_and_immanant_agreement():
    rng = random.Random(SEED + 6)
    for _ in range(10):
        n = rng.randint(1, 3)
        net = random_planar_network(n, rng, steps=rng.randint(2, 4))
        assert lindstrom_check(net)["passed"], n
    done = 0
    while done < 10:
        n = rng.randint(1, 3)
        net = random_planar_network(n, rng, steps=2)
        if len(net.edges) > 12:
            continue
        done += 1
        assert corollary_check(net)["passed"], n
    net = random_planar_network(3, rng, steps=3)
    X = path_matrix(net)
    vals = network_immanants(net)
    from a2webs.minors import decompose_triple

    for g in all_triples(3):
        rhs = sum(
            (Fraction(c) * vals[D] for D, c in decompose_triple(g).items()),
            Fraction(0),
        )
        assert triple_product(g, X) == rhs


def test_c11_immanants_nonnegative_on_tnn_matrices():
    for n in (3, 4):
        report = tnn_check(n, samples=100, seed=SEED + n)
        assert report["passed"], report["violations"]
        assert report["samples"] == 100
        assert Fraction(report["min_value"]) >= 0
