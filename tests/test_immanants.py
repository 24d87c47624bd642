import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from a2webs.exactmath import LaurentPoly, eval_q1
from a2webs.immanants import (
    ExactMatrix,
    evaluate_immanant,
    immanant_table,
    irreducible_webs,
    theta_image,
)
from a2webs.labelings import enumerate_labelings, word_counts
from a2webs.minors import decompose_triple
from a2webs.perms import (
    all_perms,
    all_reduced_words,
    avoids,
    count_avoiding,
    kostka_three_column,
    perm_length,
)
from a2webs.spider import (
    WebCombo,
    generator_combo,
    hecke_generator,
    product_web,
    rewrite_sites,
    second_generator_combo,
)
from a2webs.webcore import Web, WebError, generator_web, identity_web
from oracles import bruhat_leq, flip, kl_polynomials, parabolic_image, table_by_least_words, triple_coefficient, turn

SEED = 20260816

# per n, the rows fixed by w -> w^-1 and by w -> w0 w w0
SYMMETRY_FIXED = [(1, 1, 1), (2, 2, 2), (3, 4, 2), (4, 9, 7), (5, 21, 7)]


def inverse(w):
    return tuple(sorted(range(1, len(w) + 1), key=lambda i: w[i - 1]))


def conjugate(w):
    """w0 w w0, w0 the longest permutation."""
    n = len(w)
    return tuple(n + 1 - w[n - i] for i in range(1, n + 1))


def idweb(n):
    return Web.from_slice(identity_web(n))


def rational_matrix(n, rng):
    return ExactMatrix.from_rows(
        [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
            for _ in range(n)
        ]
    )


class TestExactMatrix:
    def test_rejects_ragged(self):
        with pytest.raises(WebError):
            ExactMatrix.from_rows([[1, 2], [3]])

    def test_identity_det(self):
        for n in range(5):
            assert ExactMatrix.identity(n).det() == 1

    def test_det_2x2(self):
        X = ExactMatrix.from_rows([[1, 2], [3, 4]])
        assert X.det() == -2

    def test_det_singular(self):
        for rows in ([[1, 2], [2, 4]], [[0, 0], [3, 4]], [[1, 2, 3], [4, 5, 6], [1, 2, 3]]):
            assert ExactMatrix.from_rows(rows).det() == 0

    def test_det_multiplicative(self):
        rng = random.Random(SEED)
        for _ in range(5):
            A, B = rational_matrix(3, rng), rational_matrix(3, rng)
            C = ExactMatrix.from_rows(
                [
                    [
                        sum(A.entry(i, k) * B.entry(k, j) for k in range(3))
                        for j in range(3)
                    ]
                    for i in range(3)
                ]
            )
            assert C.det() == A.det() * B.det()

    def test_submatrix(self):
        X = ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
        assert X.submatrix((0, 2), (1, 2)).rows == ((2, 3), (8, 10))

    def test_json_roundtrip(self):
        X = ExactMatrix.from_rows([[Fraction(1, 3), 2], [0, Fraction(-5, 7)]])
        assert ExactMatrix.from_json_obj(X.to_json_obj()) == X

    def test_json_rejects_garbage(self):
        with pytest.raises(WebError):
            ExactMatrix.from_json_obj({"rows": [["1", "x"], ["2", "3"]]})
        with pytest.raises(WebError):
            ExactMatrix.from_json_obj({"n": 3, "rows": [["1"]]})
        with pytest.raises(WebError):
            ExactMatrix.from_json_obj({"rows": [[True]]})

    @pytest.mark.parametrize("n", [True, 1.0, "1", None])
    def test_json_rejects_non_integer_n(self, n):
        with pytest.raises(WebError, match="must be an integer"):
            ExactMatrix.from_json_obj({"n": n, "rows": [["1"]]})

    @pytest.mark.parametrize("rows", ["1", ["1"], {"0": ["1"]}])
    def test_json_rejects_rows_that_are_not_lists(self, rows):
        # a string row would otherwise be read character by character
        with pytest.raises(WebError, match="list of lists"):
            ExactMatrix.from_json_obj({"rows": rows})


class TestThetaImage:
    def test_transposition_image(self):
        got = theta_image((2, 1))
        want = hecke_generator(2, 1)
        assert got == want

    def test_identity_image(self):
        assert theta_image((1, 2, 3)) == WebCombo.unit(3)

    def test_rejects_non_permutation(self):
        with pytest.raises(WebError, match="not a permutation"):
            theta_image((1, 1, 3))

    def test_rejects_values_only_equal_to_ints(self):
        for w in [(2.0, 1.0), (True, 2)]:
            with pytest.raises(WebError, match="not a permutation"):
                theta_image(w)

    def test_rejects_non_reduced_word(self):
        with pytest.raises(WebError):
            theta_image((2, 1), word=(1, 1, 1))

    @pytest.mark.parametrize(
        "word, message",
        [
            ((0,), "generator 0 of (0,) lies outside 1..1"),
            ((5,), "generator 5 of (5,) lies outside 1..1"),
            (("a",), "not an integer: 'a'"),
            ((1.0,), "not an integer: 1.0"),
        ],
        ids=["0", "5", "a string", "a float"],
    )
    def test_rejects_a_word_that_is_no_generator_word(self, word, message):
        with pytest.raises(WebError) as exc:
            theta_image((2, 1), word=word)
        assert str(exc.value) == message

    # each refusal quotes its 5,000-entry input by a prefix
    @pytest.mark.parametrize(
        "call",
        [
            lambda: theta_image((0,) * 5000),
            lambda: theta_image((2, 1), (1,) * 5000),
            lambda: decompose_triple((4,) * 5000),
            lambda: decompose_triple((1,) * 2500 + (2,) * 2500),
        ],
        ids=["not a permutation", "not a reduced word", "label off 1..3", "labels unbalanced"],
    )
    def test_refusals_quote_long_input_by_a_prefix(self, call):
        with pytest.raises(WebError) as exc:
            call()
        assert "(15,000 characters)" in str(exc.value) and len(str(exc.value)) < 300

    def test_reduced_word_independence(self):
        rng = random.Random(SEED)
        perms = [(3, 2, 1)] + [
            tuple(rng.sample(range(1, 5), 4)) for _ in range(4)
        ]
        for w in perms:
            words = all_reduced_words(w)
            base = theta_image(w, word=words[0])
            for word in words[1:]:
                assert theta_image(w, word=word) == base, (w, word)


class TestKazhdanLusztig:
    """The generic-q table against the Kazhdan-Lusztig polynomials of
    `oracles.kl_polynomials`, a route that rewrites no web: each web D
    has a unique shortest v whose image holds it, w(D), and the
    coefficient of D in theta_image(v) is
    (-1)^(l(v)-l(w)) t^(2 l(w)) P_{w0 v, w0 w}(t^4), w = w(D)."""

    def test_polynomials_of_s4(self):
        P = kl_polynomials(4)
        assert len(P) == 213  # the Bruhat pairs of S_4
        # the pairs below the two singular Schubert varieties' singular loci
        assert {xy for xy, p in P.items() if p != (1,)} == {
            (x, y) for y, sing in (((3, 4, 1, 2), (1, 3, 2, 4)), ((4, 2, 3, 1), (2, 1, 4, 3)))
            for x in all_perms(4) if bruhat_leq(x, sing)}
        assert set(P.values()) == {(1,), (1, 1)}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_polynomials_are_normalized(self, n):
        length = {w: perm_length(w) for w in all_perms(n)}
        for (x, y), p in kl_polynomials(n).items():
            assert p[0] == 1 and bruhat_leq(x, y)
            assert x == y or 2 * (len(p) - 1) < length[y] - length[x]

    # per n: the nonzero coefficients, those whose P is not 1, and the
    # coefficients P_{w,v} would get wrong (none at n = 3, where every P
    # of a Bruhat pair is 1 and both indexings pick the same pairs)
    @pytest.mark.parametrize("n, nonzero, not_one, transposed", [(3, 19, 0, 0), (4, 212, 6, 8), (5, 3_684, 394, 478)])
    def test_each_coefficient_is_a_kl_polynomial(self, n, nonzero, not_one, transposed):
        perms = sorted(all_perms(n), key=perm_length)
        images = {v: dict(theta_image(v).terms()) for v in perms}
        shortest = {}  # web -> the shortest v whose image holds it
        for v in perms:
            for D in images[v]:
                u = shortest.setdefault(D, v)
                assert u == v or perm_length(u) < perm_length(v), (D, u, v)
        assert set(shortest.values()) == {v for v in perms if avoids(v, (4, 3, 2, 1))}
        assert len(shortest) == count_avoiding(n, (4, 3, 2, 1))

        P = kl_polynomials(n)

        def w0(v):
            return tuple(n + 1 - a for a in v)

        def predicted(v, w, p):
            sign = (-1) ** (perm_length(v) - perm_length(w))
            return LaurentPoly({2 * perm_length(w) + 4 * k: sign * a for k, a in enumerate(p)})

        seen = {"pairs": 0, "nonzero": 0, "not_one": 0, "transposed": 0}
        zero = LaurentPoly.zero()
        for v in perms:
            for D, w in shortest.items():
                p = P.get((w0(v), w0(w)), ())
                assert images[v].get(D, zero) == predicted(v, w, p), (v, D.code)
                seen["pairs"] += 1
                seen["nonzero"] += bool(p)
                seen["not_one"] += bool(p) and p != (1,)
                # the control: P_{w,v} in place of P_{w0 v, w0 w}
                seen["transposed"] += images[v].get(D, zero) != predicted(v, w, P.get((w, v), ()))
        assert seen["pairs"] == len(perms) * len(shortest)
        assert (seen["nonzero"], seen["not_one"]) == (nonzero, not_one)
        assert seen["transposed"] == transposed

    # per n: the w containing 4321, whose C'_w maps to 0, and the w at
    # which the control, every P_{x,w} replaced by 1, gets C'_w wrong
    # (at n = 4 the two w with a singular Schubert variety, 3412 and 4231)
    @pytest.mark.parametrize("n, killed, control", [(1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 1, 2), (5, 17, 32)])
    def test_each_kl_element_maps_to_one_web_or_zero(self, n, killed, control):
        # fact 3: t^(-2 l(w)) sum over x <= w of P_{x,w}(t^4) theta_image(x)
        # is the one web D with w(D) = w, with coefficient 1, when w
        # avoids 4321, and 0 otherwise
        perms = sorted(all_perms(n), key=perm_length)
        images = {v: [(D, list(c.items())) for D, c in theta_image(v).terms()] for v in perms}
        shortest = {}  # web -> the shortest v whose image holds it, w(D)
        for v in perms:
            for D, _ in images[v]:
                shortest.setdefault(D, v)
        web_of = {w: D for D, w in shortest.items()}
        P = kl_polynomials(n)

        def image(w, poly):
            acc = {}  # (web, t exponent) -> coefficient
            for x in perms:
                if bruhat_leq(x, w):
                    for k, a in enumerate(poly(x, w)):
                        for D, coeff in images[x]:
                            for e, b in coeff:
                                key = D, e + 4 * k - 2 * perm_length(w)
                                acc[key] = acc.get(key, 0) + a * b
            return {key: c for key, c in acc.items() if c}

        wrong = 0
        for w in perms:
            want = {(web_of[w], 0): 1} if w in web_of else {}
            assert image(w, lambda x, y: P[x, y]) == want, w
            wrong += image(w, lambda x, y: (1,)) != want
        assert len(perms) - len(web_of) == killed
        assert wrong == control

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_rows_are_unitriangular_in_bruhat_order(self, n):
        # independence without elimination: each row f_D has one
        # shortest v with f_D(v) != 0, w(D), with f_D(w(D)) = 1, every
        # nonzero f_D(v) sits at a v >= w(D) in Bruhat order, and no two
        # rows share their w(D); ordered by w(D), the rows are
        # unitriangular, so they are linearly independent
        t = immanant_table(n)
        rows = [t._row(D) for D in t.webs]
        assert len(unitriangular_leads(rows)) == len(rows)
        if n > 1:
            # the control: a second row with an entry at the identity
            e = tuple(range(1, n + 1))
            k = next(k for k, row in enumerate(rows) if e not in row)
            rows[k] = {**rows[k], e: 1}
            assert unitriangular_leads(rows) is None


def unitriangular_leads(rows):
    """The w(D) of rows {v: f_D(v)}, nonzero entries only, when each row
    has a unique shortest v with f_D(v) != 0, w(D), with f_D(w(D)) = 1
    and w(D) <= v in Bruhat order for every v of the row, and the w(D)
    are distinct; None otherwise."""
    leads = set()
    for row in rows:
        least = min(map(perm_length, row))
        shortest = [v for v in row if perm_length(v) == least]
        if len(shortest) > 1:
            return None
        w = shortest[0]
        if row[w] != 1 or w in leads or not all(bruhat_leq(w, v) for v in row):
            return None
        leads.add(w)
    return leads


class TestIrreducibleWebs:
    def test_counts_match_both_oracles(self):
        expected = {1: 1, 2: 2, 3: 6, 4: 23}
        for n, count in expected.items():
            webs = irreducible_webs(n)
            assert len(webs) == count
            assert count_avoiding(n, (4, 3, 2, 1)) == count
            assert kostka_three_column(n) == count

    @pytest.mark.slow
    def test_count_at_five(self):
        assert len(irreducible_webs(5)) == 103
        assert count_avoiding(5, (4, 3, 2, 1)) == 103
        assert kostka_three_column(5) == 103

    def test_all_irreducible_and_sorted(self):
        webs = irreducible_webs(3)
        assert not any(rewrite_sites(D)[1] for D in webs)
        assert [D.code for D in webs] == sorted(D.code for D in webs)

    def test_bound_enforced(self):
        with pytest.raises(WebError):
            irreducible_webs(7)


class TestImmanantTable:
    @pytest.mark.parametrize("n", [0, -1])
    def test_needs_a_positive_strand_count(self, n):
        with pytest.raises(WebError, match=f"need n >= 1, got {n}"):
            immanant_table(n)

    def test_two_strand_table(self):
        t = immanant_table(2)
        e, s1 = (1, 2), (2, 1)
        assert t._row(idweb(2)).get(e, 0) == 1
        assert t._row(idweb(2)).get(s1, 0) == -1
        E1 = Web.from_slice(generator_web(2, 1))
        assert t._row(E1).get(e, 0) == 0
        assert t._row(E1).get(s1, 0) == 1

    def test_columns_rebuild_theta(self):
        t = immanant_table(3)
        for w in all_perms(3):
            col = {D.code: t._row(D)[w] for D in t.webs if w in t._row(D)}
            combo = theta_image(w)
            direct = {
                web.code: int(eval_q1(c))
                for web, c in combo.terms()
                if eval_q1(c)
            }
            assert col == direct, w

    def test_identity_row_is_sign_character(self):
        for n in (2, 3, 4):
            t = immanant_table(n)
            row = t._row(idweb(n))
            assert len(row) == len(list(all_perms(n)))
            for w, v in row.items():
                assert v == (-1) ** perm_length(w), (n, w)

    def test_unknown_web_rejected(self):
        t = immanant_table(2)
        with pytest.raises(WebError):
            t._row(product_web(2, (1, 1)))

    @pytest.mark.parametrize("n, by_inverse, by_w0", SYMMETRY_FIXED)
    def test_rows_are_closed_under_the_two_symmetries(self, n, by_inverse, by_w0):
        # w -> w^-1 and w -> w0 w w0 each send every row f_D to a row;
        # the rows they fix are counted
        t = immanant_table(n)
        rows = [frozenset(t._row(D).items()) for D in t.webs]
        assert len(set(rows)) == len(rows)
        for move, fixed in ((inverse, by_inverse), (conjugate, by_w0)):
            images = [frozenset((move(w), v) for w, v in row) for row in rows]
            assert set(images) == set(rows)
            assert sum(image == row for image, row in zip(images, rows)) == fixed

    @pytest.mark.parametrize("n, by_turn, by_flip", SYMMETRY_FIXED)
    def test_flip_and_turn_carry_each_row(self, n, by_turn, by_flip):
        # the maps on webs behind the two symmetries: f_flip(D)(w0 w w0)
        # = f_D(w) and f_turn(D)(w^-1) = f_D(w), row by row; each map is
        # an involution and fixes as many webs as its move fixes rows
        t = immanant_table(n)
        for sigma, move, fixed in ((turn, inverse, by_turn), (flip, conjugate, by_flip)):
            images = [sigma(D) for D in t.webs]
            for D, image in zip(t.webs, images):
                assert t._row(image) == {move(w): v for w, v in t._row(D).items()}
                assert sigma(image) == D
            assert sum(image == D for D, image in zip(t.webs, images)) == fixed


def cycle_count(w):
    """The number of cycles of the permutation w of 1..n."""
    seen, count = set(), 0
    for i in range(1, len(w) + 1):
        if i not in seen:
            count += 1
            while i not in seen:
                seen.add(i)
                i = w[i - 1]
    return count


class TestTraceIdentity:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_traced_rows_give_signed_cycle_powers(self, n):
        # tr(D) counts the labelings of D whose sinks read its sources'
        # word; summed against the rows of the table, the traces give
        # sgn(w) 3^c(w), the signed trace of w permuting the factors of
        # (C^3)^(tensor n), with c(w) its number of cycles
        t = immanant_table(n)
        words = list(itertools.product((1, 2, 3), repeat=n))
        traces = {}
        for D in t.webs:
            counts = word_counts(D)
            traces[D] = sum(counts[a + a] for a in words)
        for w in all_perms(n):
            got = sum(traces[D] * t._row(D).get(w, 0) for D in t.webs)
            assert got == (-1) ** perm_length(w) * 3 ** cycle_count(w), (n, w)


class TestEvaluateImmanant:
    def test_one_strand(self):
        X = ExactMatrix.from_rows([[Fraction(7, 3)]])
        assert evaluate_immanant(idweb(1), X) == Fraction(7, 3)

    def test_two_strand_values(self):
        X = ExactMatrix.from_rows([[1, 2], [3, 4]])
        assert evaluate_immanant(idweb(2), X) == X.det()
        E1 = Web.from_slice(generator_web(2, 1))
        assert evaluate_immanant(E1, X) == 6  # upper right times lower left

    def test_size_mismatch(self):
        with pytest.raises(WebError):
            evaluate_immanant(idweb(3), ExactMatrix.identity(2))

    def test_identity_matrix_values(self):
        for n in (2, 3):
            X = ExactMatrix.identity(n)
            for D in irreducible_webs(n):
                want = 1 if D.code == idweb(n).code else 0
                assert evaluate_immanant(D, X) == want

    def test_non_tnn_matrix_can_go_negative(self):
        # a permutation matrix is not totally nonnegative; the theorem
        # promises nothing and indeed some immanant dips below zero
        w = (4, 3, 2, 1)
        X = ExactMatrix.from_rows(
            [[1 if w[i] == j + 1 else 0 for j in range(4)] for i in range(4)]
        )
        values = [evaluate_immanant(D, X) for D in irreducible_webs(4)]
        assert min(values) < 0

    def test_monomials_match_the_fraction_loop(self):
        # the per-permutation Fraction product the monomials replaced
        def oracle(D, X):
            total = Fraction(0)
            for w, f in immanant_table(X.n)._row(D).items():
                prod = Fraction(f)
                for i in range(X.n):
                    prod *= X.entry(i, w[i] - 1)
                total += prod
            return total

        rng = random.Random(SEED + 11)
        for n in (1, 2, 3, 4, 5):
            for _ in range(4):
                X = ExactMatrix.from_rows(
                    [
                        [0 if rng.random() < 0.3 else Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                         for _ in range(n)]
                        for _ in range(n)
                    ]
                )
                den, mono = X.monomials
                assert all(mono.values())
                assert den % max(x.denominator for r in X.rows for x in r) == 0
                for D in irreducible_webs(n):
                    assert evaluate_immanant(D, X) == oracle(D, X), (n, X)

    def test_monomials_prune_zero_factors(self):
        X = ExactMatrix.from_rows([[Fraction(1, 2), 0, 3], [0, 5, Fraction(-2, 3)], [1, 1, 0]])
        den, mono = X.monomials
        assert den == 6
        assert {w: Fraction(v, den) for w, v in mono.items()} == {
            (1, 3, 2): Fraction(-1, 3),
            (3, 2, 1): Fraction(15),
        }

    def test_determinant_identity(self):
        rng = random.Random(SEED + 5)
        for n in (2, 3, 4):
            ones = (1,) * (2 * n)
            for _ in range(3):
                X = rational_matrix(n, rng)
                total = Fraction(0)
                for D in irreducible_webs(n):
                    count = len(enumerate_labelings(D, ones))
                    if count:
                        total += count * evaluate_immanant(D, X)
                assert total == X.det(), n


def table_rows(n):
    t = immanant_table(n)
    return {D: t._row(D) for D in t.webs}


class TestLeastWordRoute:
    # a second route for every row, with no Hecke algebra: the triple
    # identity solved at each web's least word (table_by_least_words,
    # tests/oracles.py); CI runs n = 6
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_rows_equal_the_table(self, n):
        assert table_by_least_words(n) == table_rows(n)

    def test_each_control_moves_a_row(self):
        n = 4
        webs, want = irreducible_webs(n), table_rows(n)
        counts = [word_counts(D) for D in webs]
        least = [min(c) for c in counts]
        # one labeling dropped from one count at a least word: another
        # web's, since each web has exactly one at its own
        k, j = next((k, j) for k, g in enumerate(least) for j, c in enumerate(counts) if j != k and c[g])
        dropped = [Counter(c) for c in counts]
        dropped[j][least[k]] -= 1
        got = table_by_least_words(n, counts=dropped)
        assert got[webs[k]] != want[webs[k]]
        # one sign flipped in L_g, at a least word
        g, w = least[k], next(w for w in all_perms(n) if triple_coefficient(least[k], w))

        def flipped(h, v):
            return -triple_coefficient(h, v) if (h, v) == (g, w) else triple_coefficient(h, v)

        got = table_by_least_words(n, coefficient=flipped)
        assert got[webs[k]] != want[webs[k]]


class TestParabolicImage:
    def test_width_two_is_generator(self):
        for n, i in [(3, 1), (3, 2), (4, 2), (4, 3)]:
            assert parabolic_image(n, i, i + 1) == generator_combo(n, i)

    def test_width_three_is_double_tripod(self):
        for n, i in [(3, 1), (4, 1), (4, 2)]:
            assert parabolic_image(n, i, i + 2) == second_generator_combo(n, i)

    def test_width_four_vanishes(self):
        assert parabolic_image(4, 1, 4).is_zero()

    def test_bad_window_rejected(self):
        with pytest.raises(WebError):
            parabolic_image(3, 2, 2)
        with pytest.raises(WebError):
            parabolic_image(3, 1, 4)
