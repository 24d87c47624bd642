import hashlib
import json
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from a2webs import minors
from a2webs.immanants import ExactMatrix, evaluate_immanant, irreducible_webs
from a2webs.labelings import enumerate_labelings, word_counts
from a2webs.minors import (
    all_triples,
    check_triple,
    decompose_triple,
    iter_triples,
    minor,
    random_rational_matrix,
    random_triple,
    rank_check,
    triple_blocks,
    triple_product,
    triple_word,
)
from a2webs.webcore import Web, WebError, generator_web, identity_web
from oracles import oracle_rank_check, rank_mod2, rank_over_q

SEED = 20260816

# the worked example: rows (1, 4), (2,), (3,) and columns (1, 3), (2,), (4,)
WORKED = (1, 2, 3, 1, 1, 2, 1, 3)

# sha256 of the words of iter_triples(n) for n = 1..5, one line of
# digits per word, joined by newlines
TRIPLE_ORDER_SHA256 = "26318ee7e3f743417eee92dd48e6077703c5927b83e5782120c75749a383a36a"


def idweb(n):
    return Web.from_slice(identity_web(n))


class TestTripleWord:
    def test_rejects_repeated_index(self):
        with pytest.raises(WebError, match="repeated index"):
            triple_word([(1, 1), (2,), ()], [(1,), (2,), (3,)])
        # an iterator is quoted as read, not after it is spent
        with pytest.raises(WebError, match=re.escape("repeated index in (2, 1, 2)")):
            minors.index_set(iter([2, 1, 2]))

    def test_rejects_overlapping_rows(self):
        with pytest.raises(WebError, match="row blocks must partition"):
            triple_word([(1, 2), (2,), ()], [(1,), (2,), (3,)])

    def test_rejects_size_mismatch(self):
        with pytest.raises(WebError, match="paired blocks must have equal sizes"):
            triple_word([(1, 2), (3,), ()], [(1,), (2, 3), ()])

    def test_rejects_gaps(self):
        with pytest.raises(WebError, match="row blocks must partition"):
            triple_word([(1,), (3,), ()], [(1,), (2,), ()])
        with pytest.raises(WebError, match="column blocks must partition"):
            triple_word([(1,), (2,), ()], [(1,), (3,), ()])

    def test_boundary_simple(self):
        assert triple_word([(1,), (2,), ()], [(1,), (2,), ()]) == (1, 2, 1, 2)

    def test_boundary_all_first_block(self):
        assert triple_word([(1, 2), (), ()], [(1, 2), (), ()]) == (1, 1, 1, 1)

    def test_boundary_worked_example(self):
        assert triple_word([(1, 4), (2,), (3,)], [(1, 3), (2,), (4,)]) == WORKED
        assert triple_blocks(WORKED) == (((1, 4), (2,), (3,)), ((1, 3), (2,), (4,)))

    @pytest.mark.parametrize("g", [(1, 2, 1), (1, 4), (1, 2, 4, 1, 2, 4), (1, 1, 1, 2), (0, 0)])
    def test_word_api_refuses_words_of_no_triple(self, g):
        for fn in (triple_blocks, decompose_triple):
            with pytest.raises(WebError):
                fn(g)
        with pytest.raises(WebError):
            triple_product(g, ExactMatrix.identity(2))

    @pytest.mark.parametrize("size", [2, 4])
    def test_a_matrix_of_another_size_is_refused(self, size):
        X = ExactMatrix.identity(size)
        for fn in (triple_product, check_triple):
            with pytest.raises(WebError, match=f"a triple on 3 strands against a {size} by {size} matrix"):
                fn((1, 2, 3, 1, 2, 3), X)

    @pytest.mark.parametrize("bad", [1.0, 1.5, "1"])
    def test_word_api_refuses_a_label_that_is_no_int(self, bad):
        for fn, g in ((decompose_triple, (bad, 1)), (triple_blocks, (1, 2, 2, bad))):
            with pytest.raises(WebError, match=f"not an integer: {re.escape(repr(bad))}"):
                fn(g)

    def test_triple_order_is_pinned(self):
        words = [g for n in range(1, 6) for g in iter_triples(n)]
        text = "\n".join("".join(map(str, g)) for g in words)
        assert hashlib.sha256(text.encode()).hexdigest() == TRIPLE_ORDER_SHA256
        assert [sum(1 for _ in iter_triples(n)) for n in (3, 4, 5)] == [93, 639, 4653]
        for g in words:
            assert triple_word(*triple_blocks(g)) == g

    def test_random_triple_draws_are_pinned(self):
        rng = random.Random(SEED)
        assert [random_triple(4, rng) for _ in range(6)] == [
            (3, 2, 2, 2, 3, 2, 2, 2),
            (3, 2, 1, 3, 1, 3, 2, 3),
            (2, 2, 1, 1, 2, 2, 1, 1),
            (1, 3, 3, 2, 1, 2, 3, 3),
            (1, 1, 1, 2, 1, 1, 2, 1),
            (3, 3, 1, 2, 2, 3, 3, 1),
        ]


class TestMinor:
    def test_empty_is_one(self):
        X = ExactMatrix.identity(3)
        assert minor(X, (), ()) == 1

    def test_full_is_det(self):
        rng = random.Random(SEED)
        X = random_rational_matrix(3, rng)
        assert minor(X, (1, 2, 3), (1, 2, 3)) == X.det()

    def test_single_entry(self):
        X = ExactMatrix.from_rows([[1, 2], [3, 4]])
        assert minor(X, (1,), (2,)) == 2

    def test_rejects_uneven(self):
        with pytest.raises(WebError):
            minor(ExactMatrix.identity(3), (1,), (1, 2))

    def test_rejects_out_of_range(self):
        with pytest.raises(WebError):
            minor(ExactMatrix.identity(2), (3,), (1,))

    @pytest.mark.parametrize("bad", [1.7, 2.0, "1", Fraction(1)])
    def test_rejects_an_index_that_is_no_int(self, bad):
        X = ExactMatrix.from_rows([[1, 2], [3, 4]])
        with pytest.raises(WebError, match=f"not an integer: {re.escape(repr(bad))}"):
            minor(X, [bad], [2])
        with pytest.raises(WebError, match="not an integer"):
            minor(X, [1], [bad])
        with pytest.raises(WebError, match="not an integer"):
            triple_word([(bad,), (2,), ()], [(1,), (2,), ()])


class TestDecompose:
    def test_diagonal_product_two_strands(self):
        counts = {D.code: c for D, c in decompose_triple((1, 2, 1, 2)).items()}
        E1 = Web.from_slice(generator_web(2, 1))
        assert counts == {idweb(2).code: 1, E1.code: 1}

    def test_determinant_triple_two_strands(self):
        counts = {D.code: c for D, c in decompose_triple((1, 1, 1, 1)).items()}
        assert counts == {idweb(2).code: 1}

    def test_antidiagonal_product_two_strands(self):
        counts = {D.code: c for D, c in decompose_triple((1, 2, 2, 1)).items()}
        E1 = Web.from_slice(generator_web(2, 1))
        assert counts == {E1.code: 1}

    def test_coefficients_are_labeling_counts(self):
        rng = random.Random(SEED + 1)
        for _ in range(5):
            g = random_triple(3, rng)
            for D, c in decompose_triple(g).items():
                assert c == len(enumerate_labelings(D, g)) > 0


class TestDecompositionTable:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_triple_matches_restricted_enumeration(self, n):
        webs = irreducible_webs(n)
        for g in all_triples(n):
            counts = decompose_triple(g)
            for D in webs:
                assert counts.get(D, 0) == len(enumerate_labelings(D, g)), g

    def test_support_follows_web_order(self):
        order = {D: k for k, D in enumerate(irreducible_webs(4))}
        for g in all_triples(4)[::37]:
            ks = [order[D] for D in decompose_triple(g)]
            assert ks == sorted(ks)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_rows_are_web_positions_one_per_labeling(self, n):
        table = minors._decompositions(n)
        assert list(table) == list(iter_triples(n))
        assert all(type(row) is tuple and all(type(k) is int for k in row) for row in table.values())
        tally = {}
        for D in irreducible_webs(n):
            for g, c in word_counts(D).items():
                tally.setdefault(g, {})[D] = c
        assert tally.keys() == table.keys()
        for g, counts in tally.items():
            assert list(decompose_triple(g).items()) == list(counts.items()), g

    def test_result_is_a_copy(self):
        first = decompose_triple(WORKED)
        first.clear()
        assert len(decompose_triple(WORKED)) == 15


class TestTripleIdentity:
    def test_all_triples_three_strands(self):
        rng = random.Random(SEED + 2)
        triples = all_triples(3)
        assert len(triples) == 93
        assert list(iter_triples(3)) == triples
        for _ in range(5):
            X = random_rational_matrix(3, rng)
            cache = {}
            for g in triples:
                assert check_triple(g, X, cache), g

    def test_random_triples_four_strands(self):
        rng = random.Random(SEED + 3)
        triples = [random_triple(4, rng) for _ in range(50)]
        for _ in range(5):
            X = random_rational_matrix(4, rng)
            cache = {}
            for g in triples:
                assert check_triple(g, X, cache), g

    def test_worked_example_identity(self):
        counts = decompose_triple(WORKED)
        # every coefficient for this boundary is 1; the support is the
        # derived fact under test, its exact webs are pinned by count
        assert set(counts.values()) == {1}
        assert len(counts) == 15
        rng = random.Random(SEED + 4)
        for _ in range(3):
            X = random_rational_matrix(4, rng)
            assert check_triple(WORKED, X)

    def test_role_swap_symmetry(self):
        # swapping the first two (rows, cols) pairs keeps the product,
        # so the expansion in the immanant basis cannot move either
        rng = random.Random(SEED + 5)
        for _ in range(8):
            g = random_triple(3, rng)
            s = tuple({1: 2, 2: 1}.get(k, k) for k in g)
            ct = {D.code: c for D, c in decompose_triple(g).items()}
            cs = {D.code: c for D, c in decompose_triple(s).items()}
            assert ct == cs, g


class TestRank:
    def test_rank_two_strands(self):
        report = rank_check(2)
        assert report["rank"] == 2 and report["passed"]

    def test_rank_three_strands(self):
        report = rank_check(3)
        assert report["rank"] == 6 and report["passed"]
        assert report["triples"] == 93

    @pytest.mark.slow
    def test_rank_four_strands(self):
        assert rank_check(4) == {
            "n": 4,
            "triples": 639,
            "webs": 23,
            "rank": 23,
            "max_coefficient": 2,
            "max_coefficient_triple": {
                "rows": [[2], [3], [1, 4]],
                "cols": [[2], [3], [1, 4]],
            },
            "passed": True,
        }

    @pytest.mark.slow
    def test_rank_five_strands(self):
        assert rank_check(5) == {
            "n": 5,
            "triples": 4653,
            "webs": 103,
            "rank": 103,
            "max_coefficient": 3,
            "max_coefficient_triple": {
                "rows": [[2], [1, 4], [3, 5]],
                "cols": [[3], [1, 4], [2, 5]],
            },
            "passed": True,
        }

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_rank_over_q_of_the_dense_matrix(self, n):
        webs = irreducible_webs(n)
        column = {D: k for k, D in enumerate(webs)}

        def dense(g):
            row = [0] * len(webs)
            for D, c in decompose_triple(g).items():
                row[column[D]] = c
            return tuple(row)

        # a repeated row leaves the rank as it is; at n = 5 the 4,653
        # rows hold 776 distinct ones
        rows = list(dict.fromkeys(map(dense, iter_triples(n))))
        assert rank_over_q(rows) == rank_check(n)["rank"] == len(webs)
        if n > 1:  # the control: a copy of the first column in place of the second
            assert rank_over_q([r[:1] + r[:1] + r[2:] for r in rows]) == len(webs) - 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_the_least_word_rank_is_the_f2_rank(self, n):
        webs = irreducible_webs(n)
        column = {D: k for k, D in enumerate(webs)}
        rows = (((column[D], c) for D, c in decompose_triple(g).items()) for g in iter_triples(n))
        assert rank_check(n)["rank"] == rank_mod2(rows, len(webs)) == len(webs)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_the_report_is_the_oracles(self, n):
        # the oracle decomposes every triple and takes each row's largest
        # value; the report must match it to the byte, key order included
        assert json.dumps(rank_check(n)) == json.dumps(oracle_rank_check(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_each_web_is_enumerated_once_and_decomposed_once(self, n, monkeypatch):
        webs = irreducible_webs(n)
        calls = Counter()

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)
            return call

        for name in ("enumerate_labelings", "decompose_triple"):
            monkeypatch.setattr(minors, name, counted(name, getattr(minors, name)))
        minors._decompositions.cache_clear()
        rank_check(n)
        # least words are distinct up to n = 6, so one row names each web first
        assert calls == {"enumerate_labelings": len(webs), "decompose_triple": len(webs)}

    def test_a_short_certificate_fails(self, monkeypatch):
        full = rank_check(3)
        table = minors._decompositions(3)
        least = {}  # web position -> least word, in the order the words come
        for g, row in table.items():
            for k in row:
                least.setdefault(k, g)
        first, *_, last = least  # the webs of the first and the last least word

        def patched(changed_at, k):
            rows = {**table, changed_at: tuple(sorted(table[changed_at] + (k,)))}
            return lambda n: rows

        # the last web counted twice at its least word: that word drops out
        monkeypatch.setattr(minors, "_decompositions", patched(least[last], last))
        rows, cols = triple_blocks(least[last])
        assert rank_check(3) == {
            **full,
            "rank": 5,
            "max_coefficient": 2,
            "max_coefficient_triple": {"rows": [list(b) for b in rows], "cols": [list(b) for b in cols]},
            "passed": False,
        }
        # the last web first seen at the first web's least word: two webs
        # share one word, which counts once
        monkeypatch.setattr(minors, "_decompositions", patched(least[first], last))
        assert rank_check(3) == {**full, "rank": 5, "passed": False}

    def test_multiplicity_is_recorded(self):
        # the expansion need not be multiplicity free; the report
        # tracks the largest coefficient so the claim stays observable
        report = rank_check(3)
        assert report["max_coefficient"] >= 1
        assert isinstance(report["max_coefficient"], int)


def least_words(columns):
    """The least word g_D of each column D, a map from boundary word to
    labeling count, when D has exactly one labeling at g_D and the g_D
    are pairwise distinct; None otherwise.  These two conditions already
    make the square minor on the rows g_D unitriangular: sorted by g_D,
    a column whose least word is larger has no labeling at any smaller
    g_D, and each column has count 1 at its own."""
    words = [min(c) for c in columns]
    if any(c[g] != 1 for c, g in zip(columns, words)) or len(set(words)) != len(words):
        return None
    return words


class TestLeastWords:
    # full rank with no elimination (Khovanov-Kuperberg's triangularity
    # by minimal states): each irreducible web has one labeling at its
    # least boundary word, and no two webs share that word
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_least_words_give_a_unitriangular_minor(self, n):
        columns = [word_counts(D) for D in irreducible_webs(n)]
        words = least_words(columns)
        assert words is not None and len(set(words)) == len(columns)
        # the controls: a duplicated column, and a raised count at some g_D
        assert least_words(columns + [columns[-1]]) is None
        k = len(columns) // 2
        raised = Counter(columns[k])
        raised[words[k]] += 1
        assert least_words(columns[:k] + [raised] + columns[k + 1:]) is None
