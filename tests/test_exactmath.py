import itertools
import random
import sys
from fractions import Fraction

import pytest

from a2webs.exactmath import (
    MAX_DECIMAL_EXPONENT,
    MAX_RATIONAL_CHARS,
    InexactDivisionError,
    LaurentPoly,
    eval_q1,
    exact_div,
    exact_str,
    parse_rational,
    qint,
)
from a2webs.immanants import ExactMatrix
from a2webs.perms import all_perms, perm_length
from oracles import rank_mod2, rank_over_q


def P(coeffs):
    return LaurentPoly(coeffs)


class TestQint:
    def test_qint_1_is_one(self):
        assert qint(1) == LaurentPoly.one()

    def test_qint_2(self):
        assert qint(2) == P({2: 1, -2: 1})

    def test_qint_3(self):
        assert qint(3) == P({4: 1, 0: 1, -4: 1})

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            qint(0)
        with pytest.raises(ValueError):
            qint(-2)

    def test_palindromic_and_counts(self):
        for k in range(1, 9):
            p = qint(k)
            assert all(p.coeff(e) == p.coeff(-e) for e in range(p.min_exp, p.max_exp + 1))
            assert eval_q1(p) == k


class TestRingOps:
    def test_square_of_qint2(self):
        # (t^2 + t^-2)^2 = t^4 + 2 + t^-4 = [3] + [1]
        assert qint(2) * qint(2) == P({4: 1, 0: 2, -4: 1})
        assert qint(2) * qint(2) == qint(3) + qint(1)

    def test_add_sub_neg(self):
        a = P({1: 3, -1: -2})
        assert a - a == LaurentPoly.zero()
        assert a + (-a) == LaurentPoly.zero()
        assert -(-a) == a

    def test_int_coercion(self):
        assert qint(2) - 2 == P({2: 1, 0: -2, -2: 1})
        assert 1 + LaurentPoly.zero() == LaurentPoly.one()
        assert 3 * LaurentPoly.one() == LaurentPoly.const(3)

    def test_pow(self):
        assert qint(2) ** 0 == LaurentPoly.one()
        assert qint(2) ** 2 == qint(2) * qint(2)

    def test_shift(self):
        assert LaurentPoly.one().shift(-3) == P({-3: 1})

    def test_hash_consistency(self):
        assert hash(qint(2) * qint(2)) == hash(qint(3) + 1)

    def test_constants_hash_as_their_ints(self):
        # a constant equals its int, so it hashes as that int: it finds
        # the int's entry in a dict or a set, and zero hashes as 0
        for c in (0, 1, -1, 3, 10**30):
            p = LaurentPoly.const(c)
            assert p == c and hash(p) == hash(c)
            assert len({p, c}) == 1 and {c: "x"}.get(p) == "x" and {p: "x"}.get(c) == "x"
        assert hash(LaurentPoly.zero()) == 0 and hash(qint(3) - qint(3)) == 0

    def test_zero_coefficient_dropped(self):
        assert P({5: 0}) == LaurentPoly.zero()
        assert not P({5: 0})

    def test_coefficients_are_integers(self):
        with pytest.raises(TypeError):
            P({0: Fraction(1, 2)})
        with pytest.raises(TypeError):
            P({0: 1.0})

    def test_exponents_are_integers(self):
        with pytest.raises(TypeError):
            P({1.5: 1})
        with pytest.raises(TypeError):
            P({"2": 1})

    def test_cancellation_stores_no_zero(self):
        a, b = P({3: 2, -1: 1}), P({3: -2, 5: 4})
        assert (a + b)._c == {-1: 1, 5: 4}
        assert (a - a)._c == {} and (a + (-a))._c == {}
        # (t + 1)(t - 1) = t^2 - 1: the t terms cancel
        assert (P({1: 1, 0: 1}) * P({1: 1, 0: -1}))._c == {2: 1, 0: -1}
        for x, y in itertools.product(_polys(), repeat=2):
            assert 0 not in (x * y)._c.values() and 0 not in (x + y)._c.values()

    def test_equal_by_different_routes(self):
        # a product by a monomial, a sum of checked monomials, and a
        # product through a larger factor with the extra term taken off
        rng = random.Random(41)
        for _ in range(200):
            x = _random_poly(rng)
            e, c = rng.randint(-5, 5), rng.choice([-2, -1, 1, 3])
            mono = P({e: c})
            by_shift = x * mono
            by_sum = sum((P({k + e: v * c}) for k, v in x._c.items()), LaurentPoly.zero())
            by_full = x * (mono + P({50: 1})) - x.shift(50)
            assert by_shift == by_sum == by_full == mono * x
            assert hash(by_shift) == hash(by_sum) == hash(by_full)
            assert by_shift == P(dict(by_shift.items()))

    def test_scaling_by_zero(self):
        for x in _polys():
            assert (x * 0).is_zero() and (0 * x).is_zero()
            assert x * 0 == LaurentPoly.zero() and hash(0 * x) == hash(LaurentPoly.zero())


def _schoolbook(a, b):
    """The product by every pair of terms, zeros dropped."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return LaurentPoly(out)


class TestMonomialProducts:
    # a product by one term c*t^k shifts and scales the other operand in
    # one pass; it must equal the product by every pair of terms, in both
    # orders, and change neither operand
    def test_one_term_factors_match_the_schoolbook_product(self):
        rng = random.Random(50)
        factors = [LaurentPoly.one(), LaurentPoly.const(-1), LaurentPoly.t_power(2), LaurentPoly.zero(), 1, -1, 0]
        for _ in range(300):
            e, c = rng.randint(-9, 9), rng.choice([-7, -2, -1, 1, 2, 5, 10**20])
            factors.append(P({e: c}))
        for mono in factors:
            m = LaurentPoly.const(mono) if isinstance(mono, int) else mono
            for _ in range(5):
                x = _random_poly(rng)
                x_before, m_before = dict(x._c), dict(m._c)
                want = _schoolbook(x._c, m._c)
                for got in (x * mono, mono * x):
                    assert got == want and got._c == want._c and hash(got) == hash(want)
                    assert 0 not in got._c.values()
                assert x._c == x_before and m._c == m_before

    def test_a_product_by_one_is_the_other_operand(self):
        rng = random.Random(51)
        for _ in range(50):
            x = _random_poly(rng)
            assert x * LaurentPoly.one() is x and LaurentPoly.one() * x is x

    def test_many_term_products_match_the_schoolbook_product(self):
        rng = random.Random(52)
        for _ in range(300):
            x, y = _random_poly(rng), _random_poly(rng)
            assert x * y == y * x == _schoolbook(x._c, y._c)


class TestExactDiv:
    def test_multiply_then_divide(self):
        assert exact_div(qint(2) * qint(3), qint(2)) == qint(3)

    def test_zero_numerator(self):
        assert exact_div(LaurentPoly.zero(), qint(2)) == LaurentPoly.zero()

    def test_remainder_refused(self):
        # (t^2 + 1) mod (t^2 - 1) = 2
        with pytest.raises(InexactDivisionError):
            exact_div(P({2: 1, 0: 1}), P({2: 1, 0: -1}))

    def test_non_integral_quotient_refused(self):
        with pytest.raises(InexactDivisionError):
            exact_div(P({0: 1}), P({0: 2}))
        with pytest.raises(InexactDivisionError):
            exact_div(P({2: 1, 0: 1}), P({2: 2, 0: 2}))

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            exact_div(qint(2), LaurentPoly.zero())

    def test_unit_division(self):
        assert exact_div(qint(3), LaurentPoly.t_power(-4)) == qint(3).shift(4)

    def test_random_roundtrip(self):
        rng = random.Random(20260816)
        for _ in range(200):
            a = _random_poly(rng)
            b = _random_poly(rng)
            while b.is_zero():
                b = _random_poly(rng)
            assert exact_div(a * b, b) == a


class TestEval:
    def test_eval_qint3(self):
        assert eval_q1(qint(3)) == 3

    def test_eval_antisymmetric(self):
        assert eval_q1(P({1: 1, -1: -1})) == 0

    def test_eval_is_multiplicative(self):
        assert eval_q1(qint(2) * qint(3)) == 6

    def test_eval_returns_int(self):
        v = eval_q1(P({0: 3, 4: -7}))
        assert type(v) is int and v == -4
        assert type(eval_q1(LaurentPoly.zero())) is int


class TestRendering:
    def test_t_form(self):
        assert str(qint(3)) == "t^-4 + 1 + t^4"
        assert str(qint(2)) == "t^-2 + t^2"
        assert str(LaurentPoly.zero()) == "0"

    def test_signs_and_coefficients(self):
        p = P({-2: -1, 0: 2, 3: -3, 1: 1})
        assert str(p) == "-t^-2 + 2 + t - 3*t^3"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no cap on int-to-string conversion")
class TestExactStr:
    # exact_str writes what str() writes with the cap lifted, under the
    # least cap the interpreter accepts, and leaves the cap as it was
    def values(self):
        rng = random.Random(4300)
        out = [0, 1, -1, 10**600, 10**600 - 1, -(10**1200), 10**5000]
        for digits in (599, 600, 601, 1201, 4299, 4300, 4301, 9000):
            out.append(rng.randrange(10 ** (digits - 1), 10**digits) * rng.choice((1, -1)))
        return out + [Fraction(x, d) for x in out[:12] for d in (1, 3, 10**700 + 7)]

    def test_equals_str_without_the_cap(self):
        values = self.values()
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            want = [str(x) for x in values]
            sys.set_int_max_str_digits(640)
            assert [exact_str(x) for x in values] == want
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(limit)

    def test_a_value_under_the_cap_is_its_str(self):
        for x in (0, -7, Fraction(-22, 7), 10**4299, Fraction(1, 10**4299)):
            assert exact_str(x) == str(x)


class TestJson:
    def test_key_order_deterministic(self):
        p = P({4: 1, -4: 1, 0: 1})
        assert list(p.to_json_obj()) == ["-4", "0", "4"]


class TestRationalCodec:
    def test_roundtrip(self):
        for s in ["3", "-3", "3/4", "-22/7", "0"]:
            assert str(parse_rational(s)) == s

    def test_normalization(self):
        assert parse_rational("4/8") == Fraction(1, 2)
        assert parse_rational(" 0.1 ") == Fraction(1, 10)
        assert parse_rational(0.1) == Fraction(1, 10)
        assert parse_rational(-3) == Fraction(-3)
        assert parse_rational(Fraction(6, 4)) == Fraction(3, 2)

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_rational("three halves")
        with pytest.raises(ValueError):
            parse_rational("1/0")
        for bad in (True, False, None, [1], float("nan"), float("inf")):
            with pytest.raises(ValueError):
                parse_rational(bad)

    # each text's value and type, and below each refusal's message
    @pytest.mark.parametrize("text, want", [
        ("7", Fraction(7)), ("-7", Fraction(-7)), ("22/7", Fraction(22, 7)), ("-22/8", Fraction(-11, 4)),
        ("+7", Fraction(7)), (" 7", Fraction(7)), ("7 ", Fraction(7)), ("1_000", Fraction(1000)),
        ("\u0663", Fraction(3)), ("\u0663/\u0664", Fraction(3, 4)), ("-0/5", Fraction(0)), ("007/010", Fraction(7, 10)),
        ("0.5", Fraction(1, 2)), ("1e5", Fraction(100000)),
    ])
    def test_texts_read_as_before(self, text, want):
        got = parse_rational(text)
        assert type(got) is Fraction and got == want

    @pytest.mark.parametrize("text, message", [
        ("1/0", "not a rational: '1/0'"), ("7/", "not a rational: '7/'"), ("/7", "not a rational: '/7'"),
        ("-", "not a rational: '-'"), ("--7", "not a rational: '--7'"), ("1/-2", "not a rational: '1/-2'"),
        ("\u00b2", "not a rational: '\u00b2'"), ("", "not a rational: ''"),
        ("9" * (MAX_RATIONAL_CHARS + 1), f"rational longer than {MAX_RATIONAL_CHARS} characters"),
    ])
    def test_texts_refused_as_before(self, text, message):
        with pytest.raises(ValueError) as err:
            parse_rational(text)
        assert str(err.value) == message

    def test_a_fraction_is_returned_as_it_is(self):
        x = Fraction(6, 4)
        assert parse_rational(x) is x

    def test_size_bounds(self):
        # refused before Fraction builds a huge power of ten
        e = MAX_DECIMAL_EXPONENT
        assert parse_rational(f"1e{e}") == 10 ** e
        assert parse_rational(f"-2.5E-{e}") == Fraction(-25, 10 ** (e + 1))
        assert parse_rational("9" * MAX_RATIONAL_CHARS) == 10 ** MAX_RATIONAL_CHARS - 1
        assert parse_rational(5e-324) == Fraction("5e-324")
        for bad in (f"1e{e + 1}", f"1E-{e + 1}", "1e1000000000", "1e1_000_000",
                    "9" * (MAX_RATIONAL_CHARS + 1), " " * MAX_RATIONAL_CHARS + "1"):
            with pytest.raises(ValueError):
                parse_rational(bad)


def _polys():
    return [LaurentPoly.zero(), LaurentPoly.one(), P({2: -1}), qint(3), P({1: 1, 0: -1}), P({-3: 2, 4: -5, 0: 1})]


def _random_poly(rng):
    terms = {}
    for _ in range(rng.randrange(0, 5)):
        terms[rng.randrange(-6, 7)] = rng.randrange(-9, 10)
    return LaurentPoly(terms)


def _random_rows(rng, m, n, k):
    """An m by n rational matrix of rank at most k, the product of
    random m by k and k by n factors."""
    def rnd(r, c):
        return [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(c)]
            for _ in range(r)
        ]

    B, C = rnd(m, k), rnd(k, n)
    return [[sum(B[i][t] * C[t][j] for t in range(k)) for j in range(n)] for i in range(m)]


def _leibniz(rows):
    n = len(rows)
    total = Fraction(0)
    for w in all_perms(n):
        term = Fraction(-1 if perm_length(w) % 2 else 1)
        for i in range(n):
            term *= rows[i][w[i] - 1]
        total += term
    return total


def _rank_by_minors(rows):
    """Largest k with a nonzero k by k minor, each minor a Leibniz sum."""
    m, n = len(rows), len(rows[0]) if rows else 0
    for k in range(min(m, n), 0, -1):
        for I in itertools.combinations(range(m), k):
            for J in itertools.combinations(range(n), k):
                if _leibniz([[rows[i][j] for j in J] for i in I]):
                    return k
    return 0


class TestElimination:
    def test_det_matches_leibniz(self):
        rng = random.Random(7)
        for n in range(7):
            for _ in range(4):
                rows = _random_rows(rng, n, n, n)
                cases = [rows]
                if n:
                    i = rng.randrange(n)
                    cases.append(rows[:i] + [[Fraction(0)] * n] + rows[i + 1:])
                if n > 1:
                    j = (i + rng.randrange(1, n)) % n
                    cases.append(rows[:i] + [rows[j]] + rows[i + 1:])
                for case in cases:
                    assert ExactMatrix.from_rows(case).det() == _leibniz(case), case

    def test_permutation_matrices_have_the_sign(self):
        # every w of S_4 but the identity makes the elimination swap rows
        for w in all_perms(4):
            rows = [[int(j == w[i]) for j in range(1, 5)] for i in range(4)]
            assert ExactMatrix.from_rows(rows).det() == (-1) ** perm_length(w), w


class TestRankOverQ:
    def test_matches_the_rank_by_minors(self):
        # the tests' fraction-free oracle on rational rows of every rank,
        # some with a zero column, so that a step finds no pivot
        rng = random.Random(37)
        for _ in range(80):
            m, n = rng.randint(0, 5), rng.randint(1, 4)
            rows = _random_rows(rng, m, n, rng.randint(1, n))
            if rng.random() < 0.3:
                j = rng.randrange(n)
                rows = [r[:j] + [Fraction(0)] + r[j + 1:] for r in rows]
            assert rank_over_q(rows) == _rank_by_minors(rows), rows


def _rank_mod2_by_minors(rows):
    """Largest k with an odd k by k minor, each minor a Leibniz sum."""
    m, n = len(rows), len(rows[0]) if rows else 0
    for k in range(min(m, n), 0, -1):
        for I in itertools.combinations(range(m), k):
            for J in itertools.combinations(range(n), k):
                if _leibniz([[rows[i][j] for j in J] for i in I]) % 2:
                    return k
    return 0


def _mod2(rows, width):
    return rank_mod2(map(enumerate, rows), width)


class TestRankMod2:
    def test_matches_odd_minors_and_bounds_the_exact_rank(self):
        rng = random.Random(23)
        full = 0
        for _ in range(80):
            m, n = rng.randint(0, 5), rng.randint(1, 4)
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
            r2, r = _mod2(rows, n), _rank_by_minors(rows)
            assert r2 == _rank_mod2_by_minors(rows) <= r, rows
            if r2 == n:
                full += 1
                assert r == n
        assert full > 10

    def test_short_of_the_exact_rank(self):
        assert (_mod2([[1, 1], [1, -1]], 2), _rank_by_minors([[1, 1], [1, -1]])) == (1, 2)
        assert (_mod2([[2, 2, 2]], 3), _rank_by_minors([[2, 2, 2]])) == (0, 1)
        rng = random.Random(29)
        for _ in range(20):
            rows = [[2 * rng.randint(-4, 4) for _ in range(3)] for _ in range(4)]
            assert _mod2(rows, 3) == 0

    def test_sparse_rows_match_dense_rows(self):
        rng = random.Random(31)
        for _ in range(20):
            rows = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(6)]
            sparse = [[(k, x) for k, x in enumerate(row) if x][::-1] for row in rows]
            assert rank_mod2(sparse, 5) == _mod2(rows, 5)

    def test_full_rank_stops_the_arithmetic_but_reads_every_row(self):
        pulled = 0

        def counted():
            nonlocal pulled
            for row in ([1, 0], [3, 1], [Fraction(1, 2), 1.5], "not a row"):
                pulled += 1
                yield enumerate(row)

        assert rank_mod2(counted(), 2) == 2
        assert pulled == 4

    def test_a_repeated_column_adds(self):
        # two odd entries of one column cancel, three count once
        assert rank_mod2([[(0, 1), (0, 1)]], 1) == 0
        assert rank_mod2([[(0, 1), (0, 3), (0, -1)]], 1) == 1
        assert rank_mod2([[(1, 1), (0, 1), (1, 1)], [(0, 1)]], 2) == 1
        assert rank_mod2([[(1, 1), (0, 1), (1, 2)], [(0, 1)]], 2) == 2

    def test_refuses_entries_that_are_not_ints(self):
        for bad in (Fraction(1, 2), Fraction(2), 1.0, "1"):
            with pytest.raises(TypeError):
                _mod2([[1, bad]], 2)
