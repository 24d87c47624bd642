import random
from fractions import Fraction

import pytest

from a2webs.exactmath import (
    InexactDivisionError,
    LaurentPoly,
    eval_q1,
    exact_div,
    qint,
    rational_from_str,
    rational_to_str,
)


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
        a = P({1: 3, -1: Fraction(1, 2)})
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

    def test_zero_coefficient_dropped(self):
        assert P({5: 0}) == LaurentPoly.zero()
        assert not P({5: 0})


class TestExactDiv:
    def test_multiply_then_divide(self):
        assert exact_div(qint(2) * qint(3), qint(2)) == qint(3)

    def test_zero_numerator(self):
        assert exact_div(LaurentPoly.zero(), qint(2)) == LaurentPoly.zero()

    def test_remainder_refused(self):
        # (t^2 + 1) mod (t^2 - 1) = 2
        with pytest.raises(InexactDivisionError):
            exact_div(P({2: 1, 0: 1}), P({2: 1, 0: -1}))

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

    def test_eval_returns_rational(self):
        v = eval_q1(P({0: Fraction(3, 7)}))
        assert isinstance(v, Fraction) and v == Fraction(3, 7)


class TestRendering:
    def test_t_form(self):
        assert str(qint(3)) == "t^-4 + 1 + t^4"
        assert str(qint(2)) == "t^-2 + t^2"
        assert str(LaurentPoly.zero()) == "0"

    def test_q_form(self):
        assert qint(3).pretty() == "q^-1 + 1 + q"
        assert (qint(3) * LaurentPoly.t_power(4)).pretty() == "1 + q + q^2"

    def test_q_form_unavailable(self):
        assert qint(2).pretty() == "t^-2 + t^2"
        assert not qint(2).q_renderable()

    def test_signs_and_coefficients(self):
        p = P({-2: -1, 0: 2, 3: Fraction(-3, 2), 1: 1})
        assert str(p) == "-t^-2 + 2 + t - 3/2*t^3"


class TestJson:
    def test_roundtrip(self):
        p = P({-4: 1, 0: Fraction(5, 3), 2: -2})
        assert LaurentPoly.from_json_obj(p.to_json_obj()) == p

    def test_key_order_deterministic(self):
        p = P({4: 1, -4: 1, 0: 1})
        assert list(p.to_json_obj()) == ["-4", "0", "4"]

    def test_malformed(self):
        with pytest.raises(ValueError):
            LaurentPoly.from_json_obj({"x": "1"})
        with pytest.raises(ValueError):
            LaurentPoly.from_json_obj({"0": "one"})


class TestRationalCodec:
    def test_roundtrip(self):
        for s in ["3", "-3", "3/4", "-22/7", "0"]:
            assert rational_to_str(rational_from_str(s)) == s

    def test_normalization(self):
        assert rational_from_str("4/8") == Fraction(1, 2)

    def test_malformed(self):
        with pytest.raises(ValueError):
            rational_from_str("three halves")
        with pytest.raises(ValueError):
            rational_from_str("1/0")


def _random_poly(rng):
    terms = {}
    for _ in range(rng.randrange(0, 5)):
        terms[rng.randrange(-6, 7)] = Fraction(
            rng.randrange(-9, 10), rng.randrange(1, 5)
        )
    return LaurentPoly(terms)
