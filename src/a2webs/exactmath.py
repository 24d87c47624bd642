"""Exact arithmetic: big rationals and Laurent polynomials in t, t**4 = q.

Every coefficient in the package (loop and bigon factors, edge-statistic
monomials, weighted labeling counts, reduction coefficients) lives in
Z[t, t^-1].  The base variable is the quarter power of q
because the edge statistic contributes quarter powers; whole powers of q
are exponents divisible by 4.
"""

from __future__ import annotations

import operator
import re
import sys
from fractions import Fraction
from typing import Iterator, Mapping


class InexactDivisionError(ArithmeticError):
    """A quotient of Laurent polynomials left a nonzero remainder."""


# Bounds on a rational read from a string, checked before Fraction
# builds it: "1e1000000" alone would make a 3.3-million-bit numerator.
# Every float's decimal form fits them.
MAX_RATIONAL_CHARS = 1000
MAX_DECIMAL_EXPONENT = 1000
# The most characters of a user's text that an error message quotes.
MAX_QUOTED_CHARS = 80

_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)", re.IGNORECASE)


def parse_rational(x) -> Fraction:
    """The one reader of rational input: an int, a Fraction, a string
    such as "-22/7" or "0.1", or a float read through its decimal form,
    so 0.1 is 1/10.  Anything else, bool included, raises ValueError,
    as does a string longer than `_read_bound()` characters or with a
    decimal exponent beyond MAX_DECIMAL_EXPONENT."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        x = str(x)
    if isinstance(x, str):
        bound, why = _read_bound()
        if len(x) > bound:
            raise ValueError(f"rational longer than {bound} characters{why}")
        m = _EXPONENT.search(x)
        if m and abs(int(m.group(1))) > MAX_DECIMAL_EXPONENT:
            raise ValueError(f"decimal exponent beyond {MAX_DECIMAL_EXPONENT}: {quoted(x)}")
    if isinstance(x, (int, Fraction, str)) and not isinstance(x, bool):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"not a rational: {quoted(x)}")


_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)  # 0: no cap


def _read_bound() -> tuple[int, str]:
    """The most characters a number read may have, and why: the
    interpreter's cap on int-to-string conversion where a user set it
    below MAX_RATIONAL_CHARS, so that int() never meets the cap."""
    cap = _int_max_str_digits()
    if 0 < cap < MAX_RATIONAL_CHARS:
        return cap, " (the interpreter's cap on int-to-string conversion)"
    return MAX_RATIONAL_CHARS, ""


def quoted(value) -> str:
    """repr(value) for an error message, an int written by exact_str.  A
    string longer than MAX_QUOTED_CHARS characters is cut to that many
    and followed by its length; so is the text of any other value, when
    that text is longer."""
    if isinstance(value, str):
        if len(value) <= MAX_QUOTED_CHARS:
            return repr(value)
        return f"{value[:MAX_QUOTED_CHARS]!r}... ({len(value):,} characters)"
    text = exact_str(value) if type(value) is int else repr(value)
    if len(text) <= MAX_QUOTED_CHARS:
        return text
    return f"{text[:MAX_QUOTED_CHARS]}... ({len(text):,} characters)"


def parse_int(text: str) -> int:
    """int(text) under parse_rational's bound: a text with more than
    `_read_bound()` characters besides its sign and surrounding space
    raises OverflowError before int() reads it.  Any other bad text
    raises int()'s ValueError, quoting the text through `quoted`."""
    bound, why = _read_bound()
    if len(text.strip().lstrip("+-")) > bound:
        raise OverflowError(f"number longer than {bound} digits{why}")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid literal for int() with base 10: {quoted(text)}") from None


# Digits per piece when exact_str writes a long int: under 640, the
# least cap on int-to-string conversion that the interpreter accepts.
_DIGITS_PER_PIECE = 600
_PIECE = 10**_DIGITS_PER_PIECE


def exact_str(x: "int | Fraction") -> str:
    """str(x) for an int or a Fraction, the one writer of exact values
    in reports, also past the interpreter's cap on int-to-string
    conversion (sys.get_int_max_str_digits), which it leaves as it is.
    A value under the cap is str(x); a longer one is written piece by
    piece, each piece under any cap the interpreter accepts."""
    try:
        return str(x)
    except ValueError:
        pass
    if isinstance(x, Fraction):
        num = _long_str(x.numerator)
        return num if x.denominator == 1 else f"{num}/{_long_str(x.denominator)}"
    return _long_str(x)


def _long_str(x: int) -> str:
    sign, x = ("-", -x) if x < 0 else ("", x)
    pieces = []
    while x >= _PIECE:
        x, r = divmod(x, _PIECE)
        pieces.append(str(r).zfill(_DIGITS_PER_PIECE))
    pieces.append(str(x))
    return sign + "".join(reversed(pieces))


class LaurentPoly:
    """Immutable Laurent polynomial with integer coefficients.

    Stored as a map from integer exponent (of t) to nonzero int; any
    other exponent or coefficient, a Fraction, a float or a string,
    raises TypeError.
    Supports +, -, *, ** and exact division; equality and hashing are
    structural.
    """

    __slots__ = ("_c", "_hash")

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        clean: dict[int, int] = {}
        if coeffs:
            for e, c in coeffs.items():
                c = operator.index(c)
                if c:
                    clean[operator.index(e)] = c
        self._c = clean
        self._hash: int | None = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def t_power(cls, k: int) -> "LaurentPoly":
        return cls({k: 1})

    # -- inspection ----------------------------------------------------

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._c.items()))

    def coeff(self, e: int) -> int:
        return self._c.get(e, 0)

    def is_zero(self) -> bool:
        return not self._c

    def is_one(self) -> bool:
        return self._c == _ONE

    @property
    def min_exp(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no extremal exponent")
        return min(self._c)

    @property
    def max_exp(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no extremal exponent")
        return max(self._c)

    # -- ring operations -----------------------------------------------

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        other = _coerce(other)
        out = dict(self._c)
        for e, c in other._c.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
        return _unchecked(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _unchecked({e: -c for e, c in self._c.items()})

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other: int) -> "LaurentPoly":
        return _coerce(other) - self

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        """The product.  By a one-term operand c*t^k (1, -1 and t^2
        among them) it is the other operand shifted by k and scaled by
        c, in one pass; by 1 it is the other operand itself, since
        polynomials are immutable."""
        other = _coerce(other)
        if self._c == _ONE:
            return other
        p, mono = (self, other) if len(other._c) == 1 else (other, self)
        if len(mono._c) == 1:
            (k, c), = mono._c.items()
            if k == 0 and c == 1:
                return p
            return _unchecked({e + k: v * c for e, v in p._c.items()})
        out: dict[int, int] = {}
        for e1, c1 in self._c.items():
            for e2, c2 in other._c.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        if 0 in out.values():
            out = {e: c for e, c in out.items() if c}
        return _unchecked(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise ValueError("negative powers are not defined here")
        acc = LaurentPoly.one()
        for _ in range(k):
            acc = acc * self
        return acc

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t**k."""
        return LaurentPoly({e + k: c for e, c in self._c.items()})

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = _coerce(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        """Structural, and equal to the int's hash on a constant (zero
        on zero), since a constant equals its int."""
        if self._hash is None:
            c = self._c
            if not c or c.keys() == {0}:
                self._hash = hash(c.get(0, 0))
            else:
                self._hash = hash(tuple(sorted(c.items())))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._c)

    # -- rendering -----------------------------------------------------

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for e, c in sorted(self._c.items()):
            if e == 0:
                body = exact_str(abs(c))
            else:
                pw = "t" if e == 1 else f"t^{e}"
                body = pw if abs(c) == 1 else f"{exact_str(abs(c))}*{pw}"
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"

    # -- JSON ------------------------------------------------------------

    def to_json_obj(self) -> dict[str, str]:
        return {str(e): exact_str(c) for e, c in sorted(self._c.items())}


_ONE = {0: 1}


def _unchecked(c: dict[int, int]) -> LaurentPoly:
    """A LaurentPoly on c as it is, for the ring operations' results:
    c maps ints to nonzero ints, so nothing is checked."""
    p = object.__new__(LaurentPoly)
    p._c = c
    p._hash = None
    return p


def _coerce(x: "LaurentPoly | int") -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, int):
        return LaurentPoly.const(x)
    raise TypeError(f"cannot mix LaurentPoly with {type(x).__name__}")


def qint(k: int) -> LaurentPoly:
    """Quantum integer [k]: sum of t^(4j - 2(k-1)) for j = 0..k-1.

    Symmetric under t -> t^-1 and evaluates to k at q = 1.
    """
    if k < 1:
        raise ValueError(f"qint needs a positive integer, got {k}")
    return LaurentPoly({4 * j - 2 * (k - 1): 1 for j in range(k)})


def exact_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Quotient a / b, defined only when it is again a Laurent polynomial.

    Raises InexactDivisionError when division leaves a remainder; a
    remainder downstream always indicates a bug or a misapplied theorem,
    never something to approximate through.
    """
    if b.is_zero():
        raise ZeroDivisionError("division of Laurent polynomials by zero")
    if a.is_zero():
        return LaurentPoly.zero()
    # t is a unit, so shift both operands to ordinary polynomials and do
    # long division over the integers.
    sa, sb = a.min_exp, b.min_exp
    da = a.max_exp - sa
    db = b.max_exp - sb
    num = [a.coeff(sa + i) for i in range(da + 1)]
    den = [b.coeff(sb + i) for i in range(db + 1)]
    if da < db:
        raise InexactDivisionError(f"({a}) is not divisible by ({b})")
    quot = [0] * (da - db + 1)
    for i in range(da - db, -1, -1):
        c, r = divmod(num[i + db], den[db])
        if r:
            raise InexactDivisionError(f"({a}) is not divisible by ({b})")
        quot[i] = c
        if c:
            for j in range(db + 1):
                num[i + j] -= c * den[j]
    if any(num):
        raise InexactDivisionError(f"({a}) is not divisible by ({b})")
    return LaurentPoly({i: c for i, c in enumerate(quot)}).shift(sa - sb)


def eval_q1(a: LaurentPoly) -> int:
    """Evaluate at q = 1 (t = 1); a ring homomorphism onto the integers."""
    return sum(a._c.values())
