"""Irreducible web enumeration, immanant tables, and exact matrices.

At q = 1 the braid generator maps to E_i - 1.  Multiplying these along
a reduced word of a permutation w and rewriting to irreducible webs
gives one integer f_D(w) per web D.  The function

    Imm_D(X) = sum over w of f_D(w) x_{1,w(1)} ... x_{n,w(n)}

is the immanant attached to D.  Webs are discovered by running the
expansion over all of S_n; completeness of the discovered set is not
taken on faith but certified by two independent counts (a pattern
avoidance scan and a tableau count, module perms), which the test
suite and the verification CLI both enforce.

Immanants of matrices built from positive planar networks are
nonnegative; tnn_check samples that claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import lcm
from typing import Optional, Sequence

from .exactmath import eval_q1, exact_str, parse_rational, quoted
from .perms import Perm, all_perms, first_reduced_word, is_perm, perm_from_word, perm_length
from .spider import WebCombo, hecke_image
from .webcore import Web, WebError, int_entries

# documented strand bounds, the one table of them.  "webs" bounds web
# enumeration: expansions run over all of S_n, so the cost is factorial
# and n = 6 is the last size that finishes in reasonable time.  The
# others bound the CLI's coefficient tables, immanant evaluation and
# reduction, and each verification suite; exhaustive checks stop being
# desk-scale above them, so single suites refuse above these and the
# "all" runner clamps.
STRAND_BOUNDS = {
    "webs": 6,
    "immanants": 4,
    "relations": 4,
    "confluence": 4,
    "dimensions": 6,
    "kappa": 4,
    "ci": 4,
    "minors": 4,
    "bridge": 3,
    "networks": 3,
    "tnn": 4,
    "reduce": 10_000,
}


def _cleared(rows: Sequence[Sequence[Fraction]]) -> tuple[int, list[list[int]]]:
    """The rows scaled to integers, each by the lcm of its denominators,
    and den, the product of those lcms."""
    den, scaled = 1, []
    for row in rows:
        d = lcm(*(x.denominator for x in row))
        den *= d
        scaled.append([x.numerator * (d // x.denominator) for x in row])
    return den, scaled


@dataclass(frozen=True)
class ExactMatrix:
    """Square matrix of rationals, 0-indexed entries."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise WebError("matrix must be square")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "ExactMatrix":
        return cls(tuple(tuple(parse_rational(x) for x in r) for r in rows))

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls.from_rows(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    @cached_property
    def monomials(self) -> tuple[int, dict[Perm, int]]:
        """Every nonzero x_{1,w(1)} ... x_{n,w(n)} over one common
        denominator, as (den, {w: numerator}), with the rows of
        `_cleared`.  One depth-first walk over the rows forms each
        prefix product once and drops a prefix at its first zero entry;
        the permutations come out in lexicographic order."""
        den, scaled = _cleared(self.rows)
        out: dict[Perm, int] = {}

        def extend(i: int, prefix: Perm, acc: int) -> None:
            if i == len(scaled):
                out[prefix] = acc
                return
            for j, x in enumerate(scaled[i], 1):
                if x and j not in prefix:
                    extend(i + 1, prefix + (j,), acc * x)

        extend(0, (), 1)
        return den, out

    def submatrix(self, keep_rows: Sequence[int], keep_cols: Sequence[int]) -> "ExactMatrix":
        """The entries in rows keep_rows and columns keep_cols, 0-indexed;
        an index outside 0..n-1 is refused."""
        for i in (*keep_rows, *keep_cols):
            if not 0 <= i < self.n:
                raise WebError(f"matrix index {quoted(i)} lies outside 0..{self.n - 1}")
        return ExactMatrix(
            tuple(tuple(self.rows[i][j] for j in keep_cols) for i in keep_rows)
        )

    def det(self) -> Fraction:
        """Fraction-free elimination (Bareiss, Math. Comp. 1968) over
        the rows of `_cleared`: each step's integer updates divide
        exactly by the previous pivot, and each row swap flips the sign.
        The last pivot is the determinant of those integer rows, and one
        Fraction divides it by their den."""
        den, a = _cleared(self.rows)
        n, sign, prev = len(a), 1, 1
        for k in range(n):
            i = next((i for i in range(k, n) if a[i][k]), None)
            if i is None:
                return Fraction(0)
            if i != k:
                a[k], a[i], sign = a[i], a[k], -sign
            pivot = a[k]
            for row in a[k + 1:]:
                f = row[k]
                for j in range(k + 1, n):
                    row[j] = (pivot[k] * row[j] - f * pivot[j]) // prev
            prev = pivot[k]
        return Fraction(sign * prev, den)

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "rows": [[exact_str(x) for x in r] for r in self.rows],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ExactMatrix":
        try:
            rows = obj["rows"]
        except (TypeError, KeyError) as exc:
            raise WebError("matrix object needs a 'rows' field") from exc
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise WebError("matrix 'rows' must be a JSON list of lists")
        try:
            m = cls.from_rows(rows)
        except (ValueError, TypeError) as exc:
            raise WebError(f"bad matrix entry: {exc}") from exc
        if "n" in obj and type(obj["n"]) is not int:
            raise WebError(f"matrix 'n' must be an integer, got {quoted(obj['n'])}")
        if "n" in obj and obj["n"] != m.n:
            raise WebError(f"matrix says n={quoted(obj['n'])} but has {m.n} rows")
        return m


def theta_image(w: Perm, word: Optional[Sequence[int]] = None) -> WebCombo:
    """Image of a permutation at generic parameter: the product of
    (t^2 E_i - 1) along a reduced word.  The combo only depends on w;
    pass a specific reduced word to exercise that independence.

    Diagram concatenation composes wirings left to right, opposite to
    function composition, so the factors are multiplied in reversed
    word order; that way the product realizes w itself, source i
    wired to sink w(i), matching row i and column w(i) of a matrix.
    """
    if not is_perm(w):
        raise WebError(f"{quoted(w)} is not a permutation")
    n = len(w)
    if word is None:
        word = first_reduced_word(w)
    else:
        word = int_entries(word)
        for i in word:
            if not 1 <= i < n:
                raise WebError(f"generator {quoted(i)} of {quoted(word)} lies outside 1..{n - 1}")
        if perm_from_word(n, word) != w or len(word) != perm_length(w):
            raise WebError(f"{quoted(word)} is not a reduced word for {quoted(w)}")
    return hecke_image(n, tuple(reversed(word)))


def _q1_row(combo: WebCombo) -> dict:
    """Integer web coefficients of a combo at q = 1, zeros dropped, in
    the combo's own term order: the table sorts its webs itself."""
    out = {}
    for web, coeff in combo._terms.items():
        v = eval_q1(coeff)
        if v:
            out[web] = v
    return out


def irreducible_webs(n: int) -> tuple[Web, ...]:
    """Every irreducible web hit by the S_n expansion, sorted by code:
    the table's own tuple, not a copy.

    The count must equal the number of 4321-avoiding permutations of
    S_n (equivalently a Kostka number); callers are expected to keep
    that certification enforced, as the tests do.
    """
    return immanant_table(n).webs


class ImmanantTable:
    """Integer coefficients f_D(w), rows indexed by irreducible webs."""

    __slots__ = ("n", "webs", "_rows")

    def __init__(self, n: int, rows: dict):
        self.n = n
        self.webs = tuple(sorted(rows, key=lambda D: D.code))
        self._rows = rows  # web -> {perm: int}, zeros omitted

    def _row(self, D: Web) -> dict:
        if D not in self._rows:
            raise WebError("not an irreducible web of this table")
        return self._rows[D]

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "webs": [list(D.code) for D in self.webs],
            "rows": [
                {
                    ",".join(map(str, w)): v
                    for w, v in sorted(self._rows[D].items())
                }
                for D in self.webs
            ],
        }


@cache
def immanant_table(n: int) -> ImmanantTable:
    """The one expansion over S_n: f_D(w) for every web D it hits."""
    bound = STRAND_BOUNDS["webs"]
    if n < 1:
        raise WebError(f"need n >= 1, got {quoted(n)}")
    if n > bound:
        raise WebError(f"web enumeration is bounded at n = {bound}, got {quoted(n)}")
    rows: dict = {}
    for w in all_perms(n):
        for D, v in _q1_row(theta_image(w)).items():
            rows.setdefault(D, {})[w] = v
    return ImmanantTable(n, rows)


def evaluate_immanant(D: Web, X: ExactMatrix) -> Fraction:
    """Exact value of Imm_D on a rational matrix."""
    if D.n != X.n:
        raise WebError(f"web on {D.n} strands against a {X.n} by {X.n} matrix")
    den, mono = X.monomials
    return Fraction(sum(f * mono.get(w, 0) for w, f in immanant_table(X.n)._row(D).items()), den)


def tnn_check(n: int, samples: int = 100, seed: int = 0) -> dict:
    """Evaluate every immanant on path matrices of random positive
    planar networks; the values must all be nonnegative.  Returns a
    report rather than raising: a negative value is a counterexample
    to a theorem, and the caller decides how loudly to fail."""
    from .networks import random_tnn_matrix  # deferred, networks sits above

    webs = irreducible_webs(n)
    violations = []
    least: Optional[Fraction] = None
    for k in range(samples):
        X = random_tnn_matrix(n, seed + k)
        for D in webs:
            v = evaluate_immanant(D, X)
            if least is None or v < least:
                least = v
            if v < 0:
                violations.append(
                    {
                        "web": list(D.code),
                        "matrix": X.to_json_obj(),
                        "value": exact_str(v),
                        "seed": seed + k,
                    }
                )
    return {
        "n": n,
        "samples": samples,
        "seed": seed,
        "immanants": len(webs),
        "min_value": exact_str(least) if least is not None else None,
        "violations": violations,
        "passed": not violations,
    }
