import re

import pytest

from a2webs.exactmath import quoted
from a2webs.perms import (
    all_perms,
    all_reduced_words,
    avoids,
    catalan,
    count_avoiding,
    descents,
    first_reduced_word,
    identity_perm,
    is_perm,
    kostka_three_column,
    perm_from_word,
    perm_length,
    times_s,
)
from a2webs.tlbridge import avoiding_321
from a2webs.webcore import WebError


class TestBasics:
    def test_times_s(self):
        assert times_s((1, 2, 3), 1) == (2, 1, 3)
        assert times_s((1, 2, 3), 2) == (1, 3, 2)
        for w, i in (((1, 2, 3), 3), ((1, 2, 3), 0), ((1,), 1)):
            with pytest.raises(WebError, match=f"generator index {i} out of range for n={len(w)}"):
                times_s(w, i)
        with pytest.raises(WebError, match="generator index 5 out of range for n=3"):
            perm_from_word(3, (5,))

    def test_length_counts_inversions(self):
        assert perm_length((4, 3, 2, 1)) == 6
        assert perm_length(identity_perm(5)) == 0

    def test_descents(self):
        assert descents((2, 1, 3)) == [1]
        assert descents((3, 2, 1)) == [1, 2]

    def test_is_perm_takes_exact_ints_only(self):
        assert is_perm((2, 3, 1)) and is_perm(())
        # a repeat, a value off 1..n, and values only equal to ints
        for w in [(1, 1), (0, 1), (1, 3), ("a", "b"), (True, 2), (2.0, 1.0), (1, "a")]:
            assert not is_perm(w), w


class TestReducedWords:
    def test_word_reconstructs(self):
        for w in all_perms(4):
            word = first_reduced_word(w)
            assert len(word) == perm_length(w)
            assert perm_from_word(4, word) == w

    def test_longest_element_s3(self):
        words = set(all_reduced_words((3, 2, 1)))
        assert words == {(1, 2, 1), (2, 1, 2)}

    def test_longest_element_s4_count(self):
        # classical count of reduced words of the longest element of S_4
        assert len(all_reduced_words((4, 3, 2, 1))) == 16

    def test_all_words_valid(self):
        w = (3, 1, 4, 2)
        for word in all_reduced_words(w):
            assert perm_from_word(4, word) == w
            assert len(word) == perm_length(w)

    @pytest.mark.parametrize("w", [(2, 2), (0, 1), (1, 3), (True,), (1.0, 2)])
    def test_refuses_what_is_no_permutation(self, w):
        with pytest.raises(WebError, match=rf"^{re.escape(repr(w))} is not a permutation$"):
            all_reduced_words(w)

    def test_a_long_non_permutation_is_quoted_by_a_prefix(self):
        with pytest.raises(WebError, match=r"\.\.\. \(15,000 characters\) is not a permutation"):
            all_reduced_words((1,) * 5000)


class TestPatterns:
    def test_avoids_basic(self):
        assert avoids((1, 2, 3), (3, 2, 1))
        assert not avoids((4, 3, 2, 1), (4, 3, 2, 1))
        assert not avoids((5, 1, 4, 3, 2), (4, 3, 2, 1))

    def test_4321_counts(self):
        assert [count_avoiding(n, (4, 3, 2, 1)) for n in range(1, 5)] == [1, 2, 6, 23]

    def test_4321_count_n5(self):
        assert count_avoiding(5, (4, 3, 2, 1)) == 103

    def test_321_counts_are_catalan(self):
        for n in range(1, 6):
            assert count_avoiding(n, (3, 2, 1)) == catalan(n)


class TestOracleAgreement:
    def test_catalan_values(self):
        assert [catalan(n) for n in range(6)] == [1, 1, 2, 5, 14, 42]
        with pytest.raises(WebError, match="got -1$"):
            catalan(-1)

    def test_a_negative_n_is_refused(self):
        # one WebError quoting n, a long one by a prefix, also from the
        # counts that walk all_perms
        refusals = [
            ("all_perms", all_perms),
            ("kostka_three_column", kostka_three_column),
            ("all_perms", lambda n: count_avoiding(n, (3, 2, 1))),
            ("all_perms", avoiding_321),
        ]
        for n in (-1, -(10**100)):
            for name, fn in refusals:
                with pytest.raises(WebError, match=f"^{name} needs n >= 0, got {re.escape(quoted(n))}$"):
                    fn(n)

    def test_values_from_zero_to_six(self):
        assert [len(list(all_perms(n))) for n in range(7)] == [1, 1, 2, 6, 24, 120, 720]
        assert list(all_perms(0)) == [()] and avoiding_321(0) == ((),)
        assert [kostka_three_column(n) for n in range(7)] == [1, 1, 2, 6, 23, 103, 513]
        assert [count_avoiding(n, (4, 3, 2, 1)) for n in range(7)] == [1, 1, 2, 6, 23, 103, 513]
        assert [len(avoiding_321(n)) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]

    def test_kostka_matches_avoidance(self):
        # two independent counts of the same dimension
        for n in range(1, 5):
            assert kostka_three_column(n) == count_avoiding(n, (4, 3, 2, 1))

    def test_kostka_n5(self):
        assert kostka_three_column(5) == 103

    @pytest.mark.slow
    def test_pieri_count_matches_backtracking(self):
        assert [kostka_three_column(n) for n in range(7)] == [
            _kostka_by_backtracking(n) for n in range(7)
        ]

    def test_pieri_count_at_seven(self):
        assert kostka_three_column(7) == count_avoiding(7, (4, 3, 2, 1)) == 2761


def _kostka_by_backtracking(n):
    """The same tableaux filled cell by cell in row-major order: the
    oracle for the strip-by-strip count."""
    remaining = [0] + [1] * n + [2] * n
    grid = [[0] * 3 for _ in range(n)]

    def fill(pos):
        if pos == 3 * n:
            return 1
        r, c = divmod(pos, 3)
        lo = max(1, grid[r][c - 1] if c else 1, grid[r - 1][c] + 1 if r else 1)
        count = 0
        for x in range(lo, 2 * n + 1):
            if remaining[x]:
                remaining[x] -= 1
                grid[r][c] = x
                count += fill(pos + 1)
                remaining[x] += 1
        return count

    return fill(0)
