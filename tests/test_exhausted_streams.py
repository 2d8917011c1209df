"""Whole streams against a count of the distinct LCSs.

``count_distinct_lcs`` counts the distinct LCSs of a pair with a DP over
the suffix table, after Greenberg (*Computing the number of longest
common subsequences*, 2003). The enumerator, run to exhaustion on pairs
of 40-200 characters whose count is small, must give exactly that many
outputs, equal to ``oracle.lcs_position_stream``, on str, bytes, tuple
and ``MinimalSeq`` views with len_y around 64 and 128: searches over
fewer than 64 positions, and over one or two words and a bit more, in
both fold forms, and in the list form alone.
Up to 14 characters the count must also equal the traceback oracle's.
"""

import random

import pytest

from conftest import kind_view, rand_pair, rand_string, supersequence
from lcs_enum import LcsEnumerator, MatchView
from lcs_enum.oracle import all_lcs_position_sequences, lcs_position_stream


def count_distinct_lcs(x, y) -> int:
    """The number of distinct LCSs of x and y (1 for the empty one).

    With t[i][j] = L(x[i..], y[j..]), a distinct LCS of x[i..], y[j..] is
    a token c, at its first occurrences a >= i in x and b >= j in y,
    followed by a distinct LCS of x[a+1..], y[b+1..], for each c with
    t[a + 1][b + 1] = t[i][j] - 1; different c give different strings.
    So count[i][j] sums count[a + 1][b + 1] over those c, and is 1 where
    t[i][j] = 0. O(n * m * sigma) steps, sigma the shared tokens.
    """
    n, m = len(x), len(y)
    tokens = set(x) & set(y)

    def next_occurrences(s):
        """token -> list whose entry k is the least k' >= k with
        s[k'] == token (1-based), or len(s) + 1."""
        tables = {}
        for c in tokens:
            row = tables[c] = [len(s) + 1] * (len(s) + 2)
            for k in range(len(s), 0, -1):
                row[k] = k if s[k - 1] == c else row[k + 1]
        return tables

    nx, ny = next_occurrences(x), next_occurrences(y)
    t = [[0] * (m + 2) for _ in range(n + 2)]
    count = [[1] * (m + 2) for _ in range(n + 2)]
    for i in range(n, 0, -1):
        row, below = t[i], t[i + 1]
        for j in range(m, 0, -1):
            level = row[j] = (below[j + 1] + 1 if x[i - 1] == y[j - 1]
                              else max(below[j], row[j + 1]))
            if level:
                count[i][j] = sum(
                    count[a + 1][b + 1] for c in tokens
                    if (a := nx[c][i]) <= n and (b := ny[c][j]) <= m
                    and t[a + 1][b + 1] == level - 1)
    return count[1][1]


def test_the_count_of_known_pairs():
    assert count_distinct_lcs("", "abc") == 1  # the empty LCS
    assert count_distinct_lcs("ab", "ba") == 2  # a, b
    assert count_distinct_lcs("aaa", "aa") == 1
    # aba, aca, acb, bab, bca, bcb
    assert count_distinct_lcs("abcab", "bacba") == 6


def _edited(rng, y, edits, sigma):
    """y after ``edits`` random deletions, insertions and substitutions."""
    s = list(y)
    for _ in range(edits):
        k = rng.randrange(len(s))
        op = rng.randrange(3)
        if op == 0:
            del s[k]
        elif op == 1:
            s.insert(k, rand_string(rng, 1, sigma))
        else:
            s[k] = rand_string(rng, 1, sigma)
    return "".join(s)


# The most outputs a pair may have, so that every stream runs to its end.
MAX_COUNT = 3000


def _pairs(len_y):
    """Two pairs with this len_y and 2..MAX_COUNT distinct LCSs: X an
    edited Y, about as long, and X an edited Y with letters inserted up
    to about 200 characters, both drawn until the count is in range."""
    rng = random.Random(len_y)
    for extra in (0, 200 - len_y):
        while True:
            sigma = rng.choice((2, 4))
            y = rand_string(rng, len_y, sigma)
            x = _edited(rng, y, rng.randint(4, 24), sigma)
            if extra:
                x = supersequence(rng, x, rng.randint(extra - 30, extra), sigma)
            count = count_distinct_lcs(x, y)
            if 40 <= len(x) <= 200 and 2 <= count <= MAX_COUNT:
                yield x, y, count
                break


@pytest.mark.parametrize("len_y", [63, 64, 65, 127, 128, 129])
def test_exhausted_streams_give_the_count_and_equal_the_walk(len_y):
    for x, y, count in _pairs(len_y):
        for kind in ("str", "bytes", "tuple", "minimal"):
            enum = LcsEnumerator(kind_view(kind, x, y))
            stream = list(enum)
            assert len(stream) == count, (kind, x, y)
            assert stream == list(lcs_position_stream(kind_view(kind, x, y))), \
                (kind, x, y)
            assert enum.finished and enum.view.meter.live_cells == 0
            assert enum.counters.outputs_emitted == count


def test_the_count_equals_the_traceback_oracle_up_to_14():
    rng = random.Random(31)
    for _ in range(300):
        x, y = rand_pair(rng, 14, sigmas=(1, 2, 3, 4))
        view = MatchView(x, y)
        want = len(all_lcs_position_sequences(view))
        assert count_distinct_lcs(x, y) == want, (x, y)
        assert sum(1 for _ in LcsEnumerator(MatchView(x, y))) == want, (x, y)
