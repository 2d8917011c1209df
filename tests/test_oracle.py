"""The quadratic-space reference implementations used for validation."""

import random

import pytest

from conftest import rand_pair
from lcs_enum import MatchView
from lcs_enum.oracle import dp_table, lcs_length, all_lcs_position_sequences, \
    exhaustive_lcs_position_sequences, lcs_position_stream

X1 = "acddadacbcb"
Y1 = "caccbaadcad"


def lcs_strings(view):
    """The LCS strings, rendered in the order of the position tuples."""
    return [view.y_slice(p) for p in all_lcs_position_sequences(view)]


def test_lcs_length_values():
    assert lcs_length(MatchView(X1, Y1)) == 5
    assert lcs_length(MatchView("", "abc")) == 0
    assert lcs_length(MatchView("abc", "")) == 0
    assert lcs_length(MatchView("abc", "cba")) == 1


def test_dp_table_shape_and_borders():
    t = dp_table(MatchView("abca", "acb"))
    assert len(t) == 5 and all(len(row) == 4 for row in t)
    assert all(t[i][0] == 0 for i in range(5))
    assert all(t[0][j] == 0 for j in range(4))
    assert t[4][3] == 2  # "ac" or "ab"


def test_dp_table_monotone_steps():
    rng = random.Random(401)
    for _ in range(100):
        x, y = rand_pair(rng, 10)
        t = dp_table(MatchView(x, y))
        for i in range(1, len(x) + 1):
            for j in range(1, len(y) + 1):
                assert t[i][j] - t[i - 1][j] in (0, 1)
                assert t[i][j] - t[i][j - 1] in (0, 1)


def test_all_sequences_example():
    got = all_lcs_position_sequences(MatchView(X1, Y1))
    assert got == [
        (1, 2, 3, 4, 5),
        (1, 2, 3, 5, 9),
        (2, 3, 4, 5, 9),
        (2, 3, 6, 7, 9),
        (2, 3, 6, 8, 9),
        (2, 3, 6, 8, 10),
        (2, 3, 8, 10, 11),
    ]


def test_all_sequences_leftmost_rule():
    assert all_lcs_position_sequences(MatchView("a", "aa")) == [(1,)]
    assert all_lcs_position_sequences(MatchView("ab", "ab")) == [(1, 2)]


def test_all_strings_example():
    got = lcs_strings(MatchView(X1, Y1))
    assert got == ["caccb", "cacbc", "accbc", "acaac", "acadc", "acada",
                   "acdad"]


def test_all_strings_degenerate():
    assert lcs_strings(MatchView("ab", "cd")) == [""]
    assert lcs_strings(MatchView("abc", "abc")) == ["abc"]


def test_strings_are_a_bijection_of_sequences():
    rng = random.Random(402)
    for _ in range(200):
        x, y = rand_pair(rng, 10, sigmas=(2, 4))
        view = MatchView(x, y)
        seqs = all_lcs_position_sequences(view)
        strings = lcs_strings(view)
        assert len(seqs) == len(set(seqs))
        assert len(strings) == len(set(strings))
        assert len(seqs) == len(strings)


def test_sequences_are_sorted_and_valid():
    rng = random.Random(403)
    for _ in range(200):
        x, y = rand_pair(rng, 10)
        view = MatchView(x, y)
        seqs = all_lcs_position_sequences(view)
        assert seqs == sorted(seqs)
        want_len = lcs_length(view)
        for p in seqs:
            assert len(p) == want_len
            assert all(a < b for a, b in zip(p, p[1:]))


def test_size_guards():
    with pytest.raises(ValueError):
        all_lcs_position_sequences(MatchView("a" * 15, "a"))
    with pytest.raises(ValueError):
        exhaustive_lcs_position_sequences(MatchView("a" * 11, "a"))


def test_oracles_agree():
    rng = random.Random(404)
    for _ in range(300):
        x, y = rand_pair(rng, 8, sigmas=(1, 2, 3, 4))
        a = all_lcs_position_sequences(MatchView(x, y))
        b = exhaustive_lcs_position_sequences(MatchView(x, y))
        assert a == b, (x, y)


def test_leftmost_is_the_first_traceback_sequence():
    rng = random.Random(405)
    for _ in range(500):
        x, y = rand_pair(rng, 14, sigmas=(1, 2, 3, 4))
        for pair in ((x, y), (x.encode(), y.encode()), (tuple(x), tuple(y))):
            assert next(lcs_position_stream(MatchView(*pair))) == \
                all_lcs_position_sequences(MatchView(*pair))[0], pair
    assert next(lcs_position_stream(MatchView("ab", "cd"))) == ()


def test_stream_is_the_traceback_oracle():
    rng = random.Random(406)
    for _ in range(500):
        x, y = rand_pair(rng, 14, sigmas=(1, 2, 3, 4))
        for pair in ((x, y), (x.encode(), y.encode()), (tuple(x), tuple(y))):
            assert list(lcs_position_stream(MatchView(*pair))) == \
                all_lcs_position_sequences(MatchView(*pair)), pair
    assert list(lcs_position_stream(MatchView("ab", "cd"))) == [()]
    assert list(lcs_position_stream(MatchView(X1, Y1))) == \
        all_lcs_position_sequences(MatchView(X1, Y1))
