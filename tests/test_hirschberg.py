"""Threshold builders, split selection, and the leftmost-LCS search.

Frozen values below were derived from full DP tables on the worked
example pair (X1, Y1); the random properties compare against the
quadratic-space oracle.
"""

import random
from collections import Counter

import pytest

from conftest import rand_pair, rand_string
from lcs_enum import hirschberg
from lcs_enum import MatchView, IndexRange, first_lcs, prefix_thresholds, \
    suffix_thresholds, split_point
from lcs_enum.oracle import all_lcs_position_sequences, lcs_length, \
    leftmost_lcs_positions

X1 = "acddadacbcb"
Y1 = "caccbaadcad"


def view1():
    return MatchView(X1, Y1)


# --- threshold sequences -----------------------------------------------

def test_prefix_thresholds_example():
    t = prefix_thresholds(view1(), IndexRange(1, 6), IndexRange(1, 11))
    assert t == (1, 2, 6, 8, 11)


def test_prefix_thresholds_single_char():
    t = prefix_thresholds(view1(), IndexRange(1, 1), IndexRange(1, 11))
    assert t == (2,)  # least j with Y[j] = 'a'


def test_prefix_thresholds_empty_x():
    t = prefix_thresholds(view1(), IndexRange(4, 3), IndexRange(1, 11))
    assert t == ()


def test_suffix_thresholds_example():
    t = suffix_thresholds(view1(), IndexRange(7, 11), IndexRange(1, 11))
    assert t == (10, 7, 4, 2)


def test_suffix_thresholds_empty_ranges():
    assert suffix_thresholds(view1(), IndexRange(4, 3), None) == ()
    assert suffix_thresholds(view1(), None, IndexRange(4, 3)) == ()


def test_threshold_lengths_equal_lcs_length():
    rng = random.Random(101)
    for _ in range(300):
        x, y = rand_pair(rng, 10)
        view = MatchView(x, y)
        want = lcs_length(view)
        assert len(prefix_thresholds(view)) == want
        assert len(suffix_thresholds(view)) == want


def test_threshold_monotonicity():
    rng = random.Random(102)
    for _ in range(300):
        x, y = rand_pair(rng, 12)
        view = MatchView(x, y)
        pre = prefix_thresholds(view)
        suf = suffix_thresholds(view)
        assert all(a < b for a, b in zip(pre, pre[1:]))
        assert all(a > b for a, b in zip(suf, suf[1:]))


def _dp_check_thresholds(x, y, xr, yr):
    """Both threshold tuples of X[xr] against Y[yr] equal their definitions,
    by the DP oracle; returns the bit-row runs that suffix_thresholds ran."""
    xs, ys = x[xr.lo - 1:xr.hi], y[yr.lo - 1:yr.hi]
    want = lcs_length(MatchView(xs, ys))
    # prefix: entry p-1 is the least j with L(X[xr], Y[yr.lo..j]) = p;
    pre = prefix_thresholds(MatchView(x, y), xr, yr)
    assert len(pre) == want
    for p, j in enumerate(pre, start=1):
        assert lcs_length(MatchView(xs, y[yr.lo - 1:j])) == p
        assert lcs_length(MatchView(xs, y[yr.lo - 1:j - 1])) == p - 1
    # suffix: entry q-1 is the greatest j with L(X[xr], Y[j..yr.hi]) = q.
    before = hirschberg._bit_rows.calls
    suf = suffix_thresholds(MatchView(x, y), xr, yr)
    assert len(suf) == want
    for q, j in enumerate(suf, start=1):
        assert lcs_length(MatchView(xs, y[j - 1:yr.hi])) == q
        assert lcs_length(MatchView(xs, y[j:yr.hi])) == q - 1
    return hirschberg._bit_rows.calls - before


def _random_range(rng, n, least=0):
    """A random IndexRange of at least ``least`` of 1..n, maybe empty."""
    lo = rng.randint(1, n + 1 - least)
    return IndexRange(lo, rng.randint(lo - 1 + least, n))


def test_threshold_values_against_dp(monkeypatch):
    bit_rows = hirschberg._bit_rows

    def counted(*args):
        counted.calls += 1
        return bit_rows(*args)

    counted.calls = 0
    monkeypatch.setattr(hirschberg, "_bit_rows", counted)
    rng = random.Random(103)
    for _ in range(120):
        x, y = rand_pair(rng, 9, sigmas=(2, 3))
        _dp_check_thresholds(x, y, IndexRange.full(len(x)),
                             IndexRange.full(len(y)))
        _dp_check_thresholds(x, y, _random_range(rng, len(x)),
                             _random_range(rng, len(y)))
    # Y of 63-65 and X ranges of 16 rows or more: the suffix folds (the
    # mirror's prefix folds) take the bit form over whole and cut Y ranges.
    bit_folds = 0
    for len_y in (63, 64, 65):
        for kind in (str, bytes):
            sigma = rng.choice((2, 4))
            x = rand_string(rng, rng.randint(16, 28), sigma)
            y = rand_string(rng, len_y, sigma)
            if kind is bytes:
                x, y = x.encode(), y.encode()
            for yr in (IndexRange.full(len_y), _random_range(rng, len_y, 40)):
                bit_folds += _dp_check_thresholds(
                    x, y, _random_range(rng, len(x), 16), yr)
    assert bit_folds


# --- split point --------------------------------------------------------

def test_split_point_example():
    assert split_point(view1()) == (6, 1)


def test_split_point_rejects_short_x():
    with pytest.raises(ValueError):
        split_point(view1(), IndexRange(3, 3), None)


def test_split_point_no_match_keeps_initial_j():
    # All splits sum to zero; the strict-improvement rule must keep
    # j_mid at j_lo - 1.
    view = MatchView("ab", "cd")
    assert split_point(view) == (1, 0)
    view = MatchView(X1, Y1)
    assert split_point(view, IndexRange(3, 4), IndexRange(5, 7)) == (3, 4)


def test_split_point_sum_and_minimality():
    rng = random.Random(104)
    for _ in range(150):
        x, y = rand_pair(rng, 9, sigmas=(2, 4))
        if len(x) < 2:
            continue
        view = MatchView(x, y)
        i_mid, j_mid = split_point(view)
        assert i_mid == (1 + len(x)) // 2
        total = lcs_length(view)

        def halves_sum(j):
            return (lcs_length(MatchView(x[:i_mid], y[:j]))
                    + lcs_length(MatchView(x[i_mid:], y[j:])))

        assert halves_sum(j_mid) == total
        # least maximizer: every smaller j must fall short
        assert all(halves_sum(j) < total for j in range(0, j_mid))


# --- first_lcs ----------------------------------------------------------

def test_first_lcs_example():
    assert first_lcs(view1()) == (1, 2, 3, 4, 5)


def test_first_lcs_base_case():
    assert first_lcs(view1(), IndexRange(1, 1), None) == (2,)


def test_first_lcs_no_common_char():
    assert first_lcs(MatchView("abc", "xyz")) == ()


def test_first_lcs_empty_ranges():
    assert first_lcs(view1(), IndexRange(4, 3), None) == ()
    assert first_lcs(view1(), None, IndexRange(4, 3)) == ()


def test_first_lcs_equals_brute_force_minimum():
    rng = random.Random(105)
    for _ in range(400):
        x, y = rand_pair(rng, 12, sigmas=(1, 2, 4))
        view = MatchView(x, y)
        assert first_lcs(view) == all_lcs_position_sequences(view)[0]


def test_first_lcs_dominates_every_sequence():
    # The leftmost sequence is pointwise <= every other one.
    rng = random.Random(106)
    for _ in range(300):
        x, y = rand_pair(rng, 11, sigmas=(2, 4))
        view = MatchView(x, y)
        first = first_lcs(view)
        for other in all_lcs_position_sequences(view):
            assert all(a <= b for a, b in zip(first, other))


def test_first_lcs_on_subranges():
    rng = random.Random(107)
    for _ in range(200):
        x, y = rand_pair(rng, 10, sigmas=(2, 3))
        i_lo = rng.randint(1, len(x))
        i_hi = rng.randint(i_lo - 1, len(x))
        j_lo = rng.randint(1, len(y))
        j_hi = rng.randint(j_lo - 1, len(y))
        view = MatchView(x, y)
        got = first_lcs(view, IndexRange(i_lo, i_hi), IndexRange(j_lo, j_hi))
        sub = MatchView(x[i_lo - 1:i_hi], y[j_lo - 1:j_hi])
        want = all_lcs_position_sequences(sub)[0]
        assert got == tuple(j + j_lo - 1 for j in want)


def _kind_view(kind, x, y):
    if kind is bytes:
        return MatchView(x.encode(), y.encode())
    return MatchView(kind(x), kind(y))


def test_first_lcs_is_the_leftmost_past_the_traceback(monkeypatch):
    # The suffix-table oracle has no size guard, so it checks pairs where
    # the restart's folds take the bit form and its fully matched ranges
    # take the greedy kernel; both must run.
    ran = Counter()

    def counted(name):
        fn = getattr(hirschberg, name)

        def wrapped(*args):
            result = fn(*args)
            # _fold returns V, not None, when its rows took the bit form.
            ran[name] += name == "_matched_rows" or result is not None
            return result
        return wrapped

    for name in ("_fold", "_matched_rows"):
        monkeypatch.setattr(hirschberg, name, counted(name))
    rng = random.Random(110)
    for k in range(200):
        kind = (str, bytes, tuple)[k % 3]
        sigma = rng.choice([2, 3, 4, 8])
        x = rand_string(rng, rng.randint(16, 200), sigma)
        if k % 2:  # a long LCS: Y is X with some characters dropped or changed
            y = "".join(c if rng.random() < 0.8 else rand_string(rng, 1, sigma)
                        for c in x if rng.random() < 0.9) or x
        else:
            y = rand_string(rng, rng.randint(16, 200), sigma)
        assert first_lcs(_kind_view(kind, x, y)) == \
            leftmost_lcs_positions(_kind_view(kind, x, y)), (kind, x, y)
        i_lo = rng.randint(1, len(x))
        i_hi = rng.randint(i_lo - 1, len(x))
        j_lo = rng.randint(1, len(y))
        j_hi = rng.randint(j_lo - 1, len(y))
        got = first_lcs(_kind_view(kind, x, y), IndexRange(i_lo, i_hi),
                        IndexRange(j_lo, j_hi))
        sub = _kind_view(kind, x[i_lo - 1:i_hi], y[j_lo - 1:j_hi])
        assert got == tuple(j + j_lo - 1 for j in leftmost_lcs_positions(sub))
    assert ran["_fold"] and ran["_matched_rows"]


def test_first_lcs_query_bound():
    # Work stays within a fixed multiple of |xr| * |yr|.
    rng = random.Random(108)
    for _ in range(200):
        x, y = rand_pair(rng, 14)
        view = MatchView(x, y)
        first_lcs(view)
        assert view.meter.eq_queries <= 4 * len(x) * len(y)


def test_first_lcs_releases_all_cells():
    rng = random.Random(109)
    for _ in range(100):
        x, y = rand_pair(rng, 12)
        view = MatchView(x, y)
        first_lcs(view)
        assert view.meter.live_cells == 0


# --- range checks on entry ---------------------------------------------

def _reassigned(lo, hi):
    """A range built valid, then given the ends (lo, hi)."""
    r = IndexRange(3, 3)
    r.lo, r.hi = lo, hi
    return r


BAD_RANGES = {"lo 0": lambda n: _reassigned(0, 2),
              "lo below 0": lambda n: _reassigned(-2, 2),
              "hi below lo - 1": lambda n: _reassigned(3, 0),
              "hi past the view": lambda n: IndexRange(1, n + 1),
              "empty past the view": lambda n: IndexRange(n + 2, n + 1)}


@pytest.mark.parametrize("fn", [prefix_thresholds, suffix_thresholds,
                                first_lcs, split_point])
@pytest.mark.parametrize("side", ["x", "y"])
@pytest.mark.parametrize("case", sorted(BAD_RANGES))
def test_bad_ranges_raise_before_any_charge(fn, side, case):
    view = view1()
    bad = BAD_RANGES[case](view.len_x if side == "x" else view.len_y)
    with pytest.raises(IndexError):
        fn(view, *((bad, None) if side == "x" else (None, bad)))
    m = view.meter
    assert (m.eq_queries, m.live_cells, m.peak_cells) == (0, 0, 0)


@pytest.mark.parametrize("fn", [prefix_thresholds, suffix_thresholds,
                                first_lcs])
def test_empty_ranges_just_past_the_view_are_accepted(fn):
    view = view1()
    assert fn(view, IndexRange(12, 11), IndexRange(12, 11)) == ()
    assert view.meter.eq_queries == 0
