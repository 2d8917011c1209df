"""The per-view checkpoint of a fold over all of Y.

A fold over all of Y of a view with bit-planes, from its first row or
given the levels of the rows before its own, switches to the bit form
after the same s rows, with the same V_s, however its rows are cut into
runs. The first such fold that switches records (s, V_s) in a list that
every view of the orientation shares; a later fold whose rows run from s
or before to past s charges its rows up to s at once and goes on from
V_s. Either way it must end with the levels and probes of the list form,
and in the form a fold of a view with no checkpoint ends in. No other
fold writes the checkpoint.
"""

import random
import tracemalloc
from itertools import islice

import pytest

from conftest import kind_view, rand_string
from lcs_enum import (IndexRange, LcsEnumerator, MatchView, Meter, find_branch,
                      first_lcs, prefix_thresholds, suffix_thresholds)
from lcs_enum import hirschberg


def _orientations(view):
    return (view, view._mirror)


def _runs(rng, t):
    """Rows 1..t cut into consecutive runs, some of them empty."""
    runs, start = [], 1
    while start <= t:
        stop = min(t + 1, start + rng.choice((0, 1, 1, 2, 3, 5, 8, 40)))
        runs.append(range(start, stop))
        start = stop
    return runs


def _fold_runs(view, runs):
    """The levels, V and probes after folding the runs in turn over all
    of Y, as the branch search does."""
    meter = view._meter
    before = meter.eq_queries
    levels, v = [], None
    for rows in runs:
        v = hirschberg._fold(view, rows, 1, view.len_y, levels, v)
    return levels, v, meter.eq_queries - before


def _as_list(folded, m):
    """What :func:`_fold_runs` returned, with V read back into levels."""
    levels, v, probes = folded
    if v is not None:
        levels = [j for j in range(1, m + 1) if not v >> (j - 1) & 1]
    return levels, probes


@pytest.mark.parametrize("m", [40, 63, 64, 65, 100, 128, 200])
@pytest.mark.parametrize("kind", ["str", "bytes"])
def test_a_fold_from_the_checkpoint_equals_the_plain_fold(kind, m):
    # Each orientation of one view records its checkpoint on its first
    # fold of all its rows, then folds random runs from it. The reference
    # is the MinimalSeq view of the same content, which is never coded,
    # so its folds keep the list form; a fresh view of the same kind per
    # run, which has no checkpoint to take, gives the form.
    rng = random.Random(m)
    taken = 0
    for _ in range(4):
        x, y = rand_string(rng, 90, 4), rand_string(rng, m, 4)
        view, lists = kind_view(kind, x, y), kind_view("minimal", x, y)
        for o, (fold_view, list_view) in enumerate(
                zip(_orientations(view), _orientations(lists))):
            n = fold_view.len_x
            everything = [range(1, n + 1)]
            want = _as_list(_fold_runs(list_view, everything), m)
            assert fold_view._checkpoint == []
            assert _as_list(_fold_runs(fold_view, everything), m) == want
            (s, v_s), = fold_view._checkpoint
            # s is the fewest rows whose list holds ceil(m / 64) levels.
            at = _fold_runs(list_view, [range(1, s + 1)])[0]
            before = _fold_runs(list_view, [range(1, s)])[0]
            assert len(before) < len(at) == -(-m // 64) and 0 < s < n
            assert v_s == sum(1 << (j - 1) for j in range(1, m + 1)
                              if j not in at)
            for t in (s - 1, s, s + 1, s + 2, n):
                for _ in range(6):
                    runs = _runs(rng, t)
                    got = _fold_runs(fold_view, runs)
                    fresh = _orientations(kind_view(kind, x, y))[o]
                    assert got == _fold_runs(fresh, runs), (t, runs)
                    assert (_as_list(got, m)
                            == _as_list(_fold_runs(list_view, runs), m))
                    taken += any(r.start <= s < r.stop - 1 for r in runs)
                # One run from a later row, as a restart's right part over
                # all of Y folds, holds no levels of the rows before it: it
                # must neither take the recorded checkpoint nor record one.
                for first in (2, s):
                    runs = [range(first, t + 1)]
                    got = _fold_runs(fold_view, runs)
                    fresh = _orientations(kind_view(kind, x, y))[o]
                    assert got == _fold_runs(fresh, runs), (t, runs)
                    assert (_as_list(got, m)
                            == _as_list(_fold_runs(list_view, runs), m))
                    assert fold_view._checkpoint == [(s, v_s)]
            assert fold_view._checkpoint == [(s, v_s)]
    assert taken


def test_the_checkpoint_is_built_once_per_orientation_and_shared():
    rng = random.Random(3)
    x, y = rand_string(rng, 120, 4), rand_string(rng, 130, 4)
    for kind in ("str", "bytes"):
        view = kind_view(kind, x, y)
        records = []

        class Recorded(list):
            """A checkpoint list that notes every append."""

            def append(self, item):
                records.append(self)
                super().append(item)

        for v in _orientations(view):
            v._checkpoint = Recorded()
        streams, enums = [], []
        for _ in range(2):
            enums.append(LcsEnumerator(view))
            streams.append([enums[-1].next_sequence() for _ in range(20)])
        assert streams[0] == streams[1]
        other = view.with_meter(Meter())
        first_lcs(other)
        find_branch(other, streams[0][3])
        prefix_thresholds(other)
        suffix_thresholds(view)
        # One record per orientation, each into the list every view of it
        # shares, the enumerators' own views and mirrors included.
        assert sorted(map(id, records)) == sorted(
            id(v._checkpoint) for v in _orientations(view))
        for w in (other, *(enum.view for enum in enums)):
            for v, u in zip(_orientations(view), _orientations(w)):
                assert u._checkpoint is v._checkpoint
                assert len(v._checkpoint) == 1


def test_folds_from_a_later_row_or_over_part_of_y_never_record():
    rng = random.Random(5)
    x, y = rand_string(rng, 90, 4), rand_string(rng, 100, 4)
    for kind in ("str", "bytes"):
        view = kind_view(kind, x, y)
        n, m = view.len_x, view.len_y
        for v in _orientations(view):
            # Each of these folds switches, but holds no levels of the rows
            # before its own (a restart's right part over all of Y is such
            # a fold) or spans part of Y.
            for first in (2, 5, 40):
                assert hirschberg._fold(v, range(first, n + 1), 1, m, [])
            assert hirschberg._fold(v, range(1, n + 1), 1, m - 1, [])
            assert hirschberg._fold(v, range(1, n + 1), 2, m, [])
        prefix_thresholds(view, IndexRange(2, n))
        suffix_thresholds(view, IndexRange(1, n - 1))
        prefix_thresholds(view, None, IndexRange(1, m - 1))
        assert view._checkpoint == view._mirror._checkpoint == []


@pytest.mark.parametrize("x, y", [
    (tuple(zip("abcd" * 20)), tuple(zip("dcba" * 30))),  # uncoded tokens
    (b"ab", b"ab" * 100),  # 2 levels, under ceil(200 / 64)
    ("abab", "ba" * 128),  # ceil(256 / 64) levels after the last row
    ("a", "b" * 30 + "a" * 9),  # one row: its level comes after it
], ids=["tuple", "few-levels", "switch-after-the-last-row", "one-row"])
def test_some_views_record_no_checkpoint(x, y):
    view = MatchView(x, y)
    prefix_thresholds(view)
    suffix_thresholds(view)
    first_lcs(view)
    assert len(list(islice(LcsEnumerator(view), 20))) >= 1
    assert view._checkpoint == view._mirror._checkpoint == []


# A CPython int of m bits holds 30 bits per 4-byte digit after a 24-byte
# header; the tuple (s, V), s and the list's slots take under 200 bytes.
def _checkpoint_bytes(m):
    return 24 + 4 * -(-m // 30) + 200


@pytest.mark.parametrize("kind", [str, bytes])
def test_a_checkpoint_retains_one_int_of_len_y_bits(kind):
    # The planes of both orientations are input storage, built before
    # tracing. The fold of all of X over all of Y that records the
    # checkpoint then retains one int of at most len_y bits per
    # orientation, however long X is: its rows take only the transient
    # list of their levels and V, and no object is left to the cycle
    # collector.
    m = 4096
    rng = random.Random(14)
    y = rand_string(rng, m, 4)
    for n in (300, 3000, 30000):
        x = rand_string(rng, n, 4)
        view = MatchView(*((x.encode(), y.encode()) if kind is bytes
                           else (x, y)))
        for v in _orientations(view):
            hirschberg._build_planes(v)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for v in _orientations(view):
                hirschberg._fold(v, range(1, n + 1), 1, m, [])
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        for v in _orientations(view):
            (s, v_s), = v._checkpoint
            assert s < n and v_s.bit_length() <= m
        assert retained <= 2 * _checkpoint_bytes(m), (n, retained)
