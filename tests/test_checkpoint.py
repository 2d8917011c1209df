"""The per-view checkpoint of a fold over all of Y.

A view with bit-planes and len_y >= 64 records, once per orientation,
(s, V_s): the rows after which a fold of X from its first row over all
of Y switches to the bit form, and its state there. Folds that reach row
s in the list form charge their rows up to s at once and go on from V_s.
They must end as a fold without it would, with the same probes; the
checkpoint is built once, on a throwaway meter, and shared like the
planes.
"""

import gc
import random
import tracemalloc

import pytest

from conftest import kind_view, rand_string
from lcs_enum import (LcsEnumerator, MatchView, Meter, find_branch, first_lcs,
                      prefix_thresholds, suffix_thresholds)
from lcs_enum import hirschberg


def _orientations(view):
    return (view, view._mirror)


def _checkpoint(view):
    if not view._checkpoint:
        hirschberg._build_checkpoint(view)
    return view._checkpoint[0]


def _runs(rng, t):
    """Rows 1..t cut into consecutive runs, some of them empty."""
    runs, start = [], 1
    while start <= t:
        stop = min(t + 1, start + rng.choice((0, 1, 1, 2, 3, 5, 8, 40)))
        runs.append(range(start, stop))
        start = stop
    return runs


def _fold_runs(view, runs):
    """The levels, V and probes after folding the runs in turn, as the
    branch search does."""
    view = view.with_meter(Meter())
    levels, v = [], None
    for rows in runs:
        v = hirschberg._fold(view, rows, 1, view.len_y, levels, v)
    return levels, v, view.meter.eq_queries


@pytest.mark.parametrize("m", [64, 65, 100, 128, 200])
@pytest.mark.parametrize("kind", ["str", "bytes"])
def test_a_fold_from_the_checkpoint_equals_the_plain_fold(kind, m):
    rng = random.Random(m)
    taken = 0
    for _ in range(4):
        x, y = rand_string(rng, 90, 4), rand_string(rng, m, 4)
        view, plain = kind_view(kind, x, y), kind_view(kind, x, y)
        for fold_view, plain_view in zip(_orientations(view),
                                         _orientations(plain)):
            plain_view._checkpoint[:] = [None]  # a fold with no checkpoint
            s, v_s = _checkpoint(fold_view)
            assert 0 < s < fold_view.len_x
            levels, v, _ = _fold_runs(plain_view, [range(1, s + 1)])
            assert hirschberg._bits(levels, 1, m) == v_s and v is None
            for t in (s - 1, s, s + 1, s + 2, fold_view.len_x):
                for _ in range(6):
                    runs = _runs(rng, t)
                    want = _fold_runs(plain_view, runs)
                    assert _fold_runs(fold_view, runs) == want, (t, runs)
                    taken += any(r.start <= s < r.stop - 1 for r in runs)
                # One run from a later row, as a restart's right part over
                # all of Y folds, holds no levels of the rows before it: it
                # must not take the checkpoint.
                for first in (2, s):
                    runs = [range(first, t + 1)]
                    assert (_fold_runs(fold_view, runs)
                            == _fold_runs(plain_view, runs)), (t, runs)
    assert taken


@pytest.mark.parametrize("x, y", [
    (tuple("abcd" * 20), tuple("dcba" * 30)),  # no bit-planes
    ("abcd" * 20, "dcba" * 15 + "abc"),  # len_y = 63
    (b"ab", b"ab" * 100),  # 2 levels, under ceil(200 / 64)
    ("abab", "ba" * 128),  # ceil(256 / 64) levels after the last row
], ids=["tuple", "len_y-63", "few-levels", "switch-after-the-last-row"])
def test_some_views_record_no_checkpoint(x, y):
    view = MatchView(x, y)
    prefix_thresholds(view)
    suffix_thresholds(view)
    assert view._checkpoint == view._mirror._checkpoint == [None]


def test_the_checkpoint_is_built_once_per_orientation_and_shared(
        monkeypatch):
    built = []
    build = hirschberg._build_checkpoint

    def counted(view):
        built.append(view._checkpoint)
        build(view)

    monkeypatch.setattr(hirschberg, "_build_checkpoint", counted)
    rng = random.Random(3)
    x, y = rand_string(rng, 120, 4), rand_string(rng, 130, 4)
    for kind in ("str", "bytes"):
        built.clear()
        view = kind_view(kind, x, y)
        streams = []
        for _ in range(2):
            enum = LcsEnumerator(view)
            streams.append([enum.next_sequence() for _ in range(20)])
        assert streams[0] == streams[1]
        other = view.with_meter(Meter())
        first_lcs(other)
        find_branch(other, streams[0][3])
        prefix_thresholds(other)
        suffix_thresholds(view)
        # One build per orientation, each into the list every view shares.
        assert len(built) == 2
        assert {id(b) for b in built} == {id(view._checkpoint),
                                          id(view._mirror._checkpoint)}
        assert other._checkpoint is view._checkpoint
        assert other._mirror._checkpoint is view._mirror._checkpoint
        assert all(_checkpoint(v) for v in _orientations(view))


@pytest.mark.parametrize("kind", ["str", "bytes"])
def test_building_the_checkpoint_leaves_every_meter_untouched(kind):
    rng = random.Random(4)
    view = kind_view(kind, rand_string(rng, 150, 4), rand_string(rng, 140, 4))
    enum = LcsEnumerator(view)
    meters = (view.meter, enum.view.meter)
    for meter in meters:
        meter.eq_queries = 7
        meter.grow(5)
        meter.shrink(2)
    for v in (enum.view, enum.view._mirror):
        hirschberg._build_checkpoint(v)
        assert _checkpoint(v)
    assert [(m.eq_queries, m.live_cells, m.peak_cells) for m in meters] == [
        (7, 3, 5)] * 2


# A CPython int of m bits holds 30 bits per 4-byte digit after a 24-byte
# header; the tuple (s, V), s and the list's slots take under 200 bytes.
def _checkpoint_bytes(m):
    return 24 + 4 * -(-m // 30) + 200


@pytest.mark.parametrize("kind", [str, bytes])
def test_a_checkpoint_retains_one_int_of_len_y_bits(kind):
    # The planes of both orientations are input storage, built before
    # tracing. Building the checkpoints then retains one int of at most
    # len_y bits per orientation, however long X is; the rows folded to
    # reach it take only the transient list of their levels.
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
                hirschberg._build_checkpoint(v)
            # The throwaway view and its mirror refer to each other: the
            # build leaves them to the cycle collector.
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        for v in _orientations(view):
            s, v_s = _checkpoint(v)
            assert s < n and v_s.bit_length() <= m
        assert retained <= 2 * _checkpoint_bytes(m), (n, retained)
