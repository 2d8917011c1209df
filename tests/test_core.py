"""Access layer: probe counting, the scan primitive and the searches under it."""

import pytest

from conftest import MinimalSeq
from lcs_enum import MatchView, Meter, IndexRange, greedy_embedding, \
    suffix_thresholds

X1 = "acddadacbcb"
Y1 = "caccbaadcad"


def test_char_eq_basic():
    view = MatchView(X1, Y1)
    assert view.eq(1, 2) is True   # both 'a'
    assert view.eq(1, 1) is False  # 'a' vs 'c'


def test_char_eq_counts_probes():
    view = MatchView(X1, Y1)
    view.eq(1, 2)
    view.eq(3, 4)
    assert view.meter.eq_queries == 2


def test_char_eq_out_of_range():
    view = MatchView(X1, Y1)
    for i, j in [(0, 1), (1, 0), (12, 1), (1, 12), (-3, 5)]:
        with pytest.raises(IndexError):
            view.eq(i, j)


def test_char_eq_stable():
    view = MatchView(X1, Y1)
    first = [view.eq(i, j) for i in range(1, 12) for j in range(1, 12)]
    second = [view.eq(i, j) for i in range(1, 12) for j in range(1, 12)]
    assert first == second


def test_render():
    view = MatchView(X1, Y1)
    assert view.y_slice((1, 2, 3, 4, 5)) == "caccb"
    assert view.y_slice((2, 3, 8, 10, 11)) == "acdad"
    assert view.y_slice(()) == ""


def test_render_length_matches():
    view = MatchView(X1, Y1)
    for p in [(1,), (2, 5), (1, 4, 9, 11)]:
        assert len(view.y_slice(p)) == len(p)


def test_render_bytes_and_tuples():
    bview = MatchView(b"abc", b"cab")
    assert bview.y_slice((1, 2)) == b"ca"
    tview = MatchView((10, 20), (20, 10, 30))
    assert tview.y_slice((2, 3)) == (10, 30)


def test_render_bytearray_as_bytearray():
    # The pair is searched as two bytes; Y still renders in its own type.
    view = MatchView(bytearray(b"abc"), bytearray(b"cab"))
    got = view.y_slice((1, 2))
    assert type(got) is bytearray and got == b"ca"
    assert type(MatchView(b"abc", bytearray(b"cab")).y_slice(())) is bytearray


def test_index_range():
    r = IndexRange(3, 7)
    assert r.length == 5
    assert IndexRange(4, 3).length == 0
    assert IndexRange.full(11) == IndexRange(1, 11)
    with pytest.raises(ValueError):
        IndexRange(5, 3)  # more than one below lo is malformed, not empty
    with pytest.raises(ValueError):
        IndexRange(0, 2)


def test_with_meter_shares_input_not_counters():
    view = MatchView(X1, Y1)
    other = view.with_meter(Meter())
    view.eq(1, 1)
    assert view.meter.eq_queries == 1
    assert other.meter.eq_queries == 0
    assert other.eq(1, 2) is True


def test_meter_rejects_negative_cells():
    m = Meter()
    m.grow(3)
    m.shrink(2)
    with pytest.raises(RuntimeError):
        m.shrink(2)


def test_meter_peak_tracking():
    m = Meter()
    m.grow(5)
    m.shrink(3)
    m.grow(1)
    assert m.live_cells == 3
    assert m.peak_cells == 5


# --- scan primitives ---------------------------------------------------

def test_next_y_match_finds_least():
    view = MatchView(X1, Y1)
    assert view.next_y_match(1, 1, 11) == 2        # first 'a' in Y
    assert view.next_y_match(1, 3, 11) == 6        # next one from 3
    assert view.next_y_match(3, 1, 11) == 8        # first 'd'
    assert view.next_y_match(9, 1, 11) == 5        # the only 'b'
    assert view.next_y_match(9, 6, 11) is None


def test_prev_y_match_finds_greatest():
    # The greatest match is reached through a one-row suffix fold, a
    # forward search of the mirror, the reversed pair: its single level
    # is the greatest match of X[i] in the Y range.
    view = MatchView(X1, Y1)
    assert suffix_thresholds(view, IndexRange(1, 1)) == (10,)   # last 'a'
    assert suffix_thresholds(view, IndexRange(9, 9)) == (5,)    # only 'b'
    assert suffix_thresholds(view, IndexRange(9, 9), IndexRange(6, 11)) == ()


def test_next_x_match():
    # The X search is reached through the greedy embedding: each position
    # takes the least X match after the previous one.
    view = MatchView(X1, Y1)
    assert greedy_embedding(view, (1,)) == [2]     # Y[1]='c' first in X at 2
    assert greedy_embedding(view, (1, 3)) == [2, 8]  # Y[3]='c' after X[2]
    assert greedy_embedding(view, (5,)) == [9]     # Y[5]='b'


def test_scan_empty_range_costs_nothing():
    view = MatchView(X1, Y1)
    assert view.next_y_match(1, 5, 4) is None
    assert suffix_thresholds(view, IndexRange(1, 1), IndexRange(5, 4)) == ()
    assert view.meter.eq_queries == 0


def test_scan_counts_match_sequential_probing():
    # A successful scan charges one probe per inspected position, and a
    # failed scan charges the whole range, exactly like a naive loop.
    view = MatchView(X1, Y1)
    view.next_y_match(1, 1, 11)       # finds 2: probes 1, 2
    assert view.meter.eq_queries == 2
    view.next_y_match(9, 6, 11)       # no 'b' in Y[6..11]: 6 probes
    assert view.meter.eq_queries == 8


def test_scan_walk_telescopes_to_row_length():
    # Walking every match of one row via repeated calls costs exactly
    # len_y probes in total, matching a single full sweep.
    view = MatchView(X1, Y1)
    j = 1
    while j <= 11:
        hit = view.next_y_match(1, j, 11)
        if hit is None:
            break
        j = hit + 1
    assert view.meter.eq_queries == 11


def test_fast_and_generic_paths_agree():
    # str inputs take str.find, int tuples are coded as bytes and take
    # bytes.find, and tuples of str tokens take tuple.index, each for the
    # view and its mirror. Results and probe counts must be identical.
    sview = MatchView(X1, Y1)
    ranges = [IndexRange(lo, hi) for lo in range(1, 12)
              for hi in range(lo - 1, 12)]
    for tview in (MatchView(tuple(X1), tuple(Y1)),
                  MatchView(tuple(X1.encode()), tuple(Y1.encode()))):
        sview.meter = Meter()
        for i in range(1, 12):
            for r in ranges:
                a = sview.next_y_match(i, r.lo, r.hi)
                b = tview.next_y_match(i, r.lo, r.hi)
                assert a == b
        assert sview.meter.eq_queries == tview.meter.eq_queries
        # Suffix folds search the mirror forward.
        for xr in ranges:
            for yr in ranges:
                a = suffix_thresholds(sview, xr, yr)
                b = suffix_thresholds(tview, xr, yr)
                assert a == b
                assert sview.meter.eq_queries == tview.meter.eq_queries


def test_mixed_str_and_bytes_pair_rejected():
    for x, y in [("ab", b"ab"), (b"ab", "ab"), ("ab", bytearray(b"ab"))]:
        with pytest.raises(TypeError, match="str with bytes"):
            MatchView(x, y)


def test_token_rule_same_object_or_equal():
    # One shared NaN object equals itself (identity), a second NaN object
    # does not; eq, every scan and every backing type agree on that.
    nan, other_nan = float("nan"), float("nan")
    x = (1, nan, other_nan)
    y = (other_nan, 1.0, nan)

    for wrap in (tuple, list, MinimalSeq):
        view = MatchView(wrap(x), wrap(y))
        assert [[view.eq(i, j) for j in (1, 2, 3)] for i in (1, 2, 3)] == \
            [[False, True, False], [False, False, True], [True, False, False]]
        assert view.next_y_match(2, 1, 3) == 3
        assert suffix_thresholds(view, IndexRange(2, 2),
                                 IndexRange(1, 3)) == (3,)
        assert view.next_y_match(3, 2, 3) is None
        assert greedy_embedding(view, (3,)) == [2]
        assert greedy_embedding(view, (1,)) == [3]
