"""The restart's range-stack loop charges exactly what a recursion would.

``first_lcs`` runs one loop over a stack of pending ranges and solves
two-row ranges, ranges whose LCS takes every X row, and ranges whose
LCS takes every Y position, each in one kernel. The reference below is
the plain recursion on the same split: one frame per call, one-row
leaves scanned with ``next_y_match``, and every other range split by
``_split``, which folds both halves. Positions, probes, peak cells and
the live cells left over must all be the same, for str, bytes and tuple
views.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import kind_view, rand_string, supersequence
from lcs_enum import IndexRange, LcsEnumerator, first_lcs
from lcs_enum import enumerator as enumerator_module
from lcs_enum import hirschberg
from lcs_enum.hirschberg import (_FRAME_CELLS, _matched_cols, _matched_peak,
                                 _matched_rows, _split)

# The first three are coded; a MinimalSeq view keeps the list form.
KINDS = ("str", "bytes", "tuple", "minimal")
# Y widths: empty, short, and on both sides of one and two bit words.
WIDTHS = tuple(range(10)) + (63, 64, 65, 127, 128, 129)


def _recursive_into(view, i_lo, i_hi, j_lo, j_hi, out):
    meter = view.meter
    meter.grow(_FRAME_CELLS)
    try:
        if i_lo > i_hi or j_lo > j_hi:
            return
        if i_lo == i_hi:
            j = view.next_y_match(i_lo, j_lo, j_hi)
            if j is not None:
                out.append(j)
                meter.grow(1)
            return
        i_mid, j_mid = _split(view, i_lo, i_hi, j_lo, j_hi)[:2]
        _recursive_into(view, i_lo, i_mid, j_lo, j_mid, out)
        _recursive_into(view, i_mid + 1, i_hi, j_mid + 1, j_hi, out)
    finally:
        meter.shrink(_FRAME_CELLS)


def _reference(view, xr, yr):
    out = []
    try:
        _recursive_into(view, xr.lo, xr.hi, yr.lo, yr.hi, out)
    finally:
        view.meter.shrink(len(out))
    return tuple(out)


def _assert_same_charge(kind, x, y, xr, yr):
    got_view, want_view = kind_view(kind, x, y), kind_view(kind, x, y)
    # A live cell on entry shows that nothing below it is released.
    got_view.meter.grow(1)
    want_view.meter.grow(1)
    assert first_lcs(got_view, xr, yr) == _reference(want_view, xr, yr)
    got, want = got_view.meter, want_view.meter
    assert (got.eq_queries, got.peak_cells, got.live_cells) == \
        (want.eq_queries, want.peak_cells, want.live_cells)
    assert want.live_cells == 1


@st.composite
def instances(draw):
    """(x, y, xr, yr): a pair over a few letters and subranges of it."""
    sigma = draw(st.sampled_from([1, 2, 3, 4, 8]))
    letters = "abcdefgh"[:sigma]
    rows = draw(st.integers(1, 9))
    w = draw(st.sampled_from(WIDTHS))
    x_pad = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    y_pad = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    # "z" only in X: a row with no match in Y.
    x = draw(st.text(letters + "z", min_size=rows + sum(x_pad),
                     max_size=rows + sum(x_pad)))
    y = draw(st.text(letters, min_size=w + sum(y_pad),
                     max_size=w + sum(y_pad)))
    xr = IndexRange(x_pad[0] + 1, x_pad[0] + rows)
    yr = IndexRange(y_pad[0] + 1, y_pad[0] + w)
    return x, y, xr, yr


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(instances(), st.sampled_from(KINDS))
def test_first_lcs_charges_what_the_recursion_charges(instance, kind):
    _assert_same_charge(kind, *instance)


# One case per branch of the two-row kernel, on X[2..3] and Y[2..6]; the
# ends of Y hold matches that the range must leave out.
TWO_ROW_CASES = {
    "match_only_in_x_lo": ("xab", "bxaxaxb"),
    "match_only_in_x_hi": ("xab", "axbxbxa"),
    "last_x_hi_before_first_x_lo": ("xab", "abxbaab"),
    "last_x_hi_at_first_x_lo": ("xaa", "axxaxxa"),
    "last_x_hi_after_first_x_lo": ("xab", "bxabxxa"),
    "no_match": ("xab", "axxxxxb"),
    "first_x_lo_match_at_j_hi": ("xab", "bxxxxab"),
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("x, y", TWO_ROW_CASES.values(), ids=TWO_ROW_CASES)
def test_each_two_row_branch_charges_what_the_recursion_charges(kind, x, y):
    _assert_same_charge(kind, x, y, IndexRange(2, 3), IndexRange(2, 6))


@pytest.mark.parametrize("kind", KINDS)
def test_deep_ranges_charge_what_the_recursion_charges(kind):
    rng = random.Random(7)
    for _ in range(40):
        sigma = rng.choice([2, 4])
        x = rand_string(rng, rng.randint(10, 140), sigma)
        y = rand_string(rng, rng.randint(1, 140), sigma)
        _assert_same_charge(kind, x, y, IndexRange(1, len(x)),
                            IndexRange(1, len(y)))


# Widths of the fully matched ranges: both sides of one and two bit words.
MATCHED_WIDTHS = (63, 64, 65, 127, 128)


def _matched_pair(rng, rows, w, sigma):
    """(x, y, xr, yr): X[xr] is a random subsequence of Y[yr], |yr| = w,
    and a random character pads each end of both inputs."""
    y = rand_string(rng, w, sigma)
    x = "".join(y[k] for k in sorted(rng.sample(range(w), rows)))
    pad = [rand_string(rng, 1, sigma) for _ in range(4)]
    return (pad[0] + x + pad[1], pad[2] + y + pad[3],
            IndexRange(2, rows + 1), IndexRange(2, w + 1))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("w", MATCHED_WIDTHS)
def test_fully_matched_ranges_charge_what_the_recursion_charges(
        monkeypatch, kind, w):
    calls = []

    def record(view, i_lo, i_hi, *args):
        calls.append(i_hi - i_lo + 1)
        return _matched_rows(view, i_lo, i_hi, *args)

    monkeypatch.setattr(hirschberg, "_matched_rows", record)
    rng = random.Random(w)
    for rows in range(2, 41):
        x, y, xr, yr = _matched_pair(rng, rows, w, rng.choice([1, 2, 4]))
        # The kernel alone, under the frame the loop grows for its range.
        got_view, want_view = kind_view(kind, x, y), kind_view(kind, x, y)
        got, want = got_view.meter, want_view.meter
        got.grow(1)
        want.grow(1)
        out = []
        got.grow(_FRAME_CELLS)
        _matched_rows(got_view, xr.lo, xr.hi, yr.lo, yr.hi, out)
        got.shrink(_FRAME_CELLS + len(out))
        assert tuple(out) == _reference(want_view, xr, yr)
        assert (got.eq_queries, got.peak_cells, got.live_cells) == \
            (want.eq_queries, want.peak_cells, want.live_cells)
        # Whole calls: the root's length is unknown, so its halves take it.
        calls.clear()
        _assert_same_charge(kind, x, y, xr, yr)
        assert calls if rows > 2 else not calls


def _matched_cols_pair(rng, w, extra, sigma):
    """(x, y, xr, yr): X[xr] is Y[yr], |yr| = w, with ``extra`` random
    letters inserted, and a random character pads each end of both."""
    y = rand_string(rng, w, sigma)
    x = supersequence(rng, y, extra, sigma)
    pad = [rand_string(rng, 1, sigma) for _ in range(4)]
    return (pad[0] + x + pad[1], pad[2] + y + pad[3],
            IndexRange(2, w + extra + 1), IndexRange(2, w + 1))


def _cols_bound(r, w):
    """The bound :func:`_matched_cols` puts on the recursion's peak cells
    above the frame of a range of r rows matched in its w positions."""
    return _FRAME_CELLS * (r - 1).bit_length() + w + min(r, w)


@pytest.mark.parametrize("kind", KINDS)
def test_ranges_matched_in_every_position_peak_within_the_bound(kind):
    rng = random.Random(kind)
    cases = [(w, w) for w in (1, 2, 3, 64)]
    cases += [(w, rng.randint(w, w + 120))
              for w in (rng.randint(1, 70) for _ in range(150))]
    for w, r in cases:
        x, y, xr, yr = _matched_cols_pair(rng, w, r - w, rng.choice([1, 2, 4]))
        view = kind_view(kind, x, y)
        _reference(view, xr, yr)
        assert view.meter.peak_cells - _FRAME_CELLS <= _cols_bound(r, w)


def test_matched_peak_within_the_bound():
    for r in range(1, 513):
        assert _matched_peak(r) <= _cols_bound(r, r)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("w", tuple(range(1, 10)) + MATCHED_WIDTHS)
def test_ranges_matched_in_every_position_charge_what_the_recursion_charges(
        monkeypatch, kind, w):
    outcomes = []

    def record(*args):
        outcomes.append(_matched_cols(*args))
        return outcomes[-1]

    monkeypatch.setattr(hirschberg, "_matched_cols", record)
    rng = random.Random(w)
    # 1 to w + 3 inserted letters: at most 12 counts, the ends among them.
    extras = {1, 2, w + 3, *rng.sample(range(1, w + 4), min(w + 3, 9))}
    for extra in sorted(extras):
        x, y, xr, yr = _matched_cols_pair(rng, w, extra, rng.choice([1, 2, 4]))
        # Whole calls: the root's length is unknown, so its parts take the
        # kernel, which hands back the ranges that may raise a fresh
        # meter's peak.
        _assert_same_charge(kind, x, y, xr, yr)
        if xr.length < 3:
            continue
        # The kernel alone, under the frame the loop grows for its range,
        # with the meter's peak below, at and far above the one the
        # recursion reaches from a fresh meter: it must hand back below.
        want_view = kind_view(kind, x, y)
        want_view.meter.grow(1)
        _reference(want_view, xr, yr)
        reached = want_view.meter.peak_cells
        for peak in (1, reached - 1, reached, 1 << 20):
            got_view, want_view = kind_view(kind, x, y), kind_view(kind, x, y)
            got, want = got_view.meter, want_view.meter
            # A hand-back decides from the bound alone: it searches nothing.
            searches = []

            def counting(*args, find=got_view._find):
                searches.append(args)
                return find(*args)

            got_view._find = got_view._mirror._find = counting
            for meter in (got, want):
                meter.grow(peak)
                meter.shrink(peak - 1)
            got.grow(_FRAME_CELLS)
            entry = (got.eq_queries, got.live_cells, got.peak_cells)
            out = []
            solved = _matched_cols(got_view, xr.lo, xr.hi, yr.lo, yr.hi, out)
            outcomes.append(solved)
            assert solved == (peak >= reached) or peak == reached
            if not solved:
                assert out == [] and searches == [] and entry == (
                    got.eq_queries, got.live_cells, got.peak_cells)
                continue
            got.shrink(_FRAME_CELLS + len(out))
            assert tuple(out) == _reference(want_view, xr, yr)
            assert (got.eq_queries, got.peak_cells, got.live_cells) == \
                (want.eq_queries, want.peak_cells, want.live_cells)
    assert True in outcomes and False in outcomes


def _stream(enum, limit):
    """Up to ``limit`` outputs, each with the probes of its gap."""
    out = []
    for _ in range(limit):
        before = enum.counters.eq_queries_total
        p = enum.next_sequence()
        if p is None:
            break
        out.append((p, enum.counters.eq_queries_total - before))
    return out


@pytest.mark.parametrize("kind", KINDS)
def test_enumeration_gaps_are_the_recursions(monkeypatch, kind):
    x, y = "abcd" * 6, "dcba" * 6
    got = LcsEnumerator(kind_view(kind, x, y))
    got_stream = _stream(got, 300)
    monkeypatch.setattr(enumerator_module, "_first_lcs_into", _recursive_into)
    want = LcsEnumerator(kind_view(kind, x, y))
    assert got_stream == _stream(want, 300)
    assert got.counters.peak_aux_cells == want.counters.peak_aux_cells
    assert got.view.meter.live_cells == want.view.meter.live_cells
