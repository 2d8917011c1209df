"""The bit form of a threshold fold agrees with the list form exactly.

A fold over w positions of a coded pair, one whose tokens fit 256
codes, switches to bit rows before the first row at which it holds
ceil(w/64) levels; so do the rows of the branch search, which span all
of Y. One function, ``_fold``, makes that switch for every fold. Suffix
thresholds are the mirror's prefix ones, so its folds switch likewise.
A split under 64 positions folds both halves in the bit form and reads
the split off the two words. A ``MinimalSeq`` view of the same content
is never coded, so it always keeps the list form and is the reference:
values, probes, peak cells and live cells must all match.
"""

import random
import sys
import tracemalloc
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from conftest import MinimalSeq, kind_view, rand_string, supersequence
from lcs_enum import (IndexRange, LcsEnumerator, MatchView, Meter, find_branch,
                      first_lcs, prefix_thresholds, split_point,
                      suffix_thresholds)
from lcs_enum import branching, core, hirschberg

FUNCTIONS = (prefix_thresholds, suffix_thresholds, first_lcs, split_point)
# Widths on both sides of 16 and 64 positions and of two words.
EDGE_WIDTHS = (1, 2, 8, 15, 16, 17, 62, 63, 64, 65, 66, 127, 128, 129)
# Lengths of Y about as wide.
SEARCH_WIDTHS = (1, 2, 8, 15, 16, 17, 62, 63, 64, 65, 127, 128, 129)


def _rule(w):
    """The levels at which a fold over w positions of a view with
    bit-planes takes the bit form, before its next row."""
    return -(-w // 64)


@st.composite
def instances(draw):
    """(x, y, xr, yr): a str or bytes pair and subranges of it."""
    kind = draw(st.sampled_from(["str", "bytes"]))
    sigma = draw(st.integers(1, 26))
    common = list(range(ord("a"), ord("a") + sigma))
    # Symbols only X can hold: absent from Y, 0x80 and up, and for str
    # non-ASCII code points; all of them share the code of X's absent
    # tokens, whose plane is zeros.
    only_x = draw(st.sampled_from([[], [ord("0")], [0x80, 0xFF],
                                   [0xE9, 0x3B1] if kind == "str" else [0x9C]]))
    y_extra = [0x80, 0xFF] if kind == "bytes" and draw(st.booleans()) else []
    w = draw(st.sampled_from(EDGE_WIDTHS) | st.integers(1, 160))
    # X row counts near the fewest that can switch (the rule's levels,
    # then the row that switches) as well as anywhere.
    least = _rule(w) + 1
    rows = draw(st.integers(max(1, least - 3), least + 3)
                | st.integers(1, 160))
    y_pad = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    x_pad = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    y = draw(st.lists(st.sampled_from(common + y_extra),
                      min_size=w + sum(y_pad), max_size=w + sum(y_pad)))
    x = draw(st.lists(st.sampled_from(common + only_x),
                      min_size=rows + sum(x_pad), max_size=rows + sum(x_pad)))
    if kind == "str":
        x, y = "".join(map(chr, x)), "".join(map(chr, y))
    else:
        x, y = bytes(x), bytes(y)
    xr = IndexRange(x_pad[0] + 1, x_pad[0] + rows)
    yr = IndexRange(y_pad[0] + 1, y_pad[0] + w)
    return x, y, xr, yr


def _metered(fn, view, xr, yr):
    result = fn(view, xr, yr)
    meter = view.meter
    return (getattr(result, "values", result), meter.eq_queries,
            meter.peak_cells, meter.live_cells)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(instances())
def test_bit_rows_agree_with_list_rows(case):
    x, y, xr, yr = case
    for fn in FUNCTIONS:
        if fn is split_point and xr.length < 2:
            continue
        assert (_metered(fn, MatchView(x, y), xr, yr)
                == _metered(fn, MatchView(MinimalSeq(x), MinimalSeq(y)),
                            xr, yr)), fn


@st.composite
def search_pairs(draw):
    """(x, y): a str or bytes pair whose Y is about 16, 64 or 128 long."""
    kind = draw(st.sampled_from(["str", "bytes"]))
    sigma = draw(st.integers(1, 8))
    common = list(range(ord("a"), ord("a") + sigma))
    only_x = draw(st.sampled_from([[], [ord("0")]]))  # absent from Y
    len_y = draw(st.sampled_from(SEARCH_WIDTHS))
    len_x = draw(st.integers(1, 160))
    y = draw(st.lists(st.sampled_from(common), min_size=len_y,
                      max_size=len_y))
    x = draw(st.lists(st.sampled_from(common + only_x), min_size=len_x,
                      max_size=len_x))
    if kind == "str":
        return "".join(map(chr, x)), "".join(map(chr, y))
    return bytes(x), bytes(y)


def _searched(search, view, *args):
    return (search(view, *args), view.meter.eq_queries,
            view.meter.peak_cells, view.meter.live_cells)


def _check_searches(x, y, outputs):
    """``find_branch``, and ``_branch_search`` from the frontier the
    enumerator carried, agree on the pair and on its ``MinimalSeq`` form
    for the first ``outputs`` outputs."""
    enum = LcsEnumerator(MatchView(x, y))
    lists = MinimalSeq(x), MinimalSeq(y)
    for _ in range(outputs):
        carried = enum._k_star, enum._frontier
        p = enum.next_sequence()
        if p is None:
            break
        for search, args in ((find_branch, (p,)),
                             (branching._branch_search, (p, *carried))):
            want = _searched(search, MatchView(*lists), *args)
            assert want[3] == 0
            assert _searched(search, MatchView(x, y), *args) == want, (
                search.__name__, p)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(search_pairs())
def test_search_bit_rows_agree_with_list_rows(pair):
    _check_searches(*pair, outputs=4)


def test_wide_searches_agree_with_list_rows(search_switches):
    rng = random.Random(8)
    for _ in range(2):
        x, y = rand_string(rng, 512, 4), rand_string(rng, 512, 4)
        for pair in ((x, y), (x.encode(), y.encode())):
            _check_searches(*pair, outputs=3)
    assert {w for w, *_ in search_switches} == {512}


def _switch_recorder(monkeypatch, module):
    """(w, levels, bits) at every switch of a fold to the bit form that
    ``module._fold`` runs: the positions, the levels the list held there,
    and the bit length of V after the fold's bit rows."""
    switches = []
    fold, bit_rows = module._fold, hirschberg._bit_rows
    switching = []  # per _fold call in progress: whether it may switch

    def record_fold(view, rows, j_lo, j_hi, levels, v=None):
        switching.append(v is None)
        try:
            return fold(view, rows, j_lo, j_hi, levels, v)
        finally:
            switching.pop()

    def record_rows(view, rows, j_lo, j_hi, v=None):
        result = bit_rows(view, rows, j_lo, j_hi, v)
        if switching and switching[-1]:
            w = j_hi - j_lo + 1
            switches.append((w, w - v.bit_count(), result.bit_length()))
        return result

    monkeypatch.setattr(module, "_fold", record_fold)
    monkeypatch.setattr(hirschberg, "_bit_rows", record_rows)
    return switches


@pytest.fixture
def bit_entries(monkeypatch):
    """(w, levels, bits) at every switch of a restart or threshold fold."""
    return _switch_recorder(monkeypatch, hirschberg)


@pytest.fixture
def narrow_splits(monkeypatch):
    """(view, w) at every split that two one-word bit folds solve."""
    splits = []
    narrow_split = hirschberg._narrow_split

    def record(view, i_lo, i_hi, j_lo, j_hi):
        splits.append((view, j_hi - j_lo + 1))
        return narrow_split(view, i_lo, i_hi, j_lo, j_hi)

    monkeypatch.setattr(hirschberg, "_narrow_split", record)
    return splits


@pytest.fixture
def search_switches(monkeypatch):
    """(len_y, levels, bits) at every switch of a branch search."""
    return _switch_recorder(monkeypatch, branching)


def _check_switches(entries):
    """Every switch holds the rule's levels, and those levels cover V's
    words."""
    for w, levels, bits in entries:
        assert levels == _rule(w), (w, levels)
        assert 64 * levels >= w and bits <= w, (w, levels, bits)


def _list_levels(view, rows, j_lo, j_hi):
    """Levels of the list-form fold of the X rows of the view or mirror,
    on a fresh view of its searched pair."""
    view = MatchView(view._x, view._y)
    levels = []
    for i in rows:
        hirschberg._fold_prefix_row(view, i, j_lo, j_hi, levels)
    return len(levels)


def test_switch_only_when_levels_cover_the_bits(monkeypatch, bit_entries,
                                                narrow_splits, search_switches):
    # _split solves every split under 64 positions of a view with
    # bit-planes with one call of the narrow kernel, two one-word bit
    # folds, and no half of it enters _fold. Each half of a wider split
    # switches exactly when the list form holds the rule's levels before
    # one of its rows, and then at the first such row; the search
    # likewise, at any width. The right half is folded as the mirror's
    # rows over mirrored positions. A view without planes never takes the
    # bit form.
    split, narrow_split = hirschberg._split, hirschberg._narrow_split

    def checked_narrow(view, i_lo, i_hi, j_lo, j_hi):
        before = len(bit_entries)
        result = narrow_split(view, i_lo, i_hi, j_lo, j_hi)
        assert view._planes is not None and j_hi - j_lo + 1 < 64
        assert len(bit_entries) == before
        return result

    def checked(view, i_lo, i_hi, j_lo, j_hi):
        before, narrow = len(bit_entries), len(narrow_splits)
        result = split(view, i_lo, i_hi, j_lo, j_hi)
        w = j_hi - j_lo + 1
        kernel = view._planes is not None and w < 64
        assert len(narrow_splits) == narrow + kernel, (i_lo, i_hi, j_lo, j_hi)
        if kernel or view._planes is None:
            assert len(bit_entries) == before
            return result
        levels = _rule(w)
        i_mid = (i_lo + i_hi) // 2
        n1, m1 = view.len_x + 1, view.len_y + 1
        want = 0
        for fold_view, rows, lo, hi in (
                (view, range(i_lo, i_mid + 1), j_lo, j_hi),
                (view._mirror, range(n1 - i_hi, n1 - i_mid), m1 - j_hi,
                 m1 - j_lo)):
            last = len(rows) - 1  # rows[last] is the last one that may switch
            want += last >= 0 and _list_levels(
                fold_view, rows[:last], lo, hi) >= levels
        assert len(bit_entries) - before == want, (i_lo, i_hi, j_lo, j_hi)
        return result

    monkeypatch.setattr(hirschberg, "_split", checked)
    monkeypatch.setattr(hirschberg, "_narrow_split", checked_narrow)
    rng = random.Random(3)
    narrow_seen = planed_seen = 0
    for sigma in (1, 2, 4, 26):
        for n in (17, 40, 63, 64, 65, 200):
            x, y = rand_string(rng, n, sigma), rand_string(rng, n, sigma)
            for view in (MatchView(x, y), MatchView(x.encode(), y.encode()),
                         MatchView(MinimalSeq(x), MinimalSeq(y))):
                first_lcs(view)
                list(islice(LcsEnumerator(view), 5))
                planed_seen += view._planes is not None
            narrow_seen += len(narrow_splits)
            narrow_splits.clear()
    assert narrow_seen and planed_seen
    assert bit_entries and all(w >= 64 for w, _, _ in bit_entries)
    assert {w < 64 for w, _, _ in search_switches} == {True, False}
    _check_switches(bit_entries)
    _check_switches(search_switches)


def test_byte_valued_sequences_switch(bit_entries):
    rng = random.Random(4)
    x, y = rand_string(rng, 200, 2), rand_string(rng, 200, 2)
    bx, by = x.encode(), y.encode()
    for pair in [(list(bx), list(by)), (tuple(bx), by),
                 (bytearray(bx), bytearray(by))]:
        first_lcs(MatchView(*pair))
        assert bit_entries, pair
        bit_entries.clear()


def test_other_inputs_never_switch(monkeypatch, bit_entries, search_switches):
    # The pairs _code leaves uncoded: a bare sequence, tokens of another
    # type or unhashable, and pairs that need more than 256 codes, the
    # text one of which stays str and searches with str.find.
    monkeypatch.setattr(hirschberg, "_bit_planes", None)  # never built
    rng = random.Random(4)
    x, y = rand_string(rng, 200, 2), rand_string(rng, 200, 2)
    bx, by = x.encode(), y.encode()
    more = range(1000, 1255)  # 255 more shared tokens: 257 codes in all
    text = "".join(map(chr, more))
    for pair in [(MinimalSeq(bx), MinimalSeq(by)),
                 (tuple(zip(x)), tuple(zip(y))),  # one-letter tuple tokens
                 (tuple(map(float, bx)), list(map(float, by))),
                 ([[t] for t in bx], [[t] for t in by]),  # unhashable
                 ([*bx, *more], (*more, *by)),
                 (x + text, text + y)]:
        view = MatchView(*pair)
        first_lcs(view)
        list(islice(LcsEnumerator(view), 5))
        assert view._planes is view._mirror._planes is None, pair
        assert view._find is (str.find if isinstance(pair[0], str)
                              else core._index_find)
    assert bit_entries == [] and search_switches == []


# The narrow kernel's code object: the fixtures replace the module's name.
_NARROW_KERNEL = hirschberg._narrow_split.__code__


@pytest.mark.parametrize("n", [17, 63, 65, 256, 2048])
def test_space_family_never_switches(monkeypatch, bit_entries, narrow_splits,
                                     search_switches, n):
    # Criterion 7's family has L = 1. A fold 65 or more positions wide
    # switches only at two levels or more, and a split under 64 positions
    # folds two words in the narrow kernel. The search folds the mirror,
    # whose one level arrives only at its last row, and a fold switches
    # before a row. So no fold takes a bit row, at any n. The kernel's two
    # words are read off its frame as it returns (its ``words``), and any
    # profiler already set is restored after.
    words, kernel_words = [], []
    bit_rows = hirschberg._bit_rows

    def record(view, rows, j_lo, j_hi, v=None):
        result = bit_rows(view, rows, j_lo, j_hi, v)
        words.append((j_hi - j_lo + 1, result.bit_length()))
        return result

    def on_return(frame, event, arg):
        if event == "return" and frame.f_code is _NARROW_KERNEL:
            kernel_words.append(list(frame.f_locals["words"]))

    monkeypatch.setattr(hirschberg, "_bit_rows", record)
    view = MatchView("a" + "b" * (n - 1), "a" + "c" * (n - 1))
    profiler = sys.getprofile()
    sys.setprofile(on_return)
    try:
        stream = list(LcsEnumerator(view))
    finally:
        sys.setprofile(profiler)
    assert stream == [(1,)]
    assert bit_entries == []
    assert len(kernel_words) == len(narrow_splits)
    assert all(w < 64 for _, w in narrow_splits)
    for (_, w), folded in zip(narrow_splits, kernel_words):
        assert len(folded) == 2 and w < 64
        assert all(word.bit_length() <= w for word in folded)
    assert words == [] and search_switches == []
    if n < 64:
        assert narrow_splits  # every split is narrow, the top one too
        assert max(w for _, w in narrow_splits) == n


@pytest.mark.parametrize("kind", ["str", "bytes"])
def test_narrow_split_equals_the_list_split(kind):
    # The kernel against _split on the uncoded pair, which folds lists:
    # split, both lengths, probes and peak cells. A third of the ranges
    # match every Y position.
    rng = random.Random(12)
    whole = 0
    for t in range(300):
        sigma = rng.randint(2, 4)
        w, rows = rng.randint(1, 63), rng.randint(3, 80)
        y = rand_string(rng, w, sigma)
        x = (supersequence(rng, y, rows - w, sigma) if t % 3 == 0 and rows >= w
             else rand_string(rng, rows, sigma))
        # Pads move the window across table entries.
        y_pad, x_pad = rng.randint(0, 150), rng.randint(0, 5)
        y = rand_string(rng, y_pad, sigma) + y + rand_string(rng, 3, sigma)
        x = rand_string(rng, x_pad, sigma) + x + rand_string(rng, 2, sigma)
        args = (x_pad + 1, x_pad + rows, y_pad + 1, y_pad + w)
        lists = kind_view("minimal", x, y)
        want = hirschberg._split(lists, *args)
        want = (want, lists.meter.eq_queries, lists.meter.peak_cells)
        length = want[0][2] + want[0][3]
        whole += length == w
        view = kind_view(kind, x, y)
        got = hirschberg._narrow_split(view, *args)
        meter = view.meter
        assert (got, meter.eq_queries, meter.peak_cells) == want, (x, y, args)
        assert meter.live_cells == 0
    assert whole >= 100


# Bytes a first_lcs over a narrow Y window may allocate beyond its
# charged cells, whatever |Y|.
NARROW_PEAK_MARGIN = 512


@pytest.mark.parametrize("kind", [str, bytes])
def test_narrow_restart_memory_does_not_grow_with_y(kind):
    # A Y window of 50 positions: every split is the narrow kernel's, and
    # its reads take one table entry each, never a |Y|-bit integer. So
    # the traced peak of one first_lcs stays flat while |Y| grows x16, as
    # the charged peak cells do. The planes of both orientations, and the
    # tables of X's tokens, are input storage, built before tracing.
    peaks, cells = [], set()
    for m in (4096, 16384, 65536):
        rng = random.Random(10)
        x, window = rand_string(rng, 200, 4), rand_string(rng, 50, 4)
        lo = m // 2
        y = (rand_string(rng, lo - 1, 4) + window
             + rand_string(rng, m - lo - 49, 4))
        view = MatchView(*((x.encode(), y.encode()) if kind is bytes
                           else (x, y)))
        for v in (view, view._mirror):
            hirschberg._build_planes(v)
            for t in set(v._x):
                v._tables[t]
        yr = IndexRange(lo, lo + 49)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            first_lcs(view, None, yr)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        cells.add(view.meter.peak_cells)
    assert len(cells) == 1
    assert max(peaks) - min(peaks) <= NARROW_PEAK_MARGIN, peaks


# Bytes the narrow kernel may allocate per cell it holds: its words, the
# answer and the answer's rows, each an int (under 64 positions one of at
# most 127 bits, 44 bytes on 64-bit CPython 3.11) and a list slot; and
# the bytes it may allocate besides, for its stack of nodes and the tuple
# first_lcs returns. A word over w positions is charged ceil(w / 64)
# cells. Measured on CPython 3.10-3.13: 37-65 bytes per cell over 50
# positions, the most at r = 3, where about 200 bytes of fixed cost
# spread over 10 cells; 18-36 over 200 positions, where a word of 4
# cells takes about 60 bytes.
NARROW_KERNEL_CELL_BYTES = 56
NARROW_KERNEL_FIXED_BYTES = 512


@pytest.mark.parametrize("r, w", [
    *(pytest.param(r, 50, id=str(r)) for r in (8, 60, 600)),
    *(pytest.param(r, 200, id=f"{r}-wide") for r in (8, 60, 600))])
def test_narrow_kernel_memory_is_its_words_and_answer(monkeypatch, r, w):
    # r rows over a Y window of w positions, under a raised peak: one call
    # of the kernel, and no split. It holds r + 1 words of ceil(w / 64)
    # cells each and the answer's L positions and L rows, so its traced
    # peak stays within A * ((r + 1) * ceil(w / 64) + 2L) + B bytes, and
    # flat while |Y| grows x16. The mirror's planes and tables are input
    # storage, built, like any first-call state, by an untraced call
    # before.
    def no_split(*args):
        raise AssertionError("a range was split")

    monkeypatch.setattr(hirschberg, "_split", no_split)
    peaks = []
    for m in (4096, 65536):
        rng = random.Random(10)
        x, window = rand_string(rng, r, 4), rand_string(rng, w, 4)
        lo = m // 2
        y = (rand_string(rng, lo - 1, 4) + window
             + rand_string(rng, m - lo - w + 1, 4))
        view = MatchView(x, y)
        view.meter.grow(1 << 20)
        view.meter.shrink(1 << 20)
        yr = IndexRange(lo, lo + w - 1)
        p = first_lcs(view, None, yr)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert first_lcs(view, None, yr) == p
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        # Under 64 positions the kernel reads the mirror's window tables;
        # wider, it cuts its masks from the mirror's planes.
        assert view._tables == {}
        assert bool(view._mirror._tables) == (w < 64)
        cells = (r + 1) * -(-w // 64) + 2 * len(p)
        assert peaks[-1] <= (NARROW_KERNEL_CELL_BYTES * cells
                             + NARROW_KERNEL_FIXED_BYTES), (peaks, cells)
    assert max(peaks) - min(peaks) <= NARROW_PEAK_MARGIN, peaks


# Bytes per entry of a window table: a list slot and an int of at most
# 128 bits, 8 + 48 on CPython 3.11, with room to spare.
TABLE_ENTRY_BYTES = 64


def test_window_tables_hold_only_the_tokens_narrow_splits_read():
    # A pair over all 256 byte values, |Y| = 65,536. Wide folds and the
    # branch search cut their masks from the planes and build no table.
    # A first_lcs over a 50-position window and 60 rows of X that hold 4
    # values, under a peak the wide folds raised, is one call of the
    # narrow kernel, which folds the mirror's rows alone: it builds the
    # mirror's tables of those 4 tokens' codes and no other, and none of
    # the view's. So its traced peak is bounded by 8 tables, whatever the
    # alphabet; tables for all 140 codes of X, in both orientations,
    # would take some 6 MB, over ten times the bound.
    rng = random.Random(13)
    m, lo = 65536, 32768
    quad = bytes(range(97, 101))
    narrow_x = bytes(rng.choice(quad) for _ in range(60))
    x = rng.randbytes(100) + narrow_x + rng.randbytes(100)
    y = (rng.randbytes(lo - 1) + bytes(rng.choice(quad) for _ in range(50))
         + rng.randbytes(m - lo - 49))
    view = MatchView(x, y)
    p = first_lcs(MatchView(x, y))
    for v in (view, view._mirror):
        hirschberg._build_planes(v)
    prefix_thresholds(view, None, IndexRange(1, 4096))
    suffix_thresholds(view, None, IndexRange(m - 4095, m))
    find_branch(view, p)
    assert view._tables == {} and view._mirror._tables == {}
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        first_lcs(view, IndexRange(101, 160), IndexRange(lo, lo + 49))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    narrow_codes = set(view._x[100:160])
    assert len(narrow_codes) == len(set(narrow_x)) == 4
    assert view._tables == {} and set(view._mirror._tables) == narrow_codes
    assert peak <= 8 * (m // 64) * TABLE_ENTRY_BYTES, peak


def test_wide_folds_agree_with_list_rows(bit_entries):
    # Hypothesis widths stop at 160; these folds are up to 512 wide, so
    # their masks start and end inside plane bytes at many offsets.
    rng = random.Random(5)
    for _ in range(2):
        x, y = rand_string(rng, 512, 4), rand_string(rng, 512, 4)
        want = _metered(first_lcs, MatchView(MinimalSeq(x), MinimalSeq(y)),
                        None, None)
        for view in (MatchView(x.encode(), y.encode()), MatchView(x, y)):
            assert _metered(first_lcs, view, None, None) == want
    assert max(w for w, *_ in bit_entries) == 512


def test_planes_hold_the_positions_of_shared_tokens():
    y = b"abcab" * 30 + b"zz"
    view = MatchView(b"xba" * 3, y)
    mirror = view._mirror
    # Built by each orientation's first bit fold, not here.
    assert view._planes == {} and mirror._planes == {}
    assert view._tables == {} and mirror._tables == {}
    assert view._planes is not mirror._planes
    assert view._tables is not mirror._tables
    planes = core._bit_planes(view._x, view._y)
    mirrored = core._bit_planes(mirror._x, mirror._y)
    # One code per shared token and one for "x", the token only in X;
    # "c" and "z", only in Y, share a code that X never holds.
    code = dict(zip(b"xba", view._x))
    assert set(planes) == set(mirrored) == set(code.values())
    assert len(set(view._y)) == 3 and set(view._y) - set(view._x)
    n = len(y)
    for token, t in code.items():
        # The reverse plane of earlier versions, bit for bit: int(.., 2)
        # reads Y[1] as the highest bit, n - 1, so bit n - j is Y[j].
        s = "".join("1" if c == token else "0" for c in y)
        reverse = int(s, 2).to_bytes((n + 7) // 8, "little")
        assert len(planes[t]) == len(mirrored[t]) == (n + 7) // 8
        assert mirrored[t] == reverse
        f, r = (int.from_bytes(p, "little") for p in (planes[t], mirrored[t]))
        for j in range(1, n + 1):
            assert (f >> (j - 1)) & 1 == (y[j - 1] == token)
            assert (r >> (n - j)) & 1 == (y[j - 1] == token)
    # Every window under 64 positions, in both orientations: one table
    # entry, shifted and masked, is the cut of the plane that the wide
    # rows take, and no entry is wider than 128 bits. A code's table is
    # built on its first read.
    for plane_of in (planes, mirrored):
        table_of = core._WindowTables(plane_of)
        # "x" is absent from Y: the table of its code holds no bit.
        assert not any(table_of[code[ord("x")]])
        assert set(table_of) == {code[ord("x")]}
        for t in code.values():
            table = table_of[t]
            assert table_of[t] is table
            assert len(table) == -(-n // 64)
            assert max(e.bit_length() for e in table) <= 128
            f = int.from_bytes(plane_of[t], "little")
            for b0 in range(n):
                for w in range(1, min(63, n - b0) + 1):
                    ones = (1 << w) - 1
                    assert (table[b0 >> 6] >> (b0 & 63)) & ones == \
                        (f >> b0) & ones, (t, b0, w)
        assert set(table_of) == set(code.values())
    assert core._bit_planes("xba", "abz") == {
        "a": b"\x01", "b": b"\x02", "x": b"\x00"}


def test_planes_are_built_once_and_shared(monkeypatch, bit_entries):
    built, tabled = [], []
    bit_planes = hirschberg._bit_planes
    missing = core._WindowTables.__missing__

    def record(x, y):
        built.append(y)
        return bit_planes(x, y)

    def record_table(tables, token):
        tabled.append((id(tables), token))
        return missing(tables, token)

    monkeypatch.setattr(hirschberg, "_bit_planes", record)
    monkeypatch.setattr(core._WindowTables, "__missing__", record_table)
    rng = random.Random(6)
    x, y = rand_string(rng, 200, 4), rand_string(rng, 200, 4)
    view = MatchView(x, y)
    enum = LcsEnumerator(view)
    for _ in range(3):
        enum.next_sequence()
    # One build of the planes per orientation, the view's and its
    # mirror's, on its coded Y, and one of the table of each code of X
    # per orientation, on the narrow kernel's first read of it.
    coded = sorted([view._y, view._mirror._y])
    assert view._mirror._y == view._y[::-1] and len(set(view._y)) == 4
    assert len(bit_entries) > 1 and sorted(built) == coded
    assert set(view._tables) == set(view._mirror._tables) == set(view._x)
    assert sorted(tabled) == sorted((id(v._tables), t)
                                    for v in (view, view._mirror)
                                    for t in set(view._x))
    other = view.with_meter(Meter())
    for name in ("_planes", "_tables"):
        assert getattr(other, name) is getattr(view, name)
        assert getattr(other._mirror, name) is getattr(view._mirror, name)
    # Each with_meter view has its own mirror, which refers to no view.
    assert other._mirror is not view._mirror
    assert other._mirror._mirror is view._mirror._mirror is None
    first_lcs(other)
    find_branch(other, first_lcs(other))
    assert sorted(built) == coded
    assert len(tabled) == 2 * len(set(x))


def test_planes_of_a_pair_that_shares_no_token_are_built_once(monkeypatch):
    # An empty plane dict used to read as "not built yet", so every bit
    # fold of such a pair rebuilt it: 22 builds for this first_lcs. Now
    # X's one code, that of its tokens absent from Y, has a plane.
    built = []
    bit_planes = hirschberg._bit_planes

    def record(x, y):
        built.append(y)
        return bit_planes(x, y)

    monkeypatch.setattr(hirschberg, "_bit_planes", record)
    view = MatchView("a" * 4000, "b" * 60)
    other = view.with_meter(Meter())
    assert first_lcs(view) == ()
    assert 1 <= len(built) <= 2  # at most one per orientation
    assert find_branch(other, ()) is None
    assert len(built) <= 2
    # The planes and tables of both orientations hold X's one code,
    # which the narrow splits read, with no bit, and the view made
    # before the build shares them.
    for v, w in ((view, other), (view._mirror, other._mirror)):
        code = v._x[0]
        assert set(v._x) == {code} and code not in v._y
        assert v._planes == {code: bytes(8)} and w._tables is v._tables
        assert list(v._tables) == [code] and not any(v._tables[code])
