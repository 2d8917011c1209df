"""An interrupt anywhere in the enumeration leaves it correct and balanced.

``InterruptingMeter`` raises ``KeyboardInterrupt`` from the first probe
charge past a chosen total, which lands it at the start of a threshold
row (in the list or the bit form, of the view or of its mirror, which
folds the suffix rows, among them the two one-word folds of a narrow
split), at the one charge of a fold's list rows up to its checkpoint,
in a match search of ``first_lcs``, at the one charge of its two-row
kernel, of its kernel for fully matched ranges, of its kernel for
ranges matched in every position of the second string or of its narrow
kernel, or inside the branch search, whose rows also take either form;
the search's uncharged walk of the kept prefix from the
carried mark is interrupted directly. After the interrupt the caller
simply calls again: the stream must equal the uninterrupted one, every
cell must be released at exhaustion, and ``outputs_emitted`` must count
exactly the outputs returned. Standalone library calls, ``find_branch`` and
``greedy_embedding`` among them, must release every cell they charged.
"""

import random
from itertools import islice

import pytest

from conftest import MinimalSeq, kind_view, rand_string
from lcs_enum import (IndexRange, LcsEnumerator, MatchView, Meter, find_branch,
                      first_lcs, greedy_embedding, prefix_thresholds,
                      split_point, suffix_thresholds)
from lcs_enum import branching, hirschberg
from lcs_enum import enumerator as enumerator_module


class InterruptingMeter(Meter):
    """A meter that raises KeyboardInterrupt once, at the first probe
    charge that would take the total past ``at``."""

    __slots__ = ("_probes", "at")

    def __init__(self, at=None):
        self.at = at
        self._probes = 0
        super().__init__()

    @property
    def eq_queries(self):
        return self._probes

    @eq_queries.setter
    def eq_queries(self, value):
        if self.at is not None and value > self.at:
            self.at = None
            raise KeyboardInterrupt
        self._probes = value


LIMIT = 30


def _frames(tb, mirror):
    """The names of the functions on a traceback; a frame whose ``view``
    is the mirror is named with " (mirror)" added."""
    names = set()
    while tb is not None:
        frame = tb.tb_frame
        name = frame.f_code.co_name
        names.add(name + " (mirror)" if frame.f_locals.get("view") is mirror
                  else name)
        tb = tb.tb_next
    return names


def _run(enum, limit=LIMIT):
    """Up to ``limit`` outputs, resuming after every interrupt, and for
    each interrupt the names of the functions on its traceback."""
    outputs = []
    where = []
    while len(outputs) < limit:
        try:
            p = enum.next_sequence()
        except KeyboardInterrupt as e:
            where.append(_frames(e.__traceback__, enum.view._mirror))
            continue
        if p is None:
            break
        outputs.append(p)
    return outputs, where


def _cases():
    rng = random.Random(1)
    x = rand_string(rng, 130, 4)
    y = rand_string(rng, 20, 4) + x[10:120] + rand_string(rng, 20, 4)
    # (x, y, whether some folds and some search rows take the bit form,
    # whether some split is 64 or more positions wide)
    return [("abcab" * 8, "bacba" * 8, True, False),  # the first 30 outputs
            (x, y, True, True),  # 15 outputs
            (x.encode(), y.encode(), True, True),
            (tuple(zip(x)), tuple(zip(y)), False, True)]  # uncoded tokens


@pytest.mark.parametrize("x, y, bit_rows, wide", _cases(),
                         ids=["periodic", "str", "bytes", "tuple"])
def test_interrupted_enumeration_resumes_to_the_same_stream(monkeypatch, x, y,
                                                            bit_rows, wide):
    # Each kernel holds a few percent of the probes: the sweep also
    # interrupts five of each kernel's calls at their first charge. So it
    # does for charges as rare: a fold's one charge of its list rows up to
    # the checkpoint, and the list rows of each orientation, which on a
    # view with planes only wide splits fold, and the first fold over all
    # of Y that switches, which records the checkpoint the later ones
    # start from.
    kernel_at = {"_two_rows": [], "_matched_rows": [], "_matched_cols": [],
                 "_narrow_lcs": [], "_narrow_split": [],
                 "_fold_prefix_row": [], "_fold_prefix_row (mirror)": [],
                 "checkpoint": []}
    ref = LcsEnumerator(MatchView(x, y))

    def recorder(name):
        kernel = getattr(hirschberg, name)

        def record(view, *args):
            kernel_at[name].append(view.meter.eq_queries)
            solved = kernel(view, *args)
            # A kernel that hands its range back charges nothing.
            if solved is False:
                kernel_at[name].pop()
            return solved
        return record

    for name in ("_two_rows", "_matched_rows", "_matched_cols",
                 "_narrow_lcs", "_narrow_split"):
        monkeypatch.setattr(hirschberg, name, recorder(name))
    fold_row, fold, fold_bits = (hirschberg._fold_prefix_row,
                                 hirschberg._fold, hirschberg._bit_rows)
    fold_entries = []  # the meter's total at each _fold call in progress

    def record_fold_row(fold_view, *args):
        # Only the enumeration's view and its mirror fold rows: the
        # checkpoint is recorded by the enumeration's own folds.
        name = ("_fold_prefix_row (mirror)" if fold_view is ref.view._mirror
                else "_fold_prefix_row")
        kernel_at[name].append(fold_view.meter.eq_queries)
        return fold_row(fold_view, *args)

    def record_fold(fold_view, *args):
        fold_entries.append(fold_view.meter.eq_queries)
        try:
            return fold(fold_view, *args)
        finally:
            fold_entries.pop()

    def record_bit_rows(fold_view, rows, j_lo, j_hi, v=None):
        # Bit rows that start from the checkpoint's own V follow its charge,
        # the first of their _fold call.
        checkpoint = fold_view._checkpoint and fold_view._checkpoint[0]
        if checkpoint and v is checkpoint[1]:
            kernel_at["checkpoint"].append(fold_entries[-1])
        return fold_bits(fold_view, rows, j_lo, j_hi, v)

    monkeypatch.setattr(hirschberg, "_fold_prefix_row", record_fold_row)
    monkeypatch.setattr(hirschberg, "_fold", record_fold)
    monkeypatch.setattr(branching, "_fold", record_fold)
    monkeypatch.setattr(hirschberg, "_bit_rows", record_bit_rows)
    want, _ = _run(ref)
    monkeypatch.undo()
    hit = set()
    search_bit_rows = split_bit_rows = checkpoint_charge = False
    total = ref.counters.eq_queries_total
    kernel_sweep = [at for ats in kernel_at.values()
                    for at in ats[::max(1, len(ats) // 5)]]
    for at in [*range(0, total, max(1, total // 25)), *kernel_sweep]:
        monkeypatch.setattr(enumerator_module, "Meter",
                            lambda: InterruptingMeter(at))
        enum = LcsEnumerator(MatchView(x, y))
        got, where = _run(enum)
        assert where, at  # the interrupt fired
        hit = hit.union(*where)
        search_bit_rows |= any(
            {"_branch_search", "_bit_rows (mirror)"} <= names for names in where)
        # _fold_rows folds the halves of splits 64 or more positions wide.
        split_bit_rows |= any(
            {"_fold_rows", "_bit_rows"} <= names
            or {"_fold_rows (mirror)", "_bit_rows (mirror)"} <= names
            for names in where)
        # The checkpoint's charge is _fold's own, in no row of either form.
        checkpoint_charge |= any(
            {"_branch_search", "_fold (mirror)"} <= names
            and not {"_fold_prefix_row (mirror)", "_bit_rows (mirror)"}
            & names
            for names in where)
        assert got == want, at
        assert enum.finished == ref.finished, at
        assert enum.view.meter.live_cells == ref.view.meter.live_cells, at
        assert enum.counters.outputs_emitted == len(got), at
        # Each gap holds its own work plus any that an interrupt threw away.
        c, want_c = enum.counters, ref.counters
        assert c.gaps_closed == want_c.gaps_closed, at
        assert c.max_delay >= want_c.max_delay, at
        assert c.mean_delay >= want_c.mean_delay, at
    assert ref.finished == (len(want) < LIMIT)
    if ref.finished:
        assert ref.view.meter.live_cells == 0
    # Suffix rows, of a split or of the search, are the mirror's prefix rows.
    assert {"_fold (mirror)", "_two_rows", "_matched_rows",
            "_branch_search"} <= hit
    # Every kernel that charged in the uninterrupted run was interrupted at
    # its charge. On the coded 130 x 150 pairs the narrow kernel solves
    # every narrow range under the root before one matched in every Y
    # position comes up; the periodic pair's first output and the
    # uncoded pair still reach _matched_cols.
    kernels = {"_two_rows", "_matched_rows", "_matched_cols", "_narrow_lcs",
               "_narrow_split"}
    assert {name for name in kernels if kernel_at[name]} <= hit
    assert ("_matched_cols" in hit) == (not (bit_rows and wide))
    # The narrow kernel solves the narrow ranges once the meter's peak is
    # high enough, and hands the others, in the first output, to
    # _narrow_split.
    assert ("_narrow_lcs" in hit) == ("_narrow_split" in hit) == bit_rows
    assert split_bit_rows == (bit_rows and wide)
    # With bit-planes, the view folds list rows only in splits 64 or more
    # positions wide; the mirror folds them in those and in the search,
    # which spans Y, until its first switch.
    assert ("_fold_prefix_row" in hit) == (wide or not bit_rows)
    assert "_fold_prefix_row (mirror)" in hit
    assert search_bit_rows == bit_rows
    # A view with bit-planes gets a checkpoint when a fold over all of Y
    # from its first row switches, at any len_y, as every such pair's
    # search does here, the 40 positions of the periodic one included.
    assert checkpoint_charge == bit_rows


def test_interrupt_in_a_split_fold_releases_its_cells(monkeypatch):
    # An interrupt in the third suffix row of a split, a row the mirror
    # folds, used to leave the split's prefix thresholds charged for the
    # rest of the enumeration. An uncoded pair keeps the list rows; the
    # str pair's narrow splits fold bit rows (the next test).
    x, y = MinimalSeq("abcab" * 8), MinimalSeq("bacba" * 8)
    ref = LcsEnumerator(MatchView(x, y))
    want, _ = _run(ref)
    enum = LcsEnumerator(MatchView(x, y))
    fold = hirschberg._fold_prefix_row
    calls = 0

    def interrupt_third(view, *args):
        nonlocal calls
        if view is enum.view._mirror:
            calls += 1
            if calls == 3:
                raise KeyboardInterrupt
        return fold(view, *args)

    monkeypatch.setattr(hirschberg, "_fold_prefix_row", interrupt_third)
    with pytest.raises(KeyboardInterrupt):
        enum.next_sequence()
    # The third mirrored row was that of a split: its prefix half is done.
    assert calls == 3
    got, _ = _run(enum)
    assert got == want
    assert enum.view.meter.live_cells == ref.view.meter.live_cells
    assert enum.counters.outputs_emitted == len(want)


def test_interrupt_in_a_narrow_split_releases_its_cells(monkeypatch):
    # The same pair as str: its first split, 40 positions wide, folds two
    # words. An interrupt in the second mirrored row, after the prefix
    # half is done, must leave nothing charged and the stream as it was.
    x, y = "abcab" * 8, "bacba" * 8
    ref = LcsEnumerator(MatchView(x, y))
    want, _ = _run(ref)
    entries = []
    narrow_split = hirschberg._narrow_split

    def record(view, i_lo, i_hi, j_lo, j_hi):
        meter = view.meter
        entries.append((meter.eq_queries, meter.live_cells, meter.peak_cells,
                        i_lo, i_hi, j_hi - j_lo + 1))
        return narrow_split(view, i_lo, i_hi, j_lo, j_hi)

    monkeypatch.setattr(hirschberg, "_narrow_split", record)
    probe = LcsEnumerator(MatchView(x, y))
    probe.next_sequence()
    monkeypatch.undo()
    # The first split's folds: the view's rows i_lo..i_mid, then the
    # mirror's, each row charged w probes as it runs.
    at, live, peak, i_lo, i_hi, w = entries[0]
    at += ((i_lo + i_hi) // 2 - i_lo + 1) * w
    monkeypatch.setattr(enumerator_module, "Meter",
                        lambda: InterruptingMeter(at + w))
    enum = LcsEnumerator(MatchView(x, y))
    with pytest.raises(KeyboardInterrupt) as raised:
        enum.next_sequence()
    tb, names = raised.tb, []
    while tb is not None:
        names.append(tb.tb_frame.f_code.co_name)
        tb = tb.tb_next
    # The kernel raised at its charge for the mirror's second row: the
    # prefix rows and one mirrored row are charged, none of its cells
    # (the peak is the one it was entered with), and the unwinding
    # released every frame.
    assert names[-2:] == ["_narrow_split", "eq_queries"]
    meter = enum.view.meter
    assert meter.eq_queries == at + w
    assert meter.peak_cells == peak >= live > meter.live_cells == 0
    got, where = _run(enum)
    assert where == []
    assert got == want
    assert enum.view.meter.live_cells == ref.view.meter.live_cells
    assert enum.counters.outputs_emitted == len(want)


@pytest.mark.parametrize("kind, wide", [
    *(pytest.param(kind, wide, id=kind + "-wide" * wide)
      for wide in (False, True) for kind in ("str", "bytes", "tuple"))])
def test_an_interrupt_at_the_narrow_kernels_charge_appends_nothing(
        monkeypatch, kind, wide):
    # The kernel charges its probes once, after its fold and walks and
    # before it appends: an interrupt there leaves the buffer as it was,
    # its cells released and the peak the one it was entered with. So it
    # does over 64 or more positions, where it cuts its masks from the
    # planes. In an enumeration, the next call resumes the same stream.
    rng = random.Random(14)
    n, m = (150, 120) if wide else (40, 30)
    x, y = rand_string(rng, n, 4), rand_string(rng, m, 4)
    view = kind_view(kind, x, y)
    view.meter = meter = InterruptingMeter(0)
    meter.grow(1000)
    meter.shrink(995)
    window = (3, n - 2, 2, m - 1)
    out = [7]
    with pytest.raises(KeyboardInterrupt) as raised:
        hirschberg._narrow_lcs(view, *window, -1, out)
    assert "_narrow_lcs" in _frames(raised.tb, view._mirror)
    assert out == [7]
    assert (meter.eq_queries, meter.live_cells, meter.peak_cells) == \
        (0, 5, 1000)
    assert hirschberg._narrow_lcs(view, *window, -1, out)
    assert out[1:] == list(first_lcs(kind_view(kind, x, y),
                                     IndexRange(*window[:2]),
                                     IndexRange(*window[2:])))

    # A 130 x 150 pair whose later gaps solve ranges of both widths.
    rng = random.Random(7)
    x, y = rand_string(rng, 130, 4), rand_string(rng, 150, 4)
    ref = LcsEnumerator(kind_view(kind, x, y))
    entries = []
    kernel = hirschberg._narrow_lcs

    def record(view, i_lo, i_hi, j_lo, j_hi, *args):
        at = view.meter.eq_queries
        solved = kernel(view, i_lo, i_hi, j_lo, j_hi, *args)
        if solved and (j_hi - j_lo + 1 >= 64) == wide:
            entries.append(at)
        return solved

    monkeypatch.setattr(hirschberg, "_narrow_lcs", record)
    want, _ = _run(ref)
    monkeypatch.undo()
    assert entries
    monkeypatch.setattr(enumerator_module, "Meter",
                        lambda: InterruptingMeter(entries[0]))
    enum = LcsEnumerator(kind_view(kind, x, y))
    got, where = _run(enum)
    # One interrupt, at the kernel's charge.
    assert len(where) == 1 and {"_narrow_lcs", "eq_queries"} <= where[0]
    assert got == want
    assert enum.view.meter.live_cells == ref.view.meter.live_cells
    assert enum.counters.outputs_emitted == len(want)


@pytest.mark.parametrize("fn", [first_lcs, prefix_thresholds,
                                suffix_thresholds, split_point])
@pytest.mark.parametrize("kind", [str, bytes, tuple])
def test_interrupted_library_calls_release_every_cell(fn, kind):
    rng = random.Random(11)
    x, y = rand_string(rng, 120, 2), rand_string(rng, 100, 2)
    x, y = (x.encode(), y.encode()) if kind is bytes else (kind(x), kind(y))
    yr = IndexRange(2, 99)
    # Two rows: first_lcs solves them in its kernel, with one charge.
    for xr in (IndexRange(3, 118), IndexRange(3, 4)):
        probe = MatchView(x, y)
        fn(probe, xr, yr)
        total = probe.meter.eq_queries
        for at in range(0, total, max(1, total // 25)):
            view = MatchView(x, y)
            view.meter = meter = InterruptingMeter(at)
            with pytest.raises(KeyboardInterrupt):
                fn(view, xr, yr)
            assert meter.live_cells == 0, (xr, at)


@pytest.mark.parametrize("kind", ["str", "bytes", "tuple"])
def test_an_interrupted_wide_split_charges_nothing(kind):
    # A split over 64 or more positions charges both halves' levels once,
    # after both folds: an interrupt in the mirror's half, when the left
    # half's levels exist, leaves the live and peak cells as they were.
    rng = random.Random(12)
    view = kind_view(kind, rand_string(rng, 40, 2), rand_string(rng, 96, 2))
    # The left half, X[1..20], is folded in 20 rows of 96 probes.
    view.meter = meter = InterruptingMeter(20 * 96)
    meter.grow(3)
    with pytest.raises(KeyboardInterrupt) as info:
        split_point(view)
    assert "_fold_rows (mirror)" in _frames(info.tb, view._mirror)
    assert (meter.live_cells, meter.peak_cells) == (3, 3)


@pytest.mark.parametrize("fn", [find_branch, greedy_embedding])
@pytest.mark.parametrize("x, y", [case[:2] for case in _cases()],
                         ids=["periodic", "str", "bytes", "tuple"])
def test_interrupted_branch_search_releases_every_cell(fn, x, y):
    # The search charges its cells once, when it ends or raises, so an
    # interrupt anywhere releases exactly what was charged.
    outputs, _ = _run(LcsEnumerator(MatchView(x, y)), 6)
    for p in (outputs[0], outputs[-1]):
        probe = MatchView(x, y)
        want = fn(probe, p)
        for at in range(probe.meter.eq_queries):
            view = MatchView(x, y)
            view.meter = meter = InterruptingMeter(at)
            with pytest.raises(KeyboardInterrupt):
                fn(view, p)
            assert meter.live_cells == 0, at
            assert fn(view, p) == want, at
            assert meter.live_cells == 0, at


@pytest.mark.parametrize("kind", [str, bytes])
def test_interrupted_search_bit_rows_release_every_cell(kind):
    # A pair of 70 switches its search rows to the bit form at two levels.
    # An interrupt in a run of bit rows must also release the levels that
    # the run's earlier rows added.
    rng = random.Random(0)
    x, y = rand_string(rng, 70, 4), rand_string(rng, 70, 4)
    x, y = (x.encode(), y.encode()) if kind is bytes else (x, y)
    outputs, _ = _run(LcsEnumerator(MatchView(x, y)), 4)
    for p in outputs:
        probe = MatchView(x, y)
        want = find_branch(probe, p)
        for at in range(probe.meter.eq_queries):
            view = MatchView(x, y)
            view.meter = meter = InterruptingMeter(at)
            with pytest.raises(KeyboardInterrupt):
                find_branch(view, p)
            assert meter.live_cells == 0, (p, at)
            assert find_branch(view, p) == want, (p, at)


def test_interrupt_in_a_walk_from_the_mark_keeps_the_mark(monkeypatch):
    # The walks of the kept prefix charge no probe, so the sweep above
    # cannot land in one. Here the n-th walk from the carried mark is
    # stopped after its first position, for every n in turn: the mark must
    # be as it was before the call, and the stream must go on as it was.
    x, y = _cases()[1][:2]
    ref = LcsEnumerator(MatchView(x, y))
    want, _ = _run(ref)
    embed = branching._embed
    enum = stop_at = None
    walks = 0

    def interrupting(view, positions, i, q):
        nonlocal walks
        # The tail starts at the frontier, past the mark; other walks at 0.
        if enum._k_mark and i == enum._i_mark:
            walks += 1
            if walks == stop_at:
                n = len(q)
                embed(view, islice(positions, 1), i, q)
                assert len(q) == n + 1  # inside the walk, not before it
                raise KeyboardInterrupt
        return embed(view, positions, i, q)

    monkeypatch.setattr(branching, "_embed", interrupting)
    enum = LcsEnumerator(MatchView(x, y))
    assert _run(enum) == (want, [])
    total = walks
    assert total >= 5, total
    for stop_at in range(1, total + 1):
        enum, walks = LcsEnumerator(MatchView(x, y)), 0
        got = []
        while len(got) < LIMIT:
            mark = enum._k_mark, enum._i_mark
            try:
                p = enum.next_sequence()
            except KeyboardInterrupt:
                assert (enum._k_mark, enum._i_mark) == mark, stop_at
                assert enum.view.meter.live_cells == len(enum._p), stop_at
                continue
            if p is None:
                break
            got.append(p)
        assert walks > stop_at, stop_at  # the interrupt fired and resumed
        assert got == want, stop_at
        assert enum.counters.outputs_emitted == len(got), stop_at
        assert enum.view.meter.live_cells == ref.view.meter.live_cells
