"""Branch search: greedy embedding, the i* frontier, and (k*, j*)."""

import random
import sys
import tracemalloc
from bisect import bisect_left
from itertools import islice
from operator import neg

import pytest

from conftest import VIEW_KINDS, branch_by_definition, rand_pair, rand_string
from lcs_enum import MatchView, IndexRange, find_branch, greedy_embedding, \
    BranchPoint, LcsEnumerator, Meter, first_lcs, suffix_thresholds
from lcs_enum import branching, core, enumerator as enumerator_module
from lcs_enum.branching import _embed
from lcs_enum.hirschberg import _FRAME_CELLS, _bit_rows, _fold_prefix_row
from lcs_enum.oracle import all_lcs_position_sequences

X1 = "acddadacbcb"
Y1 = "caccbaadcad"


def test_greedy_embedding_example():
    view = MatchView(X1, Y1)
    assert greedy_embedding(view, (1, 2, 3, 4, 5)) == [2, 5, 8, 10, 11]


def test_greedy_embedding_empty():
    assert greedy_embedding(MatchView(X1, Y1), ()) == []


def test_greedy_embedding_reads_an_iterator_once():
    view = MatchView(X1, Y1)
    assert greedy_embedding(view, iter((1, 2, 3, 4, 5))) == [2, 5, 8, 10, 11]
    assert view.meter.eq_queries == 11


def test_greedy_embedding_identity():
    view = MatchView(Y1, Y1)
    n = len(Y1)
    assert greedy_embedding(view, tuple(range(1, n + 1))) == list(range(1, n + 1))


def test_greedy_embedding_shortest_prefix_property():
    # X[1..q[k]] contains Y[p[1..k]], and X[1..q[k]-1] does not.
    rng = random.Random(201)
    for _ in range(200):
        x, y = rand_pair(rng, 10, sigmas=(2, 4))
        view = MatchView(x, y)
        p = all_lcs_position_sequences(view)[0]
        if not p:
            continue
        q = greedy_embedding(view, p)
        assert len(q) == len(p)
        assert all(a < b for a, b in zip(q, q[1:]))
        for k in range(1, len(p) + 1):
            s = "".join(y[j - 1] for j in p[:k])

            def contains(prefix, needle):
                it = iter(prefix)
                return all(c in it for c in needle)

            assert contains(x[:q[k - 1]], s)
            assert not contains(x[:q[k - 1] - 1], s)


def test_greedy_embedding_rejects_non_subsequence():
    view = MatchView("abc", "abd")
    with pytest.raises(ValueError):
        greedy_embedding(view, (1, 2, 3))  # "abd" does not embed in "abc"


# Y1[1..6] does not embed into X1, so the last case also pins the order:
# every position is checked before the walk that would fail.
BAD_POSITIONS = [((0,), IndexError), ((1, len(Y1) + 1), IndexError),
                 ((-1, 2), IndexError), ((1, 3, 3, 4, 5), ValueError),
                 ((2, 1), ValueError),
                 ((1, 2, 3, 4, 5, 6, len(Y1) + 1), IndexError)]


@pytest.mark.parametrize("fn", [greedy_embedding, find_branch])
@pytest.mark.parametrize("positions, error", BAD_POSITIONS,
                         ids=["zero", "past_len_y", "negative", "repeated",
                              "decreasing", "unembeddable_then_past_len_y"])
def test_invalid_positions_are_rejected(fn, positions, error):
    # A position of 0 would otherwise read Y[-1] silently.
    view = MatchView(X1, Y1)
    with pytest.raises(error):
        fn(view, positions)
    assert view.meter.live_cells == 0
    assert view.meter.peak_cells == 0
    assert view.meter.eq_queries == 0


# --- suffix rows over the whole of Y (the i* frontier of find_branch) ----

def _rfind(seq, item, lo, hi):
    """Greatest 0-based k in [lo, hi) with seq[k] equal to item, or -1."""
    for k in range(hi - 1, lo - 1, -1):
        if seq[k] is item or seq[k] == item:
            return k
    return -1


def _fold_suffix_row(view, i, j_lo, j_hi, levels):
    """Fold X[i] into suffix thresholds for Y[j_lo..j_hi], in place.

    The suffix fold of earlier versions, kept as an independent reference
    for the mirror's prefix rows: X grows leftward by one character,
    matches are found in decreasing j by backward search, the greatest
    match at each level wins, and the decreasing list is bisected through
    ``operator.neg``. Charged j_hi - j_lo + 1 probes and no cell.
    """
    view.meter.eq_queries += j_hi - j_lo + 1
    y = view._y
    c = view._x[i - 1]
    top = len(levels)
    l = 0
    k = _rfind(y, c, j_lo - 1, j_hi)
    while k >= 0:
        l = bisect_left(levels, -1 - k, l, key=neg)
        if l == top:
            levels.append(k + 1)
            return
        old = levels[l]
        levels[l] = k + 1
        k = _rfind(y, c, j_lo - 1, old - 1)


def _mirrored_rows(view):
    """After each of the search's rows X[len_x], .., X[1], folded as the
    mirror's prefix rows 1, .., len_x, the suffix thresholds they stand
    for, and the probes charged so far."""
    m1 = view.len_y + 1
    t = []
    for i in range(1, view.len_x + 1):
        _fold_prefix_row(view._mirror, i, 1, view.len_y, t)
        yield [m1 - h for h in t], view.meter.eq_queries


def test_suffix_row_single_step():
    view = MatchView(X1, Y1)
    j_suffix = []
    _fold_suffix_row(view, 11, 1, len(Y1), j_suffix)
    assert j_suffix == [5]  # greatest j with Y[j] = 'b' = X[11]
    # The mirror's row 1 is X[11], its position 7 is Y[5].
    assert next(_mirrored_rows(MatchView(X1, Y1))) == ([5], len(Y1))


def test_suffix_rows_down_to_zero():
    sizes = [len(t) for t, _ in _mirrored_rows(MatchView(X1, Y1))]
    assert sizes[-1] == 5         # L(X, Y)
    assert sizes == sorted(sizes)  # never shrinks as i_star falls


def test_suffix_rows_match_fresh_suffix_thresholds():
    # The mirror's rows, read back through j -> len_y + 1 - j, equal the
    # reference suffix fold row by row, charge what it charges, and equal
    # suffix_thresholds of a fresh view.
    rng = random.Random(202)
    for _ in range(150):
        x, y = rand_pair(rng, 10)
        view, ref = MatchView(x, y), MatchView(x, y)
        j_suffix = []
        for i_star, (got, probes) in zip(range(len(x), 0, -1),
                                         _mirrored_rows(view)):
            _fold_suffix_row(ref, i_star, 1, len(y), j_suffix)
            assert got == j_suffix and probes == ref.meter.eq_queries
            want = suffix_thresholds(MatchView(x, y),
                                     IndexRange(i_star, len(x)), None)
            assert tuple(got) == want


# --- find_branch --------------------------------------------------------

def test_find_branch_example_first():
    view = MatchView(X1, Y1)
    assert find_branch(view, (1, 2, 3, 4, 5)) == BranchPoint(4, 5)


def test_find_branch_example_mid():
    view = MatchView(X1, Y1)
    assert find_branch(view, (2, 3, 6, 8, 10)) == BranchPoint(3, 8)


def test_find_branch_example_last():
    view = MatchView(X1, Y1)
    assert find_branch(view, (2, 3, 8, 10, 11)) is None


def test_find_branch_empty_sequence():
    # L = 0: the empty sequence is the only element, hence the last.
    assert find_branch(MatchView("ab", "cd"), ()) is None


def test_find_branch_matches_definition_on_random_instances():
    rng = random.Random(203)
    checked = 0
    for _ in range(1000):
        x, y = rand_pair(rng, 12, sigmas=(1, 2, 4))
        view = MatchView(x, y)
        seqs = all_lcs_position_sequences(view)
        for idx, p in enumerate(seqs):
            got = find_branch(MatchView(x, y), p)
            if idx + 1 == len(seqs):
                assert got is None, (x, y, p)
            else:
                assert got == branch_by_definition(p, seqs[idx + 1]), (x, y, p)
            checked += 1
    assert checked >= 1000


def test_find_branch_query_bound():
    rng = random.Random(204)
    for _ in range(150):
        x, y = rand_pair(rng, 12, sigmas=(2, 4))
        seqs = all_lcs_position_sequences(MatchView(x, y))
        for p in seqs:
            view = MatchView(x, y)
            find_branch(view, p)
            assert view.meter.eq_queries <= 4 * len(x) * len(y)


def test_find_branch_releases_all_cells():
    rng = random.Random(205)
    for _ in range(100):
        x, y = rand_pair(rng, 10)
        view = MatchView(x, y)
        find_branch(view, all_lcs_position_sequences(view)[0])
        assert view.meter.live_cells == 0


# Bytes a search may allocate beyond its charged cells, whatever |Y|: its
# frame, lists and ints of L = 24 levels take about 1 KB on CPython 3.11.
SEARCH_PEAK_MARGIN = 512


@pytest.mark.parametrize("kind", [str, bytes])
def test_find_branch_memory_does_not_grow_with_y(kind):
    # |X| = 24 holds fewer than |Y| / 64 levels, so the rows keep the list
    # form and no |Y|-bit integer may exist: the traced peak of one search
    # stays flat while |Y| grows x16, as the charged peak cells do. The
    # planes of both orientations are input storage, built before tracing.
    peaks, cells = [], set()
    for m in (4096, 16384, 65536):
        rng = random.Random(9)
        x, y = rand_string(rng, 24, 4), rand_string(rng, m, 4)
        view = MatchView(*((x.encode(), y.encode()) if kind is bytes
                           else (x, y)))
        for v in (view, view._mirror):
            v._planes.update(core._bit_planes(v._x, v._y))
        p = first_lcs(view)
        view.meter = Meter()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            find_branch(view, p)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        cells.add(view.meter.peak_cells)
    assert len(cells) == 1
    assert max(peaks) - min(peaks) <= SEARCH_PEAK_MARGIN, peaks


# --- the search folds its pending rows in one run per residual check ----

def _eager_search(view, positions, k_kept, i_kept):
    """The branch search that folds each suffix row as soon as i* passes
    it: the reference the lazy search must charge exactly like. Its list
    rows and residual check are the reference suffix fold's; its bit rows
    are the mirror's, bit len_y - j standing for j."""
    meter = view.meter
    x, y, find, len_y = view._x, view._y, view._find, view.len_y
    n1 = view.len_x + 1
    length = len(positions)
    live = meter.live_cells
    meter.grow(_FRAME_CELLS + 1 + length)
    q = [0, i_kept] if k_kept else [0]
    j_suffix = []
    v = None
    # The restart folds' rule over len_y positions: with bit-planes,
    # ceil(len_y / 64) levels.
    switch = len_y + 1 if view._planes is None else -(-len_y // 64)

    def fold(i, stop):
        nonlocal v
        if v is None:
            while i > stop and len(j_suffix) < switch:
                _fold_suffix_row(view, i, 1, len_y, j_suffix)
                i -= 1
            if i == stop:
                return
            v = (1 << len_y) - 1
            for j in j_suffix:
                v ^= 1 << (len_y - j)
        v = _bit_rows(view._mirror, range(n1 - i, n1 - stop), 1, len_y, v)

    try:
        meter.eq_queries += _embed(view, islice(positions, k_kept, None),
                                   i_kept, q)
        i_star = view.len_x
        for k in range(length, 0, -1):
            end = q.pop()
            if i_star >= end:
                fold(i_star, end - 1)
                i_star = end - 1
            if k == k_kept:
                _embed(view, islice(positions, k - 1), 0, q)
            base = q[-1]
            need = length - k
            for j_star in range(positions[k - 1] + 1, len_y + 1):
                if base >= i_star:
                    break
                hit = find(x, y[j_star - 1], base, i_star)
                if hit < 0:
                    meter.eq_queries += i_star - base
                    continue
                meter.eq_queries += hit + 1 - base
                if i_star > hit + 1:
                    fold(i_star, hit + 1)
                    i_star = hit + 1
                if need == 0:
                    return k, j_star, i_star
                if v is None:
                    if len(j_suffix) >= need and j_star < j_suffix[need - 1]:
                        return k, j_star, i_star
                else:
                    t = len_y - j_star
                    if t - (v & ((1 << t) - 1)).bit_count() >= need:
                        return k, j_star, i_star
                fold(i_star, i_star - 1)
                i_star -= 1
        return None
    finally:
        meter.grow(len(j_suffix) if v is None else len_y - v.bit_count())
        meter.shrink(meter.live_cells - live)


_FOLD_CODE = branching._fold.__code__


def _lazy_search(view, positions, k_kept, i_kept, k_mark, i_mark):
    """``_branch_search`` with its fold runs and residual checks counted.

    Every hit of a candidate search, which scans X below len_x, is
    followed by one residual check; ``_fold`` calls are counted from the
    profile hook, the candidate hits through a wrapped search.
    """
    counts = {"folds": 0, "checks": 0}
    find, len_x = view._find, view.len_x

    def counted_find(seq, item, lo, hi):
        k = find(seq, item, lo, hi)
        counts["checks"] += hi < len_x and k >= 0
        return k

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is _FOLD_CODE:
            counts["folds"] += 1

    view._find = counted_find
    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        return branching._branch_search(view, positions, k_kept, i_kept,
                                        k_mark, i_mark), counts
    finally:
        sys.setprofile(old)
        view._find = find


def _lazy_pairs():
    """Pairs with len_y around one and two bit words: random ones, whose
    streams run long; X near a subsequence of Y, whose streams end; and
    periodic ones, whose searches often return at the last position."""
    rng = random.Random(206)
    for w in (63, 64, 65, 127, 128, 129):
        sigma = rng.choice((2, 4))
        y = rand_string(rng, w, sigma)
        yield rand_string(rng, rng.randint(40, 160), sigma), y
        x = [c for c in y if rng.random() < 0.6]
        for _ in range(3):
            x.insert(rng.randrange(len(x) + 1), rand_string(rng, 1, sigma))
        yield "".join(x), y
        yield ("abcd" * 40)[:rng.randint(40, 160)], ("dcba" * 33)[:w]


def test_lazy_search_charges_what_the_eager_search_charges(monkeypatch):
    # The searches of an enumeration, from its carried (k_kept, i_kept) and
    # mark; the eager reference takes no mark and walks from X[1].
    calls = []
    search = branching._branch_search

    def record(view, p, *carried):
        calls.append((tuple(p), *carried))
        return search(view, p, *carried)

    monkeypatch.setattr(enumerator_module, "_branch_search", record)
    ends = lasts = runs = from_mark = 0
    for x, y in _lazy_pairs():
        for name, kind in VIEW_KINDS.items():
            calls.clear()
            list(islice(LcsEnumerator(MatchView(kind(x), kind(y))), 12))
            for positions, k_kept, i_kept, k_mark, i_mark in calls:
                got_view = MatchView(kind(x), kind(y))
                want_view = MatchView(kind(x), kind(y))
                # A live cell on entry shows that nothing below it is released.
                got_view.meter.grow(1)
                want_view.meter.grow(1)
                got, counts = _lazy_search(got_view, positions, k_kept,
                                           i_kept, k_mark, i_mark)
                want = _eager_search(want_view, positions, k_kept, i_kept)
                case = (name, x, y, positions, k_kept, i_kept, k_mark, i_mark)
                assert (got and got[:3]) == want, case
                if got is not None:
                    k, j, _, k_next, i_next = got
                    successor = positions[:k - 1] + (j,)
                    assert 0 <= k_next < k, case
                    assert i_next == (greedy_embedding(
                        MatchView(kind(x), kind(y)),
                        successor[:k_next])[-1] if k_next else 0), case
                from_mark += k_mark > 0 and (got is None or got[0] <= k_kept)
                g, w = got_view.meter, want_view.meter
                assert (g.eq_queries, g.peak_cells, g.live_cells) == \
                    (w.eq_queries, w.peak_cells, w.live_cells), case
                assert w.live_cells == 1
                # One fold run before each residual check, one at exit.
                assert counts["folds"] <= counts["checks"] + 1, case
                ends += got is None
                lasts += got is not None and got[0] == len(positions)
                runs += 1
    # Searches that return None, and at need == 0, are both exercised, and
    # so are walks from a mark.
    assert ends >= 24 and lasts >= 16 and runs >= 360 and from_mark >= 64, \
        (ends, lasts, runs, from_mark)
