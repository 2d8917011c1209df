"""The restart's whole charge follows from its answer: a cost model.

The model uses nothing of the package, only the inputs a ``MatchView`` is
built from, compared by the token rule (``a is b or a == b``). It reads
the leftmost LCS P of a range X[a..b] x Y[c..d] off a plain DP table
and replays the recursion's splits by the split lemma: with i_mid =
(a + b) // 2 and h the length of the longest suffix of P that a backward
greedy walk embeds into X[i_mid + 1..b], the split falls after P[L - h],
or before c if h = L, and the two parts' leftmost LCSs are P[..L - h]
and P[L - h + 1..]. So:

- probes: 0 for an empty range; P[1] - c + 1 for a one-row range, or its
  width w if P is empty; otherwise r * w for its r rows, plus both
  parts';
- peak cells: a range entered at depth d, with ``app`` cells appended
  before it, holds 6 * d + app above the live cells on entry (a frame of
  6 cells per level); a split holds L(X[a..i_mid], Y[c..d]) +
  L(X[i_mid + 1..b], Y[c..d]) more, from a plain DP, and a one-row range
  that appends holds its cell.

``first_lcs`` must give P with exactly these probes and this peak, and
leave no live cell, on every view kind and whichever of its kernels
solves the range.
"""

import random
from collections import Counter

import pytest

from conftest import VIEW_KINDS, kind_view, rand_string, supersequence
from lcs_enum import IndexRange, LcsEnumerator, MatchView, first_lcs
from lcs_enum import hirschberg

FRAME = 6


def _eq(a, b):
    return a is b or a == b


def _length(x, y, a, b, c, d):
    """L(X[a..b], Y[c..d]) by the plain DP, one row at a time."""
    row = [0] * (d - c + 2)
    for i in range(a, b + 1):
        t = x[i - 1]
        diag = 0
        for k in range(1, d - c + 2):
            up = row[k]
            row[k] = (diag + 1 if _eq(t, y[c + k - 2])
                      else max(up, row[k - 1]))
            diag = up
    return row[-1]


def leftmost_lcs(x, y, a, b, c, d):
    """The lexicographically least LCS position sequence of X[a..b] and
    Y[c..d]: from a table of suffix lengths, take the least position j
    whose first match in X past the last chosen row leaves an LCS of the
    rest one shorter."""
    rows, cols = b - a + 2, d - c + 2
    # s[i][k] = L(X[a + i..b], Y[c + k..d])
    s = [[0] * cols for _ in range(rows)]
    for i in range(rows - 2, -1, -1):
        t = x[a + i - 1]
        for k in range(cols - 2, -1, -1):
            s[i][k] = (s[i + 1][k + 1] + 1 if _eq(t, y[c + k - 1])
                       else max(s[i + 1][k], s[i][k + 1]))
    p = []
    i, need = 0, s[0][0]
    for k in range(cols - 1):
        if not need:
            break
        h = next((h for h in range(i, rows - 1)
                  if _eq(x[a + h - 1], y[c + k - 1])), None)
        if h is not None and s[h + 1][k + 1] == need - 1:
            p.append(c + k)
            i, need = h + 1, need - 1
    return p


def _suffix_in(x, y, p, lo, hi):
    """How many of p's last positions a backward greedy walk embeds into
    X[lo..hi]."""
    i, h = hi, 0
    for j in reversed(p):
        while i >= lo and not _eq(x[i - 1], y[j - 1]):
            i -= 1
        if i < lo:
            break
        h += 1
        i -= 1
    return h


def restart_model(x, y, a, b, c, d):
    """(P, probes, peak cells above the live cells on entry) of the
    recursion on X[a..b] x Y[c..d]."""
    probes = peak = 0

    def solve(a, b, c, d, p, depth, app):
        nonlocal probes, peak
        hold = FRAME * depth + app
        if a > b or c > d:
            peak = max(peak, hold)
        elif a == b:
            probes += p[0] - c + 1 if p else d - c + 1
            peak = max(peak, hold + len(p))
        else:
            mid = (a + b) // 2
            lo_length = len(p) - _suffix_in(x, y, p, mid + 1, b)
            j_mid = p[lo_length - 1] if lo_length else c - 1
            probes += (b - a + 1) * (d - c + 1)
            peak = max(peak, hold + _length(x, y, a, mid, c, d)
                       + _length(x, y, mid + 1, b, c, d))
            solve(a, mid, c, j_mid, p[:lo_length], depth + 1, app)
            solve(mid + 1, b, j_mid + 1, d, p[lo_length:], depth + 1,
                  app + lo_length)

    p = leftmost_lcs(x, y, a, b, c, d)
    solve(a, b, c, d, p, 1, 0)
    return tuple(p), probes, peak


KERNELS = ("_two_rows", "_matched_rows", "_matched_cols", "_narrow_split")


@pytest.fixture
def kernel_calls(monkeypatch):
    """The name of every restart kernel call that did not hand its range
    back, in call order."""
    calls = []
    for name in KERNELS:
        def record(*args, name=name, run=getattr(hirschberg, name)):
            result = run(*args)
            if result is not False:
                calls.append(name)
            return result
        monkeypatch.setattr(hirschberg, name, record)
    return calls


def _ranges(seed, count, max_rows, max_width):
    """(x, y, xr, yr) str pairs and subranges: random pairs over 1-4
    letters, some with X a supersequence of Y's range (so some range is
    matched in every Y position, or every row), and periodic pairs."""
    rng = random.Random(seed)
    for t in range(count):
        sigma = rng.choice([1, 2, 2, 3, 4])
        r, w = rng.randint(1, max_rows), rng.randint(0, max_width)
        if t % 5 == 0:
            k = rng.randint(1, 40)
            x, y = ("abcd" * k)[:r], ("dcba" * k)[:w]
        elif t % 5 == 1 and r >= w:
            y = rand_string(rng, w, sigma)
            x = supersequence(rng, y, r - w, sigma)
        elif t % 5 == 2 and w >= r:
            x = rand_string(rng, r, sigma)
            y = supersequence(rng, x, w - r, sigma)
        else:
            x, y = rand_string(rng, r, sigma), rand_string(rng, w, sigma)
        pads = [rand_string(rng, rng.randint(0, 3), sigma) for _ in range(4)]
        yield (pads[0] + x + pads[1], pads[2] + y + pads[3],
               IndexRange(len(pads[0]) + 1, len(pads[0]) + len(x)),
               IndexRange(len(pads[2]) + 1, len(pads[2]) + len(y)))


def _check(kind, x, y, xr, yr, live=0, peak=0):
    """``first_lcs`` on a fresh view of the kind, with ``live`` cells live
    and the meter's peak at least ``peak`` on entry, against the model."""
    view = kind_view(kind, x, y)
    meter = view.meter
    meter.grow(max(live, peak))
    meter.shrink(max(live, peak) - live)
    got = first_lcs(view, xr, yr)
    wrap = VIEW_KINDS[kind]
    want, probes, above = restart_model(wrap(x), wrap(y), xr.lo, xr.hi,
                                        yr.lo, yr.hi)
    assert got == want, (kind, x, y, xr, yr)
    assert meter.eq_queries == probes, (kind, x, y, xr, yr)
    assert meter.peak_cells == max(peak, live + above), (kind, x, y, xr, yr)
    assert meter.live_cells == live
    return above


@pytest.mark.parametrize("kind", ["str", "bytes", "tuple", "minimal"])
def test_first_lcs_charges_the_models_probes_and_peak(kernel_calls, kind):
    for t, case in enumerate(_ranges(kind, 400, 70, 70)):
        _check(kind, *case, live=t % 3)
    for case in _ranges(f"wide {kind}", 30, 130, 140):
        _check(kind, *case)
    ran = set(kernel_calls)
    assert ran >= {"_two_rows", "_matched_rows", "_matched_cols"}, ran
    # A MinimalSeq view is never coded, so it has no bit-planes.
    assert ("_narrow_split" in ran) == (kind != "minimal")


@pytest.mark.parametrize("kind", ["str", "bytes", "tuple", "minimal"])
def test_the_recursion_peaks_within_the_shared_bound(kind):
    # _recursion_peak bounds the recursion's cells above a range's frame
    # by its rows and LCS length alone; _matched_cols and _narrow_lcs
    # admit a range by it. first_lcs on a fresh meter reaches the model's
    # peak (_check), so the bound holds for it on every kind.
    for case in [*_ranges(f"bound {kind}", 150, 70, 70),
                 *_ranges(f"wide bound {kind}", 15, 130, 140)]:
        x, y, xr, yr = case
        above = _check(kind, *case)
        length = len(leftmost_lcs(x, y, xr.lo, xr.hi, yr.lo, yr.hi))
        bound = FRAME + hirschberg._recursion_peak(xr.length, length)
        assert above <= bound, case


@pytest.fixture
def narrow_solved(monkeypatch):
    """What each call of the narrow kernel returned, in call order."""
    solved = []

    def record(*args, run=hirschberg._narrow_lcs):
        solved.append(run(*args))
        return solved[-1]

    monkeypatch.setattr(hirschberg, "_narrow_lcs", record)
    return solved


def _no_split(*args):
    raise AssertionError("a range was split")


def _kernel_solves_every_root(monkeypatch, narrow_solved, kind, cases):
    """With the meter's peak raised past any range's, the kernel solves
    every range of 3 or more rows of a coded view at its root, unknown
    length and all, and nothing is split. Called alone with the length
    known, as a split's parts are, it appends the same answer, charges
    the same probes and leaves the answer's cells."""
    monkeypatch.setattr(hirschberg, "_split", _no_split)
    solved = 0
    for case in cases:
        x, y, xr, yr = case
        narrow_solved.clear()
        _check(kind, *case, live=3, peak=1 << 20)
        kernel = xr.length >= 3 and yr.length > 0
        assert narrow_solved == [True] * kernel, case
        if not kernel:
            continue
        solved += 1
        want, probes, _ = restart_model(*map(VIEW_KINDS[kind], (x, y)),
                                        xr.lo, xr.hi, yr.lo, yr.hi)
        view = kind_view(kind, x, y)
        meter = view.meter
        meter.grow(1 << 20)
        meter.shrink((1 << 20) - 3)
        out = []
        assert hirschberg._narrow_lcs(view, xr.lo, xr.hi, yr.lo, yr.hi,
                                      len(want), out)
        assert (tuple(out), meter.eq_queries) == (want, probes), case
        assert (meter.live_cells, meter.peak_cells) == (3 + len(want), 1 << 20)
    return solved


@pytest.mark.parametrize("kind", ["str", "bytes", "tuple"])
def test_the_narrow_kernel_charges_the_models_probes(monkeypatch,
                                                     narrow_solved, kind):
    # Ranges under 64 positions: every row's mask is a window-table entry.
    cases = _ranges(f"narrow {kind}", 300, 100, 63)
    assert _kernel_solves_every_root(monkeypatch, narrow_solved, kind, cases)


@pytest.mark.parametrize("kind", ["str", "bytes", "tuple"])
def test_the_kernel_charges_the_models_probes_at_every_width(
        monkeypatch, narrow_solved, kind):
    # Ranges of 3-150 rows over 64-200 positions: every row's mask is cut
    # from the mirror's plane bytes, and each of the r + 1 words it keeps
    # takes ceil(w / 64) machine words.
    cases = [case for case in _ranges(f"wide kernel {kind}", 90, 150, 200)
             if case[2].length >= 3 and case[3].length >= 64]
    assert len(cases) >= 40
    assert _kernel_solves_every_root(monkeypatch, narrow_solved, kind,
                                     cases) == len(cases)


@pytest.mark.parametrize("r, w", [(40, 30), (40, 100)], ids=["narrow", "wide"])
@pytest.mark.parametrize("known", [True, False], ids=["known", "unknown"])
def test_the_kernel_runs_exactly_when_its_bound_fits_the_peak(r, w, known):
    # A peak of exactly the live cells plus the larger of the recursion's
    # bound and the kernel's (r + 1) * ceil(w / 64) + 2 * lambda cells
    # admits the range; one cell lower, the kernel hands it back with no
    # probe, no cell and nothing appended. Here the kernel's words set
    # the bound.
    rng = random.Random(f"admission {r} {w}")
    x, y = rand_string(rng, r + 2, 4), rand_string(rng, w + 3, 4)
    xr, yr = IndexRange(2, r + 1), IndexRange(3, w + 2)
    want = leftmost_lcs(x, y, xr.lo, xr.hi, yr.lo, yr.hi)
    length = len(want) if known else -1
    bound = len(want) if known else min(r, w)
    words = (r + 1) * -(-w // 64) + 2 * bound
    recursion = FRAME * (r - 1).bit_length() + 2 * bound
    assert words > recursion
    live = 5
    for peak, runs in ((live + words, True), (live + words - 1, False)):
        view = kind_view("str", x, y)
        meter = view.meter
        meter.grow(peak)
        meter.shrink(peak - live)
        out = [7]
        assert hirschberg._narrow_lcs(view, xr.lo, xr.hi, yr.lo, yr.hi,
                                      length, out) is runs
        if runs:
            assert out[1:] == want
            assert (meter.live_cells, meter.peak_cells) == (
                live + len(want), peak)
        else:
            assert out == [7]
            assert (meter.eq_queries, meter.live_cells, meter.peak_cells) == (
                0, live, peak)


def test_a_fixed_first_output_makes_its_pinned_splits(monkeypatch):
    # The first output of one fixed 1,024-character four-letter pair: the
    # root and the ranges whose kernel bound still passes the peak are
    # split, and the kernel solves the rest, under 64 positions or wider.
    # The counts are exact, so a change to the admission rule shows here.
    rng = random.Random("pinned splits")
    x, y = rand_string(rng, 1024, 4), rand_string(rng, 1024, 4)
    split, kernel = hirschberg._split, hirschberg._narrow_lcs
    splits, kernel_calls = [], Counter()

    def record_split(view, i_lo, i_hi, j_lo, j_hi):
        splits.append(j_hi - j_lo + 1)
        return split(view, i_lo, i_hi, j_lo, j_hi)

    def record_kernel(view, i_lo, i_hi, j_lo, j_hi, *args):
        solved = kernel(view, i_lo, i_hi, j_lo, j_hi, *args)
        width = "wide" if j_hi - j_lo + 1 >= 64 else "narrow"
        kernel_calls[solved, width] += 1
        return solved

    monkeypatch.setattr(hirschberg, "_split", record_split)
    monkeypatch.setattr(hirschberg, "_narrow_lcs", record_kernel)
    assert LcsEnumerator(MatchView(x, y)).next_sequence() is not None
    # 10 splits, all 140 or more positions wide, each of a range the
    # kernel handed back first; the kernel solves 10 wide ranges and one
    # narrow one. Before it took wide ranges: 24 splits, 25 solved.
    assert len(splits) == 10 and min(splits) >= 140
    assert kernel_calls == {(True, "wide"): 10, (True, "narrow"): 1,
                            (False, "wide"): 10}


# Pairs of 200-300 characters: a first output's root split is wide, and
# the narrow ranges under it meet a peak its levels have raised.
FIXED_PAIRS = {
    "rand4": (250, 250, 4),
    "rand2": (220, 280, 2),
    "rand8": (300, 200, 8),
}


@pytest.mark.parametrize("kind", ["str", "bytes", "tuple"])
@pytest.mark.parametrize("name", [*FIXED_PAIRS, "periodic"])
def test_the_narrow_kernel_runs_under_wide_splits(narrow_solved, kind, name):
    if name == "periodic":
        # (abcd)^60 against (dcba)^60 solves its first output with
        # _matched_cols under the root; this order leaves narrow ranges.
        x, y = "abcd" * 60, "dbca" * 60
    else:
        rng = random.Random(name)
        n, m, sigma = FIXED_PAIRS[name]
        x, y = rand_string(rng, n, sigma), rand_string(rng, m, sigma)
    _check(kind, x, y, IndexRange(1, len(x)), IndexRange(1, len(y)))
    assert True in narrow_solved
