"""Lexicographically first LCS occurrence in linear auxiliary space.

``first_lcs`` returns the leftmost position sequence of a longest
common subsequence of X[xr] and Y[yr]: the unique occurrence P such
that every prefix Y[..P[k]] is the shortest one containing the first k
chosen characters, and among all such canonical occurrences P is the
lexicographically least. It runs in O(|xr| * |yr|) equality probes but
keeps only O(L) integers alive at any moment (L = LCS length), plus a
stack of O(log |xr|) pending ranges.

The method is divide and conquer on X. Split X at its midpoint, then
find where to split Y so the two halves' LCS lengths add up to the
total. Each half's reachable LCS levels are summarized by a threshold
sequence:

  prefix orientation:  level p -> least j with L(X_half, Y[yr.lo..j]) = p
  suffix orientation:  level q -> greatest j with L(X_half, Y[j..yr.hi]) = q

The suffix one is the prefix one of the view's mirror, the reversed
pair, over the mirrored ranges (Hirschberg's forward pass on the
reversed strings): X[i] and Y[j] are its row n + 1 - i and position
m + 1 - j, and its level q holds m + 1 - j for the threshold j.

So every fold is a prefix fold, one X character at a time, in one of
two forms. The list form is the Hunt-Szymanski threshold update: each
match of that character inside the Y range lowers the threshold of the
level found by bisection. It visits only the matches that can change a
level, skipping from each one past the old threshold it replaced, and
finds them with the forward search the view bound when it was built:
str.find, or tuple.index.

When the view has bit-planes, its pair coded by
:func:`lcs_enum.core._code`, a fold may take the bit form (Allison-Dix,
Hyyro): the thresholds become the 0-bits of a w-bit integer V over the
fold's w positions of Y, and one row is
``U = V & M; V = ((V + U) | (V - U)) & full`` with M the row's match
mask. A fold's rows cut M from the view's bit-plane of the row's code,
about w/8 bytes of it. Under 64 positions the two kernels below read
it with one list index into the code's window table, whose entry k holds
plane bits 64k..64k + 127, so none of their reads makes a temporary
wider than 128 bits. The view and the mirror each hold a plane per code
of X, 2 * len_y bits per code in all: one per token X and Y share, and
one of zeros for all tokens only in X, if any. They are built at once on the
orientation's first bit fold, and a table per code that such a read
has met, built on that first read: about len_y / 64 ints of up to 128
bits. All are read-only input storage outside the cell count, like the
coded pair and the mirror.

One function, :func:`_fold`, switches a fold of a view with bit-planes
from the list form to the bit form: before the first row at which it
holds ceil(w/64) levels, for w positions. V and its few w-bit
temporaries then take a constant number of machine words per level, so
the one-cell-per-level charge stays an upper bound on its space. Folds
of other views keep the list form. A range whose kept words fit under
the meter's peak, at any width, is folded once, keeping every row's
word, and its whole LCS read off the words (:func:`_narrow_lcs`); a
split under 64 positions that the loop below still makes folds both
halves in one kernel, one word each, and reads its least maximizer off
the two words, with no list (:func:`_narrow_split`). Other folds
run :func:`_bit_rows` and read V back into a list through a w-character
string. The branch search's rows (:mod:`lcs_enum.branching`), the
mirror's prefix rows over all of Y, take the same :func:`_fold` but keep
V between runs, and count their levels in either form with
:func:`_levels_below`.

A fold of X from its first row over all of Y switches after the same s
rows, with the same V, in every search and every first output. So the
first such fold that switches records that checkpoint (s, V_s) in a
list that every view of the orientation shares. A later fold whose
caller holds rows 1..start - 1 in the list form, with start <= s, and
whose rows go on past row s, charges rows start..s at once and goes on
from V_s: every run of the branch search may, and a restart fold from
row 1 over all of Y, as the first output's root split. An interrupt at
that charge leaves the caller's levels as they were. V_s is one int of
len_y bits, ceil(len_y / 64) words per orientation, input storage like
the planes.

Either form charges a length-n row exactly n equality probes, what a
scan of the whole row costs, and one cell per level, so probe and cell
counts measure the algorithm and not the form. The folds charge only
probes; whoever holds the levels charges them once, after its folds: a
split both halves, the threshold functions the tuple they return (the
caller's, outside the count), the branch search all its rows when it
ends. Within a fold the level count only rises, so the peak is the one
a charge per new level would set, and a split cut short by an
exception has charged nothing. A walk over both sequences, O(L) and
free of probes, then yields the Y split and both halves' LCS lengths.
Unlike the classic linear-space LCS construction, which may pick any
maximizing split, the walk keeps the least maximizer; this is what
makes the leftmost occurrence of the whole problem equal the
concatenation of the leftmost occurrences of the two halves, so
solving the halves left to right emits it.

One loop does so over an explicit stack of pending ranges, each with
its LCS length once a split has found it. It solves four kinds of
range without splitting them. One of two X characters takes the one or
two searches its split and leaves need (:func:`_two_rows`). One whose
LCS length equals its number of X characters takes one forward search
per character (:func:`_matched_rows`): every character is matched, so
its leftmost LCS is the greedy embedding, each split a recursion would
make falls at a greedy end, and its probes and peak cells follow in
closed form. One whose LCS length equals its width w, below its number
of X characters, is Y's range itself (:func:`_matched_cols`): every
position is matched, each split falls where a backward greedy walk of
the right half ends, and its probes follow from the walks. Any other of
a view with bit-planes, at any width, is folded once, its leftmost LCS
read off the kept words, and its probes replayed from one backward
greedy walk of that answer (:func:`_narrow_lcs`).

The last two rest on the split lemma. Take a range X[a..b] x Y[c..d],
b > a, with leftmost LCS P of length L, let i_mid = (a + b) // 2 and h
the length of the longest suffix of P that embeds into X[i_mid + 1..b].
Then the split falls after P[L - h], or before c if h = L, with lengths
L - h and h, and the parts' leftmost LCSs are P's two pieces. For the
left length l, the least maximizer is P[l], or c - 1 if l = 0: a larger
split would leave P[l] a maximizer too. P joins the two parts' leftmost
LCSs (above), so its last L - l positions embed into the right half,
and l >= L - h; its first L - h embed into the left half, as P embeds
into X[a..b] and h is maximal, so P[L - h] is a maximizer, and l = L -
h. So each part of the recursion solves the positions of P whose
backward greedy rows in X[a..b] fall in its rows.

Nor do they fold to learn the recursion's peak cells. Over r rows and an
LCS length of at most lambda, the recursion holds at most 6 *
bit_length(r - 1) + 2 * lambda cells above its range's frame
(:func:`_recursion_peak`), 6 being a frame's cells, by induction on r.
An empty range holds nothing more, and a one-row leaf at most its one
appended cell, none if lambda = 0. A split holds its two halves' levels,
at most lambda each, and releases them; each part, of lengths l and L -
l with L <= lambda, has at most ceil(r / 2) rows, one bit fewer in r -
1, and sits a frame deeper: the left part holds at most 6 *
bit_length(r - 1) + 2l, and the right part, above the left one's l
appended cells, l + 6 * bit_length(r - 1) + 2(L - l). The kernels hold
no more than the recursion they replace: the first two charge exactly
its cells; the last two run only if the live cells plus the bound, and
for the last kernel the (r + 1) * ceil(w / 64) + 2 * lambda cells it
really holds over w positions, stay within the meter's peak, so neither
the recursion nor the kernel could move it. The loop charges every
probe and cell that a recursion over the same splits would, where the
recursion would charge it, or for a kernel at once. The levels and
frames that a kernel replays in the meter never exist, so the real
auxiliary memory stays under the charge.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cache

from .core import IndexRange, MatchView, _bit_planes

# One charged frame per level of the range being solved: its 6 cells
# cover one pending range of the stack (6 ints: its ends, depth and LCS
# length), so the O(log n) stack shows up in the cell meter.
_FRAME_CELLS = 6


def _fold_prefix_row(view: MatchView, i: int, j_lo: int, j_hi: int,
                     levels: list[int]) -> None:
    """Fold X[i] into prefix thresholds for Y[j_lo..j_hi], in place.

    A match at j becomes the threshold of level l+1, where l counts the
    old thresholds below j (Hunt-Szymanski). Matches are found in
    increasing j by forward search and l by bisection from the last
    level touched. Once level l holds j, every match up to its old
    threshold lands on level l again and loses to j, so the search
    resumes just past that old value; after a new top level nothing can
    follow. The row is charged j_hi - j_lo + 1 probes, what a scan of
    the whole row costs, so per-gap probe counts do not depend on how
    many positions the skips jump over. No cell is charged: the fold's
    caller charges its levels once. Nothing is checked: callers pass
    1 <= i <= len_x and 1 <= j_lo <= j_hi <= len_y.
    """
    view._meter.eq_queries += j_hi - j_lo + 1
    find = view._find
    y = view._y
    c = view._x[i - 1]
    top = len(levels)
    l = 0
    # Searches take and return 0-based indices: the match k is j = k + 1.
    k = find(y, c, j_lo - 1, j_hi)
    while k >= 0:
        l = bisect_left(levels, k + 1, l)
        if l == top:
            levels.append(k + 1)
            return
        old = levels[l]
        levels[l] = k + 1
        k = find(y, c, old, j_hi)


# V and each w-bit temporary take a word per this many positions, so a
# fold switches once it holds a level per this many (_fold), and a word
# the one-fold kernel keeps is charged a cell per this many (_narrow_lcs).
_BIT_POSITIONS_PER_LEVEL = 64


def _build_planes(view: MatchView) -> None:
    """Fill the view's planes (:func:`_bit_planes`), once per
    orientation, on its first bit fold."""
    view._planes.update(_bit_planes(view._x, view._y))


def _bit_rows(view: MatchView, rows: range, j_lo: int, j_hi: int,
              v: int) -> int:
    """V after folding the X rows into it, one bit row each.

    Bit k of V stands for j_lo + k: the thresholds in Y[j_lo..j_hi] are
    its 0-bits among bits 0..j_hi - j_lo, and every other bit is 0. Each
    row is charged w = j_hi - j_lo + 1 probes, like the list form; the
    caller charges the levels' cells. A row's match mask is cut from its
    code's plane, which is zeros for the code of the tokens absent from Y.
    """
    if not view._planes:
        _build_planes(view)
    planes = view._planes
    meter = view._meter
    x = view._x
    w = j_hi - j_lo + 1
    # Plane bit b0 + k stands for j_lo + k; plane bytes a..b - 1 hold bits
    # b0..b0 + w - 1 and up to 7 bits on either side. While the rows run,
    # V sits r bits up, so a row's mask needs no shift.
    b0 = j_lo - 1
    a, r, b = b0 >> 3, b0 & 7, (b0 + w + 7) >> 3
    full = ((1 << w) - 1) << r
    v <<= r
    from_bytes = int.from_bytes
    for i in rows:
        meter.eq_queries += w
        # V & M drops the mask bits outside V's positions, so no carry or
        # borrow reaches them.
        u = v & from_bytes(planes[x[i - 1]][a:b], "little")
        v = ((v + u) | (v - u)) & full
    return v >> r


def _fold(view: MatchView, rows: range, j_lo: int, j_hi: int,
          levels: list[int], v: int | None = None) -> int | None:
    """Fold the X rows into the prefix thresholds over Y[j_lo..j_hi]: V
    (:func:`_bit_rows`) if the fold ends in the bit form, else None with
    the thresholds in ``levels``. The only place a fold switches form.

    Given V, every row is a bit row. Otherwise, on a view with bit-planes,
    the rows take the list form until, before a row, the fold holds
    ceil(w/64) levels for w = j_hi - j_lo + 1, and the bit form from that
    row on; a view without bit-planes never switches. V and each
    temporary take ceil(w/64) words, so from 64 * levels >= w on the
    one-cell-per-level charge covers them.

    A fold over all of Y that starts at row 1, or is given levels, which
    must then be those of rows 1..rows.start - 1 (the branch search's
    are), switches after the same s rows with the same V_s whatever runs
    its rows are cut into. The first such fold that switches records the
    checkpoint (s, V_s) in the view's shared ``_checkpoint`` list; a later
    one whose rows run from s or before to past s takes it: it charges
    rows rows.start..s at once, with no list row, and folds the rest from
    V_s. The list is emptied only once the bit rows are done, so a fold
    that raises leaves the caller, with V as it was given, the levels it
    gave if it took the checkpoint, those held at the switch if it raised
    in a bit row, or those of the rows before the list row that raised.
    Charges the rows' probes, not the cells.
    """
    w = j_hi - j_lo + 1
    if v is None:
        whole = w == view.len_y and (levels or rows.start == 1)
        checkpoint = view._checkpoint
        if (whole and checkpoint
                and rows.start <= checkpoint[0][0] < rows.stop - 1):
            s, v = checkpoint[0]
            view._meter.eq_queries += (s + 1 - rows.start) * w
            rows = range(s + 1, rows.stop)
        else:
            switch = (w + 1 if view._planes is None
                      else -(-w // _BIT_POSITIONS_PER_LEVEL))
            for n, i in enumerate(rows):
                if len(levels) >= switch:
                    break
                _fold_prefix_row(view, i, j_lo, j_hi, levels)
            else:
                return None
            rows = rows[n:]
            v = (1 << w) - 1
            for t in levels:
                v ^= 1 << (t - j_lo)
            if whole and not checkpoint:
                checkpoint.append((rows.start - 1, v))
    v = _bit_rows(view, rows, j_lo, j_hi, v)
    levels.clear()
    return v


def _levels_below(levels: list[int], v: int | None, h: int) -> int:
    """How many levels of a fold over Y[1..] hold a threshold below h,
    read from what :func:`_fold` left: the list if V is None, else the
    0-bits of V among bits 0..h - 2, bit k standing for k + 1."""
    if v is None:
        return bisect_left(levels, h)
    b = h - 1
    return b - (v & ((1 << b) - 1)).bit_count()


def _fold_rows(view: MatchView, i_first: int, i_last: int, j_lo: int,
               j_hi: int) -> list[int]:
    """Prefix thresholds of X[i_first..i_last] against Y[j_lo..j_hi].

    :func:`_fold`, then V read back into the list if the fold switched.
    Charges the rows' probes, not the cells: the caller charges the
    levels it holds, once.
    """
    levels: list[int] = []
    if j_lo > j_hi:
        return levels
    v = _fold(view, range(i_first, i_last + 1), j_lo, j_hi, levels)
    if v is not None:
        bits = bin(v | 1 << (j_hi - j_lo + 1))[:2:-1]  # character k is bit k
        k = bits.find("0")
        while k >= 0:
            levels.append(j_lo + k)
            k = bits.find("0", k + 1)
    return levels


def _narrow_split(view: MatchView, i_lo: int, i_hi: int, j_lo: int,
                  j_hi: int) -> tuple[int, int, int, int]:
    """:func:`_split` over w = j_hi - j_lo + 1 < 64 positions of a view
    with bit-planes.

    Both halves are folded in the bit form from their first row, one
    word each, by one loop that reads each row's mask from its code's
    window table (:class:`~lcs_enum.core._WindowTables`), built on the
    code's first read: the prefix half on the view over j_lo..j_hi, the
    right half on the mirror over m + 1 - j_hi..m + 1 - j_lo. Bit k of
    ``lo`` marks the prefix threshold j_lo + k and bit k of ``hi`` the
    suffix threshold j_hi - k. The rows' probes are charged as they run;
    the two halves' levels are charged once, after both folds.

    A split after j_lo + k keeps the suffix levels below bit w - 1 - k;
    the 1-bits of ``lo`` are walked in increasing k, and strict
    improvement keeps the least maximizer.
    """
    i_mid = (i_lo + i_hi) // 2
    w = j_hi - j_lo + 1
    n, m = view.len_x, view.len_y
    meter = view._meter
    ones = (1 << w) - 1
    # tests/test_bit_rows.py reads ``words`` off this frame as it returns.
    words = []
    # Rows are 0-based here. Table entry k holds plane bits 64k..64k +
    # 127: with V r < 64 bits up, its w < 64 positions line up with them.
    for half, rows, b0 in ((view, range(i_lo - 1, i_mid), j_lo - 1),
                           (view._mirror, range(n - i_hi, n - i_mid),
                            m - j_hi)):
        if not half._planes:
            _build_planes(half)
        tables = half._tables
        x = half._x
        k, r = b0 >> 6, b0 & 63
        full = ones << r
        v = full
        for i in rows:
            meter.eq_queries += w
            u = v & tables[x[i]][k]
            v = ((v + u) | (v - u)) & full
        words.append((v ^ full) >> r)
    lo, hi = words
    best = hi.bit_count()
    cells = lo.bit_count() + best
    meter.grow(cells)
    meter.shrink(cells)
    j_mid = j_lo - 1
    lo_length = level = 0
    while lo:
        bit = lo & -lo
        lo ^= bit
        k = bit.bit_length() - 1
        level += 1
        total = level + (hi & ((1 << (w - 1 - k)) - 1)).bit_count()
        if total > best:
            j_mid = j_lo + k
            lo_length = level
            best = total
    return i_mid, j_mid, lo_length, best - lo_length


def _split(view: MatchView, i_lo: int, i_hi: int, j_lo: int, j_hi: int
           ) -> tuple[int, int, int, int]:
    """(i_mid, j_mid, l_lo, l_hi): the midpoint of X, the least Y split
    whose half-LCS lengths sum to L, and those two lengths.

    Requires i_lo < i_hi. A split under 64 positions of a view with
    bit-planes is :func:`_narrow_split`'s. Any other builds the left
    half's prefix thresholds and the right half's suffix thresholds with
    :func:`_fold_rows`, the latter as the prefix ones of the mirror's
    rows n + 1 - i_hi..n - i_mid over its positions m + 1 - j_hi..m + 1 -
    j_lo, which hold m + 1 - j for each suffix threshold j. Then walks
    the prefix thresholds, the only places where the level sum can rise,
    in O(L); strict improvement keeps the least maximizer, and the walk's
    two level counts there are the halves' lengths. Both halves' levels
    are charged once, after both folds, and released before the walk.
    """
    w = j_hi - j_lo + 1
    if view._planes is not None and w < _BIT_POSITIONS_PER_LEVEL:
        return _narrow_split(view, i_lo, i_hi, j_lo, j_hi)
    n1, m1 = view.len_x + 1, view.len_y + 1
    i_mid = (i_lo + i_hi) // 2
    lo_levels = _fold_rows(view, i_lo, i_mid, j_lo, j_hi)
    hi_levels = _fold_rows(view._mirror, n1 - i_hi, n1 - i_mid - 1,
                           m1 - j_hi, m1 - j_lo)
    cells = len(lo_levels) + len(hi_levels)
    meter = view._meter
    meter.grow(cells)
    meter.shrink(cells)

    # A split after j sums l_lo prefix levels <= j, l_hi suffix ones > j,
    # where the mirror's level h stands for the suffix threshold m1 - h.
    l_hi = best = len(hi_levels)
    j_mid = j_lo - 1
    lo_length = 0
    for l_lo, j in enumerate(lo_levels, 1):
        while l_hi and hi_levels[l_hi - 1] >= m1 - j:
            l_hi -= 1
        if l_lo + l_hi > best:
            j_mid = j
            lo_length = l_lo
            best = l_lo + l_hi
    return i_mid, j_mid, lo_length, best - lo_length


def _two_rows(view: MatchView, i: int, j_lo: int, j_hi: int,
              out: list[int]) -> None:
    """Append the leftmost LCS positions of X[i..i + 1], Y[j_lo..j_hi].

    Solves the range as :func:`_split` and two one-row leaves would, and
    charges what they charge. The split's prefix row holds a, the first
    match of X[i], and its mirrored row b, the last match of X[i + 1],
    which is the mirror's first match of it in the mirrored range; its
    walk splits after a when a exists and b is absent or past it, else
    before j_lo. The left leaf's scan then ends at a, and the right leaf
    scans X[i + 1]'s row from the split on. The range costs the two rows'
    2w probes plus both scans, charged at once, and the leaves' frame and
    appended cells, so the meter's peak is the one the leaves would set.
    Requires j_lo <= j_hi.
    """
    find = view._find
    x = view._x
    y = view._y
    # Searches take and return 0-based indices: the match k is j = k + 1.
    lo = j_lo - 1
    a = find(y, x[i - 1], lo, j_hi)
    # The mirror's index k is index m - 1 - k here.
    m = view.len_y
    b = find(view._mirror._y, x[i], m - j_hi, m - lo)
    b = m - 1 - b if b >= 0 else -1
    probes = 2 * (j_hi - lo)
    left = a >= 0 and (b < 0 or b > a)
    if left:
        probes += a + 1 - lo
        lo = a + 1
    right = b >= lo
    if right:
        k = find(y, x[i], lo, j_hi)
        probes += k + 1 - lo
    else:
        probes += j_hi - lo
    meter = view._meter
    meter.eq_queries += probes
    if left:
        out.append(a + 1)
    if right:
        out.append(k + 1)
    meter.grow(_FRAME_CELLS + left + right)
    meter.shrink(_FRAME_CELLS)


def _matched_probes(g: list[int], a: int, b: int, j_lo: int, j_hi: int
                    ) -> int:
    """Probes of the recursion on rows a < b of a fully matched range over
    Y[j_lo..j_hi], g[k] the greedy match of row k (:func:`_matched_rows`).

    A split of r rows folds r rows of w = j_hi - j_lo + 1 probes and
    falls at the greedy end g[m]; a two-row node costs its two rows and
    its leaves' scans, which run from j_lo to its second match; the right
    leaf of a three-row split scans from past g[m] to its match.
    """
    w = j_hi - j_lo + 1
    if a + 1 == b:
        return 2 * w + g[b] - j_lo + 1
    m = (a + b) // 2
    lo = _matched_probes(g, a, m, j_lo, g[m])
    hi = (g[b] - g[m] if m + 1 == b
          else _matched_probes(g, m + 1, b, g[m] + 1, j_hi))
    return (b - a + 1) * w + lo + hi


@cache
def _matched_peak(r: int) -> int:
    """Peak cells above its entry of the recursion on r fully matched rows.

    The shape of that recursion, and so its cells, depend on r alone: a
    leaf appends 1 cell; a two-row node holds a frame for its leaves and
    their 2; a split holds its r levels, then a frame over its left part,
    then the left part's r - r // 2 appended cells and a frame over its
    right part. Cached: one small int per row count met, so no more
    entries than the longest X range solved.
    """
    if r < 3:
        return 1 if r == 1 else _FRAME_CELLS + 2
    lo = (r + 1) // 2
    return max(r, _FRAME_CELLS + max(_matched_peak(lo),
                                      lo + _matched_peak(r - lo)))


def _matched_rows(view: MatchView, i_lo: int, i_hi: int, j_lo: int,
                  j_hi: int, out: list[int]) -> None:
    """Append the leftmost LCS positions of X[i_lo..i_hi], Y[j_lo..j_hi],
    a range of at least two rows whose LCS length is its row count.

    Every row is matched, so the LCS is X[i_lo..i_hi] itself and its
    leftmost occurrence is the greedy embedding g, one forward search per
    row. The recursion over the same range splits where the least
    maximizer falls, at g's end of the left half: both halves are fully
    matched again, with the same greedy matches. So its probes are
    :func:`_matched_probes` of g and its peak :func:`_matched_peak`;
    both are charged at once, after the searches and before g is
    appended, so an interrupt at the charge leaves nothing appended. The
    levels and frames the recursion would hold never exist here.
    """
    find = view._find
    x = view._x
    y = view._y
    g = []
    k = j_lo - 1
    # Searches take and return 0-based indices: position k, one past the
    # match at index k - 1, is where the next search starts.
    for i in range(i_lo - 1, i_hi):
        k = find(y, x[i], k, j_hi) + 1
        g.append(k)
    r = len(g)
    meter = view._meter
    meter.eq_queries += _matched_probes(g, 0, r - 1, j_lo, j_hi)
    out += g
    peak = _matched_peak(r)
    meter.grow(peak)
    meter.shrink(peak - r)


@cache
def _matched_run_probes(r: int) -> int:
    """:func:`_matched_probes` of r rows matched to r consecutive
    positions, which depends on r alone. Cached like
    :func:`_matched_peak`."""
    return _matched_probes(range(r), 0, r - 1, 0, r - 1)


def _matched_cols_probes(find, x, y, n: int, i_lo: int, i_hi: int,
                         j_lo: int, j_hi: int) -> int:
    """Probes of the loop on X[i_lo..i_hi], Y[j_lo..j_hi], a range whose
    LCS length is its width w.

    Every position is matched, so at a split the least maximizer leaves
    the right half the longest suffix of the Y range that it contains,
    of h positions: the split falls after j_hi - h, with lengths w - h
    and h, and both parts are matched in every position again. h is one
    uncharged backward greedy walk, at most h + 1 forward searches
    ``find`` of Y's characters in ``x``, the mirror's X of n rows, which
    hold the right half's rows backward. A split charges its r rows of w
    probes; the leaves charge as the loop's kernels do: one row 1, two
    rows over one position 3, r rows over r positions those of
    :func:`_matched_rows`, and an empty part 0.
    """
    w = j_hi - j_lo + 1
    r = i_hi - i_lo + 1
    if w == 0:
        return 0
    if r == 1:
        return 1
    if r == w:
        return _matched_run_probes(r)
    if r == 2:
        return 3
    i_mid = (i_lo + i_hi) // 2
    # Searches take and return 0-based indices: the mirror's index k is
    # row n - k, so the right half's rows are k = n - i_hi..n - i_mid - 1.
    k, end = n - i_hi, n - i_mid
    j = j_hi
    while j >= j_lo:
        k = find(x, y[j - 1], k, end) + 1
        if not k:
            break
        j -= 1
    return (r * w + _matched_cols_probes(find, x, y, n, i_lo, i_mid, j_lo, j)
            + _matched_cols_probes(find, x, y, n, i_mid + 1, i_hi, j + 1,
                                   j_hi))


def _recursion_peak(r: int, length: int) -> int:
    """The most cells the recursion over a range of r rows, of LCS length
    at most ``length``, holds above the range's frame (module docstring)."""
    return _FRAME_CELLS * (r - 1).bit_length() + 2 * length


def _matched_cols(view: MatchView, i_lo: int, i_hi: int, j_lo: int,
                  j_hi: int, out: list[int]) -> bool:
    """Append the leftmost LCS positions of X[i_lo..i_hi], Y[j_lo..j_hi],
    a range of r >= 3 rows whose LCS length is its width w < r, and
    return True; or, with no search and no charge, return False if the
    recursion over it might move the meter's peak.

    The LCS is Y[j_lo..j_hi] itself, and the recursion's probes follow
    from greedy walks (:func:`_matched_cols_probes`). If the live cells
    plus :func:`_recursion_peak` of r rows and length w stay within the
    meter's peak, the recursion could not have moved it: the probes are
    charged at once, then j_lo..j_hi appended and charged, so an
    interrupt at the charge leaves nothing appended.
    """
    w = j_hi - j_lo + 1
    meter = view._meter
    if (meter.live_cells + _recursion_peak(i_hi - i_lo + 1, w)
            > meter.peak_cells):
        return False
    meter.eq_queries += _matched_cols_probes(
        view._find, view._mirror._x, view._y, view.len_x, i_lo, i_hi, j_lo,
        j_hi)
    out += range(j_lo, j_hi + 1)
    meter.grow(w)
    return True


def _narrow_lcs(view: MatchView, i_lo: int, i_hi: int, j_lo: int, j_hi: int,
                length: int, out: list[int]) -> bool:
    """Append the leftmost LCS positions of X[i_lo..i_hi], Y[j_lo..j_hi],
    a range of r >= 3 rows over w positions of a view with bit-planes, of
    LCS length ``length`` (-1 if unknown), and return True; or, with no
    fold and no charge, return False if the view has no planes or the
    recursion or this kernel might move the meter's peak.

    With lambda the length or min(r, w), the recursion holds at most
    :func:`_recursion_peak` of r and lambda above the range's frame, and
    the kernel (r + 1) * ceil(w / 64) + 2 * lambda cells: its words, the
    answer and its rows. So it runs only if the live cells plus the
    larger of the two stay within the peak.

    One pass folds the r rows as the mirror's prefix rows over the
    mirrored window and keeps every word: ``words[t]`` marks the suffix
    thresholds of X[i_hi - t + 1..i_hi], bit s + q standing for Y[j_hi -
    q]. Under 64 positions a row's mask is an entry of the mirror's
    window table; wider, it is cut from the mirror's plane bytes, as
    :func:`_bit_rows` cuts it. The answer takes each position in turn:
    the least j, each tried once, whose first match in X past the last
    chosen row, at 0-based index g, leaves the rest of the LCS in
    ``words[i_hi - 1 - g]`` below bit s + j_hi - j. Once as many rows are
    left as positions still needed, all are matched, and the rest is
    their greedy embedding.

    By the split lemma (module docstring), one backward greedy walk of
    the answer fixes the whole split tree, and its probes follow: r * w
    per split, a leaf's scan, and w * (2r - popcount(r)) for a part with
    no position, whose splits all leave their left parts empty. They are
    charged at once, before the answer is appended, so an interrupt
    appends nothing.
    """
    r, w = i_hi - i_lo + 1, j_hi - j_lo + 1
    meter = view._meter
    bound = min(r, w) if length < 0 else length
    word_cells = -(-w // _BIT_POSITIONS_PER_LEVEL)
    if (view._planes is None
            or meter.live_cells + max(_recursion_peak(r, bound),
                                      (r + 1) * word_cells + 2 * bound)
            > meter.peak_cells):
        return False
    mirror = view._mirror
    if not mirror._planes:
        _build_planes(mirror)
    n, mx = view.len_x, mirror._x
    b0 = view.len_y - j_hi
    rows = range(n - i_hi, n - i_lo + 1)
    words = [0]
    if w < _BIT_POSITIONS_PER_LEVEL:
        tables = mirror._tables
        k, s = b0 >> 6, b0 & 63
        full = ((1 << w) - 1) << s
        v = full
        for i in rows:
            u = v & tables[mx[i]][k]
            v = ((v + u) | (v - u)) & full
            words.append(v ^ full)
    else:
        # Plane bytes a..b - 1 hold bits b0..b0 + w - 1, as in _bit_rows.
        planes, from_bytes = mirror._planes, int.from_bytes
        a, s, b = b0 >> 3, b0 & 7, (b0 + w + 7) >> 3
        full = ((1 << w) - 1) << s
        v = full
        for i in rows:
            u = v & from_bytes(planes[mx[i]][a:b], "little")
            v = ((v + u) | (v - u)) & full
            words.append(v ^ full)
    need = words[r].bit_count() if length < 0 else length
    find, x, y = view._find, view._x, view._y
    p = []
    h, e = i_lo - 1, s + j_hi
    j = j_lo
    while need:
        if need == i_hi - h:
            # Every row left is matched: the rest is their greedy embedding.
            k = j - 1
            for i in range(h, i_hi):
                k = find(y, x[i], k, j_hi) + 1
                p.append(k)
            break
        g = find(x, y[j - 1], h, i_hi)
        if g >= 0 and (words[i_hi - 1 - g]
                       & ((1 << (e - j)) - 1)).bit_count() >= need - 1:
            p.append(j)
            h = g + 1
            need -= 1
        j += 1
    # Backward greedy rows of p, from the mirror's X: index k - 1 there
    # is row n + 1 - k.
    rows = []
    k, stop = n - i_hi, n - i_lo + 1
    for j in reversed(p):
        k = find(mx, y[j - 1], k, stop) + 1
        rows.append(n + 1 - k)
    rows.reverse()
    # Only splits with positions are stacked: a one-row part costs its
    # scan, and a part with no position its closed form.
    probes = 0 if p else w * (2 * r - r.bit_count())
    stack = [(i_lo, i_hi, j_lo, j_hi, 0, len(p))] if p else []
    while stack:
        a, b, c, d, lo, hi = stack.pop()
        probes += (b - a + 1) * (d - c + 1)
        mid = (a + b) // 2
        t = bisect_right(rows, mid, lo, hi)
        j_mid = c - 1
        if t > lo:
            j_mid = p[t - 1]
            if mid > a:
                stack.append((a, mid, c, j_mid, lo, t))
            else:
                probes += p[lo] - c + 1
        if j_mid < d:
            q = b - mid
            if t == hi:
                probes += (d - j_mid) * (2 * q - q.bit_count())
            elif q > 1:
                stack.append((mid + 1, b, j_mid + 1, d, t, hi))
            else:
                probes += p[t] - j_mid
    cells = len(words) * word_cells + 2 * len(p)
    meter.grow(cells)
    meter.shrink(cells)
    meter.eq_queries += probes
    out += p
    meter.grow(len(p))
    return True


def _first_lcs_into(view: MatchView, i_lo: int, i_hi: int, j_lo: int,
                    j_hi: int, out: list[int]) -> None:
    """Append the leftmost LCS positions of X[i_lo..i_hi], Y[j_lo..j_hi].

    Appends are in left-to-right output order and each is charged to the
    meter; the caller owns the buffer. One loop walks a stack of pending
    ranges, each with its depth in the divide and conquer and its LCS
    length (unknown at the root), left range first. A range of one X
    character is a scan for its least match, a longer one whose length
    is its row count is :func:`_matched_rows`, one of two is
    :func:`_two_rows`, one whose length is its width is
    :func:`_matched_cols` and any other, of any width,
    :func:`_narrow_lcs`, unless the kernel hands it back because its
    words or the recursion's bound might pass the meter's peak. A range
    handed back is split, pushing the right part under the left with the
    lengths the split found. The meter holds one frame per level of the
    range being solved, grown and shrunk where a recursion would enter
    and leave its calls, so probes and peak cells are the recursion's.
    Frames are released when it returns or raises.
    """
    meter = view._meter
    # The root's LCS length is unknown: -1 matches no row count or width.
    stack = [(i_lo, i_hi, j_lo, j_hi, 1, -1)]
    depth = 0
    try:
        while stack:
            i_lo, i_hi, j_lo, j_hi, d, length = stack.pop()
            # The next range is the left part of the one just split, a
            # level deeper, or a right part pushed before, no deeper.
            if d > depth:
                meter.grow(_FRAME_CELLS)
            elif d < depth:
                meter.shrink((depth - d) * _FRAME_CELLS)
            depth = d
            if i_lo > i_hi or j_lo > j_hi:
                continue
            if i_lo == i_hi:
                j = view.next_y_match(i_lo, j_lo, j_hi)
                if j is not None:
                    out.append(j)
                    meter.grow(1)
            elif length == i_hi - i_lo + 1:
                _matched_rows(view, i_lo, i_hi, j_lo, j_hi, out)
            elif i_lo + 1 == i_hi:
                _two_rows(view, i_lo, j_lo, j_hi, out)
            elif not ((length == j_hi - j_lo + 1
                       and _matched_cols(view, i_lo, i_hi, j_lo, j_hi, out))
                      or _narrow_lcs(view, i_lo, i_hi, j_lo, j_hi, length,
                                     out)):
                i_mid, j_mid, lo_length, hi_length = _split(
                    view, i_lo, i_hi, j_lo, j_hi)
                stack.append((i_mid + 1, i_hi, j_mid + 1, j_hi, d + 1,
                              hi_length))
                stack.append((i_lo, i_mid, j_lo, j_mid, d + 1, lo_length))
    finally:
        meter.shrink(depth * _FRAME_CELLS)


def _resolve_ranges(view: MatchView, xr: IndexRange | None, yr: IndexRange | None
                    ) -> tuple[IndexRange, IndexRange]:
    """The ranges, each the whole input if None, checked once: every
    fold and search below them trusts the rows it is given."""
    xr = IndexRange.full(view.len_x) if xr is None else xr
    yr = IndexRange.full(view.len_y) if yr is None else yr
    for r, n in ((xr, view.len_x), (yr, view.len_y)):
        if not 1 <= r.lo <= r.hi + 1 <= n + 1:
            raise IndexError(f"range {r} outside 1..{n}")
    return xr, yr


def prefix_thresholds(view: MatchView, xr: IndexRange | None = None,
                      yr: IndexRange | None = None) -> tuple[int, ...]:
    """Least j in yr reaching each LCS level of X[xr] versus Y[yr.lo..j].

    Entry p - 1 of the tuple is the threshold of level p: the least j
    with L(X[xr], Y[yr.lo..j]) = p. The tuple is strictly increasing and
    has one entry per level, as many as the LCS length of the pair.
    """
    xr, yr = _resolve_ranges(view, xr, yr)
    levels = _fold_rows(view, xr.lo, xr.hi, yr.lo, yr.hi)
    view._meter.grow(len(levels))
    view._meter.shrink(len(levels))
    return tuple(levels)


def suffix_thresholds(view: MatchView, xr: IndexRange | None = None,
                      yr: IndexRange | None = None) -> tuple[int, ...]:
    """Greatest starting j in yr reaching each LCS level of X[xr] versus Y[j..yr.hi].

    Entry q - 1 of the tuple is the threshold of level q: the greatest j
    with L(X[xr], Y[j..yr.hi]) = q. The tuple is strictly decreasing and
    has one entry per level, as many as the LCS length of the pair. They
    are the mirror's prefix thresholds over the reversed ranges, each
    level h read as m + 1 - h.
    """
    xr, yr = _resolve_ranges(view, xr, yr)
    n1, m1 = view.len_x + 1, view.len_y + 1
    levels = _fold_rows(view._mirror, n1 - xr.hi, n1 - xr.lo, m1 - yr.hi,
                        m1 - yr.lo)
    view._meter.grow(len(levels))
    view._meter.shrink(len(levels))
    return tuple(m1 - h for h in levels)


def split_point(view: MatchView, xr: IndexRange | None = None,
                yr: IndexRange | None = None) -> tuple[int, int]:
    """Split X[xr] at its midpoint and Y[yr] at the least place that keeps
    the two halves' LCS lengths summing to the total.

    Returns ``(x_mid, y_mid)``; y_mid == yr.lo - 1 leaves the left Y
    part empty.
    """
    xr, yr = _resolve_ranges(view, xr, yr)
    if xr.length < 2:
        raise ValueError("split_point needs an X range of at least two characters")
    return _split(view, xr.lo, xr.hi, yr.lo, yr.hi)[:2]


def first_lcs(view: MatchView, xr: IndexRange | None = None,
              yr: IndexRange | None = None) -> tuple[int, ...]:
    """Leftmost position sequence of an LCS of X[xr] and Y[yr].

    Positions are absolute 1-based indices into Y. Empty ranges (and
    pairs with no common character) yield the empty tuple.
    """
    xr, yr = _resolve_ranges(view, xr, yr)
    out: list[int] = []
    try:
        _first_lcs_into(view, xr.lo, xr.hi, yr.lo, yr.hi, out)
    finally:
        view._meter.shrink(len(out))
    return tuple(out)
