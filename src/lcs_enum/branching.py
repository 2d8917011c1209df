"""Find where the successor of an output position sequence branches off.

Given the position sequence P that was just emitted, ``find_branch``
locates the pair (k*, j*): the successor of P in the enumeration order
agrees with P before position k*, holds j* at position k*, and is the
leftmost continuation afterwards. If no successor exists, P was the
final output.

The search walks k from |P| down to 1. For each k it tries every
replacement j* > P[k] in increasing order and asks two things: can
Y[P[1..k-1]] followed by Y[j*] still be embedded with the greedy
leftmost rule (ending at some X position at or before the current scan
frontier i*), and do the remaining inputs after that embedding still
admit |P| - k more common characters? The first question is answered by
searching X for a match; the second by a suffix threshold sequence for
X[i*+1..] against all of Y, maintained incrementally as the prefix
thresholds of the view's mirror (its rows 1, 2, .. are X[|X|],
X[|X| - 1], ..): a row fold adds a row of X in O(|Y|) probes, and the
rows i* has passed since the last check are folded in one run, in
decreasing i, just before each check (and before the search returns).
i* never moves right, so a whole call folds at most |X| rows and
charges O(|X| * |Y|) probes overall while keeping O(L) integers.

The rows start in the list form of :mod:`lcs_enum.hirschberg` and
switch to its bit form where its one fold switches, over w = |Y|
positions: with bit-planes, at a level per 64 positions of Y if
|Y| >= 64, else before the first row. From then on the thresholds are
the 0-bits of one |Y|-bit integer, bit |Y| - j standing for j, each
row's mask is its token's whole plane in the mirror, and the second
question is one ``bit_count`` of the bits above j*.

X is searched with the view's bound search, charged what a scan with
early exit would cost. The greedy embedding is one loop charged once:
scans that each resume past the previous match telescope to i probes
for an embedding ending at i.

The hit that finds j* also ends the greedy embedding of the successor's
prefix P[1..k*-1], j*. The search returns that X frontier with (k*, j*),
and the enumerator carries it to its next call. There the restart
starts past it, and the next search walks only the new tail P[k*+1..];
it walks the kept prefix again only if it descends to k <= k*. It also
returns a mark: the embedding end of some P[1..k_mark] with k_mark < k*,
kept from the call before while it stays below k*, else the base of
level k*. Given the mark, a descent walks the kept prefix from there
and walks P[1..k_mark - 1] from X[1] only if it descends to k_mark.
Each call is still charged the paper's full embedding of P, the
telescoped end of the whole walk: charged, not performed, as the
threshold folds charge whole rows.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, NamedTuple, Sequence

from .core import MatchView
from .hirschberg import _FRAME_CELLS, _fold


class BranchPoint(NamedTuple):
    k_star: int  # 1-based position within P where the successor departs
    j_star: int  # the successor's Y index at that position


def _check_positions(view: MatchView, positions: Iterable[int]) -> None:
    """Raise IndexError for a position outside 1..len_y, ValueError if the
    positions do not increase strictly. No probe, no cell."""
    len_y = view.len_y
    prev = 0
    for j in positions:
        if not prev < j <= len_y:
            raise (ValueError if 1 <= j <= len_y else IndexError)(
                f"position {j} after {prev}: not in {prev + 1}..{len_y}")
        prev = j


def _embed(view: MatchView, positions: Iterable[int], i: int,
           q: list[int]) -> int:
    """End of the leftmost embedding of Y[positions] into X[i+1..], each X
    position appended to ``q``; ``i`` if there are no positions.

    Uncharged: the caller charges the end, what scans that each resume
    past the previous match cost from X[1]. A failed embedding charges
    len_x probes, what its scans would cost, and raises ValueError.
    """
    x, y, find, len_x = view._x, view._y, view._find, view.len_x
    for j in positions:
        # The search is 0-based: the match at index k is X position k + 1.
        i = find(x, y[j - 1], i, len_x) + 1
        if not i:
            view._meter.eq_queries += len_x
            raise ValueError("sequence does not embed into the first input")
        q.append(i)
    return i


def greedy_embedding(view: MatchView, positions: Iterable[int]) -> list[int]:
    """Leftmost X positions embedding Y[positions], one scan of X.

    Raises IndexError for a position outside 1..len_y, ValueError if the
    positions do not increase strictly or do not embed into X. Every
    position is checked before the first probe, so a bad position raises
    even after a prefix that would not embed, and charges nothing.
    """
    positions = tuple(positions)  # read twice: checked, then walked
    _check_positions(view, positions)
    q: list[int] = []
    view._meter.eq_queries += _embed(view, positions, 0, q)
    return q


def find_branch(view: MatchView, positions: Sequence[int]) -> BranchPoint | None:
    """Branch point of the successor of ``positions``, or None if it is last.

    ``positions`` must be an output of the enumeration (leftmost
    canonical LCS positions); other inputs raise the errors of
    :func:`greedy_embedding` or give an unspecified result.
    """
    _check_positions(view, positions)
    branch = _branch_search(view, positions, 0, 0)
    return None if branch is None else BranchPoint(*branch[:2])


def _branch_search(view: MatchView, positions: Sequence[int], k_kept: int,
                   i_kept: int, k_mark: int = 0, i_mark: int = 0
                   ) -> tuple[int, int, int, int, int] | None:
    """(k*, j*, end of the greedy embedding of the successor's P[1..k*],
    k_mark', i_mark'), or None if ``positions`` is the last output.

    ``i_kept`` is the end of the greedy embedding of P[1..k_kept] (0 when
    k_kept is 0), and ``i_mark`` that of P[1..k_mark] for some
    0 < k_mark < k_kept, or (0, 0) for no mark; the positions are valid.
    The returned mark is the given one if 0 < k_mark < k*, else
    (k* - 1, end of P[1..k* - 1]): the lowest that stays valid for the
    successor. Probes and cells are those of a search that embeds all of
    P from X[1].
    """
    meter = view._meter
    mirror = view._mirror
    x, y, find, len_y = view._x, view._y, view._find, view.len_y
    n1, m1 = view.len_x + 1, len_y + 1
    length = len(positions)
    # q[k]: least X end embedding Y[P[1..k]] (q[0] = 0), charged before the
    # walk's probes; t[l-1]: least j' with L(X[i*+1..], Y[m1-j'..]) = l, the
    # mirror's prefix threshold for the greatest such start m1 - j'.
    # q is a stack read from the top; it holds q[0] and q[k_kept..] until
    # the search reaches k_walk = k_kept, which walks the kept prefix to
    # fill it: from the mark, pushing q[k_mark] and making k_mark the next
    # k_walk, if one lies below; else from X[1].
    live = meter.live_cells
    meter.grow(_FRAME_CELLS + 1 + length)
    q = [0, i_kept] if k_kept else [0]
    t: list[int] = []
    # Once _fold switches, the thresholds are the 0-bits of v, bit
    # j' - 1 = len_y - j standing for j: the rows span all of Y.
    v = None
    try:
        meter.eq_queries += _embed(view, islice(positions, k_kept, None),
                                   i_kept, q)
        # The thresholds hold X[folded + 1..]; the rows X[folded], ..,
        # X[i_star + 1] that i* has passed since are folded in one run
        # before the next residual check, or before the search returns.
        folded = i_star = view.len_x
        k_walk = k_kept
        for k in range(length, 0, -1):
            end = q.pop()
            if i_star >= end:
                i_star = end - 1  # X[end..folded] wait for the next run
            if k == k_walk:
                if 0 < k_mark < k:
                    q.append(i_mark)
                    _embed(view, islice(positions, k_mark, k - 1), i_mark, q)
                    k_walk = k_mark
                else:
                    _embed(view, islice(positions, k - 1), 0, q)
            base = q[-1]
            need = length - k
            for j_star in range(positions[k - 1] + 1, len_y + 1):
                if base >= i_star:
                    break  # an empty X range: no match and no probe
                # 0-based hit h: a scan from base + 1 costs h + 1 - base.
                hit = find(x, y[j_star - 1], base, i_star)
                if hit < 0:
                    meter.eq_queries += i_star - base
                    continue
                meter.eq_queries += hit + 1 - base
                i_star = hit + 1  # X[hit + 2..folded] wait too, if any
                v = _fold(mirror, range(n1 - folded, n1 - i_star), 1, len_y,
                          t, v)
                folded = i_star
                # Residual check: the inputs after (i_star, j_star) must reach
                # level need; more would contradict L being the LCS length.
                # In the bit form, the levels above j_star are the 0-bits
                # below bit b = len_y - j_star.
                if need == 0:
                    found = True
                elif v is None:
                    found = len(t) >= need and t[need - 1] < m1 - j_star
                else:
                    b = len_y - j_star
                    found = b - (v & ((1 << b) - 1)).bit_count() >= need
                if found:
                    # base ends P[1..k - 1], which the successor keeps.
                    return ((k, j_star, i_star, k_mark, i_mark)
                            if 0 < k_mark < k
                            else (k, j_star, i_star, k - 1, base))
                # Larger i*, j* pairs cannot help once this one failed;
                # X[i_star] waits for the next run with the others.
                i_star -= 1
        v = _fold(mirror, range(n1 - folded, n1 - i_star), 1, len_y, t, v)
        return None
    finally:
        # Nothing the search charges is released before it ends, so its
        # levels are charged once, here, and the peak is the one a charge
        # per new level would set. In the bit form they are v's 0-bits.
        meter.grow(len(t) if v is None else len_y - v.bit_count())
        meter.shrink(meter.live_cells - live)
