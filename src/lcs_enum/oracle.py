"""Quadratic-space reference answers for cross-checking the enumerator.

Everything here is deliberately naive: a full DP length table, a
memoized traceback that collects the set of distinct LCS strings, and
an even slower generator that tries every index combination. A suffix
table walk gives the first of those sequences at any size. The two
disagree-by-construction implementations exist so the fast enumerator
can be validated against answers produced two independent ways.

Canonical form matches the enumerator's: each distinct LCS string is
reported once, as the positions of its leftmost embedding into Y, and
the sequences are sorted lexicographically. Oracle storage is not
charged to the view's cell meter (only probes are counted, and only
because `eq` always counts); it exists to be correct, not frugal.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .core import MatchView

# Beyond these sizes the distinct-LCS set can explode; the guards keep
# accidental misuse from looking like a hang.
_MAX_TRACEBACK_LEN = 14
_MAX_EXHAUSTIVE_LEN = 10


def dp_table(view: MatchView) -> list[list[int]]:
    """(len_x+1) x (len_y+1) table t, t[i][j] = L(X[1..i], Y[1..j])."""
    m, n = view.len_x, view.len_y
    t = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        row, above = t[i], t[i - 1]
        for j in range(1, n + 1):
            if view.eq(i, j):
                row[j] = above[j - 1] + 1
            else:
                row[j] = above[j] if above[j] >= row[j - 1] else row[j - 1]
    return t


def lcs_length(view: MatchView) -> int:
    return dp_table(view)[view.len_x][view.len_y]


def _leftmost_embedding(y, chars: tuple) -> tuple[int, ...]:
    positions = []
    j = 0
    for c in chars:
        j += 1
        while not ((e := y[j - 1]) is c or e == c):
            j += 1
        positions.append(j)
    return tuple(positions)


def all_lcs_position_sequences(view: MatchView) -> list[tuple[int, ...]]:
    """All distinct LCSs as leftmost Y-position tuples, sorted."""
    if max(view.len_x, view.len_y) > _MAX_TRACEBACK_LEN:
        raise ValueError(
            f"oracle traceback limited to inputs of length "
            f"{_MAX_TRACEBACK_LEN}")
    t = dp_table(view)
    # Y read once, in its own type; tuple and list inputs keep their objects.
    y = view.y_slice(range(1, view.len_y + 1))

    @lru_cache(maxsize=None)
    def strings(i: int, j: int) -> frozenset:
        # Distinct LCS strings of X[1..i], Y[1..j], as char tuples.
        if t[i][j] == 0:
            return frozenset({()})
        out = set()
        if i > 0 and j > 0 and view.eq(i, j):
            out.update(s + (y[j - 1],) for s in strings(i - 1, j - 1))
        if i > 0 and t[i - 1][j] == t[i][j]:
            out.update(strings(i - 1, j))
        if j > 0 and t[i][j - 1] == t[i][j]:
            out.update(strings(i, j - 1))
        return frozenset(out)

    all_strings = strings(view.len_x, view.len_y)
    strings.cache_clear()
    return sorted(_leftmost_embedding(y, s) for s in all_strings)


def leftmost_lcs_positions(view: MatchView) -> tuple[int, ...]:
    """The lexicographically least LCS position sequence, any input size.

    Equals ``all_lcs_position_sequences(view)[0]`` without collecting the
    set, so it checks ``first_lcs`` past the traceback's size guard. A
    suffix table s[i][j] = L(X[i..], Y[j..]) gives every level, then the
    walk takes the least j' whose least match i' still reaches the
    needed level: a later i' only leaves less of X. Each j' is tried
    once, so the walk adds at most len_x * len_y probes to the table's.
    """
    m, n = view.len_x, view.len_y
    s = [[0] * (n + 2) for _ in range(m + 2)]
    for i in range(m, 0, -1):
        row, below = s[i], s[i + 1]
        for j in range(n, 0, -1):
            if view.eq(i, j):
                row[j] = below[j + 1] + 1
            else:
                row[j] = below[j] if below[j] >= row[j + 1] else row[j + 1]
    out = []
    i, j, need = 1, 1, s[1][1]
    while need:
        i_match = i
        while i_match <= m and not view.eq(i_match, j):
            i_match += 1
        if i_match <= m and s[i_match + 1][j + 1] == need - 1:
            out.append(j)
            i, need = i_match + 1, need - 1
        j += 1
    return tuple(out)


def exhaustive_lcs_position_sequences(view: MatchView) -> list[tuple[int, ...]]:
    """Same answer as :func:`all_lcs_position_sequences`, even more naively.

    Tries every combination of L positions of Y, keeps those whose
    characters form a subsequence of X, and dedupes by string. Shares
    no traceback logic with the other oracle.
    """
    if max(view.len_x, view.len_y) > _MAX_EXHAUSTIVE_LEN:
        raise ValueError(
            f"exhaustive oracle limited to inputs of length "
            f"{_MAX_EXHAUSTIVE_LEN}")
    length = lcs_length(view)
    if length == 0:
        return [()]
    y = view.y_slice(range(1, view.len_y + 1))
    seen = set()
    for combo in combinations(range(1, view.len_y + 1), length):
        chars = tuple(y[j - 1] for j in combo)
        if chars in seen:
            continue
        # Two-pointer subsequence-of-X check.
        i = 0
        ok = True
        for j in combo:
            i += 1
            while i <= view.len_x and not view.eq(i, j):
                i += 1
            if i > view.len_x:
                ok = False
                break
        if ok:
            seen.add(chars)
    return sorted(_leftmost_embedding(y, s) for s in seen)
