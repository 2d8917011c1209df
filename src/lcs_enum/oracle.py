"""Quadratic-space reference answers for cross-checking the enumerator.

Everything here is deliberately naive: a full DP length table, a
memoized traceback that collects the set of distinct LCS strings, and
an even slower generator that tries every index combination. A suffix
table walk yields the same sequences lazily at any size, the first of
them included. The two disagree-by-construction implementations exist
so the fast enumerator can be validated against answers produced two
independent ways.

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


def lcs_position_stream(view: MatchView):
    """Yield every distinct LCS as leftmost Y positions, in lexicographic
    order, lazily, at any input size.

    Equals ``iter(all_lcs_position_sequences(view))`` without collecting
    the set, so it checks the enumerator past the traceback's size
    guard. With t[i][j] = L(X[i..], Y[j..]), a distinct LCS of X[i..],
    Y[j..] is a token c, at its first occurrences a = nx(i, c) in X and
    b = ny(j, c) in Y, followed by a distinct LCS of X[a+1..], Y[b+1..];
    c qualifies when t[a + 1][b + 1] = t[i][j] - 1. A depth-first walk
    that takes these children in increasing b yields the leftmost
    positions in the enumerator's order. nx and ny are tables too, and
    the walk keeps an explicit stack, since L may run to the hundreds.
    """
    m, n = view.len_x, view.len_y
    t = [[0] * (n + 2) for _ in range(m + 2)]
    nx = [[m + 1] * (n + 2) for _ in range(m + 2)]  # least a >= i, X[a] = Y[j]
    ny = [[n + 1] * (n + 2) for _ in range(m + 2)]  # least b >= j, Y[b] = X[i]
    for i in range(m, 0, -1):
        row, below, nx_row, ny_row = t[i], t[i + 1], nx[i], ny[i]
        for j in range(n, 0, -1):
            if view.eq(i, j):
                row[j] = below[j + 1] + 1
                nx_row[j], ny_row[j] = i, j
            else:
                row[j] = below[j] if below[j] >= row[j + 1] else row[j + 1]
                nx_row[j], ny_row[j] = nx[i + 1][j], ny_row[j + 1]
    if t[1][1] == 0:
        yield ()
        return
    path: list[int] = []
    stack = [[1, 1, 1]]  # a node (i, j) and the next b to try as a child
    while stack:
        frame = stack[-1]
        i, j, b = frame
        level = t[i][j]
        # b is the first occurrence of its token in Y[j..] if ny finds it.
        while b <= n and not ((a := nx[i][b]) <= m and ny[a][j] == b
                              and t[a + 1][b + 1] == level - 1):
            b += 1
        if b > n:
            stack.pop()
            if path:
                path.pop()
            continue
        frame[2] = b + 1
        path.append(b)
        if level == 1:
            yield tuple(path)
            path.pop()
        else:
            stack.append([a + 1, b + 1, b + 1])


def leftmost_lcs_positions(view: MatchView) -> tuple[int, ...]:
    """The lexicographically least LCS position sequence, any input size.

    Equals ``all_lcs_position_sequences(view)[0]`` without collecting the
    set, so it checks ``first_lcs`` past the traceback's size guard: the
    first output of :func:`lcs_position_stream`.
    """
    return next(lcs_position_stream(view))


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
