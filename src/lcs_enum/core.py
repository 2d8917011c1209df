"""Input access model, index conventions, and shared value types.

All indices are 1-based at module boundaries: position i refers to X[i],
position j to Y[j], matching the usual string-algorithm convention. An
LCS occurrence is represented as a strictly increasing tuple of 1-based
positions into Y (the "position sequence"); the string itself is
recovered by reading Y at those positions.

The two inputs are wrapped in a :class:`MatchView`, which exposes only
their lengths, positionwise equality queries X[i] == Y[j], and read
access to Y (needed to render output strings). Algorithms built on top
of the view reach the inputs only through it, so the view can be
backed by str, bytes, or token lists without copying, and the attached
:class:`Meter` can account for every equality probe.

Besides single queries, the view offers one scan primitive,
:meth:`MatchView.next_y_match` (the first match of X[i] in a Y range).
It charges the meter for exactly the probes a sequential left-to-right
scan with early exit would perform, so query counts are identical to a
naive character-by-character implementation whatever the search
underneath. The view binds its searches once, at construction:
str.find/rfind when both inputs are str, bytes.find/rfind when both are
bytes, tuple.index/list.index for forward searches over a tuple or
list, and a plain element loop for everything else. The threshold folds
and the branch search (:mod:`lcs_enum.hirschberg`,
:mod:`lcs_enum.branching`) call these unmetered searches directly and
charge the meter themselves.
"""

from __future__ import annotations

from typing import Callable, Sequence

_BYTES = (bytes, bytearray)
_Search = Callable[[Sequence, object, int, int], int]


class Meter:
    """Running totals for equality probes and live auxiliary index cells.

    ``eq_queries`` counts positionwise equality probes and only ever
    grows. ``live_cells`` tracks the number of auxiliary integer cells
    (threshold levels, embeddings, output buffers, recursion frames)
    currently allocated by the algorithms; ``peak_cells`` records its
    high-water mark. Inputs, outputs handed to the caller, and the
    quadratic reference oracle are outside the accounting scope.
    """

    __slots__ = ("eq_queries", "live_cells", "peak_cells")

    def __init__(self) -> None:
        self.eq_queries = 0
        self.live_cells = 0
        self.peak_cells = 0

    def grow(self, n: int = 1) -> None:
        self.live_cells += n
        if self.live_cells > self.peak_cells:
            self.peak_cells = self.live_cells

    def shrink(self, n: int = 1) -> None:
        self.live_cells -= n
        if self.live_cells < 0:
            raise RuntimeError("cell accounting went negative (allocation bug)")

    def __repr__(self) -> str:
        return (f"Meter(eq_queries={self.eq_queries}, "
                f"live_cells={self.live_cells}, peak_cells={self.peak_cells})")


def _index_find(seq, item, lo: int, hi: int) -> int:
    try:
        return seq.index(item, lo, hi)
    except ValueError:
        return -1


def _loop_find(seq, item, lo: int, hi: int) -> int:
    for k in range(lo, hi):
        e = seq[k]
        if e is item or e == item:
            return k
    return -1


def _loop_rfind(seq, item, lo: int, hi: int) -> int:
    for k in range(hi - 1, lo - 1, -1):
        e = seq[k]
        if e is item or e == item:
            return k
    return -1


def _searches(seq: Sequence, other: Sequence) -> tuple[_Search, _Search]:
    """Unmetered forward and backward searches over ``seq`` for elements
    of ``other``.

    ``find(seq, item, lo, hi)`` is the least 0-based k in [lo, hi) with
    seq[k] equal to ``item``, ``rfind`` the greatest; both return -1 when
    there is none. Equality is the token rule of :class:`MatchView`.
    Substring search is exact only when every element of ``other`` is a
    single character (byte) of ``seq``'s own type, so str.find/rfind and
    bytes.find/rfind serve only same-type pairs. tuple.index and
    list.index already compare with the token rule; the rest is a plain
    element loop.
    """
    if isinstance(seq, str) and isinstance(other, str):
        return str.find, str.rfind
    if isinstance(seq, bytes) and isinstance(other, bytes):
        return bytes.find, bytes.rfind
    if isinstance(seq, (tuple, list)):
        return _index_find, _loop_rfind
    return _loop_find, _loop_rfind


class MatchView:
    """Read-only view of an input pair (X, Y) with metered access.

    Two tokens are equal when they are the same object or compare equal
    with ``==`` (the rule tuple.index uses), so one shared NaN object
    matches itself; equality is assumed symmetric. A str input paired
    with a bytes input is rejected: they share no token, which almost
    always means one side was not decoded.

    Equality queries are pure: the answer to (i, j) never changes over
    the lifetime of the view. Concurrent read-only use is fine, but the
    meter is a plain counter; give each thread its own view via
    :meth:`with_meter` if per-thread counts matter.
    """

    __slots__ = ("_x", "_y", "len_x", "len_y", "meter",
                 "_x_find", "_y_find", "_y_rfind")

    def __init__(self, x: Sequence, y: Sequence, meter: Meter | None = None):
        if (isinstance(x, str) and isinstance(y, _BYTES)) or (
                isinstance(x, _BYTES) and isinstance(y, str)):
            raise TypeError("cannot pair str with bytes input: decode the "
                            "bytes or encode the str first")
        self._x = x
        self._y = y
        self.len_x = len(x)
        self.len_y = len(y)
        self.meter = meter if meter is not None else Meter()
        self._x_find = _searches(x, y)[0]
        self._y_find, self._y_rfind = _searches(y, x)

    def with_meter(self, meter: Meter) -> "MatchView":
        """Same underlying inputs, separate instrumentation."""
        return MatchView(self._x, self._y, meter)

    def eq(self, i: int, j: int) -> bool:
        """Whether X[i] == Y[j] under the token rule. One metered probe."""
        if not (1 <= i <= self.len_x and 1 <= j <= self.len_y):
            raise IndexError(f"eq({i}, {j}) outside 1..{self.len_x} x 1..{self.len_y}")
        self.meter.eq_queries += 1
        a = self._x[i - 1]
        b = self._y[j - 1]
        return a is b or a == b

    def y_slice(self, positions: Sequence[int]):
        """Y read at the given positions, in Y's own type (str/bytes/tuple)."""
        y = self._y
        if isinstance(y, str):
            return "".join(y[j - 1] for j in positions)
        if isinstance(y, bytes):
            return bytes(y[j - 1] for j in positions)
        return tuple(y[j - 1] for j in positions)

    def next_y_match(self, i: int, j_lo: int, j_hi: int) -> int | None:
        """Least j in [j_lo, j_hi] with X[i] == Y[j], scanning upward.

        Charges the probes of a sequential scan with early exit, so a walk
        over a whole range by repeated calls costs one probe per position,
        the same as scanning it once.
        """
        if j_lo > j_hi:
            return None
        if not (1 <= i <= self.len_x and 1 <= j_lo and j_hi <= self.len_y):
            raise IndexError(f"next_y_match({i}, {j_lo}, {j_hi}) out of range")
        k = self._y_find(self._y, self._x[i - 1], j_lo - 1, j_hi)
        if k < 0:
            self.meter.eq_queries += j_hi - j_lo + 1
            return None
        self.meter.eq_queries += k + 2 - j_lo
        return k + 1

    def __repr__(self) -> str:
        return f"MatchView(len_x={self.len_x}, len_y={self.len_y})"


class IndexRange:
    """1-based inclusive range [lo, hi]; hi == lo - 1 encodes the empty range."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int) -> None:
        if lo < 1 or hi < lo - 1:
            raise ValueError(f"invalid range [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    @property
    def length(self) -> int:
        return self.hi - self.lo + 1

    @classmethod
    def full(cls, n: int) -> "IndexRange":
        return cls(1, n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IndexRange):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __repr__(self) -> str:
        return f"IndexRange({self.lo}, {self.hi})"
