"""Input access model, index conventions, and shared value types.

All indices are 1-based at module boundaries: position i refers to X[i],
position j to Y[j], matching the usual string-algorithm convention. An
LCS occurrence is represented as a strictly increasing tuple of 1-based
positions into Y (the "position sequence"); the string itself is
recovered by reading Y at those positions.

The two inputs are wrapped in a :class:`MatchView`, which exposes only
their lengths, positionwise equality queries X[i] == Y[j], and read
access to Y (needed to render output strings). Algorithms built on top
of the view reach the inputs only through it, and the attached
:class:`Meter` accounts for every equality probe.

The view fixes the form in which it searches the pair once, at
construction (:func:`_code`): a pair whose tokens fit 256 codes becomes
two str of codes 0..255, searched with ``str.find`` and given
bit-planes; any other str pair stays str, searched with ``str.find``,
and anything else becomes two tuples, searched with ``tuple.index``.
Each form has one forward search. The view also holds its mirror, a
view of the reversed searched pair that shares its meter:
X[i] is the mirror's X[len_x + 1 - i] and Y[j] its Y[len_y + 1 - j], so
every backward question about the pair is a forward one about the
mirror. Its one scan primitive, :meth:`MatchView.next_y_match`, charges
the probes a left-to-right scan with early exit would make, so probe
counts never depend on the search underneath. The threshold folds and
the branch search (:mod:`lcs_enum.hirschberg`, :mod:`lcs_enum.branching`)
call the unmetered search of the view or of its mirror directly and
charge the meter themselves.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Sequence

_CODABLE = (str, bytes, bytearray, tuple, list)
_TOKENS = {str, bytes, int, bool}
# Byte value c selects _ONE_HOT[255 - c:511 - c], a translate table that
# maps byte c to b"1" and every other byte to b"0".
_ONE_HOT = b"0" * 255 + b"1" + b"0" * 255


class Meter:
    """Running totals for equality probes and live auxiliary index cells.

    ``eq_queries`` counts positionwise equality probes and only ever
    grows. ``live_cells`` tracks the number of auxiliary integer cells
    (threshold levels, embeddings, output buffers, the frames of the
    restart's range stack and of the branch search) currently allocated
    by the algorithms; ``peak_cells`` records its
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


def _code(x: Sequence, y: Sequence) -> tuple[str, str] | None:
    """The pair as two str of codes 0..255 that match where the tokens
    do, or None.

    Two inputs that are each a str, bytes, bytearray, tuple or list are
    coded when every distinct token is exactly str, bytes, int or bool,
    whose hash agrees with ==, and the codes fit in 256: one per shared
    token, one for all tokens only in X and one for all tokens only in Y.
    Which code a token gets follows set order, so nothing may depend on
    it.
    """
    if not (isinstance(x, _CODABLE) and isinstance(y, _CODABLE)):
        return None
    try:
        xs, ys = set(x), set(y)
    except TypeError:  # an unhashable token
        return None
    shared = xs & ys
    k = len(shared)
    only_x = len(xs) > k
    if (k + only_x + (len(ys) > k) > 256
            or not {*map(type, xs | ys)} <= _TOKENS):
        return None
    code = dict.fromkeys(ys, chr(k + only_x))
    code.update(dict.fromkeys(xs, chr(k)))
    code.update(zip(shared, map(chr, range(k))))
    # itemgetter looks the tokens up in one C call, about x0.75 of map's
    # time on 128 tokens; it takes at least one key.
    return tuple(s.translate({ord(t): code[t] for t in ts}) if type(s) is str
                 else "".join(itemgetter(*s)(code)) if s else ""
                 for s, ts in ((x, xs), (y, ys)))


def _bit_planes(x: str, y: str) -> dict:
    """Per-code bit-planes of Y for the codes of X, a coded pair.

    Maps each code of X to a little-endian bitset of ``(len(y) + 7) //
    8`` bytes whose bit j - 1 is set when Y[j] is the code; the plane of
    the code of the tokens only in X is zeros.
    """
    yb = y.encode("latin-1")
    size = (len(yb) + 7) // 8
    planes = {}
    for t in set(x):
        c = ord(t)
        s = yb.translate(_ONE_HOT[255 - c:511 - c])  # character k is Y[k + 1]
        # int(.., 2) reads its first character as the highest bit.
        planes[t] = int(s[::-1], 2).to_bytes(size, "little")
    return planes


class _WindowTables(dict):
    """Window tables of one orientation's bit-planes, each code's built
    on its first read.

    Maps a code of X to a list whose entry k holds bits 64k..64k + 127 of
    its plane as an int, so a window under 64 positions is one list
    index and a shift. The code of X's tokens absent from Y has a plane
    of zeros, at most one per orientation, ceil(len_y / 8) bytes, and
    its table is built from it like any other. The planes must be built
    before the first read. Two threads may both build a code's table;
    either copy is right.
    """

    __slots__ = ("_planes",)

    def __init__(self, planes: dict):
        self._planes = planes

    def __missing__(self, code) -> list[int]:
        plane = self._planes[code]
        table = self[code] = [int.from_bytes(plane[a:a + 16], "little")
                               for a in range(0, len(plane), 8)]
        return table


def _index_find(seq, item, lo: int, hi: int) -> int:
    try:
        return seq.index(item, lo, hi)
    except ValueError:
        return -1


class MatchView:
    """Read-only view of an input pair (X, Y) with metered access.

    Two tokens are equal when they are the same object or compare equal
    with ``==`` (the rule tuple.index uses), so one shared NaN object
    matches itself; equality is assumed symmetric. A str input paired
    with a bytes input is rejected: they share no token, which almost
    always means one side was not decoded.

    ``_x`` and ``_y`` hold the pair as searched: two str of codes
    (:func:`_code`), a str pair that cannot be coded, or two tuples.
    ``_find(seq, item, lo, hi)`` searches either side of it: the least
    0-based k in [lo, hi) with seq[k] equal to ``item``, or -1.
    ``_mirror`` is the view of the reversed searched pair; the two share
    one meter, and assigning ``meter`` sets both. The mirror's own
    ``_mirror`` is None, so a view and its mirror form no reference
    cycle and are freed with their last reference. ``_planes`` and
    ``_tables`` are None unless the pair is coded; then ``_planes`` is a
    dict that the view's first bit fold fills with :func:`_bit_planes`,
    ``_tables`` its :class:`_WindowTables`, and the mirror has its own.
    ``_checkpoint`` is a list, empty until a fold over all of Y from the
    view's first row switches to the bit form and records in it the
    switch's row and V (:func:`lcs_enum.hirschberg._fold`); the mirror
    has its own. Every view :meth:`with_meter` makes shares all four
    dicts and both lists. The searched pair, its mirror (n + m
    characters, or two tuples of references), the planes, len_y bits per
    code of X in each orientation (one code per token X and Y share, and
    at most one more, of zeros, for the tokens only in X), the tables,
    about len_y / 64 ints of up to 128 bits per code a narrow kernel has
    read in each orientation, and the checkpoints, one int of len_y bits
    (ceil(len_y / 64) words) in each orientation, are read-only input
    storage, outside the cell count. ``y_slice`` renders the original Y
    (the mirror's renders its searched Y).

    Equality queries are pure: the answer to (i, j) never changes over
    the lifetime of the view. Concurrent read-only use is fine, but the
    meter is a plain counter; give each thread its own view via
    :meth:`with_meter` if per-thread counts matter.
    """

    __slots__ = ("_x", "_y", "_y_in", "len_x", "len_y", "_meter",
                 "_find", "_planes", "_tables", "_checkpoint", "_mirror")

    def __init__(self, x: Sequence, y: Sequence):
        if (isinstance(x, str) and isinstance(y, (bytes, bytearray))) or (
                isinstance(x, (bytes, bytearray)) and isinstance(y, str)):
            raise TypeError("cannot pair str with bytes input: decode the "
                            "bytes or encode the str first")
        self._y_in = y
        self.len_x = len(x)
        self.len_y = len(y)
        coded = _code(x, y)
        # tuple.index compares by identity, then ==.
        self._x, self._y = coded or (
            (x, y) if isinstance(x, str) and isinstance(y, str)
            else (tuple(x), tuple(y)))
        self._find = str.find if isinstance(self._x, str) else _index_find
        mirror = self._mirror = object.__new__(MatchView)
        mirror._x, mirror._y = self._x[::-1], self._y[::-1]
        mirror._y_in = mirror._y
        mirror.len_x, mirror.len_y = self.len_x, self.len_y
        mirror._find = self._find
        for v in (self, mirror):
            v._planes = {} if coded else None
            v._tables = _WindowTables(v._planes) if coded else None
            v._checkpoint = []
        mirror._mirror = None
        self.meter = Meter()

    @property
    def meter(self) -> Meter:
        return self._meter

    @meter.setter
    def meter(self, meter: Meter) -> None:
        self._meter = self._mirror._meter = meter

    def with_meter(self, meter: Meter) -> "MatchView":
        """Same inputs, coded pair, planes, tables and checkpoints; its own
        meter, and its own copy of the mirror, which shares that meter."""
        view, mirror = object.__new__(MatchView), object.__new__(MatchView)
        for name in MatchView.__slots__:
            setattr(view, name, getattr(self, name))
            setattr(mirror, name, getattr(self._mirror, name))
        view._mirror = mirror
        view.meter = meter
        return view

    def eq(self, i: int, j: int) -> bool:
        """Whether X[i] == Y[j] under the token rule. One metered probe."""
        if not (1 <= i <= self.len_x and 1 <= j <= self.len_y):
            raise IndexError(f"eq({i}, {j}) outside 1..{self.len_x} x 1..{self.len_y}")
        self._meter.eq_queries += 1
        a = self._x[i - 1]
        b = self._y[j - 1]
        return a is b or a == b

    def y_slice(self, positions: Sequence[int]):
        """Y read at the given positions, in Y's own type
        (str/bytes/bytearray, any other sequence as a tuple)."""
        y = self._y_in
        if isinstance(y, str):
            return "".join(y[j - 1] for j in positions)
        if isinstance(y, bytes):
            return bytes(y[j - 1] for j in positions)
        if isinstance(y, bytearray):
            return bytearray(y[j - 1] for j in positions)
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
        k = self._find(self._y, self._x[i - 1], j_lo - 1, j_hi)
        if k < 0:
            self._meter.eq_queries += j_hi - j_lo + 1
            return None
        self._meter.eq_queries += k + 2 - j_lo
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
