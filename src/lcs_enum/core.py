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
construction (:func:`_code`): a str pair stays str, byte-valued inputs
become two bytes, and anything else becomes two tuples, searched with
``tuple.index``. Each form has one forward search. The view also holds
its mirror, a view of the reversed searched pair that shares its meter:
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

from typing import Sequence

_CODABLE = (bytes, bytearray, tuple, list)
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


def _code(x: Sequence, y: Sequence) -> tuple[Sequence, Sequence] | None:
    """The pair in a form whose own find searches it exactly, or None.

    A str pair is returned unchanged. Two inputs that are exactly bytes,
    bytearray, tuple or list become two bytes when every token is an int
    in 0..255 equal to its byte. ``bytes()`` also takes any object with
    ``__index__``, so the round trip ``type(s)(bytes(s)) == s`` is what
    keeps two tokens with the same index but unequal apart.
    """
    if isinstance(x, str) and isinstance(y, str):
        return x, y
    if type(x) not in _CODABLE or type(y) not in _CODABLE:
        return None
    try:
        bx, by = bytes(x), bytes(y)
    except (TypeError, ValueError):
        return None
    if type(x)(bx) == x and type(y)(by) == y:
        return bx, by
    return None


def _bit_planes(x, y) -> dict:
    """Per-token bit-planes of Y for the tokens that X and Y share.

    Maps each shared token, as ``x`` holds it, to a little-endian bitset
    of ``(len(y) + 7) // 8`` bytes whose bit j - 1 is set when Y[j] is
    the token. The pair must be bytes or two ASCII str.
    """
    yb = y.encode() if isinstance(y, str) else y
    size = (len(yb) + 7) // 8
    planes = {}
    for t in set(x) & set(y):
        c = ord(t) if isinstance(t, str) else t
        s = yb.translate(_ONE_HOT[255 - c:511 - c])  # character k is Y[k + 1]
        # int(.., 2) reads its first character as the highest bit.
        planes[t] = int(s[::-1], 2).to_bytes(size, "little")
    return planes


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

    ``_x`` and ``_y`` hold the pair as searched: str, coded bytes, or
    two tuples. ``_find(seq, item, lo, hi)`` searches either side of it:
    the least 0-based k in [lo, hi) with seq[k] equal to ``item``, or
    -1. ``_mirror`` is the view of the reversed searched pair, whose
    own mirror is this view; the two share one meter, and assigning
    ``meter`` sets both. ``_planes`` is None unless the folds may take
    the bit form (the pair is bytes, or two ASCII str); then it is a
    dict that the view's first bit fold fills with :func:`_bit_planes`,
    and the mirror has its own. Every view :meth:`with_meter` makes
    shares both dicts. The searched pair, its mirror (n + m characters
    or bytes, or two tuples of references) and the planes, len_y bits
    per token X and Y share in each orientation, are read-only input
    storage, outside the cell count. ``y_slice`` renders the original Y
    (the mirror's renders its searched Y).

    Equality queries are pure: the answer to (i, j) never changes over
    the lifetime of the view. Concurrent read-only use is fine, but the
    meter is a plain counter; give each thread its own view via
    :meth:`with_meter` if per-thread counts matter.
    """

    __slots__ = ("_x", "_y", "_y_in", "len_x", "len_y", "_meter",
                 "_find", "_planes", "_mirror")

    def __init__(self, x: Sequence, y: Sequence, meter: Meter | None = None):
        if (isinstance(x, str) and isinstance(y, (bytes, bytearray))) or (
                isinstance(x, (bytes, bytearray)) and isinstance(y, str)):
            raise TypeError("cannot pair str with bytes input: decode the "
                            "bytes or encode the str first")
        self._y_in = y
        self.len_x = len(x)
        self.len_y = len(y)
        coded = _code(x, y)
        # tuple.index compares by identity, then ==.
        self._x, self._y = coded or (tuple(x), tuple(y))
        if coded is None:
            self._find = _index_find
            self._planes = None
        elif isinstance(y, str):
            self._find = str.find
            self._planes = {} if x.isascii() and y.isascii() else None
        else:
            self._find = bytes.find
            self._planes = {}
        mirror = self._mirror = object.__new__(MatchView)
        mirror._x, mirror._y = self._x[::-1], self._y[::-1]
        mirror._y_in = mirror._y
        mirror.len_x, mirror.len_y = self.len_x, self.len_y
        mirror._find = self._find
        mirror._planes = None if self._planes is None else {}
        mirror._mirror = self
        self.meter = meter if meter is not None else Meter()

    @property
    def meter(self) -> Meter:
        return self._meter

    @meter.setter
    def meter(self, meter: Meter) -> None:
        self._meter = self._mirror._meter = meter

    def with_meter(self, meter: Meter) -> "MatchView":
        """Same inputs, coded pair, mirror and planes; its own meter."""
        view, mirror = object.__new__(MatchView), object.__new__(MatchView)
        for name in MatchView.__slots__:
            setattr(view, name, getattr(self, name))
            setattr(mirror, name, getattr(self._mirror, name))
        view._mirror, mirror._mirror = mirror, view
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
