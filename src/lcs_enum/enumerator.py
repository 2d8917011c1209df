"""Stream every distinct LCS of two strings in lexicographic order.

Each distinct longest common subsequence is emitted exactly once, as
the strictly increasing tuple of 1-based Y positions of its leftmost
occurrence, and outputs arrive in lexicographic order of those tuples.
The work between two consecutive outputs is O(len_x * len_y) equality
probes and the auxiliary state is O(L) integers plus an O(log len_x)
range stack, however many outputs there are.

One iteration: keep the prefix of the current buffer up to the branch
index found after the previous output, append the leftmost LCS of what
remains of both inputs past that prefix, emit, then search for the next
branch point. The remainder of X starts after the greedy embedding of
the kept prefix. The branch search found that embedding's end with the
branch point, so it is carried over, not walked again; the next search
starts from it and walks only the new tail. The search also returns a
mark, the embedding end of a shorter prefix, which the enumerator
carries as two ints: a later search that descends into the kept prefix
walks it from the mark, not from X[1]. The probes still count the
paper's full re-embedding of the prefix and of the whole output: they
are charged, not performed, as the threshold folds already charge whole
rows. The instrumentation counters close one "delay" per emitted output
and a final one when exhaustion is detected, so the probe counts of
every gap (before the first output, between outputs, after the last)
are observable.

    >>> from lcs_enum import MatchView, LcsEnumerator
    >>> list(LcsEnumerator(MatchView("ab", "ab")))
    [(1, 2)]
"""

from __future__ import annotations

from typing import Sequence

from .core import MatchView, Meter
from .branching import _branch_search
from .hirschberg import _first_lcs_into


class Counters:
    """Per-enumeration instrumentation: probe gaps, peak cells, outputs."""

    __slots__ = ("_meter", "_mark", "outputs_emitted", "max_delay",
                 "gaps_closed")

    def __init__(self, meter: Meter):
        self._meter = meter
        self._mark = 0
        self.outputs_emitted = 0
        self.max_delay = 0
        self.gaps_closed = 0

    @property
    def eq_queries_total(self) -> int:
        return self._meter.eq_queries

    @property
    def peak_aux_cells(self) -> int:
        return self._meter.peak_cells

    @property
    def mean_delay(self) -> float:
        # The closed gaps run from probe 0 to the mark, so they sum to it.
        return self._mark / self.gaps_closed if self.gaps_closed else 0.0

    def _close_gap(self, at: int) -> None:
        """Close the gap that ends at probe total ``at``."""
        gap = at - self._mark
        self._mark = at
        self.gaps_closed += 1
        if gap > self.max_delay:
            self.max_delay = gap


class LcsEnumerator:
    """Pull-based enumeration of all distinct LCS position sequences.

    Owns a private meter (the given view is re-wrapped, so independent
    enumerations over one view do not share counters). Call
    :meth:`next_sequence` for one output at a time, or iterate. When
    the inputs share no character the single output is the empty tuple,
    the unique (empty) LCS.
    """

    def __init__(self, view: MatchView):
        if view.len_x < 1 or view.len_y < 1:
            raise ValueError("enumeration needs two non-empty inputs")
        self._view = view.with_meter(Meter())
        self.counters = Counters(self._view.meter)
        self._p: list[int] = []
        self._k_star = 0
        self._frontier = 0  # end of the greedy embedding of p[:k_star] in X
        # A checkpoint for the next search: _i_mark ends the greedy
        # embedding of p[:_k_mark], 0 < _k_mark < _k_star, or (0, 0).
        self._k_mark = self._i_mark = 0
        self._finished = False

    @property
    def view(self) -> MatchView:
        """The metered view this enumeration runs on."""
        return self._view

    @property
    def finished(self) -> bool:
        return self._finished

    def next_sequence(self) -> tuple[int, ...] | None:
        """The next position sequence, or None after the last one.

        If the call raises (``KeyboardInterrupt`` included), the next
        call resumes the same stream: nothing is counted as emitted and
        no auxiliary cell stays charged for the failed attempt.
        """
        if self._finished:
            return None
        view = self._view
        meter = view._meter
        p = self._p
        k = self._k_star

        # Frontier after the kept prefix: the greedy embedding end for X,
        # charged the i probes of walking it, and the prefix's own last
        # position for Y (the prefix is leftmost canonical, so Y[1..p[k]]
        # is already the shortest prefix).
        i = self._frontier
        meter.eq_queries += i
        j = p[k - 1] if k > 0 else 0

        meter.shrink(len(p) - k)
        del p[k:]
        _first_lcs_into(view, i + 1, view.len_x, j + 1, view.len_y, p)
        out = tuple(p)
        emitted_at = meter.eq_queries

        # Until the search returns, the kept prefix, k*, the frontier and
        # the mark are as they were, so a call that raises recomputes this
        # output next time.
        branch = _branch_search(view, p, k, i, self._k_mark, self._i_mark)
        counters = self.counters
        counters.outputs_emitted += 1
        counters._close_gap(emitted_at)
        if branch is None:
            self._finished = True
            meter.shrink(len(p))
            p.clear()
            counters._close_gap(meter.eq_queries)  # the final search
        else:
            k, j, self._frontier, self._k_mark, self._i_mark = branch
            p[k - 1] = j
            self._k_star = k
        return out

    def __iter__(self):
        return self

    def __next__(self) -> tuple[int, ...]:
        out = self.next_sequence()
        if out is None:
            raise StopIteration
        return out


def iter_lcs_positions(x: Sequence, y: Sequence):
    """Convenience wrapper: yield the position sequences for plain inputs."""
    return LcsEnumerator(MatchView(x, y))
