"""One view shared by threads gives each the stream it gives one thread.

A coded view builds its planes, window tables and checkpoints lazily, on
the first fold that needs them, and every view ``with_meter`` makes, as
each ``LcsEnumerator`` does, shares them. The ``MatchView`` docstring
promises concurrent read-only use: several enumerations over one fresh
view, their threads switched every microsecond, must each give the
single-thread stream, per-gap probes and peak cells.
"""

import random
import sys
import threading

import pytest

from conftest import rand_string
from lcs_enum import LcsEnumerator, MatchView, hirschberg

THREADS = 4
OUTPUTS = 40
JOIN_TIMEOUT_S = 60
# Fresh views per pair, each shared by THREADS threads.
ROUNDS = 5


def _run(view):
    """The first OUTPUTS outputs, each with its gap's probes, and the peak
    cells."""
    enum = LcsEnumerator(view)
    stream = []
    for _ in range(OUTPUTS):
        before = enum.counters.eq_queries_total
        p = enum.next_sequence()
        stream.append((p, enum.counters.eq_queries_total - before))
        if p is None:
            break
    return stream, enum.counters.peak_aux_cells


def _pairs():
    rng = random.Random(26)
    # Wide and narrow ranges, the narrow kernel and the checkpoint; and
    # the tables of many codes, read by many narrow ranges.
    return {"rand4": (rand_string(rng, 200, 4), rand_string(rng, 180, 4)),
            "periodic": ("abcd" * 30, "dbca" * 30),
            "rand26": (rand_string(rng, 150, 26), rand_string(rng, 150, 26))}


PAIRS = _pairs()


@pytest.mark.parametrize("name", PAIRS)
def test_threads_sharing_a_fresh_view_get_the_single_thread_streams(
        monkeypatch, name):
    x, y = PAIRS[name]
    want = _run(MatchView(x, y))
    solved = []
    narrow = hirschberg._narrow_lcs

    def record(*args):
        solved.append(narrow(*args))
        return solved[-1]

    monkeypatch.setattr(hirschberg, "_narrow_lcs", record)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(ROUNDS):
            view = MatchView(x, y)
            assert view._planes == {} and view._tables == {}
            assert view._mirror._planes == {} and view._mirror._tables == {}
            got = [None] * THREADS
            start = threading.Barrier(THREADS)

            def work(k):
                start.wait()
                got[k] = _run(view)

            threads = [threading.Thread(target=work, args=(k,), daemon=True)
                       for k in range(THREADS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(JOIN_TIMEOUT_S)
            assert not any(t.is_alive() for t in threads)
            assert got == [want] * THREADS
            assert view._planes and view._mirror._tables
            assert view._mirror._checkpoint
    finally:
        sys.setswitchinterval(interval)
    assert True in solved
