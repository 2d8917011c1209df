"""The X frontier carried from one branch search to the next output.

The enumerator keeps the end of the greedy embedding of the kept prefix
that its branch search found, instead of walking the prefix again, and
the next search walks only the new tail. The probes, the cells and the
outputs must be those of the public functions run from scratch, which is
what the per-layer trace composes.
"""

import copy
import random
from itertools import islice

import pytest

from conftest import VIEW_KINDS, rand_string
from lcs_enum import (IndexRange, LcsEnumerator, MatchView, find_branch,
                      first_lcs, greedy_embedding)
from lcs_enum import branching, enumerator as enumerator_module
from lcs_enum.branching import _branch_search


def _pairs():
    rng = random.Random(7)
    pairs = [("abcab" * 8, "bacba" * 8), ("abcd" * 6, "dcba" * 6)]
    for sigma in (2, 3, 4):
        for _ in range(4):
            pairs.append((rand_string(rng, 40, sigma),
                          rand_string(rng, 36, sigma)))
    # Short outputs: searches that descend to a kept prefix of 2 or 3.
    for _ in range(30):
        pairs.append((rand_string(rng, 9, 3), rand_string(rng, 8, 3)))
    return pairs


def test_search_from_the_carried_frontier_equals_find_branch():
    tail_only = descended = from_mark = 0
    for kind, wrap in VIEW_KINDS.items():
        for x, y in _pairs():
            x, y = wrap(x), wrap(y)
            enum = LcsEnumerator(MatchView(x, y))
            for _ in range(60):
                k_kept, i_kept = enum._k_star, enum._frontier
                k_mark, i_mark = enum._k_mark, enum._i_mark
                p = enum.next_sequence()
                if p is None:
                    break
                carried, fresh = MatchView(x, y), MatchView(x, y)
                got = _branch_search(carried, p, k_kept, i_kept, k_mark,
                                     i_mark)
                want = find_branch(fresh, p)
                assert (got and got[:2]) == (want and tuple(want)), (kind, p)
                for view in (carried, fresh):
                    assert view.meter.live_cells == 0
                assert carried.meter.eq_queries == fresh.meter.eq_queries
                assert carried.meter.peak_cells == fresh.meter.peak_cells
                if got is not None:
                    # The frontier and the mark that the next call keeps.
                    k, j, i, k_next, i_next = got
                    successor = list(p[:k - 1]) + [j]
                    q = greedy_embedding(MatchView(x, y), successor)
                    assert i == q[-1]
                    assert 0 <= k_next < k
                    assert i_next == (q[k_next - 1] if k_next else 0)
                if got is not None and got[0] > k_kept:
                    tail_only += 1
                elif k_kept >= 2:
                    descended += 1  # the kept prefix was walked again
                    from_mark += k_mark > 0  # from the mark, not from X[1]
    assert tail_only and descended and from_mark, \
        (tail_only, descended, from_mark)


def _composed(view, limit=60):
    """The stream from the public functions, as the per-layer trace
    composes it, and the probes of each step."""
    meter = view.meter
    p, k, outputs, steps = [], 0, [], []
    while len(outputs) < limit:
        before = meter.eq_queries
        q = greedy_embedding(view, p[:k])
        i = q[-1] if q else 0
        j = p[k - 1] if k else 0
        tail = first_lcs(view, IndexRange(i + 1, view.len_x),
                         IndexRange(j + 1, view.len_y))
        p = p[:k] + list(tail)
        outputs.append(tuple(p))
        branch = find_branch(view, p)
        steps.append(meter.eq_queries - before)
        if branch is None:
            break
        k = branch.k_star
        p[k - 1] = branch.j_star
    return outputs, steps


def _enumerated(view, limit=60):
    enum = LcsEnumerator(view)
    meter = enum.view.meter
    outputs, steps = [], []
    while len(outputs) < limit:
        before = meter.eq_queries
        p = enum.next_sequence()
        if p is None:
            break
        outputs.append(p)
        steps.append(meter.eq_queries - before)
    return outputs, steps


@pytest.mark.parametrize("kind",
                         ["str", "bytes", "tuple", "minimal"])
def test_composed_public_functions_equal_the_enumerator(kind):
    wrap = VIEW_KINDS[kind]
    for x, y in _pairs():
        x, y = wrap(x), wrap(y)
        assert _composed(MatchView(x, y)) == _enumerated(MatchView(x, y))


@pytest.mark.parametrize("kind",
                         ["str", "bytes", "tuple", "minimal"])
def test_a_deep_copy_taken_mid_stream_continues_the_stream(kind):
    wrap = VIEW_KINDS[kind]
    for x, y in _pairs()[:6]:
        x, y = wrap(x), wrap(y)
        for taken_after in (1, 5):
            enum = LcsEnumerator(MatchView(x, y))
            for _ in range(taken_after):
                enum.next_sequence()
            twin = copy.deepcopy(enum)
            assert list(islice(twin, 60)) == list(islice(enum, 60))
            a, b = twin.counters, enum.counters
            assert (a.eq_queries_total, a.max_delay, a.gaps_closed,
                    a.outputs_emitted, a.peak_aux_cells) == \
                (b.eq_queries_total, b.max_delay, b.gaps_closed,
                 b.outputs_emitted, b.peak_aux_cells)
            assert twin.view.meter.live_cells == enum.view.meter.live_cells


def test_the_mark_halves_the_walks_and_changes_no_count(monkeypatch):
    # The same 40 later gaps of a σ=4 pair of 400 characters, with the
    # carried mark and with none: the positions _embed walks, uncharged
    # past the tail, at least halve; outputs, probes and cells do not move.
    rng = random.Random(18)
    x, y = rand_string(rng, 400, 4), rand_string(rng, 400, 4)
    embed, search = branching._embed, enumerator_module._branch_search
    walked = 0

    def counted(view, positions, i, q):
        nonlocal walked
        n = len(q)
        try:
            return embed(view, positions, i, q)
        finally:
            walked += len(q) - n

    monkeypatch.setattr(branching, "_embed", counted)
    runs = []
    for unmarked in (False, True):
        if unmarked:
            monkeypatch.setattr(
                enumerator_module, "_branch_search",
                lambda view, p, k, i, *mark: search(view, p, k, i))
        enum = LcsEnumerator(MatchView(x, y))
        enum.next_sequence()
        walked = 0
        outputs = list(islice(enum, 40))
        c = enum.counters
        runs.append((walked, outputs, c.eq_queries_total, c.max_delay,
                     c.peak_aux_cells, enum.view.meter.live_cells))
    (marked, *counts), (unmarked, *want) = runs
    assert len(counts[0]) == 40
    assert counts == want
    assert 2 * marked <= unmarked, (marked, unmarked)  # 2,320 and 5,655
