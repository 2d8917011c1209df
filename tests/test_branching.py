"""Branch search: greedy embedding, the i* frontier, and (k*, j*)."""

import random

import pytest

from conftest import rand_pair
from lcs_enum import MatchView, IndexRange, find_branch, greedy_embedding, \
    BranchPoint, suffix_thresholds
from lcs_enum.hirschberg import _fold_suffix_row
from lcs_enum.oracle import all_lcs_position_sequences

X1 = "acddadacbcb"
Y1 = "caccbaadcad"


def test_greedy_embedding_example():
    view = MatchView(X1, Y1)
    assert greedy_embedding(view, (1, 2, 3, 4, 5)) == [2, 5, 8, 10, 11]


def test_greedy_embedding_empty():
    assert greedy_embedding(MatchView(X1, Y1), ()) == []


def test_greedy_embedding_reads_an_iterator_once():
    view = MatchView(X1, Y1)
    assert greedy_embedding(view, iter((1, 2, 3, 4, 5))) == [2, 5, 8, 10, 11]
    assert view.meter.eq_queries == 11


def test_greedy_embedding_identity():
    view = MatchView(Y1, Y1)
    n = len(Y1)
    assert greedy_embedding(view, tuple(range(1, n + 1))) == list(range(1, n + 1))


def test_greedy_embedding_shortest_prefix_property():
    # X[1..q[k]] contains Y[p[1..k]], and X[1..q[k]-1] does not.
    rng = random.Random(201)
    for _ in range(200):
        x, y = rand_pair(rng, 10, sigmas=(2, 4))
        view = MatchView(x, y)
        p = all_lcs_position_sequences(view)[0]
        if not p:
            continue
        q = greedy_embedding(view, p)
        assert len(q) == len(p)
        assert all(a < b for a, b in zip(q, q[1:]))
        for k in range(1, len(p) + 1):
            s = "".join(y[j - 1] for j in p[:k])

            def contains(prefix, needle):
                it = iter(prefix)
                return all(c in it for c in needle)

            assert contains(x[:q[k - 1]], s)
            assert not contains(x[:q[k - 1] - 1], s)


def test_greedy_embedding_rejects_non_subsequence():
    view = MatchView("abc", "abd")
    with pytest.raises(ValueError):
        greedy_embedding(view, (1, 2, 3))  # "abd" does not embed in "abc"


# Y1[1..6] does not embed into X1, so the last case also pins the order:
# every position is checked before the walk that would fail.
BAD_POSITIONS = [((0,), IndexError), ((1, len(Y1) + 1), IndexError),
                 ((-1, 2), IndexError), ((1, 3, 3, 4, 5), ValueError),
                 ((2, 1), ValueError),
                 ((1, 2, 3, 4, 5, 6, len(Y1) + 1), IndexError)]


@pytest.mark.parametrize("fn", [greedy_embedding, find_branch])
@pytest.mark.parametrize("positions, error", BAD_POSITIONS,
                         ids=["zero", "past_len_y", "negative", "repeated",
                              "decreasing", "unembeddable_then_past_len_y"])
def test_invalid_positions_are_rejected(fn, positions, error):
    # A position of 0 would otherwise read Y[-1] silently.
    view = MatchView(X1, Y1)
    with pytest.raises(error):
        fn(view, positions)
    assert view.meter.live_cells == 0
    assert view.meter.peak_cells == 0
    assert view.meter.eq_queries == 0


# --- suffix rows over the whole of Y (the i* frontier of find_branch) ----

def test_suffix_row_single_step():
    view = MatchView(X1, Y1)
    j_suffix = []
    _fold_suffix_row(view, 11, 1, len(Y1), j_suffix)
    assert j_suffix == [5]  # greatest j with Y[j] = 'b' = X[11]


def test_suffix_rows_down_to_zero():
    view = MatchView(X1, Y1)
    j_suffix = []
    sizes = []
    for i_star in range(len(X1), 0, -1):
        _fold_suffix_row(view, i_star, 1, len(Y1), j_suffix)
        sizes.append(len(j_suffix))
    assert len(j_suffix) == 5     # L(X, Y)
    assert sizes == sorted(sizes)  # never shrinks as i_star falls


def test_suffix_rows_match_fresh_suffix_thresholds():
    rng = random.Random(202)
    for _ in range(150):
        x, y = rand_pair(rng, 10)
        view = MatchView(x, y)
        j_suffix = []
        for i_star in range(len(x), 0, -1):
            _fold_suffix_row(view, i_star, 1, len(y), j_suffix)
            want = suffix_thresholds(view, IndexRange(i_star, len(x)), None)
            assert tuple(j_suffix) == want


# --- find_branch --------------------------------------------------------

def test_find_branch_example_first():
    view = MatchView(X1, Y1)
    assert find_branch(view, (1, 2, 3, 4, 5)) == BranchPoint(4, 5)


def test_find_branch_example_mid():
    view = MatchView(X1, Y1)
    assert find_branch(view, (2, 3, 6, 8, 10)) == BranchPoint(3, 8)


def test_find_branch_example_last():
    view = MatchView(X1, Y1)
    assert find_branch(view, (2, 3, 8, 10, 11)) is None


def test_find_branch_empty_sequence():
    # L = 0: the empty sequence is the only element, hence the last.
    assert find_branch(MatchView("ab", "cd"), ()) is None


def branch_by_definition(p, successor):
    # Least k with p[k] < successor[k]; the new index is successor[k].
    for k, (a, b) in enumerate(zip(p, successor), start=1):
        if a < b:
            return BranchPoint(k, b)
    raise AssertionError("successor does not depart from p")


def test_find_branch_matches_definition_on_random_instances():
    rng = random.Random(203)
    checked = 0
    for _ in range(1000):
        x, y = rand_pair(rng, 12, sigmas=(1, 2, 4))
        view = MatchView(x, y)
        seqs = all_lcs_position_sequences(view)
        for idx, p in enumerate(seqs):
            got = find_branch(MatchView(x, y), p)
            if idx + 1 == len(seqs):
                assert got is None, (x, y, p)
            else:
                assert got == branch_by_definition(p, seqs[idx + 1]), (x, y, p)
            checked += 1
    assert checked >= 1000


def test_find_branch_query_bound():
    rng = random.Random(204)
    for _ in range(150):
        x, y = rand_pair(rng, 12, sigmas=(2, 4))
        seqs = all_lcs_position_sequences(MatchView(x, y))
        for p in seqs:
            view = MatchView(x, y)
            find_branch(view, p)
            assert view.meter.eq_queries <= 4 * len(x) * len(y)


def test_find_branch_releases_all_cells():
    rng = random.Random(205)
    for _ in range(100):
        x, y = rand_pair(rng, 10)
        view = MatchView(x, y)
        find_branch(view, all_lcs_position_sequences(view)[0])
        assert view.meter.live_cells == 0
