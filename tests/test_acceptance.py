"""Acceptance gate: eight go/no-go checks for the whole artifact.

Each test covers one numbered criterion and reports one PASS/FAIL line
in the terminal summary. Tolerances are pinned as module constants;
random corpora are seeded and shared across criteria through memoized
builders, so every run checks the identical instances.
"""

import math
import random
import time
from functools import lru_cache
from typing import NamedTuple

from conftest import ACCEPTANCE_LINES, branch_by_definition, rand_string
from lcs_enum import MatchView, LcsEnumerator, first_lcs, find_branch
from lcs_enum.oracle import lcs_length, all_lcs_position_sequences, \
    exhaustive_lcs_position_sequences

X1 = "acddadacbcb"
Y1 = "caccbaadcad"

EXAMPLE_SEQUENCES = [
    (1, 2, 3, 4, 5),
    (1, 2, 3, 5, 9),
    (2, 3, 4, 5, 9),
    (2, 3, 6, 7, 9),
    (2, 3, 6, 8, 9),
    (2, 3, 6, 8, 10),
    (2, 3, 8, 10, 11),
]
EXAMPLE_STRINGS = ["caccb", "cacbc", "accbc", "acaac", "acadc", "acada",
                   "acdad"]

# pinned tolerances
CORPUS_SIZE = 1000            # criterion 2: random instances, lengths 1..12
CORPUS_SIGMAS = (1, 2, 4, 8)
DOUBLE_ORACLE_SIZE = 200      # criterion 3: instances with lengths <= 8
SCALING_SIZES = (64, 128, 256, 512)   # criterion 6
SCALING_REPS = 20
SCALING_CAP = 50
DELAY_RATIO_LIMIT = 4.5       # max-delay growth allowed per doubling of n
DELAY_FIT_HEADROOM = 4.5 / 4  # slack folded into the constant fitted at n=64
SPACE_C1 = 16                 # criterion 7: cells <= C1*(L+1) + C2*(lg n + 1)
SPACE_C2 = 8


def _criterion(num, name, budget_s, body):
    t0 = time.perf_counter()
    try:
        body()
        if budget_s is not None:
            elapsed = time.perf_counter() - t0
            assert elapsed < budget_s, f"took {elapsed:.1f}s, budget {budget_s}s"
    except BaseException:
        ACCEPTANCE_LINES.append(f"criterion {num} ({name}): FAIL")
        raise
    ACCEPTANCE_LINES.append(f"criterion {num} ({name}): PASS")


class Row(NamedTuple):
    x: str
    y: str
    seqs: tuple
    max_delay: int
    peak_cells: int


def _run_instance(x, y, cap=None):
    enum = LcsEnumerator(MatchView(x, y))
    seqs = []
    while (cap is None or len(seqs) < cap) \
            and (p := enum.next_sequence()) is not None:
        seqs.append(p)
    c = enum.counters
    return Row(x, y, tuple(seqs), c.max_delay, c.peak_aux_cells)


@lru_cache(maxsize=None)
def corpus() -> tuple:
    rng = random.Random(0x5EED01)
    rows = []
    for _ in range(CORPUS_SIZE):
        sigma = rng.choice(CORPUS_SIGMAS)
        x = rand_string(rng, rng.randint(1, 12), sigma)
        y = rand_string(rng, rng.randint(1, 12), sigma)
        rows.append(_run_instance(x, y))
    return tuple(rows)


@lru_cache(maxsize=None)
def scaling_runs() -> dict:
    out = {}
    for n in SCALING_SIZES:
        rows = []
        for rep in range(SCALING_REPS):
            rng = random.Random(f"scale:{n}:{rep}")
            x = rand_string(rng, n, 4)
            y = rand_string(rng, n, 4)
            rows.append(_run_instance(x, y, cap=SCALING_CAP))
        out[n] = rows
    return out


def _space_bound(length, len_x):
    return (SPACE_C1 * (length + 1)
            + SPACE_C2 * (math.ceil(math.log2(len_x)) + 1))


def test_criterion_1_golden_example():
    def body():
        enum = LcsEnumerator(MatchView(X1, Y1))
        got = list(enum)
        assert got == EXAMPLE_SEQUENCES
        assert [enum.view.y_slice(p) for p in got] == EXAMPLE_STRINGS
        assert enum.next_sequence() is None
    _criterion(1, "golden example, exact order and strings", 1.0, body)


def test_criterion_2_oracle_equivalence():
    def body():
        rows = corpus()
        assert len(rows) >= 1000
        for row in rows:
            want = all_lcs_position_sequences(MatchView(row.x, row.y))
            assert list(row.seqs) == want, (row.x, row.y)
    _criterion(2, "enumerator equals DP oracle on 1000 random instances",
               30.0, body)


def test_criterion_3_double_oracle():
    def body():
        rng = random.Random(0x5EED03)
        for _ in range(DOUBLE_ORACLE_SIZE):
            sigma = rng.choice((1, 2, 3, 4))
            x = rand_string(rng, rng.randint(1, 8), sigma)
            y = rand_string(rng, rng.randint(1, 8), sigma)
            a = all_lcs_position_sequences(MatchView(x, y))
            b = exhaustive_lcs_position_sequences(MatchView(x, y))
            assert a == b, (x, y)
    _criterion(3, "traceback oracle equals exhaustive oracle", 30.0, body)


def test_criterion_4_first_lcs():
    def body():
        for row in corpus():
            view = MatchView(row.x, row.y)
            first = first_lcs(view)
            assert first == row.seqs[0], (row.x, row.y)
            for other in row.seqs:
                assert all(a <= b for a, b in zip(first, other)), \
                    (row.x, row.y, other)
    _criterion(4, "first_lcs is the leftmost and dominates pointwise",
               None, body)


def test_criterion_5_find_branch():
    def body():
        for row in corpus():
            for idx, p in enumerate(row.seqs):
                got = find_branch(MatchView(row.x, row.y), p)
                if idx + 1 == len(row.seqs):
                    assert got is None, (row.x, row.y, p)
                else:
                    want = branch_by_definition(p, row.seqs[idx + 1])
                    assert got == want, (row.x, row.y, p)
    _criterion(5, "find_branch matches the successor definition", None, body)


def test_criterion_6_delay_bound():
    def body():
        runs = scaling_runs()
        max_by_n = {n: max(r.max_delay for r in runs[n])
                    for n in SCALING_SIZES}
        for small, large in zip(SCALING_SIZES, SCALING_SIZES[1:]):
            ratio = max_by_n[large] / max_by_n[small]
            assert ratio <= DELAY_RATIO_LIMIT, \
                f"max delay grew {ratio:.2f}x from n={small} to n={large}"
        # one constant, fitted on the n=64 data with the same headroom
        # the ratio clause grants, must bound every delay at every size
        c_fit = DELAY_FIT_HEADROOM * max_by_n[64] / (64 * 64)
        for n in SCALING_SIZES:
            for r in runs[n]:
                assert r.max_delay <= c_fit * n * n, \
                    f"delay {r.max_delay} above {c_fit:.2f}*{n}^2"
    _criterion(6, "quadratic delay with bounded doubling growth", 120.0, body)


def test_criterion_7_space_bound():
    def body():
        for row in corpus():
            length = len(row.seqs[0])
            assert row.peak_cells <= _space_bound(length, len(row.x)), \
                (row.x, row.y, row.peak_cells)
        for n, rows in scaling_runs().items():
            for row in rows:
                length = len(row.seqs[0])
                assert row.peak_cells <= _space_bound(length, n), \
                    (n, row.peak_cells)
        # peak cells must not scale with n at fixed L
        for n in (16, 64, 256, 1024):
            row = _run_instance("a" * n, "a" * n)
            assert row.seqs == ((tuple(range(1, n + 1)),))
            assert row.peak_cells <= _space_bound(n, n), (n, row.peak_cells)
        for n in (64, 256, 1024, 2048):
            row = _run_instance("a" + "b" * (n - 1), "a" + "c" * (n - 1))
            assert row.seqs == ((1,),)
            assert row.peak_cells <= _space_bound(1, n), (n, row.peak_cells)
    _criterion(7, "O(L) cells plus logarithmic recursion overhead",
               60.0, body)


def test_criterion_8_order_and_distinctness():
    def body():
        for row in corpus():
            view = MatchView(row.x, row.y)
            length = lcs_length(view)
            assert all(a < b for a, b in zip(row.seqs, row.seqs[1:])), \
                (row.x, row.y)
            strings = [view.y_slice(p) for p in row.seqs]
            assert len(strings) == len(set(strings)), (row.x, row.y)
            assert all(len(s) == length for s in strings), (row.x, row.y)
    _criterion(8, "lexicographic order, distinct strings of length L",
               None, body)
