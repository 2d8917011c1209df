"""Self-test of the benchmark: traced stream, checks, pins and compare rule.

Run from the root of the repository:

    python -m pytest perfbench/tests -q
"""

import dataclasses
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from lcs_enum import LcsEnumerator, MatchView, oracle

import compare
import measure
from speed import NOMINAL_S, Speedometer, wall
from stats import percentile, tail_percentile, unit_time
from tracing import PHASES, Spans, traced_stream
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def _small_pair(rng: random.Random):
    sigma = rng.choice((1, 2, 3, 4))
    x = [rng.randrange(sigma) for _ in range(rng.randint(1, 14))]
    y = [rng.randrange(sigma) for _ in range(rng.randint(1, 14))]
    if rng.random() < 0.5:
        return tuple(x), tuple(y)
    return "".join("abcd"[c] for c in x), "".join("abcd"[c] for c in y)


def _phase_probes(spans: Spans) -> int:
    return sum(rec[5] for rec in spans.records if rec[0] in PHASES)


def test_traced_stream_equals_oracle_and_enumerator():
    rng = random.Random(20261017)
    for _ in range(150):
        x, y = _small_pair(rng)
        want = oracle.all_lcs_position_sequences(MatchView(x, y))
        enum = LcsEnumerator(MatchView(x, y))
        assert list(enum) == want
        spans = Spans()
        assert traced_stream(MatchView(x, y), 10**6, spans, 0) == want
        assert _phase_probes(spans) == enum.counters.eq_queries_total


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_phase_probes_sum_to_probes_total_on_each_workload(name):
    x, y = WORKLOADS[name].pairs(0)[0]
    plain = measure.lib_stream(x, y, 6)
    spans = Spans()
    assert traced_stream(MatchView(x, y), 6, spans, 0) == plain.outputs
    assert _phase_probes(spans) == plain.counts["probes_total"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_repeated_timings_see_the_streams_outputs(name):
    x, y = WORKLOADS[name].pairs(0)[0]
    run = measure.lib_stream(x, y, 6, gap_reps=2)
    assert run.outputs == measure.lib_stream(x, y, 6).outputs
    _, p, (_, seconds) = measure.first_output(x, y)
    assert p == run.outputs[0] and seconds > 0
    assert len(run.reruns) == 2
    for rerun in run.reruns:
        assert rerun.outputs == run.outputs
        assert rerun.counts == run.counts
        assert len(rerun.gaps) == len(run.gaps) == len(run.outputs) - 1


def test_lcs_length_matches_oracle():
    rng = random.Random(7)
    for _ in range(200):
        x, y = _small_pair(rng)
        assert measure.lcs_length(x, y) == oracle.lcs_length(MatchView(x, y))


def test_check_stream_finds_each_kind_of_bad_output():
    x, y = "abcbbc", "abbccb"
    good = list(LcsEnumerator(MatchView(x, y)))
    assert measure.check_stream(x, y, good, 4) is None
    assert "order" in measure.check_stream(x, y, good[::-1], 4)
    assert "length" in measure.check_stream(x, y, good, 5)
    assert "increasing" in measure.check_stream(x, y, [(1, 3, 2, 4)], 4)
    assert "subsequence" in measure.check_stream(x, y, [(2, 3, 4, 5)], 4)


def test_check_cli_compares_each_line():
    outputs = [(1, 2), (1, 3)]
    good = (b'{"ordinal": 1, "positions": [1, 2], "string": "ab"}\n'
            b'{"ordinal": 2, "positions": [1, 3], "string": "ab"}\n')
    assert measure.check_cli(good, outputs, "abb") is None
    assert "line 2" in measure.check_cli(good.replace(b"[1, 3]", b"[2, 3]"),
                                         outputs, "abb")
    assert "lines" in measure.check_cli(good[:good.index(b"\n") + 1],
                                        outputs, "abb")


def _short_periodic():
    return dataclasses.replace(WORKLOADS["stream-periodic"], stream=40)


def _pin(wl, seed=0) -> dict:
    runs = [measure.lib_stream(x, y, wl.stream) for x, y in wl.pairs(seed)]
    return {"digest": measure.stream_digest([r.outputs for r in runs]),
            **measure.pass_counts(runs)}


def _run(wl, pin, tmp_path):
    ctx = measure.Context(ROOT, tmp_path)
    return measure.measure(wl, 3, 0, ctx, {wl.name: pin})


def test_pins_hold_and_a_tampered_digest_fails(tmp_path):
    wl = _short_periodic()
    pin = _pin(wl)
    _, details, tally = _run(wl, pin, tmp_path)
    assert tally.failed == 0 and details["digest"] == pin["digest"]
    _, _, tally = _run(wl, dict(pin, digest="0" * 64), tmp_path)
    assert tally.failed == 1 and "digest" in tally.problems[0]


def test_counts_may_fall_below_their_pins_but_not_rise(tmp_path):
    wl = _short_periodic()
    pin = _pin(wl)
    above = dict(pin, probes_total=pin["probes_total"] - 1)
    _, _, tally = _run(wl, above, tmp_path)
    assert tally.failed == 1 and "probes_total" in tally.problems[0]
    below = dict(pin, peak_cells=pin["peak_cells"] + 1)
    _, details, tally = _run(wl, below, tmp_path)
    assert tally.failed == 0 and "peak_cells" in details["pin_notes"][0]


def test_pins_hold_on_the_held_out_seed():
    """A seed only relabels symbols, so the pinned streams hold for any seed."""
    pins = measure.load_pins()
    assert sorted(pins) == sorted(WORKLOADS)
    for name, wl in WORKLOADS.items():
        assert _pin(wl, seed=1017) == pins[name], name


def test_workload_pairs_depend_only_on_seed():
    for wl in WORKLOADS.values():
        assert wl.pairs(5)[:2] == wl.pairs(5)[:2]
        assert wl.pairs(5)[0] != wl.pairs(6)[0]


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert tail_percentile(100) == 90.0
    assert tail_percentile(99) == 50.0
    assert tail_percentile(5568) == 99.0
    assert tail_percentile(10000) == 99.9
    assert percentile(list(range(1, 101)), 90.0) == 90


def test_unit_time_leaves_out_one_stall():
    assert unit_time([2.0]) == 2.0
    assert unit_time([2.0, 4.0]) == 3.0
    assert unit_time([2.0, 9.0, 4.0]) == 3.0


def test_speedometer_scales_by_the_kernel_samples_around_a_timing():
    speed = Speedometer()
    speed.at = [1.0, 2.0, 3.7, 3.8, 4.0, 4.2, 4.4, 5.3, 5.5, 8.0, 9.0]
    speed.kernel_s = [NOMINAL_S * f for f in (9, 9, 2, 2, 2, 2, 2, 2, 2, 9, 9)]
    # The samples within AROUND_S of [4.1, 5.1] run at half nominal speed.
    assert speed.scaled((4.1, 1.0)) == pytest.approx(0.5)
    # Fewer than two after 8.5: the window takes the two before it.
    assert speed.scaled((8.5, 0.3)) == pytest.approx(0.3 * 3 / 20)
    assert wall((3.5, 1.0)) == 1.0
    speed.tick()
    assert speed.kernel_s[-1] > 0 and speed.at[-1] > 7.0


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    noisy = [5.0, 15.0] * 5

    def gap(p, c):
        return compare.verdict("gap_ms_p50", p, c, "lower", 0.2)

    assert gap(parent, faster) == "better"
    assert gap(parent, slower) == "worse"
    assert gap(parent, parent) == "within bound"
    assert gap(noisy, noisy) == "unresolved"
    assert compare.verdict("probes_total", [5, 6], [5, 6], "lower", 0.1) == "same"
    assert compare.verdict("probes_total", [5, 6], [5, 7], "lower", 0.1) == "higher"
    assert compare.verdict("hirschberg.split.ns", parent, slower, "lower",
                           None) == "worse"


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream-periodic",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
