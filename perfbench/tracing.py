"""Per-layer trace: spans and probe deltas around calls into each module.

Nothing inside the package is instrumented. The traced stream reproduces
``LcsEnumerator.next_sequence`` by composing the public functions, one
step per output:

1. ``greedy_embedding(view, p[:k])`` re-embeds the kept prefix,
2. ``first_lcs(view, IndexRange(i+1, len_x), IndexRange(j+1, len_y))``
   completes the sequence,
3. ``find_branch(view, p)`` finds the next branch point.

Each call is a span (name, start, end, parent span, instance) with the
probes it charged; spans stay in memory until the run ends. The traced
stream must give the untraced stream's outputs and its exact probe
total, or the instance counts as failed. The single-layer timings (fold
row, split, scan, CLI start-up and formatting) are taken on the same
instances.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import time
from collections import defaultdict
from typing import Sequence

from lcs_enum import (IndexRange, LcsEnumerator, MatchView, find_branch,
                      first_lcs, greedy_embedding, prefix_thresholds,
                      split_point, suffix_thresholds)
from lcs_enum import cli

from measure import (Context, Tally, check_cli, check_stream, lcs_length,
                     lib_stream)
from workloads import Workload, as_text

PHASES = ("branching.greedy_embedding", "hirschberg.first_lcs",
          "branching.find_branch")
STEP = "enumerator.step"


class Spans:
    """Span records [name, start_ns, end_ns, parent, instance, probes]."""

    def __init__(self):
        self.records: list[list] = []

    def open(self, name: str, parent: int | None, instance: int,
             meter) -> int:
        self.records.append([name, time.perf_counter_ns(), 0, parent,
                             instance, meter.eq_queries])
        return len(self.records) - 1

    def close(self, index: int, meter) -> None:
        rec = self.records[index]
        rec[2] = time.perf_counter_ns()
        rec[5] = meter.eq_queries - rec[5]

    def call(self, name, parent, instance, meter, fn, *args):
        index = self.open(name, parent, instance, meter)
        try:
            return fn(*args)
        finally:
            self.close(index, meter)


def self_times(records: Sequence[list], offset: int) -> dict[str, int]:
    """Total self time per span name: each span minus its children.

    ``records`` is a slice of the span list starting at index ``offset``.
    """
    child_ns: dict[int, int] = defaultdict(int)
    for rec in records:
        if rec[3] is not None:
            child_ns[rec[3]] += rec[2] - rec[1]
    totals: dict[str, int] = defaultdict(int)
    for index, rec in enumerate(records, offset):
        totals[rec[0]] += rec[2] - rec[1] - child_ns[index]
    return totals


def traced_stream(view: MatchView, n: int, spans: Spans,
                  instance: int) -> list[tuple]:
    """Up to n outputs from the public functions, each call a span."""
    meter = view.meter
    p: list[int] = []
    k = 0
    outputs = []
    while len(outputs) < n:
        step = spans.open(STEP, None, instance, meter)
        q = spans.call(PHASES[0], step, instance, meter,
                       greedy_embedding, view, p[:k])
        i = q[-1] if q else 0
        j = p[k - 1] if k else 0
        tail = spans.call(PHASES[1], step, instance, meter, first_lcs, view,
                          IndexRange(i + 1, view.len_x),
                          IndexRange(j + 1, view.len_y))
        p = p[:k] + list(tail)
        outputs.append(tuple(p))
        branch = spans.call(PHASES[2], step, instance, meter,
                            find_branch, view, p)
        spans.close(step, meter)
        if branch is None:
            break
        k = branch.k_star
        p[k - 1] = branch.j_star
    return outputs


def _timed(view: MatchView, fn, *args) -> tuple[int, int]:
    """(ns, probes) of one call."""
    probes = view.meter.eq_queries
    t0 = time.perf_counter_ns()
    fn(*args)
    return time.perf_counter_ns() - t0, view.meter.eq_queries - probes


def _fold_rows(view: MatchView) -> None:
    prefix_thresholds(view)
    suffix_thresholds(view)


def _scan_all(view: MatchView) -> None:
    """Walk every match of every X character across the whole of Y."""
    for i in range(1, view.len_x + 1):
        j = 1
        while j <= view.len_y:
            hit = view.next_y_match(i, j, view.len_y)
            if hit is None:
                break
            j = hit + 1


def cli_emit(x_text: str, y_text: str, n: int) -> tuple[int, str, int]:
    """In-process ``cli.main`` into a buffer: (exit code, stdout, ns spent
    outside ``next_sequence``)."""
    spent = 0

    class TimedEnumerator(LcsEnumerator):
        def next_sequence(self):
            nonlocal spent
            t0 = time.perf_counter_ns()
            try:
                return super().next_sequence()
            finally:
                spent += time.perf_counter_ns() - t0

    buf = io.StringIO()
    saved = cli.LcsEnumerator
    cli.LcsEnumerator = TimedEnumerator
    try:
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter_ns()
            code = cli.main([x_text, y_text, "--limit", str(n),
                             "--format", "jsonl"])
            wall = time.perf_counter_ns() - t0
    finally:
        cli.LcsEnumerator = saved
    return code, buf.getvalue(), wall - spent


def trace(wl: Workload, seed: int, seconds: float,
          ctx: Context) -> tuple[dict, dict, Tally]:
    """Per-layer metrics of one workload: (metrics, details, tally)."""
    pairs = wl.pairs(seed)
    cli_set = set(wl.cli_indices())
    spans = Spans()
    tally = Tally()
    per: dict[str, list[float]] = defaultdict(list)
    traced_ns = untraced_ns = 0
    deadline = time.perf_counter() + seconds
    instance = 0
    while instance == 0 or time.perf_counter() < deadline:
        k = instance % len(pairs)
        x, y = pairs[k]
        tally.attempted += 1
        try:
            plain = lib_stream(x, y, wl.stream)
            view = MatchView(x, y)
            start = len(spans.records)
            t0 = time.perf_counter_ns()
            outputs = traced_stream(view, wl.stream, spans, instance)
            wall = time.perf_counter_ns() - t0
        except Exception as e:  # a crash is a failed instance run
            tally.fail(f"instance {k}: {type(e).__name__}: {e}")
            instance += 1
            continue
        records = spans.records[start:]
        probes = defaultdict(int)
        calls = defaultdict(int)
        for rec in records:
            probes[rec[0]] += rec[5]
            calls[rec[0]] += 1
        phase_probes = sum(probes[name] for name in PHASES)
        problem = check_stream(x, y, plain.outputs, lcs_length(x, y))
        if problem:
            tally.fail(f"instance {k}: {problem}")
        elif outputs != plain.outputs:
            tally.fail(f"instance {k}: traced outputs differ from the "
                       f"enumerator's")
        elif phase_probes != plain.counts["probes_total"]:
            tally.fail(f"instance {k}: phase probes {phase_probes} != "
                       f"probes_total {plain.counts['probes_total']}")
        else:
            own = self_times(records, start)
            for name in PHASES:
                per[f"{name}.ns"].append(own[name])
                per[f"{name}.probes"].append(probes[name])
                per[f"{name}.calls"].append(calls[name])
                per[f"{name}.share"].append(own[name] / wall)
            per["enumerator.next_sequence.ns_per_output"].append(
                plain.wall_s * 1e9 / len(outputs))
            traced_ns += wall
            untraced_ns += plain.wall_s * 1e9

            view = MatchView(x, y)
            ns, n_probes = _timed(view, _fold_rows, view)
            per["hirschberg.fold_row.ns_per_row"].append(ns / (2 * view.len_x))
            per["hirschberg.fold_row.probes_per_row"].append(
                n_probes / (2 * view.len_x))
            ns, n_probes = _timed(view, split_point, view)
            per["hirschberg.split.ns"].append(ns)
            per["hirschberg.split.probes"].append(n_probes)
            ns, n_probes = _timed(view, _scan_all, view)
            per["core.scan.ns_per_probe"].append(ns / n_probes)

        if k in cli_set:
            tally.attempted += 2
            x_text, y_text = as_text(x), as_text(y)
            code, out, outside_ns = cli_emit(x_text, y_text, wl.stream)
            problem = (f"exit {code}" if code else
                       check_cli(out.encode(), plain.outputs, y_text))
            if problem:
                tally.fail(f"instance {k} cli.main: {problem}")
            else:
                per["cli.emit_ns_per_output"].append(outside_ns / len(outputs))
            child = ctx.child(["-m", "lcs_enum.cli", "a", "a"])
            if child.returncode or child.stdout != b"1\n":
                tally.fail(f"CLI start-up run: exit {child.returncode}, "
                           f"stdout {child.stdout!r}")
            else:
                per["cli.startup_s"].append(child.wall[1])
        instance += 1

    metrics = {name: statistics.median(values) for name, values in per.items()}
    if untraced_ns:
        metrics["trace.overhead_frac"] = traced_ns / untraced_ns - 1
    details = {"instance_runs": instance, "spans": len(spans.records),
               "samples": {name: len(values) for name, values in per.items()}}
    return metrics, details, tally
