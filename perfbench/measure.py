"""Untraced end-to-end measurement of one workload, with its output checks.

One caller pulls outputs one at a time from ``LcsEnumerator`` (a closed
loop, single thread). Each pass runs every instance of the workload: the
library stream, then on the chosen instances the ``lcs-enum`` CLI as a
subprocess and one fresh-interpreter set-up sample; each pass ends with
two more set-up samples. Passes repeat until the time budget is spent;
the first pass always completes. Outputs are
checked outside every timer.

A shared machine runs the same code at speeds up to about 2x apart, in
phases of seconds, and the mix of them differs from run to run. So every
timing is scaled to a nominal machine speed by the reference kernel of
``speed.py``, sampled between the timed calls (the record keeps the
unscaled values under ``wall_clock``). Every timed unit (an instance's
first output, each of its gaps, each CLI run) is then averaged over its
repetitions, one per pass, leaving out its slowest repetition
(``stats.unit_time``), and a metric is the median across units. Where a
workload's first outputs or gaps fill too little of a pass for that to
settle, each pass times them again: the first output of fresh
enumerators of every instance, half before and half after its CLI run
(``Workload.first_reps``), and the rest of the stream from deep copies
of the enumerator taken after its first output (``Workload.gap_reps``).
These join the unit's repetitions. Set-up is the median of all its
samples. Children run under ``reap.py``, which reads their wall clock
and peak RSS without counting this process's memory.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from lcs_enum import LcsEnumerator, MatchView

from speed import Sample, Speedometer, wall
from stats import percentile, quartiles, unit_time
from workloads import Workload, as_text

HERE = Path(__file__).resolve().parent
COUNTS = ("probes_total", "max_gap_probes", "peak_cells")


def lcs_length(x: Sequence, y: Sequence) -> int:
    """LCS length by the Allison-Dix / Hyyro bit-vector recurrence.

    Independent of the library's threshold fold, and fast enough to run on
    every instance; the self-test checks it against ``oracle.lcs_length``.
    """
    masks: dict = {}
    for j, c in enumerate(y):
        masks[c] = masks.get(c, 0) | (1 << j)
    full = (1 << len(y)) - 1
    v = full
    for c in x:
        u = v & masks.get(c, 0)
        v = ((v + u) | (v - u)) & full
    return len(y) - v.bit_count()


def _embeds(x: Sequence, y: Sequence, positions: Sequence[int]) -> bool:
    rest = iter(x)
    return all(y[j - 1] in rest for j in positions)


def check_stream(x: Sequence, y: Sequence, outputs: Sequence[tuple],
                 length: int) -> str | None:
    """First problem in a library stream, or None if every output is valid.

    Each output must be a strictly increasing tuple of Y positions whose
    characters are a subsequence of X, of the LCS length, and strictly
    lexicographically greater than the output before it.
    """
    prev = None
    for k, p in enumerate(outputs, 1):
        if len(p) != length:
            return f"output {k} has length {len(p)}, LCS length is {length}"
        if any(b <= a for a, b in zip(p, p[1:])) or (
                p and (p[0] < 1 or p[-1] > len(y))):
            return f"output {k} is not strictly increasing within Y: {p}"
        if not _embeds(x, y, p):
            return f"output {k} is not a subsequence of X"
        if prev is not None and not p > prev:
            return f"output {k} does not follow output {k - 1} in order"
        prev = p
    return None


def check_cli(stdout: bytes, outputs: Sequence[tuple], y_text: str) -> str | None:
    """First difference between the CLI's jsonl stdout and the library stream."""
    lines = stdout.decode().splitlines()
    if len(lines) != len(outputs):
        return f"CLI printed {len(lines)} lines, library gave {len(outputs)}"
    for k, (line, p) in enumerate(zip(lines, outputs), 1):
        try:
            rec = json.loads(line)
        except ValueError:
            return f"CLI line {k} is not JSON"
        want = {"ordinal": k, "positions": list(p),
                "string": "".join(y_text[j - 1] for j in p)}
        if rec != want:
            return f"CLI line {k} is {rec}, library gives {want}"
    return None


def stream_digest(streams: Sequence[Sequence[tuple]]) -> str:
    """SHA-256 of the position streams of all instances, in instance order."""
    h = hashlib.sha256()
    for outputs in streams:
        for p in outputs:
            h.update(",".join(map(str, p)).encode() + b"\n")
        h.update(b";\n")
    return h.hexdigest()


def pass_counts(runs: Sequence["StreamRun"]) -> dict:
    """A pass's counts: probes summed, worst gap and peak cells over instances."""
    return {"probes_total": sum(r.counts["probes_total"] for r in runs),
            "max_gap_probes": max(r.counts["max_gap_probes"] for r in runs),
            "peak_cells": max(r.counts["peak_cells"] for r in runs)}


def check_pins(pin: dict, digest: str,
               counts: dict) -> tuple[list[str], list[str]]:
    """Compare a run with its workload's pinned digest and counts.

    Returns (failures, notes). The digest must match exactly. A count
    above its pin fails, since no change may raise probe counts or cells;
    a count below its pin is only noted.
    """
    failures, notes = [], []
    if digest != pin["digest"]:
        failures.append(f"stream digest {digest[:16]}... differs from the "
                        f"pinned {pin['digest'][:16]}...")
    for name in COUNTS:
        if counts[name] > pin[name]:
            failures.append(f"{name} {counts[name]} is above the pinned "
                            f"{pin[name]}")
        elif counts[name] < pin[name]:
            notes.append(f"{name} {counts[name]} is below the pinned "
                         f"{pin[name]}")
    return failures, notes


def load_pins() -> dict:
    with open(HERE / "pins.json") as f:
        return json.load(f)


@dataclass
class StreamRun:
    outputs: list[tuple]
    first: Sample          # the first next_sequence() call
    gaps: list[Sample]     # each later call, up to the last output
    counts: dict
    reruns: list["StreamRun"] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.first[1] + sum(g[1] for g in self.gaps)


def _timed_call(enum: LcsEnumerator) -> tuple[tuple | None, Sample]:
    clock = time.perf_counter
    t0 = clock()
    p = enum.next_sequence()
    return p, (t0, clock() - t0)


def _rest_of_stream(enum: LcsEnumerator, first: tuple, n: int,
                    speed: Speedometer | None
                    ) -> tuple[list[tuple], list[Sample]]:
    """Pull outputs after the first until there are n, timing each call."""
    outputs = [first]
    gaps = []
    while len(outputs) < n:
        if speed:
            speed.maybe_tick()
        p, gap = _timed_call(enum)
        if p is None:
            break
        outputs.append(p)
        gaps.append(gap)
    return outputs, gaps


def _counts(enum: LcsEnumerator) -> dict:
    c = enum.counters
    return {"probes_total": c.eq_queries_total,
            "max_gap_probes": c.max_delay,
            "peak_cells": c.peak_aux_cells}


def first_output(x: Sequence, y: Sequence
                 ) -> tuple[LcsEnumerator, tuple | None, Sample]:
    """A fresh enumerator after its first ``next_sequence()`` call, that
    call's output and its timing."""
    enum = LcsEnumerator(MatchView(x, y))
    return (enum, *_timed_call(enum))


def lib_stream(x: Sequence, y: Sequence, n: int, gap_reps: int = 0,
               speed: Speedometer | None = None) -> StreamRun:
    """Pull up to n outputs, timing each ``next_sequence()`` call.

    With gap_reps, that many deep copies of the enumerator, taken after
    its first output, each pull the rest of the stream again; their runs
    are in ``reruns``, for timing the gaps without paying the first output
    again. With speed, kernel samples are taken between the calls.
    """
    enum, p, first = first_output(x, y)
    if p is None:
        raise RuntimeError("the enumeration gave no first output")
    copies = [copy.deepcopy(enum) for _ in range(gap_reps)]
    outputs, gaps = _rest_of_stream(enum, p, n, speed)
    run = StreamRun(outputs, first, gaps, _counts(enum))
    for c in copies:
        outputs, gaps = _rest_of_stream(c, p, n, speed)
        run.reruns.append(StreamRun(outputs, first, gaps, _counts(c)))
    return run


@dataclass
class Child:
    stdout: bytes
    wall: Sample
    peak_rss_mib: float
    returncode: int
    stderr: str


class Context:
    """Where a run may write, and how it starts the program's processes."""

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def child(self, argv: list[str]) -> Child:
        """Run a Python child under ``reap.py``, drain its stdout, and read
        its wall clock and peak RSS from there."""
        err_path = self.workdir / "child.stderr"
        cost_path = self.workdir / "child.cost"
        cost_path.unlink(missing_ok=True)
        with open(err_path, "w+b") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-I", "-S", str(HERE / "reap.py"),
                 str(cost_path), sys.executable, *argv],
                cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                stderr=err)
            try:
                out = proc.stdout.read()
            except BaseException:
                proc.terminate()
                raise
            finally:
                proc.stdout.close()
                proc.wait()
            err.seek(0)
            err_text = err.read().decode(errors="replace")[-2000:]
        if proc.returncode or not cost_path.is_file():
            return Child(out, (started, float("nan")), float("nan"),
                         proc.returncode or 1, err_text)
        wall, rss_kib, code = cost_path.read_text().split()
        return Child(out, (started, float(wall)), int(rss_kib) / 1024,
                     int(code), err_text)

    def write(self, name: str, text: str) -> Path:
        path = self.workdir / name
        path.write_text(text, encoding="ascii")
        return path

    def setup_sample(self, instances_file: Path) -> Sample:
        """(start of the probe process, set-up seconds it measured)."""
        child = self.child([str(HERE / "setup_probe.py"), str(instances_file)])
        if child.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {child.stderr}")
        return child.wall[0], float(child.stdout)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


def _summary(values: Sequence[float]) -> dict:
    q1, q2, q3 = quartiles(values)
    return {"q1": q1, "median": q2, "q3": q3, "n": len(values)}


def write_instances(ctx: Context, pairs) -> Path:
    return ctx.write("instances.json", json.dumps(
        [[x if isinstance(x, str) else list(x),
          y if isinstance(y, str) else list(y)] for x, y in pairs]))


def _timings(first_runs: dict, gap_runs: dict, cli_runs: dict,
             setup: list[Sample], tail_pct: float,
             seconds: Callable[[Sample], float]) -> tuple[dict, dict]:
    """The timing metrics and their quartiles, each sample read by seconds."""
    def unit(samples):
        return unit_time([seconds(s) for s in samples])

    first = [unit(runs) for runs in first_runs.values()]
    gaps = [unit(reps) for k in sorted(gap_runs) for reps in zip(*gap_runs[k])]
    cli_wall = [unit(runs) for runs in cli_runs.values()]
    setup_s = [seconds(s) for s in setup]
    metrics = {"setup_s": statistics.median(setup_s),
               "first_output_s": statistics.median(first),
               "outputs_per_s": len(gaps) / sum(gaps),
               "gap_ms_p50": statistics.median(gaps) * 1e3,
               "gap_ms_tail": percentile(gaps, tail_pct) * 1e3,
               "cli_wall_s": statistics.median(cli_wall)}
    spreads = {"setup_s": _summary(setup_s),
               "first_output_s": _summary(first),
               "gap_ms": _summary([g * 1e3 for g in gaps]),
               "cli_wall_s": _summary(cli_wall)}
    return metrics, spreads


def measure(wl: Workload, seed: int, seconds: float, ctx: Context,
            pins: dict) -> tuple[dict, dict, Tally]:
    """End-to-end metrics of one workload: (metrics, details, tally)."""
    pairs = wl.pairs(seed)
    lengths = [lcs_length(x, y) for x, y in pairs]
    texts = {k: (as_text(pairs[k][0]), as_text(pairs[k][1]))
             for k in wl.cli_indices()}
    files = {k: (ctx.write(f"x{k}.txt", tx), ctx.write(f"y{k}.txt", ty))
             for k, (tx, ty) in texts.items()}
    instances_file = write_instances(ctx, pairs)

    tally = Tally()
    speed = Speedometer()
    reference: dict[int, StreamRun] = {}   # the first valid run per instance
    first_runs: dict[int, list[Sample]] = defaultdict(list)
    gap_runs: dict[int, list[list[Sample]]] = defaultdict(list)
    cli_runs: dict[int, list[Sample]] = defaultdict(list)
    cli_rss: list[float] = []
    setup: list[Sample] = []

    def sample_setup() -> None:
        speed.tick()
        setup.append(ctx.setup_sample(instances_file))
        speed.tick()

    def sample_first(k: int, reps: int) -> None:
        """Time reps more first outputs of instance k on fresh enumerators."""
        if not reps:
            return
        tally.attempted += 1
        x, y = pairs[k]
        samples = []
        try:
            for _ in range(reps):
                speed.maybe_tick()
                samples.append(first_output(x, y)[1:])
        except Exception as e:  # a crash is a failed instance run
            tally.fail(f"instance {k} first output: {type(e).__name__}: {e}")
            return
        if any(p != reference[k].outputs[0] for p, _ in samples):
            tally.fail(f"instance {k}: a fresh enumerator's first output "
                       f"differs from the stream's")
            return
        first_runs[k].extend(t for _, t in samples)

    for _ in range(5):
        sample_setup()
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        for k, (x, y) in enumerate(pairs):
            if passes and time.perf_counter() >= deadline:
                break
            tally.attempted += 1
            speed.tick()
            try:
                run = lib_stream(x, y, wl.stream, wl.gap_reps, speed)
            except Exception as e:  # a crash is a failed instance run
                tally.fail(f"instance {k}: {type(e).__name__}: {e}")
                continue
            ref = reference.get(k)
            if ref is None:
                problem = check_stream(x, y, run.outputs, lengths[k])
                if problem is None:
                    reference[k] = run
            elif run.outputs != ref.outputs or run.counts != ref.counts:
                problem = "a repeated run gave other outputs or counts"
            else:
                problem = None
            if problem is None and any(
                    r.outputs != run.outputs or r.counts != run.counts
                    for r in run.reruns):
                problem = "a copy of the enumerator gave other outputs or counts"
            if problem:
                tally.fail(f"instance {k}: {problem}")
                continue
            first_runs[k].append(run.first)
            gap_runs[k].extend(r.gaps for r in (run, *run.reruns))
            # Spread the extra first outputs over the pass, half on each
            # side of the CLI run, so that they meet both machine speeds
            # as the gaps do.
            sample_first(k, wl.first_reps // 2)

            if k in files:
                tally.attempted += 1
                xf, yf = files[k]
                speed.tick()
                child = ctx.child(["-m", "lcs_enum.cli", "--files", str(xf),
                                   str(yf), "--limit", str(wl.stream),
                                   "--format", "jsonl"])
                problem = (f"exit {child.returncode}: {child.stderr}"
                           if child.returncode else
                           check_cli(child.stdout, run.outputs, texts[k][1]))
                if problem:
                    tally.fail(f"instance {k} CLI: {problem}")
                else:
                    cli_runs[k].append(child.wall)
                    cli_rss.append(child.peak_rss_mib)
                sample_setup()
            sample_first(k, wl.first_reps - wl.first_reps // 2)
        sample_setup()
        sample_setup()
        passes += 1
    speed.tick()

    details = {"passes": passes, "instances": len(pairs),
               "outputs_per_instance": wl.stream,
               "gap_ms_tail_percentile": wl.tail_pct,
               "gap_samples": sum(len(runs[0]) for runs in gap_runs.values()),
               "kernel_ms": _summary([t * 1e3 for t in speed.kernel_s])}
    metrics = {}
    if len(reference) == len(pairs):
        runs = [reference[k] for k in range(len(pairs))]
        counts = pass_counts(runs)
        digest = stream_digest([r.outputs for r in runs])
        tally.attempted += 1
        failures, notes = check_pins(pins[wl.name], digest, counts)
        for failure in failures:
            tally.fail(f"pin: {failure}")
        details.update(digest=digest, pin_notes=notes)
        metrics.update(counts)
    if gap_runs and cli_runs:
        timings = (first_runs, gap_runs, cli_runs, setup, wl.tail_pct)
        scaled, details["quartiles"] = _timings(*timings, speed.scaled)
        metrics.update(scaled, cli_peak_rss_mb=statistics.median(cli_rss))
        details["quartiles"]["cli_peak_rss_mb"] = _summary(cli_rss)
        details["wall_clock"], _ = _timings(*timings, wall)
    return metrics, details, tally
