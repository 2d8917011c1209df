"""Golden probe fixture: exact outputs, per-gap probes and peak cells.

``golden_probes.json`` pins, for seeded str, bytes and tuple instances,
the first outputs of the enumeration, the probes charged by every
``next_sequence()`` call, the peak auxiliary cells, and the values and
probes of ``prefix_thresholds``, ``suffix_thresholds`` and ``first_lcs``
on random subranges. Any rewrite of the folds, scans or enumerator must
reproduce it exactly: probes are the paper's cost model, so a change
that keeps the outputs but moves a probe count is a different algorithm.

The fixture was written by this file's ``__main__`` before the threshold
fold was rewritten; regenerating it from newer code defeats its purpose.

    PYTHONPATH=src python tests/test_golden_probes.py   # rewrite the fixture
"""

import json
import random
from pathlib import Path

import pytest

from conftest import MinimalSeq
from lcs_enum import IndexRange, LcsEnumerator, MatchView, first_lcs, \
    prefix_thresholds, suffix_thresholds

FIXTURE = Path(__file__).with_name("golden_probes.json")
MAX_OUTPUTS = 25
SUBRANGES = 8


def _cases() -> list[dict]:
    """About twenty seeded instances: kind, x, y in JSON-storable form."""
    cases = []
    shapes = [(1, 1, 2), (7, 9, 2), (12, 10, 3), (30, 26, 2), (40, 45, 4),
              (64, 64, 2), (96, 80, 4), (120, 128, 8), (200, 190, 4),
              (256, 256, 2), (300, 280, 26)]
    kinds = ("str", "bytes", "tuple")
    for k, (m, n, sigma) in enumerate(shapes):
        rng = random.Random(f"golden:{k}")
        letters = "abcdefghijklmnopqrstuvwxyz"[:sigma]
        x = "".join(rng.choice(letters) for _ in range(m))
        y = "".join(rng.choice(letters) for _ in range(n))
        cases.append({"kind": kinds[k % 3], "x": x, "y": y})
        if k % 2 == 0:
            cases.append({"kind": kinds[(k + 1) % 3], "x": x, "y": y})
    for kind in kinds:
        cases.append({"kind": kind, "x": "abcd" * 6, "y": "dcba" * 6})
    cases.append({"kind": "str", "x": "abc" * 20, "y": "xyz" * 20})
    cases.append({"kind": "tuple", "x": "a" + "b" * 63, "y": "a" + "c" * 63})
    return cases


def _inputs(case: dict):
    x, y = case["x"], case["y"]
    if case["kind"] == "bytes":
        return x.encode("ascii"), y.encode("ascii")
    if case["kind"] == "tuple":
        return tuple(ord(c) for c in x), tuple(ord(c) for c in y)
    return x, y


def _record(case: dict, wrap=None) -> dict:
    """Everything the fixture pins for one case, from the current code,
    on the inputs as ``wrap`` holds them if it is given."""
    x, y = _inputs(case)
    pair = (x, y) if wrap is None else (wrap(x), wrap(y))
    enum = LcsEnumerator(MatchView(*pair))
    meter = enum.view.meter
    outputs, gap_probes = [], []
    while len(outputs) < MAX_OUTPUTS:
        before = meter.eq_queries
        p = enum.next_sequence()
        gap_probes.append(meter.eq_queries - before)
        if p is None:
            break
        outputs.append(list(p))
    record = {"outputs": outputs, "gap_probes": gap_probes,
              "peak_cells": enum.counters.peak_aux_cells,
              "live_cells": meter.live_cells, "finished": enum.finished,
              "subranges": []}

    view = MatchView(*pair)
    rng = random.Random(f"golden-ranges:{case['kind']}:{x}:{y}")
    for _ in range(SUBRANGES):
        x_lo = rng.randint(1, len(x))
        x_hi = rng.randint(x_lo - 1, len(x))
        y_lo = rng.randint(1, len(y))
        y_hi = rng.randint(y_lo - 1, len(y))
        xr, yr = IndexRange(x_lo, x_hi), IndexRange(y_lo, y_hi)
        entry = {"xr": [x_lo, x_hi], "yr": [y_lo, y_hi]}
        for name, fn in (("prefix", prefix_thresholds),
                         ("suffix", suffix_thresholds),
                         ("first_lcs", first_lcs)):
            before = view.meter.eq_queries
            result = fn(view, xr, yr)
            entry[name] = list(result)
            entry[name + "_probes"] = view.meter.eq_queries - before
        record["subranges"].append(entry)
    record["peak_cells_subranges"] = view.meter.peak_cells
    record["live_cells_subranges"] = view.meter.live_cells
    return record


def _fixture() -> list[dict]:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("index", range(len(_cases())))
def test_golden_fixture_reproduced_exactly(index):
    entry = _fixture()[index]
    case = {key: entry[key] for key in ("kind", "x", "y")}
    assert case == _cases()[index]
    got = _record(case)
    want = {key: value for key, value in entry.items() if key not in case}
    assert got == want
    if case["kind"] == "tuple":
        # The int tuples are coded; the same tokens as a MinimalSeq never
        # are, so the list form alone must give the same record.
        assert _record(case, MinimalSeq) == want


if __name__ == "__main__":
    fixture = [{**case, **_record(case)} for case in _cases()]
    FIXTURE.write_text(json.dumps(fixture, separators=(",", ":")) + "\n")
    print(f"wrote {len(fixture)} cases to {FIXTURE}")
