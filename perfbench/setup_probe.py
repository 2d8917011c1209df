"""Set-up cost in a fresh interpreter: import lcs_enum, build every enumerator.

Usage: python setup_probe.py INSTANCES_JSON

Reads the workload's input pairs (a JSON list of [x, y], token lists for
tuple inputs) before the clock starts, then times ``import lcs_enum`` plus
``MatchView(x, y)`` and ``LcsEnumerator(view)`` for every pair, and prints
the seconds taken.
"""

import json
import sys
import time

with open(sys.argv[1]) as f:
    pairs = [(x, y) if isinstance(x, str) else (tuple(x), tuple(y))
             for x, y in json.load(f)]

t0 = time.perf_counter()
from lcs_enum import LcsEnumerator, MatchView  # noqa: E402  (timed)

enumerators = [LcsEnumerator(MatchView(x, y)) for x, y in pairs]
print(time.perf_counter() - t0)
