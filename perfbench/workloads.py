"""The benchmark's workloads: seeded input pairs and the stream pulled from each.

Every instance is generated from ``(workload name, seed, instance index)``
alone, so the same seed always gives the same inputs and one instance can
be rebuilt without the others. The program under test only ever sees the
generated pairs.

How much a stream of outputs costs depends on the structure of the pair:
among random pairs of one size, the probes of the first few dozen gaps
differ by a factor of 3 to 10 (coefficient of variation about 0.7), and
even 256 pairs per run left a spread of 0.06 to 0.1 between seeds on top
of the machine's own. So every workload fixes the structure of its pairs
and the seed only relabels their symbols, which changes no probe count
and no output position.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from typing import Callable, Sequence

from stats import tail_percentile


@dataclass(frozen=True)
class Workload:
    name: str
    instances: int     # input pairs per pass
    stream: int        # outputs pulled from each instance
    cli_every: int     # the CLI runs on every cli_every-th instance of a pass
    _make: Callable[[random.Random, int], tuple[Sequence, Sequence]]
    first_reps: int = 0  # extra first outputs timed per instance and pass
    gap_reps: int = 0    # extra timings of each gap per pass

    def pairs(self, seed: int) -> list[tuple[Sequence, Sequence]]:
        return [self._make(random.Random(f"{self.name}:{seed}:{k}"), k)
                for k in range(self.instances)]

    def cli_indices(self) -> list[int]:
        return list(range(0, self.instances, self.cli_every))

    @property
    def tail_pct(self) -> float:
        """The highest percentile with at least 10 gaps beyond it in one pass."""
        return tail_percentile(self.instances * (self.stream - 1))


def as_text(seq: Sequence) -> str:
    """The str form the CLI reads: token t becomes the letter chr(97 + t).

    Equality between positions is unchanged, so the CLI run on the text
    must print the same position stream as the library run on the tokens.
    """
    return seq if isinstance(seq, str) else "".join(chr(97 + t) for t in seq)


def _relabel(rng: random.Random, x: str, y: str) -> tuple[str, str]:
    """Map the letters abcd to four distinct letters drawn from rng."""
    table = str.maketrans("abcd", "".join(rng.sample(string.ascii_lowercase, 4)))
    return x.translate(table), y.translate(table)


def _fixed_random(name: str, k: int, n: int, sigma: int) -> tuple[str, str]:
    """The k-th random pair of the workload, the same for every seed."""
    base = random.Random(f"{name}:base:{k}")
    letters = "abcd"[:sigma]
    return ("".join(base.choice(letters) for _ in range(n)),
            "".join(base.choice(letters) for _ in range(n)))


def _rand4(rng: random.Random, k: int):
    return _relabel(rng, *_fixed_random("first-rand4", k, 1024, 4))


def _rand2_tokens(rng: random.Random, k: int):
    tokens = dict(zip("ab", rng.sample(range(26), 2)))
    x, y = _fixed_random("stream-rand2-tok", k, 128, 2)
    return tuple(tokens[c] for c in x), tuple(tokens[c] for c in y)


def _periodic(rng: random.Random, k: int):
    return _relabel(rng, "abcd" * 25, "dcba" * 25)


# Why each workload was chosen is in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("first-rand4", instances=4, stream=26, cli_every=1,
             _make=_rand4, gap_reps=3),
    Workload("stream-rand2-tok", instances=128, stream=12, cli_every=16,
             _make=_rand2_tokens),
    Workload("stream-periodic", instances=1, stream=10001, cli_every=1,
             _make=_periodic, first_reps=400),
)}
