"""Shared test helpers: seeded random inputs and acceptance reporting."""

import random

ACCEPTANCE_LINES: list[str] = []


def rand_string(rng: random.Random, length: int, sigma: int) -> str:
    return "".join(chr(ord("a") + rng.randrange(sigma)) for _ in range(length))


def rand_pair(rng: random.Random, max_len: int, sigmas=(1, 2, 4, 8)):
    m = rng.randint(1, max_len)
    n = rng.randint(1, max_len)
    sigma = rng.choice(sigmas)
    return rand_string(rng, m, sigma), rand_string(rng, n, sigma)


class MinimalSeq:
    """The least a sequence input needs: __len__ and __getitem__."""

    def __init__(self, items):
        self._items = list(items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, k):
        return self._items[k]


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
