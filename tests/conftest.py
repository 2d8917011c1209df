"""Shared test helpers: seeded random inputs, views of each input kind,
the successor's branch point by definition, and acceptance reporting."""

import random

from lcs_enum import BranchPoint, MatchView

ACCEPTANCE_LINES: list[str] = []


def rand_string(rng: random.Random, length: int, sigma: int) -> str:
    return "".join(chr(ord("a") + rng.randrange(sigma)) for _ in range(length))


def supersequence(rng: random.Random, y: str, extra: int, sigma: int) -> str:
    """y with ``extra`` random letters inserted: every letter of y matched."""
    out = list(y)
    for _ in range(extra):
        out.insert(rng.randint(0, len(out)), rand_string(rng, 1, sigma))
    return "".join(out)


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


# A str pair as each kind of input: str, bytes and a tuple of one-letter
# str tokens are each coded as two str of codes, searched with str.find
# and given bit-planes; a bare sequence is never coded, so the view
# copies it into tuples, searched with tuple.index in the list form only.
VIEW_KINDS = {"str": str, "bytes": str.encode, "tuple": tuple,
              "minimal": MinimalSeq}


def kind_view(kind: str, x: str, y: str) -> MatchView:
    """A view of the str pair as the input kind ``VIEW_KINDS[kind]``."""
    wrap = VIEW_KINDS[kind]
    return MatchView(wrap(x), wrap(y))


def branch_by_definition(p, successor):
    """Least k with p[k] < successor[k], and the successor's index there."""
    for k, (a, b) in enumerate(zip(p, successor), start=1):
        if a < b:
            return BranchPoint(k, b)
    raise AssertionError("successor does not depart from p")


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
