"""Enumerate all distinct longest common subsequences, one at a time.

The enumerator reports each distinct LCS of two sequences exactly once,
in lexicographic order of the positions of its leftmost embedding into
the second input, using O(L) auxiliary integers and O(|X| * |Y|)
equality probes between consecutive outputs. A quadratic-space oracle
is included for validation.

    >>> from lcs_enum import iter_lcs_positions
    >>> for p in iter_lcs_positions("abcbbc", "abbccb"):
    ...     print(p)
    (1, 2, 3, 4)
    (1, 2, 3, 6)
    (1, 2, 4, 5)
    (1, 2, 4, 6)
"""

from .core import MatchView, Meter, IndexRange
from .hirschberg import first_lcs, prefix_thresholds, suffix_thresholds, \
    split_point
from .branching import find_branch, greedy_embedding, BranchPoint
from .enumerator import LcsEnumerator, Counters, iter_lcs_positions

__version__ = "0.1.0"

__all__ = [
    "MatchView", "Meter", "IndexRange",
    "first_lcs", "prefix_thresholds", "suffix_thresholds", "split_point",
    "find_branch", "greedy_embedding", "BranchPoint",
    "LcsEnumerator", "Counters", "iter_lcs_positions",
    "__version__",
]
