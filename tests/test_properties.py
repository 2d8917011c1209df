"""Per-instance guarantees on random small inputs, for every view type.

str, bytes and tuple views of the same content must give the oracle's
outputs and branch points, keep every gap within 4 * |X| * |Y| probes
and release every auxiliary cell once the enumeration is exhausted.
Renaming the symbols of a pair must change nothing the enumerator
reports: positions, probes and peak cells depend only on which
positions match.
"""

from hypothesis import given, settings, strategies as st

from conftest import branch_by_definition, kind_view
from lcs_enum import LcsEnumerator, MatchView, find_branch
from lcs_enum.oracle import all_lcs_position_sequences

DELAY_CONSTANT = 4


@st.composite
def pairs(draw):
    """A str pair short enough for the traceback oracle."""
    letters = "abcd"[:draw(st.integers(1, 4))]
    text = st.text(alphabet=letters, min_size=1, max_size=12)
    return draw(text), draw(text)


def views(x, y):
    """str, bytes, tuple and MinimalSeq views of the same content; only
    the last is never coded."""
    return [kind_view(kind, x, y)
            for kind in ("str", "bytes", "tuple", "minimal")]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(pairs())
def test_find_branch_is_the_successor_on_every_view(pair):
    x, y = pair
    seqs = all_lcs_position_sequences(MatchView(x, y))
    want = [branch_by_definition(p, s)
            for p, s in zip(seqs, seqs[1:])] + [None]
    for view in views(x, y):
        assert [find_branch(view, p) for p in seqs] == want, view
        assert view.meter.live_cells == 0


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(pairs())
def test_every_gap_is_quadratic_and_cells_return_to_zero(pair):
    x, y = pair
    want = all_lcs_position_sequences(MatchView(x, y))
    bound = DELAY_CONSTANT * len(x) * len(y)
    for view in views(x, y):
        enum = LcsEnumerator(view)
        got = []
        while (p := enum.next_sequence()) is not None:
            got.append(p)
            assert enum.counters.max_delay <= bound, (view, p)
        assert got == want, view
        assert enum.counters.max_delay <= bound, view
        assert enum.view.meter.live_cells == 0, view


# Four renamings of the symbols 0..3: other ASCII letters, non-ASCII
# text, bytes and int tokens. All four are coded, so bit rows may run.
RELABELS = ("WXYZ", "\u00e9\u03b1\u044f\u4e2d", bytes((0, 255, 97, 10)),
            (7, -1, 10 ** 20, 3))
RELABEL_OUTPUTS = 12


@st.composite
def symbol_pairs(draw):
    """Two words over 1 to 4 symbols, long enough for the bit rows."""
    sigma = draw(st.integers(1, 4))

    def word():
        n = draw(st.integers(1, 160))
        return draw(st.lists(st.integers(0, sigma - 1),
                             min_size=n, max_size=n))

    return word(), word()


def relabel(word, symbols, order=range(4)):
    """``word`` with symbol s written as symbols[order[s]], in symbols' type."""
    items = [symbols[order[s]] for s in word]
    if isinstance(symbols, str):
        return "".join(items)
    return type(symbols)(items)


def stream_record(x, y):
    """Positions, probe total and peak cells after each of the first calls."""
    enum = LcsEnumerator(MatchView(x, y))
    record = []
    for _ in range(RELABEL_OUTPUTS):
        p = enum.next_sequence()
        c = enum.counters
        record.append((p, c.eq_queries_total, c.peak_aux_cells))
        if p is None:
            break
    return record


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(symbol_pairs(), st.permutations(range(4)))
def test_alphabet_bijection_changes_nothing(pair, order):
    x, y = pair
    want = stream_record(relabel(x, "abcd"), relabel(y, "abcd"))
    for symbols in RELABELS:
        got = stream_record(relabel(x, symbols, order),
                            relabel(y, symbols, order))
        assert got == want, symbols
