"""The driver loop: ordering, counters, and space release."""

import math
import random
from enum import IntEnum
from itertools import islice

import pytest

from conftest import MinimalSeq, rand_pair, rand_string
from lcs_enum import MatchView, LcsEnumerator, core, iter_lcs_positions
from lcs_enum.oracle import all_lcs_position_sequences, \
    exhaustive_lcs_position_sequences, lcs_position_stream

X1 = "acddadacbcb"
Y1 = "caccbaadcad"

EXAMPLE_SEQUENCES = [
    (1, 2, 3, 4, 5),
    (1, 2, 3, 5, 9),
    (2, 3, 4, 5, 9),
    (2, 3, 6, 7, 9),
    (2, 3, 6, 8, 9),
    (2, 3, 6, 8, 10),
    (2, 3, 8, 10, 11),
]
EXAMPLE_STRINGS = ["caccb", "cacbc", "accbc", "acaac", "acadc", "acada",
                   "acdad"]


def test_worked_example_order_and_strings():
    enum = LcsEnumerator(MatchView(X1, Y1))
    got = list(enum)
    assert got == EXAMPLE_SEQUENCES
    assert [enum.view.y_slice(p) for p in got] == EXAMPLE_STRINGS


def test_exhaustion_is_sticky():
    enum = LcsEnumerator(MatchView(X1, Y1))
    for _ in range(7):
        assert enum.next_sequence() is not None
    assert enum.next_sequence() is None
    assert enum.next_sequence() is None
    assert enum.finished


def test_single_lcs_cases():
    assert list(iter_lcs_positions("a", "a")) == [(1,)]
    assert list(iter_lcs_positions("a", "aa")) == [(1,)]
    assert list(iter_lcs_positions("ab", "ab")) == [(1, 2)]


def test_no_common_character_emits_one_empty_sequence():
    assert list(iter_lcs_positions("a", "b")) == [()]
    assert list(iter_lcs_positions("abab", "cdcd")) == [()]


def test_rejects_empty_input():
    with pytest.raises(ValueError):
        LcsEnumerator(MatchView("", "abc"))
    with pytest.raises(ValueError):
        LcsEnumerator(MatchView("abc", ""))


def test_enumerate_all_counts():
    assert sum(1 for _ in LcsEnumerator(MatchView(X1, Y1))) == 7
    assert sum(1 for _ in LcsEnumerator(MatchView("abc", "abc"))) == 1


def test_enumerate_all_sink_order():
    seen = []
    for p in LcsEnumerator(MatchView(X1, Y1)):
        seen.append(p)
    assert seen == EXAMPLE_SEQUENCES


def test_matches_oracle_on_random_instances():
    rng = random.Random(301)
    for _ in range(500):
        x, y = rand_pair(rng, 12)
        got = list(iter_lcs_positions(x, y))
        want = all_lcs_position_sequences(MatchView(x, y))
        assert got == want, (x, y)


def test_outputs_strictly_increase():
    rng = random.Random(302)
    for _ in range(300):
        x, y = rand_pair(rng, 12, sigmas=(2, 4))
        got = list(iter_lcs_positions(x, y))
        assert all(a < b for a, b in zip(got, got[1:]))


def test_enumerations_are_independent():
    view = MatchView(X1, Y1)
    a = LcsEnumerator(view)
    b = LcsEnumerator(view)
    a.next_sequence()
    a.next_sequence()
    assert b.next_sequence() == EXAMPLE_SEQUENCES[0]
    assert a.counters.outputs_emitted == 2
    assert b.counters.outputs_emitted == 1
    # the shared original view's own meter saw none of it
    assert view.meter.eq_queries == 0


# --- instrumentation ----------------------------------------------------

def test_counters_on_example():
    enum = LcsEnumerator(MatchView(X1, Y1))
    list(enum)
    c = enum.counters
    assert c.outputs_emitted == 7
    assert c.gaps_closed == 8           # seven outputs plus the final search
    # nothing after the last gap closed
    assert enum.view.meter.eq_queries - c._mark == 0
    assert c.max_delay >= 1
    assert c.mean_delay * c.gaps_closed == c.eq_queries_total
    assert 0 < c.mean_delay <= c.max_delay


def test_delay_never_exceeds_quadratic_bound():
    rng = random.Random(303)
    for _ in range(300):
        x, y = rand_pair(rng, 14)
        enum = LcsEnumerator(MatchView(x, y))
        list(enum)
        assert enum.counters.max_delay <= 4 * len(x) * len(y), (x, y)


def test_peak_cells_within_linear_bound():
    rng = random.Random(304)
    for _ in range(300):
        x, y = rand_pair(rng, 20)
        enum = LcsEnumerator(MatchView(x, y))
        first = enum.next_sequence()
        list(enum)
        bound = 16 * (len(first) + 1) + 8 * (math.ceil(math.log2(len(x))) + 1
                                             if len(x) > 1 else 1)
        assert enum.counters.peak_aux_cells <= bound, (x, y)


def test_all_cells_released_after_exhaustion():
    rng = random.Random(305)
    for _ in range(200):
        x, y = rand_pair(rng, 12)
        enum = LcsEnumerator(MatchView(x, y))
        list(enum)
        assert enum.view.meter.live_cells == 0


def test_eq_queries_this_delay_resets_per_output():
    enum = LcsEnumerator(MatchView(X1, Y1))
    seen = []
    while enum.next_sequence() is not None:
        seen.append(enum.view.meter.eq_queries - enum.counters._mark)
    # right after an output the gap counter has been restarted, so it
    # only holds the probes of the branch search that already ran
    assert all(v >= 0 for v in seen)
    c = enum.counters
    assert c.mean_delay * c.gaps_closed == c.eq_queries_total


def _stream(x, y, limit=None):
    """Outputs, probes of every next_sequence() call, and peak cells, up to
    ``limit`` outputs."""
    enum = LcsEnumerator(MatchView(x, y))
    outputs, probes = [], []
    while len(outputs) != limit:
        before = enum.view.meter.eq_queries
        p = enum.next_sequence()
        probes.append(enum.view.meter.eq_queries - before)
        if p is None:
            break
        outputs.append(p)
    return outputs, probes, enum.counters.peak_aux_cells


def test_every_input_type_gives_the_same_stream():
    # A str pair is searched with str.find; bytes, bytearray and int
    # tuples or lists of bytes are coded as two bytes and searched with
    # bytes.find; every other pair, mixed ones included, is held as two
    # tuples searched with tuple.index, never with a substring search on
    # the other side's elements. An int above 255 keeps its list uncoded.
    rng = random.Random(11)
    for _ in range(60):
        x, y = rand_pair(rng, 24, sigmas=(1, 2, 4))
        want = _stream(x, y)
        bx, by = x.encode(), y.encode()
        wide_x, wide_y = ([1000 if t == ord("a") else t for t in s]
                          for s in (bx, by))
        for pair in [(bx, by), (bytearray(bx), bytearray(by)),
                     (bytearray(bx), by), (tuple(x), tuple(y)),
                     (list(x), list(y)), (MinimalSeq(x), MinimalSeq(y)),
                     (tuple(x), y), (x, list(y)), (list(bx), by),
                     (MinimalSeq(bx), list(by)),
                     (wide_x, wide_y), (tuple(wide_x), wide_y)]:
            assert _stream(*pair) == want
    wide = [ord("a"), 1000]
    view = MatchView(wide, b"a")
    assert (view._x, view._y) == (tuple(wide), (ord("a"),))  # as tuples


def test_uncoded_tuples_and_lists_search_with_index():
    # One-letter str tokens are not bytes, so a tuple or list pair of them
    # stays uncoded: the view and its mirror hold two tuples each and
    # search forward with index. It must give the str pair's stream,
    # per-gap probes and peak cells.
    rng = random.Random(12)
    for n in (64, 150):
        x, y = rand_string(rng, n, 4), rand_string(rng, n, 4)
        want = _stream(x, y, 200)
        for pair in [(tuple(x), tuple(y)), (list(x), list(y)),
                     (tuple(x), list(y)), (MinimalSeq(x), tuple(y))]:
            view = MatchView(*pair)
            mirror = view._mirror
            assert view._find is mirror._find is core._index_find
            assert (view._x, view._y) == (tuple(x), tuple(y))
            assert (mirror._x, mirror._y) == (tuple(x[::-1]), tuple(y[::-1]))
            assert _stream(*pair, 200) == want


def test_streams_past_the_traceback_equal_the_suffix_table_walk():
    # len_y around one and two bit words, where the branch search's rows
    # switch to the bit form, far past the traceback oracle's 14.
    rng = random.Random(13)
    for w in (63, 64, 65, 127, 128, 129):
        for sigma in (2, 2, 4, 4):
            x = rand_string(rng, rng.randint(40, 160), sigma)
            y = rand_string(rng, w, sigma)
            want = list(islice(lcs_position_stream(MatchView(x, y)), 300))
            for pair in ((x, y), (x.encode(), y.encode()),
                         (tuple(x), tuple(y))):
                assert list(islice(LcsEnumerator(MatchView(*pair)), 300)) \
                    == want, pair
    x, y = "abcd" * 25, "dcba" * 25
    assert list(islice(LcsEnumerator(MatchView(x, y)), 2000)) == \
        list(islice(lcs_position_stream(MatchView(x, y)), 2000))


def test_multi_character_tokens_are_not_substrings():
    x = ("ab", "b", "a")
    y = "aab"
    got = list(LcsEnumerator(MatchView(x, y)))
    assert got == all_lcs_position_sequences(MatchView(x, y))
    assert got == [(1,), (3,)]


class Tok:
    """A token with an index whose copies are never equal (identity)."""

    def __index__(self):
        return 0


def test_tokens_sharing_a_byte_stay_apart():
    # bytes() takes any __index__, so (a, a) and (b, a) would both code
    # to two zero bytes and merge b with a.
    a, b = Tok(), Tok()
    for wrap in (tuple, list):
        view = MatchView(wrap((a, a)), wrap((b, a)))
        assert list(LcsEnumerator(view)) == [(2,)]
        assert view.y_slice((1, 2)) == (b, a)


class Bit(IntEnum):
    OFF = 0
    ON = 1


def test_bool_and_int_enum_tokens_give_the_int_stream():
    x, y = (1, 0, 1, 1, 0, 0, 1), (0, 1, 1, 0, 1, 0)
    want = _stream(x, y)
    for kind in (bool, Bit):
        kx, ky = tuple(map(kind, x)), tuple(map(kind, y))
        assert _stream(kx, ky) == want
        assert _stream(list(kx), bytes(y)) == want
        rendered = MatchView(kx, ky).y_slice((1, 2))
        assert rendered == (kind(0), kind(1))
        assert all(type(t) is kind for t in rendered)


def test_shared_nan_token_matches_the_oracle():
    nan = float("nan")
    x = (nan, 1, nan, 2)
    y = (2, nan, 1, nan)
    view = MatchView(x, y)
    got = list(LcsEnumerator(view))
    assert got == all_lcs_position_sequences(view)
    assert got == exhaustive_lcs_position_sequences(view)
    assert got == [(2, 3, 4)]
