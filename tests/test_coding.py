"""Which pairs the view codes, and that every form gives the same stream.

A pair is coded (``core._code``) when both inputs are str, bytes,
bytearray, tuple or list, every distinct token is exactly str, bytes,
int or bool, and the codes fit in 256: one per shared token, one for all
tokens only in X and one for all tokens only in Y. A coded view searches
two str of codes with str.find and has bit-planes. A str pair that
cannot be coded stays str, searched with str.find in the list form only;
any other pair becomes two tuples searched with tuple.index. Whatever
the form, a pair must give the stream of ``oracle.lcs_position_stream``,
and the per-call probes and peak cells both of the pair relabelled onto
one character per token (ASCII while 94 printable letters suffice) and
of its ``MinimalSeq`` form, which is never coded.
"""

import random
from enum import IntEnum
from itertools import islice

import pytest

from conftest import MinimalSeq, rand_string
from lcs_enum import LcsEnumerator, MatchView
from lcs_enum import core, hirschberg
from lcs_enum.oracle import lcs_position_stream

LIMIT = 30


class Tok:
    """A hashable token equal only to itself."""


class Sym(IntEnum):
    A = ord("a")
    B = ord("b")
    C = ord("c")
    D = ord("d")


class Text(str):
    pass


def _stream(x, y):
    """Outputs, probes of every next_sequence() call, and peak cells, up to
    LIMIT outputs."""
    enum = LcsEnumerator(MatchView(x, y))
    outputs, probes = [], []
    while len(outputs) < LIMIT:
        before = enum.view.meter.eq_queries
        p = enum.next_sequence()
        probes.append(enum.view.meter.eq_queries - before)
        if p is None:
            break
        outputs.append(p)
    return outputs, probes, enum.counters.peak_aux_cells


def _relabelled(x, y):
    """The pair as str, one character per token by the token rule."""
    letters = {}

    def letter(t):
        key = tuple(t) if isinstance(t, list) else t
        if key not in letters:
            k = len(letters)
            letters[key] = chr(33 + k) if k < 94 else chr(0x100 + k)
        return letters[key]

    return "".join(map(letter, x)), "".join(map(letter, y))


def _with(rng, seq, token, times):
    """seq as a list with ``token`` inserted at ``times`` random places."""
    out = list(seq)
    for _ in range(times):
        out.insert(rng.randint(0, len(out)), token)
    return out


def _cases():
    """name -> (x, y, form): "coded", "str" or "tuples"."""
    rng = random.Random(25)
    x, y = rand_string(rng, 150, 4), rand_string(rng, 150, 4)
    bx, by = x.encode(), y.encode()
    every = range(256)
    shared = [chr(0x100 + k) for k in every]
    toks = {t: Tok() for t in b"abcd"}
    nan = float("nan")
    return {
        # Bytes that share all 256 values: 256 codes.
        "bytes-all-256": (bytes(rng.sample(every, 256)) + rng.randbytes(44),
                          bytes(rng.sample(every, 256)) + rng.randbytes(44),
                          "coded"),
        "bytearray": (bytearray(bx), bytearray(by), "coded"),
        "int-list-and-bytes": (list(bx), by, "coded"),
        "bool-tokens": (tuple(t > 98 for t in bx), [t > 98 for t in by],
                        "coded"),
        "ascii-str-subclass": (Text(x), Text(y), "coded"),
        "non-ascii-text": (x.translate(str.maketrans("abcd", "àéïø")),
                           y.translate(str.maketrans("abcd", "àéïø")),
                           "coded"),
        "cjk-text": (x.translate(str.maketrans("abcd", "一二三四")),
                     y.translate(str.maketrans("abcd", "一二三四")), "coded"),
        "word-tokens": (tuple(("alpha", "beta", "gamma", "delta")[t - 97]
                              for t in bx),
                        tuple(("alpha", "beta", "gamma", "delta")[t - 97]
                              for t in by), "coded"),
        # 0..254 shared, 1000 only in X and 2000 only in Y: 257 codes.
        "ints-257-codes": (_with(rng, rng.sample(range(255), 255), 1000, 10),
                           tuple(_with(rng, rng.sample(range(255), 255),
                                       2000, 10)), "tuples"),
        # 256 shared letters and "!" only in X: 257 codes.
        "text-257-codes": ("".join(_with(rng, rng.sample(shared, 256), "!",
                                         10)),
                           "".join(rng.sample(shared, 256)), "str"),
        "list-tokens": ([[t] for t in bx], [[t] for t in by], "tuples"),
        "float-tokens": (tuple(map(float, bx)), tuple(map(float, by)),
                         "tuples"),
        "shared-nan": (tuple(nan if t == 97 else t for t in bx),
                       tuple(nan if t == 97 else t for t in by), "tuples"),
        "tok-tokens": (tuple(toks[t] for t in bx), tuple(toks[t] for t in by),
                       "tuples"),
        "int-enum-tokens": (tuple(map(Sym, bx)), tuple(map(Sym, by)),
                            "tuples"),
    }


CASES = _cases()


@pytest.mark.parametrize("name", CASES)
def test_every_form_gives_the_streams_probes_and_cells(monkeypatch, name):
    x, y, form = CASES[name]
    view = MatchView(x, y)
    coded = form == "coded"
    assert (view._planes is not None) == coded
    assert (view._mirror._planes is not None) == coded
    assert view._find is view._mirror._find is (
        core._index_find if form == "tuples" else str.find)
    if coded:
        assert max(map(ord, view._x + view._y)) < 256
        assert (view._x, view._y) == core._code(x, y)
    elif form == "str":
        assert (view._x, view._y) == (x, y) and core._code(x, y) is None
    else:
        assert (view._x, view._y) == (tuple(x), tuple(y))
    ran = set()  # the bit-row kernels that ran
    kernels = ("_bit_rows", "_narrow_split", "_narrow_lcs")
    for kernel in kernels:
        def record(*args, kernel=kernel, run=getattr(hirschberg, kernel)):
            result = run(*args)
            if result is not False:  # the narrow kernel may hand back
                ran.add(kernel)
            return result
        monkeypatch.setattr(hirschberg, kernel, record)
    got = _stream(x, y)
    monkeypatch.undo()
    # Every coded pair here takes all three: wide folds, narrow splits in
    # the first output, and the narrow kernel.
    assert ran == (set(kernels) if coded else set()), ran
    assert got[0] == list(islice(lcs_position_stream(MatchView(x, y)), LIMIT))
    assert got == _stream(*_relabelled(x, y))
    assert got == _stream(MinimalSeq(x), MinimalSeq(y))


def test_absent_tokens_take_one_code_per_side():
    # 1 and 2 occur in X only, 4 and 5 in Y only: X's absent tokens share
    # one code and Y's another, neither the shared token's.
    cx, cy = core._code([1, 2, 3, 2], (3, 4, 5))
    assert cx[0] == cx[1] == cx[3] != cx[2] == cy[0]
    assert cy[1] == cy[2] not in cx
    assert len({*cx, *cy}) == 3
    # True == 1 and b"a" != "a": the token rule, as hash and == say.
    cx, cy = core._code((True, b"a", "a"), [1, "a"])
    assert cx[0] == cy[0] and cx[2] == cy[1] and cx[1] not in cy
    # One token, or none, on a side.
    assert core._code((7,), ()) == ("\x00", "")
    assert core._code([], b"a") == ("", "\x00")
    assert core._code([7], (7, 8)) == ("\x00", "\x00\x01")


def test_the_codes_fit_in_256():
    every = bytes(range(256))
    # 256 shared; 255 shared and one only in Y; 254 shared and one only
    # on each side: 256 codes each.
    for x, y in ((every, every[::-1]), (every[:255], every),
                 ([*every[:254], 1000], [*every[:254], 2000])):
        cx, cy = core._code(x, y)
        assert len({*cx, *cy}) == 256 and max(map(ord, cx + cy)) == 255
    # One more, on either side or shared: 257 codes.
    for x, y in (([*every, 1000], every), (every, [*every, 1000]),
                 ([*every[:255], 1000], every),
                 ([*every, 1000], [*every, 1000])):
        assert core._code(x, y) is None
    assert core._code("".join(map(chr, range(0x100, 0x201))),
                      "".join(map(chr, range(0x100, 0x201)))) is None
