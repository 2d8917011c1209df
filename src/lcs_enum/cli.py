"""Command line front end: enumerate or self-check.

Exit codes: 0 success, 1 bad usage, 2 I/O failure, 3 self-check
mismatch. A reader that closes standard output early (``| head``) ends
the run with 0 and nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core import MatchView
from .enumerator import LcsEnumerator

_FORMATS = ("positions", "strings", "jsonl")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for I/O.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="lcs-enum",
        description="Enumerate every distinct longest common subsequence "
                    "of two strings, in lexicographic order of leftmost "
                    "position sequences.")
    p.add_argument("x", nargs="?", help="first string (scanned left to right)")
    p.add_argument("y", nargs="?",
                   help="second string (positions refer to this one)")
    p.add_argument("--files", nargs=2, metavar=("XFILE", "YFILE"),
                   help="read the two inputs from UTF-8 text files instead")
    p.add_argument("--format", choices=_FORMATS, default="positions",
                   help="positions: space-separated indices per line; "
                        "strings: the subsequence itself; jsonl: one JSON "
                        "object per line (default: positions)")
    p.add_argument("--limit", type=int, default=None, metavar="N",
                   help="stop after N outputs")
    p.add_argument("--stats", action="store_true",
                   help="print delay and space counters to stderr at the end")
    p.add_argument("--check", action="store_true",
                   help="re-derive the answer with the quadratic-space "
                        "oracle and compare (small inputs only)")
    p.add_argument("--trim-trailing-newline",
                   action=argparse.BooleanOptionalAction, default=True,
                   help="with --files, drop one trailing newline per file")
    return p


def _read_input(path: str, trim: bool) -> str:
    with open(path, "rb") as f:
        data = f.read()
    if trim and data.endswith(b"\n"):
        data = data[:-1]
        if data.endswith(b"\r"):
            data = data[:-1]
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not valid UTF-8 (byte {e.start}: "
                         f"{e.reason})") from None


def _line(fmt: str, ordinal: int, positions: tuple[int, ...],
          view: MatchView) -> str:
    """One output line, newline included. It is written with one call,
    so an unbuffered stdout makes one system call per line; the text is
    what ``print(*positions)``, ``print(string)`` and ``json.dumps`` of
    the line's object would give."""
    if fmt == "positions":
        return " ".join(map(str, positions)) + "\n"
    if fmt == "strings":
        return view.y_slice(positions) + "\n"
    # A list of ints prints as JSON with json.dumps' separators.
    return (f'{{"ordinal": {ordinal}, "positions": {list(positions)}, '
            f'"string": {json.dumps(view.y_slice(positions))}}}\n')


def _run_pair(args: argparse.Namespace, x: str, y: str) -> int:
    view = MatchView(x, y)
    enum = LcsEnumerator(view)  # rejects an empty input: ValueError
    want = None
    if args.check:
        # Imported only here, which keeps it out of every other run's
        # start-up. It runs first so that an input too large for it fails
        # before anything is printed. The enumerator counts on a meter of
        # its own, so the oracle's probes stay out of its counters.
        from . import oracle
        want = oracle.all_lcs_position_sequences(view)
    write = sys.stdout.write
    emitted: list[tuple[int, ...]] = []
    ordinal = 0
    length = 0
    while (p := enum.next_sequence()) is not None:
        ordinal += 1
        length = len(p)
        write(_line(args.format, ordinal, p, enum.view))
        if args.check:
            emitted.append(p)
        if args.limit is not None and ordinal >= args.limit:
            break
    if args.stats:
        c = enum.counters
        print(f"outputs:        {c.outputs_emitted}", file=sys.stderr)
        print(f"max delay:      {c.max_delay} eq probes", file=sys.stderr)
        print(f"mean delay:     {c.mean_delay:.1f} eq probes",
              file=sys.stderr)
        print(f"total probes:   {c.eq_queries_total}", file=sys.stderr)
        print(f"peak aux cells: {c.peak_aux_cells}", file=sys.stderr)
        print(f"lcs length:     {length}  (|x|={len(x)}, |y|={len(y)})",
              file=sys.stderr)
    if args.check:
        got = emitted
        if args.limit is not None:
            want = want[:args.limit]
        if got == want:
            print(f"check: PASS ({len(got)} sequences)", file=sys.stderr)
        else:
            print("check: FAIL", file=sys.stderr)
            print(f"  enumerated: {got}", file=sys.stderr)
            print(f"  oracle:     {want}", file=sys.stderr)
            return 3
    return 0


def _usage_problem(args: argparse.Namespace) -> str | None:
    if (args.x is None) == (args.files is None):
        return "give exactly one input pair: two strings, or --files"
    if args.x is not None and args.y is None:
        return "need both strings"
    if args.limit is not None and args.limit < 1:
        return "--limit must be at least 1"
    return None


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1
    problem = _usage_problem(args)
    if problem is not None:
        print(f"lcs-enum: error: {problem}", file=sys.stderr)
        return 1
    try:
        if args.files:
            x, y = (_read_input(path, args.trim_trailing_newline)
                    for path in args.files)
        else:
            x, y = args.x, args.y
        code = _run_pair(args, x, y)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # Point stdout at devnull so that the interpreter's final flush of
        # what is still buffered stays silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as e:
        print(f"lcs-enum: error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"lcs-enum: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
