"""Command line front end: enumerate, self-check, or benchmark.

Exit codes: 0 success, 1 bad usage or bad config, 2 I/O failure,
3 self-check mismatch.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass, field

from .core import MatchView
from .enumerator import LcsEnumerator
from . import oracle

_FORMATS = ("positions", "strings", "jsonl")


@dataclass
class RunConfig:
    x: str | None = None
    y: str | None = None
    x_file: str | None = None
    y_file: str | None = None
    fmt: str = "positions"
    limit: int | None = None
    stats: bool = False
    check: bool = False
    trim_trailing_newline: bool = True
    bench: bool = False
    lengths: tuple[int, ...] = (64, 128, 256, 512)
    alphabet: int = 4
    reps: int = 5
    seed: int = 0

    def validate(self) -> None:
        if self.bench:
            if self.x is not None or self.x_file is not None:
                raise ValueError("--bench takes no inputs")
            if any(n < 1 for n in self.lengths):
                raise ValueError("--lengths entries must be positive")
            if self.alphabet < 1:
                raise ValueError("--alphabet must be positive")
            if self.reps < 1:
                raise ValueError("--reps must be positive")
        else:
            inline = self.x is not None
            from_files = self.x_file is not None
            if inline == from_files:
                raise ValueError(
                    "give exactly one input pair: two strings, or --files")
        if self.limit is not None and self.limit < 1:
            raise ValueError("--limit must be at least 1")
        if self.fmt not in _FORMATS:
            raise ValueError(f"unknown format {self.fmt!r}")


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
    p.add_argument("--bench", action="store_true",
                   help="run the built-in random benchmark instead of "
                        "enumerating given inputs")
    p.add_argument("--lengths", default="64,128,256,512", metavar="N,N,...",
                   help="benchmark input lengths (default: 64,128,256,512)")
    p.add_argument("--alphabet", type=int, default=4, metavar="K",
                   help="benchmark alphabet size (default: 4)")
    p.add_argument("--reps", type=int, default=5, metavar="R",
                   help="random instances per benchmark length (default: 5)")
    p.add_argument("--seed", type=int, default=0,
                   help="benchmark RNG seed (default: 0)")
    return p


def config_from_args(args: argparse.Namespace) -> RunConfig:
    try:
        lengths = tuple(int(s) for s in str(args.lengths).split(","))
    except ValueError:
        raise ValueError("--lengths must be comma-separated integers")
    cfg = RunConfig(
        x=args.x, y=args.y,
        x_file=args.files[0] if args.files else None,
        y_file=args.files[1] if args.files else None,
        fmt=args.format, limit=args.limit, stats=args.stats,
        check=args.check,
        trim_trailing_newline=args.trim_trailing_newline,
        bench=args.bench, lengths=lengths, alphabet=args.alphabet,
        reps=args.reps, seed=args.seed)
    if cfg.x is not None and cfg.x_file is not None:
        raise ValueError("give the inputs inline or with --files, not both")
    if cfg.x is not None and cfg.y is None:
        raise ValueError("need both strings")
    cfg.validate()
    return cfg


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


def _emit(out, fmt: str, ordinal: int, positions: tuple[int, ...],
          view: MatchView) -> None:
    if fmt == "positions":
        print(*positions, file=out)
    elif fmt == "strings":
        print(view.y_slice(positions), file=out)
    else:
        print(json.dumps({"ordinal": ordinal,
                          "positions": list(positions),
                          "string": view.y_slice(positions)}), file=out)


def _run_pair(cfg: RunConfig, x: str, y: str) -> int:
    if not x or not y:
        print("lcs-enum: error: inputs must be non-empty", file=sys.stderr)
        return 1
    view = MatchView(x, y)
    # The oracle runs first so that an input too large for it fails
    # before anything is printed.
    want = oracle.all_lcs_position_sequences(view) if cfg.check else None
    enum = LcsEnumerator(view)
    emitted: list[tuple[int, ...]] = []
    ordinal = 0
    length = 0
    while (p := enum.next_sequence()) is not None:
        ordinal += 1
        length = len(p)
        _emit(sys.stdout, cfg.fmt, ordinal, p, enum.view)
        if cfg.check:
            emitted.append(p)
        if cfg.limit is not None and ordinal >= cfg.limit:
            break
    if cfg.stats:
        c = enum.counters
        print(f"outputs:        {c.outputs_emitted}", file=sys.stderr)
        print(f"max delay:      {c.max_delay} eq probes", file=sys.stderr)
        print(f"mean delay:     {c.mean_delay:.1f} eq probes",
              file=sys.stderr)
        print(f"total probes:   {c.eq_queries_total}", file=sys.stderr)
        print(f"peak aux cells: {c.peak_aux_cells}", file=sys.stderr)
        print(f"lcs length:     {length}  (|x|={len(x)}, |y|={len(y)})",
              file=sys.stderr)
    if cfg.check:
        got = emitted
        if cfg.limit is not None:
            want = want[:cfg.limit]
        if got == want:
            print(f"check: PASS ({len(got)} sequences)", file=sys.stderr)
        else:
            print("check: FAIL", file=sys.stderr)
            print(f"  enumerated: {got}", file=sys.stderr)
            print(f"  oracle:     {want}", file=sys.stderr)
            return 3
    return 0


def _run_bench(cfg: RunConfig) -> int:
    cap = cfg.limit if cfg.limit is not None else 50
    sigma = [chr(ord("a") + i) for i in range(cfg.alphabet)]
    print(f"{'n':>6} {'L(mean)':>8} {'outputs':>8} {'max delay':>10} "
          f"{'delay/n^2':>10} {'peak cells':>11}")
    for n in cfg.lengths:
        l_sum = 0
        out_sum = 0
        max_delay = 0
        peak = 0
        for rep in range(cfg.reps):
            rng = random.Random(f"{cfg.seed}:{n}:{rep}")
            x = "".join(rng.choice(sigma) for _ in range(n))
            y = "".join(rng.choice(sigma) for _ in range(n))
            enum = LcsEnumerator(MatchView(x, y))
            first = None
            count = 0
            while count < cap and (p := enum.next_sequence()) is not None:
                if first is None:
                    first = p
                count += 1
            c = enum.counters
            l_sum += len(first) if first is not None else 0
            out_sum += count
            max_delay = max(max_delay, c.max_delay)
            peak = max(peak, c.peak_aux_cells)
        reps = cfg.reps
        print(f"{n:>6} {l_sum / reps:>8.1f} {out_sum / reps:>8.1f} "
              f"{max_delay:>10} {max_delay / (n * n):>10.3f} {peak:>11}")
    return 0


def run(cfg: RunConfig) -> int:
    if cfg.bench:
        return _run_bench(cfg)
    if cfg.x_file is not None:
        x = _read_input(cfg.x_file, cfg.trim_trailing_newline)
        y = _read_input(cfg.y_file, cfg.trim_trailing_newline)
    else:
        x, y = cfg.x, cfg.y
    return _run_pair(cfg, x, y)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1
    try:
        cfg = config_from_args(args)
    except ValueError as e:
        print(f"lcs-enum: error: {e}", file=sys.stderr)
        return 1
    try:
        return run(cfg)
    except OSError as e:
        print(f"lcs-enum: error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"lcs-enum: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
