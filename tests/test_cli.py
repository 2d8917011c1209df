"""Command line behaviour: formats, flags, exit codes, reproducibility."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lcs_enum import LcsEnumerator, MatchView, cli
from lcs_enum import oracle

X1 = "acddadacbcb"
Y1 = "caccbaadcad"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_positions_format(capsys):
    code, out, _ = run_cli(capsys, X1, Y1, "--format", "positions")
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 7
    assert lines[0] == "1 2 3 4 5"
    assert lines[-1] == "2 3 8 10 11"


def test_positions_is_default_format(capsys):
    _, out_default, _ = run_cli(capsys, X1, Y1)
    _, out_explicit, _ = run_cli(capsys, X1, Y1, "--format", "positions")
    assert out_default == out_explicit


def test_strings_format_with_limit(capsys):
    code, out, _ = run_cli(capsys, X1, Y1, "--format", "strings",
                           "--limit", "1")
    assert code == 0
    assert out == "caccb\n"


def test_empty_lcs_prints_empty_line(capsys):
    code, out, _ = run_cli(capsys, "a", "b", "--format", "strings")
    assert code == 0
    assert out == "\n"


def test_jsonl_format(capsys):
    code, out, _ = run_cli(capsys, X1, Y1, "--format", "jsonl", "--limit", "2")
    assert code == 0
    objs = [json.loads(line) for line in out.splitlines()]
    assert objs == [
        {"ordinal": 1, "positions": [1, 2, 3, 4, 5], "string": "caccb"},
        {"ordinal": 2, "positions": [1, 2, 3, 5, 9], "string": "cacbc"},
    ]


# Quotes, backslashes, non-ASCII and non-BMP characters; and no common
# character, an empty LCS.
TEXT_PAIRS = [(X1, Y1), ('a"\\é😀b\'', '"\\x😀éa\''), ("ab", "cd")]


@pytest.mark.parametrize("x, y", TEXT_PAIRS, ids=["plain", "escapes", "empty"])
@pytest.mark.parametrize("fmt", ["positions", "strings", "jsonl"])
def test_lines_are_what_print_and_json_dumps_give(capsys, x, y, fmt):
    want = io.StringIO()
    for ordinal, p in enumerate(LcsEnumerator(MatchView(x, y)), 1):
        string = MatchView(x, y).y_slice(p)
        if fmt == "positions":
            print(*p, file=want)
        elif fmt == "strings":
            print(string, file=want)
        else:
            print(json.dumps({"ordinal": ordinal, "positions": list(p),
                              "string": string}), file=want)
    code, out, _ = run_cli(capsys, x, y, "--format", fmt)
    assert code == 0
    assert out == want.getvalue()


@pytest.mark.parametrize("fmt", ["positions", "strings", "jsonl"])
def test_one_write_per_line(monkeypatch, fmt):
    class Counting(io.StringIO):
        writes = 0

        def write(self, s):
            self.writes += 1
            return super().write(s)

    out = Counting()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main([*TEXT_PAIRS[1], "--format", fmt]) == 0
    lines = out.getvalue().splitlines()
    assert len(lines) == 2 and out.writes == 2


def test_oracle_is_imported_only_for_check():
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = ("import sys; from lcs_enum import cli; cli.main(sys.argv[1:]); "
             "print('lcs_enum.oracle' in sys.modules, file=sys.stderr)")
    for flags, imported in (([], "False"), (["--check"], "True")):
        proc = subprocess.run(
            [sys.executable, "-c", probe, X1, Y1, *flags],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True)
        assert proc.returncode == 0
        assert proc.stderr.splitlines()[-1] == imported


def test_stats_go_to_stderr(capsys):
    code, out, err = run_cli(capsys, X1, Y1, "--stats")
    assert code == 0
    assert "1 2 3 4 5" in out
    for field in ("outputs:", "max delay:", "mean delay:", "peak aux cells:",
                  "lcs length:"):
        assert field in err
    assert "outputs:        7" in err


def test_check_passes(capsys):
    code, _, err = run_cli(capsys, X1, Y1, "--check")
    assert code == 0
    assert "check: PASS (7 sequences)" in err


def test_check_with_limit_compares_prefix(capsys):
    code, _, err = run_cli(capsys, X1, Y1, "--check", "--limit", "3")
    assert code == 0
    assert "check: PASS (3 sequences)" in err


def test_check_failure_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "all_lcs_position_sequences",
                        lambda view: [(9, 9)])
    code, _, err = run_cli(capsys, X1, Y1, "--check")
    assert code == 3
    assert "check: FAIL" in err


def test_check_size_limit_fails_before_any_output(capsys):
    code, out, err = run_cli(capsys, "abcdabcdabcdabcdab",
                             "badcbadcbadcbadcba", "--check", "--limit", "2")
    assert code == 1
    assert out == ""
    assert "oracle traceback limited" in err


def test_usage_errors_exit_1(capsys):
    assert run_cli(capsys)[0] == 1                      # no inputs
    assert run_cli(capsys, "onlyone")[0] == 1
    assert run_cli(capsys, "a", "b", "--limit", "0")[0] == 1
    assert run_cli(capsys, "a", "b", "--files", "f", "g")[0] == 1
    assert run_cli(capsys, "a", "b", "--bench")[0] == 1    # unknown option
    assert run_cli(capsys, "a", "b", "--format", "nope")[0] == 1
    assert run_cli(capsys, "--bench", "--lengths", "x,y")[0] == 1  # unknown


def test_empty_input_rejected(capsys):
    code, _, err = run_cli(capsys, "", "abc")
    assert code == 1
    assert "non-empty" in err


def test_file_inputs(tmp_path, capsys):
    fx = tmp_path / "x.txt"
    fy = tmp_path / "y.txt"
    fx.write_bytes(X1.encode() + b"\n")
    fy.write_bytes(Y1.encode() + b"\n")
    code, out, _ = run_cli(capsys, "--files", str(fx), str(fy), "--limit", "1")
    assert code == 0
    assert out == "1 2 3 4 5\n"


def test_file_trailing_newline_flag(tmp_path, capsys):
    fx = tmp_path / "x.txt"
    fy = tmp_path / "y.txt"
    fx.write_bytes(b"ab\n")
    fy.write_bytes(b"ab\n")
    code, out, _ = run_cli(capsys, "--files", str(fx), str(fy))
    assert (code, out) == (0, "1 2\n")
    # keep the newline: it now matches too
    code, out, _ = run_cli(capsys, "--files", str(fx), str(fy),
                           "--no-trim-trailing-newline")
    assert (code, out) == (0, "1 2 3\n")


def test_file_crlf_trimmed_as_one_newline(tmp_path, capsys):
    fx = tmp_path / "x.txt"
    fy = tmp_path / "y.txt"
    fx.write_bytes(b"ab\r\n")
    fy.write_bytes(b"ab\r\n")
    code, out, _ = run_cli(capsys, "--files", str(fx), str(fy))
    assert (code, out) == (0, "1 2\n")


def test_files_are_decoded_as_utf8(tmp_path, capsys):
    fx = tmp_path / "x.txt"
    fy = tmp_path / "y.txt"
    fx.write_bytes("a\u00e9\n".encode("utf-8"))
    fy.write_bytes("a\u00e8\n".encode("utf-8"))
    code, out, _ = run_cli(capsys, "--files", str(fx), str(fy),
                           "--format", "strings")
    # The common part is the code point "a", not the shared lead byte of
    # the two two-byte accented letters.
    assert (code, out) == (0, "a\n")


def test_undecodable_file_exits_1_naming_it(tmp_path, capsys):
    fx = tmp_path / "x.txt"
    fy = tmp_path / "latin1.txt"
    fx.write_bytes(b"ab\n")
    fy.write_bytes("a\u00e9b\n".encode("latin-1"))
    code, out, err = run_cli(capsys, "--files", str(fx), str(fy))
    assert (code, out) == (1, "")
    assert str(fy) in err and "UTF-8" in err


def test_missing_file_exits_2(tmp_path, capsys):
    fy = tmp_path / "y.txt"
    fy.write_bytes(b"a\n")
    code, _, err = run_cli(capsys, "--files", str(tmp_path / "nope"), str(fy))
    assert code == 2
    assert "error" in err


def test_installed_entry_point():
    # The child imports the package under test, installed or not.
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "lcs_enum.cli", X1, Y1, "--limit", "1"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "1 2 3 4 5\n"


def test_closed_stdout_exits_0_silently():
    # ``lcs-enum ... | head -1``: the periodic stream is about 1.5 MB, far
    # more than a pipe holds, so the writer meets the closed pipe.
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "lcs_enum.cli", "abcd" * 25, "dcba" * 25],
        env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"1 2 3 4 5 ")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert err == b""


def test_other_output_errors_exit_2(capsys, monkeypatch):
    class Full:
        def write(self, s):
            raise OSError(28, "No space left on device")

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", Full())
    code = cli.main(["ab", "ab"])
    assert code == 2
    assert "No space left" in capsys.readouterr().err
