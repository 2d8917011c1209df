"""The package's public names, the benchmark's imports, and import cost."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import lcs_enum

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

PUBLIC = [
    "MatchView", "Meter", "IndexRange",
    "first_lcs", "prefix_thresholds", "suffix_thresholds", "split_point",
    "find_branch", "greedy_embedding", "BranchPoint",
    "LcsEnumerator", "Counters", "iter_lcs_positions",
    "__version__",
]


def test_all_is_pinned_and_resolves():
    assert lcs_enum.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(lcs_enum, name) is not None, name


def test_benchmark_imports_resolve():
    # perfbench/ is not edited along with the package, so every name it
    # takes from lcs_enum must stay: a public name or a submodule.
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "lcs_enum"
             for alias in node.names]
    assert {"IndexRange", "first_lcs", "cli"} <= set(names)
    for name in names:
        if not hasattr(lcs_enum, name):
            importlib.import_module(f"lcs_enum.{name}")


def test_cli_import_leaves_dataclasses_out():
    src = str(Path(lcs_enum.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    # dataclasses pulls in inspect: several milliseconds of start-up.
    code = ("import sys; before = set(sys.modules); import lcs_enum.cli; "
            "print('dataclasses' in set(sys.modules) - before)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
