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


def _private_names(stmt: ast.stmt) -> set[str]:
    """The module-level private names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = {stmt.name}
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = {node.id for target in targets for node in ast.walk(target)
                 if isinstance(node, ast.Name)}
    else:
        names = set()
    return {name for name in names
            if name.startswith("_") and not name.startswith("__")}


def test_every_private_helper_is_used_by_the_package():
    # A private function, class or constant that the package itself never
    # loads, outside its own definition, is dead code or test-only code.
    src = Path(lcs_enum.__file__).resolve().parent
    defined: dict[str, str] = {}
    loaded: set[str] = set()
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            own = _private_names(stmt)
            defined.update(dict.fromkeys(own, path.name))
            loaded |= {node.id for node in ast.walk(stmt)
                       if isinstance(node, ast.Name)
                       and isinstance(node.ctx, ast.Load)
                       and node.id not in own}
    assert defined
    unused = sorted(f"{module}: {name}" for name, module in defined.items()
                    if name not in loaded)
    assert not unused, unused


def test_branching_takes_only_the_fold_from_hirschberg():
    # The bit form stays behind hirschberg._fold: the branch search folds
    # its rows through it and builds no V or plane window of its own.
    tree = ast.parse((Path(lcs_enum.__file__).resolve().parent
                      / "branching.py").read_text())
    taken = set()
    for node in ast.walk(tree):
        # A whole-module import shows up as the module's name.
        if isinstance(node, ast.ImportFrom):
            from_hirschberg = (node.module or "").endswith("hirschberg")
            taken |= {alias.name for alias in node.names
                      if from_hirschberg or alias.name == "hirschberg"}
        elif isinstance(node, ast.Import):
            taken |= {alias.name for alias in node.names
                      if alias.name.endswith("hirschberg")}
    assert taken == {"_FRAME_CELLS", "_fold"}


def test_the_enumerator_carries_only_scalars_between_outputs():
    # Besides the output buffer, the view and the counters, what an
    # enumeration keeps between outputs is O(1): ints and bools.
    enum = lcs_enum.LcsEnumerator(lcs_enum.MatchView("abcd" * 12,
                                                     "dcba" * 12))
    for _ in range(50):
        assert enum.next_sequence() is not None
    carried = {name: value for name, value in vars(enum).items()
               if name not in ("_p", "_view", "counters")}
    assert {"_k_star", "_frontier", "_k_mark", "_i_mark"} <= set(carried)
    assert all(type(value) in (int, bool) for value in carried.values()), \
        carried
