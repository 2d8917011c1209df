"""The docstring examples of every ``lcs_enum`` module run and pass."""

import doctest
import importlib
import pkgutil

import pytest

import lcs_enum

MODULES = sorted(info.name for info in pkgutil.iter_modules(
    lcs_enum.__path__, "lcs_enum."))


# Modules whose docstrings hold examples; a silent skip would hide them.
WITH_EXAMPLES = {"lcs_enum", "lcs_enum.enumerator"}


def test_modules_are_found():
    assert {"lcs_enum.branching", "lcs_enum.enumerator"} <= set(MODULES)


@pytest.mark.parametrize("name", ["lcs_enum"] + MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, name
    assert result.attempted or name not in WITH_EXAMPLES, name
