"""Every name a trustmarket module or a test module imports is used or
exported, and only `eventlog` writes market state.

A stdlib `ast` check over `src/trustmarket/*.py` (the package's
`__init__.py`, which imports to re-export, is left out), `tests/*.py` and
`perfbench/*.py`, which it only reads.
An imported name passes when the module references it or lists it in
`__all__`; an import statement with a `# noqa` comment on any of its
lines is skipped.  Every name in a module's `__all__`, the package's
included, must exist in that module.

State is written one way, through `eventlog.apply_event`: no other module
of the package calls a method named `register` or `record`, the writers
of `Registry` and `RatingStore`.

The package has no runtime dependencies: every absolute import in
`src/trustmarket/*.py` names a module of the standard library.
"""

import ast
import importlib
from pathlib import Path
import sys

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "trustmarket"
MODULES = sorted(path for path in PACKAGE.glob("*.py")
                 if path.name != "__init__.py")
TEST_MODULES = sorted((ROOT / "tests").glob("*.py"))
BENCH_MODULES = sorted((ROOT / "perfbench").glob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of each imported name the module neither references
    nor lists in `__all__`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa" in lines[number - 1]
               for number in range(node.lineno, node.end_lineno + 1)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported.append((node.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES + TEST_MODULES + BENCH_MODULES,
                         ids=lambda path: path.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = ("import os\n"
              "from json import dumps, loads\n"
              "from sys import argv  # noqa: F401\n"
              "from math import (inf,\n"
              "                  nan)  # noqa\n"
              "from re import compile as build\n"
              "__all__ = ['loads']\n"
              "print(os.sep, build)\n")
    assert unused_imports(source) == [(2, "dumps")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_exported_name_exists(path):
    # a stale `__all__` entry breaks only `from module import *`
    name = "trustmarket" + ("" if path.stem == "__init__"
                            else f".{path.stem}")
    module = importlib.import_module(name)
    assert [export for export in getattr(module, "__all__", ())
            if not hasattr(module, export)] == []


def state_writes(source: str) -> list:
    """(line, name) of each call of a method named `register` or
    `record`."""
    return [(node.lineno, node.func.attr)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("register", "record")]


@pytest.mark.parametrize("path", [path for path in MODULES
                                  if path.name != "eventlog.py"],
                         ids=lambda path: path.name)
def test_only_eventlog_writes_state(path):
    assert state_writes(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_a_state_write():
    source = ("state.registry.register(credentials)\n"
              "store.record(rating, registry=registry)\n"
              "register(credentials)\n"
              "log.records\n")
    assert state_writes(source) == [(1, "register"), (2, "record")]


def third_party_imports(source: str) -> list:
    """(line, module) of each absolute import of a module whose top-level
    package is not in the standard library."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, module) for module in modules
                  if module.split(".")[0] not in sys.stdlib_module_names]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_the_package_imports_only_the_standard_library(path):
    assert third_party_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_a_third_party_import():
    source = ("import json, hypothesis.strategies\n"
              "from os.path import join\n"
              "from . import errors\n"
              "from .identity import Registry\n"
              "def load():\n"
              "    from numpy import array\n")
    assert third_party_imports(source) == [(1, "hypothesis.strategies"),
                                           (6, "numpy")]
