"""Repository hygiene: no tracked file is one `.gitignore` excludes, the
library holds no float arithmetic, no library module imports another
one's private names, only `values.py` stores a value's fields past its
refused assignment, the library does not import `dataclasses`, whose
class generation (and its `inspect` import) each CLI process would pay,
importing the CLI loads neither the `json` package nor the `paper-check`
table and builds no byte-lane table, no module holds state that outlives
a call (a ladder's g and windows live on the caller's `NuWalk`, and each
coefficient-set call builds its own I_plus), a cold request builds
arguments for its own subcommand only, and the CLI reads no
single-underscore attribute."""

import ast
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(
    shutil.which("git") is None or not (ROOT / ".git").exists(),
    reason="needs git and a checkout",
)
def test_no_ignored_file_is_tracked():
    proc = subprocess.run(
        ["git", "ls-files", "-i", "-c", "--exclude-standard"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    assert proc.stdout == ""


# math functions that return floats, and math's float constants
FLOAT_MATH = {"sqrt", "log", "log2", "log10", "exp", "pi", "e", "tau", "inf", "nan"}


def _float_uses(tree):
    """(line, what) for float literals, float(...) calls and FLOAT_MATH names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"literal {node.value!r}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "float":
                yield node.lineno, "float(...)"
        elif isinstance(node, ast.Attribute) and node.attr in FLOAT_MATH:
            if isinstance(node.value, ast.Name) and node.value.id == "math":
                yield node.lineno, f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name in FLOAT_MATH:
                    yield node.lineno, f"from math import {alias.name}"


def test_library_has_no_floats():
    # `isinstance(x, float)` rejections name the type without calling it
    found = [
        f"{path.relative_to(ROOT)}:{line}: {what}"
        for path in sorted((ROOT / "src" / "fptkit").rglob("*.py"))
        for line, what in _float_uses(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_float_scan_catches_each_kind():
    src = (
        "import math\nfrom math import sqrt\n"
        "x = 0.5\ny = float(3)\nz = math.log(2)\nok = isinstance(x, float)\n"
    )
    assert sorted(line for line, _ in _float_uses(ast.parse(src))) == [2, 3, 4, 5]


def _private_imports(tree):
    """(line, what) for each underscore name imported from an fptkit module."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = "." * node.level + (node.module or "")
        if node.level == 0 and module.split(".")[0] != "fptkit":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                yield node.lineno, f"from {module} import {alias.name}"


def test_library_imports_no_private_names():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {what}"
        for path in sorted((ROOT / "src" / "fptkit").rglob("*.py"))
        for line, what in _private_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_private_import_scan_catches_each_kind():
    src = (
        "from __future__ import annotations\nfrom .coeffsets import CoeffSet, _x\n"
        "from fptkit.frobenius import _budgeted_q\nfrom . import pure\n"
        "from ._private import name\nfrom os import _exit\n"
    )
    assert sorted(line for line, _ in _private_imports(ast.parse(src))) == [2, 3]


def _field_stores(tree):
    """(line, what) for each `object.__setattr__` and each `__setstate__`,
    defined or named: the ways to set a field the class refuses to assign."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if node.attr == "__setattr__" and isinstance(node.value, ast.Name):
                if node.value.id == "object":
                    yield node.lineno, "object.__setattr__"
            elif node.attr == "__setstate__":
                yield node.lineno, "__setstate__"
        elif isinstance(node, ast.FunctionDef) and node.name == "__setstate__":
            yield node.lineno, "def __setstate__"
        elif isinstance(node, ast.Name) and node.id == "__setstate__":
            yield node.lineno, "__setstate__"


def test_only_values_stores_fields():
    # `Value.__init__` is the one constructor; every other class calls it
    found = {
        path.relative_to(ROOT).as_posix(): [
            what for _, what in _field_stores(ast.parse(path.read_text(), str(path)))
        ]
        for path in sorted((ROOT / "src" / "fptkit").rglob("*.py"))
    }
    assert found.pop("src/fptkit/values.py") == ["object.__setattr__"]
    assert {path: whats for path, whats in found.items() if whats} == {}


def test_field_store_scan_catches_each_kind():
    src = (
        "class A:\n    def __init__(self, x):\n        object.__setattr__(self, 'x', x)\n"
        "    def __setstate__(self, state):\n        pass\n"
        "set_field = object.__setattr__\nA.__setstate__ = None\n__setstate__ = 1\n"
        "setattr(A, 'x', 1)\nsuper().__setattr__('x', 1)\n"
    )
    assert sorted(line for line, _ in _field_stores(ast.parse(src))) == [3, 4, 6, 7, 8]


CACHES = {"lru_cache", "cache"}


def _is_cache(node):
    """Is node `lru_cache`, `functools.cache` or the like?"""
    if isinstance(node, ast.Attribute):
        return node.attr in CACHES
    return isinstance(node, ast.Name) and node.id in CACHES


def _module_state(tree):
    """(line, what) for each `global` name and each function cache, cached
    by decorator or by a call: state that outlives the call that made it."""
    decorators = set()  # ids of the calls that decorate
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            for name in node.names:
                yield node.lineno, f"global {name}"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                if _is_cache(dec.func if isinstance(dec, ast.Call) else dec):
                    decorators.add(id(dec))
                    yield node.lineno, f"cached {node.name}"
        elif isinstance(node, ast.Call) and id(node) not in decorators:
            if _is_cache(node.func):
                yield node.lineno, "cache call"


def test_module_state_has_an_owner():
    # g and the windows of its powers live on the caller's `NuWalk`, and
    # each coefficient-set call builds its own I_plus
    found = {
        path.relative_to(ROOT).as_posix(): sorted(
            what for _, what in _module_state(ast.parse(path.read_text(), str(path)))
        )
        for path in sorted((ROOT / "src" / "fptkit").rglob("*.py"))
    }
    assert {path: whats for path, whats in found.items() if whats} == {}


def test_module_state_scan_catches_each_kind():
    src = (
        "import functools\nfrom functools import lru_cache, cache\n"
        "@lru_cache(maxsize=1)\ndef a(): pass\n"
        "@functools.cache\ndef b(): pass\n"
        "c = lru_cache(maxsize=None)(len)\n"
        "def d():\n    global x, y\n"
        "@staticmethod\ndef e(): pass\n"
    )
    assert sorted(line for line, _ in _module_state(ast.parse(src))) == [4, 6, 7, 9, 9]


def _dataclass_imports(tree):
    """(line, what) for each import of the dataclasses module or from it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "dataclasses":
                    yield node.lineno, f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] == "dataclasses":
                yield node.lineno, f"from {node.module} import ..."


def test_library_imports_no_dataclasses():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {what}"
        for path in sorted((ROOT / "src" / "fptkit").rglob("*.py"))
        for line, what in _dataclass_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_dataclass_import_scan_catches_each_kind():
    src = (
        "from dataclasses import dataclass\nimport os, dataclasses as dc\n"
        "from .dataclasses import x\nimport dataclasses_json\n"
        "def f():\n    import dataclasses\n"
    )
    assert sorted(line for line, _ in _dataclass_imports(ast.parse(src))) == [1, 2, 6]


# modules a fresh `import fptkit.cli` must not load: `dataclasses` and its
# `inspect` (class generation), the `json` package beyond the C escaper, and
# the `paper-check` table, which that subcommand imports on demand
UNLOADED_AT_CLI_IMPORT = (
    "dataclasses", "inspect", "json", "json.decoder", "json.scanner",
    "fptkit.regressions",
)


def test_cli_import_loads_no_dataclasses_json_or_regressions():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import fptkit.cli; "
        "print(sorted(set(sys.argv[2:]) & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code, str(ROOT / "src"), *UNLOADED_AT_CLI_IMPORT],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_cli_import_builds_no_lane_tables():
    # a prime's byte-lane tables are built by its first product: none at
    # import, and a request at p = 7 builds those of 7 alone
    code = (
        "import io, sys; sys.path.insert(0, sys.argv[1]); import fptkit.cli\n"
        "from fptkit.kernels import pure\n"
        "print(sorted(pure._LANES))\n"
        "argv = ['nu', '--p', '7', '--slopes', '0,1,2,inf', '--mults', '1,1,1,1', '--e', '2']\n"
        "assert fptkit.cli.run(argv, out=io.StringIO()) == 0\n"
        "print(sorted(pure._LANES))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code, str(ROOT / "src")],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.split("\n") == ["[]", "[7]", ""]


def test_a_cold_request_builds_arguments_for_its_subcommand_only():
    # each ArgumentParser constructed is recorded by its prog and its number
    # of actions: the top level, one bare stand-in shared by the ten names
    # argv does not hold, and the named subcommand
    code = (
        "import argparse, io, sys; sys.path.insert(0, sys.argv[1]); built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def record(self, *args, **kwargs):\n"
        "    init(self, *args, **kwargs)\n"
        "    built.append(self)\n"
        "argparse.ArgumentParser.__init__ = record\n"
        "import fptkit.cli\n"
        "assert fptkit.cli.run(['classify-p1', '--coeffs', '1/2'], out=io.StringIO()) == 0\n"
        "print([(p.prog, len(p._actions)) for p in built])"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code, str(ROOT / "src")],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == (
        "[('fptkit', 2), ('fptkit', 0), ('fptkit classify-p1', 3)]"
    )


def _private_attributes(tree):
    """(line, what) for each read of a single-underscore attribute, by dot
    or by `getattr` with a literal name; dunders are not private."""
    for node in ast.walk(tree):
        name = None
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in {"getattr", "hasattr"} and len(node.args) > 1:
                arg = node.args[1]
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    name = arg.value
        if name and name.startswith("_") and not (
            name.startswith("__") and name.endswith("__")
        ):
            yield node.lineno, f".{name}"


def test_cli_reads_no_private_attributes():
    # the CLI reads none of the objects argparse keeps inside; this scan
    # cannot see a reliance on how argparse's methods work inside, so the
    # `parser_class` factory returns a parser for every name
    path = ROOT / "src" / "fptkit" / "cli.py"
    assert list(_private_attributes(ast.parse(path.read_text(), str(path)))) == []


def test_private_attribute_scan_catches_each_kind():
    src = (
        "p._subparsers\nx = a.b._name_parser_map\nint.__repr__(1)\n"
        "getattr(p, '_actions')\ngetattr(p, 'prog')\nhasattr(p, '_x')\n"
        "p.prog\nsub.add_parser('dset')\n"
    )
    assert sorted(line for line, _ in _private_attributes(ast.parse(src))) == [1, 2, 4, 6]
