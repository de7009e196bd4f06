"""Checks on the package sources themselves."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "elpcover"


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so every check in the package
    # must raise explicitly to keep guarding optimized runs.
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_has_no_unused_imports():
    # A name a module imports must be read somewhere in that module.
    # __init__.py only re-exports, so it is left out.
    paths = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    imported[name] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]
    assert found == []


def _is_property(node) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id in ("property", "cached_property")
        or isinstance(d, ast.Attribute) and d.attr in ("setter", "deleter")
        for d in node.decorator_list
    )


def test_package_defines_only_what_it_uses():
    # Every function, class, method and upper-case constant defined in the
    # package must be referenced from some package module other than
    # __init__.py, which only re-exports: what only the tests use belongs
    # in the tests. A method other than a property must also be called, as
    # x.name(...), so that an attribute of the same name elsewhere does not
    # count for it. Dunders are called by Python itself.
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    assert trees
    defined = []
    methods = []
    referenced = set()
    called = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                methods += [
                    (module, item.lineno, f"{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _is_property(item)
                ]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.lineno, node.name))
            elif isinstance(node, ast.Assign):
                defined += [
                    (module, node.lineno, t.id)
                    for t in node.targets
                    if isinstance(t, ast.Name) and t.id.isupper()
                ]
            elif module != "__init__.py" and isinstance(node, ast.Name):
                referenced.add(node.id)
            elif module != "__init__.py" and isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif module != "__init__.py" and isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                called.add(node.func.attr)
    found = [
        f"{module}:{line} {name}"
        for module, line, name in defined
        if name not in referenced and not (name.startswith("__") and name.endswith("__"))
    ]
    found += [
        f"{module}:{line} {qualified}"
        for module, line, qualified, name in methods
        if name not in called and not (name.startswith("__") and name.endswith("__"))
    ]
    assert found == []


def test_import_loads_no_batch_or_dataclass_modules():
    # Every vc run pays for what importing the package loads. The process
    # pool and the CSV writer are imported by the hunt code that uses them,
    # and the package defines no dataclass. The stdlib modules the package
    # imports are loaded first, so that only what the package itself adds
    # counts, whatever those modules load on a given Python version.
    code = """
import argparse, collections, fractions, heapq, json, logging, math
import operator, os, pathlib, random, re, sys, time, typing
before = set(sys.modules)
import elpcover, elpcover.runner, elpcover.cli
added = set(sys.modules) - before
print(" ".join(sorted(added & {"multiprocessing", "concurrent.futures", "csv", "dataclasses"})))
"""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
