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


def test_every_default_is_bound_by_some_package_call():
    # A parameter with a default that no package call ever binds is a path
    # only the tests take: the package has one way to call each function.
    # Each package module but __init__.py, which only re-exports, counts as
    # a caller. A call binds by keyword, by position (after self or cls for
    # x.method(...), and Class(...) calls Class.__init__), or through * or
    # **; calls are matched by name, so a call binds the parameters of
    # every function and method of that name. cli.main's argv is the
    # console script's entry point.
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    assert trees
    in_class = set()
    targets = {}  # called name -> [(function node, implicit first parameters, qualified name)]
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        in_class.add(item)
                        for name in [item.name] + [node.name] * (item.name == "__init__"):
                            targets.setdefault(name, []).append((item, 1, f"{node.name}.{item.name}"))
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node not in in_class:
                targets.setdefault(node.name, []).append((node, 0, node.name))
    defaulted = {}  # function node -> (qualified name, [(position or None, parameter)])
    for entries in targets.values():
        for fn, _, qualified in entries:
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            params = [(i, p.arg) for i, p in enumerate(positional) if i >= first]
            params += [(None, p.arg) for p, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
            if params:
                defaulted[fn] = qualified, params
    bound = set()
    for module, tree in trees.items():
        if module == "__init__.py":
            continue
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            starred = any(isinstance(arg, ast.Starred) for arg in call.args)
            keywords = {k.arg for k in call.keywords}
            for fn, implicit, _ in targets.get(name, ()):
                for position, param in defaulted.get(fn, (None, ()))[1]:
                    by_position = position is not None and (starred or position - implicit < len(call.args))
                    if None in keywords or param in keywords or by_position:
                        bound.add((fn, param))
    found = sorted(
        f"{qualified} {param}"
        for fn, (qualified, params) in defaulted.items()
        for _, param in params
        if (fn, param) not in bound and (qualified, param) != ("main", "argv")
    )
    assert found == []
