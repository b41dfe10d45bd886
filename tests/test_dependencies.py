"""Declared dependencies match what the package imports.

This module is numpy- and scipy-free (``ast`` + ``tomllib`` only), so
it runs on a bare install as well.
"""

import ast
import pathlib
import re
import sys
import tomllib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def declared():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return {re.split(r"[<>=!~;\[ ]", d, maxsplit=1)[0].lower() for d in deps}


def _guards_import_error(handler):
    names = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return handler.type is None or any(
        isinstance(n, ast.Name) and n.id in ("ImportError", "ModuleNotFoundError")
        for n in names
    )


def import_time_roots(tree):
    """Root package names imported while the module loads.

    Imports inside functions are lazy and imports inside a ``try`` that
    catches ``ImportError`` are optional, so neither counts.
    """
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Try) and any(map(_guards_import_error, node.handlers)):
            todo.extend(node.orelse + node.finalbody)
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]
        todo.extend(ast.iter_child_nodes(node))


def third_party_imports():
    found = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for root in import_time_roots(tree):
            if root != "repro" and root not in sys.stdlib_module_names:
                found.setdefault(root, path.relative_to(ROOT).as_posix())
    return found


def test_every_import_time_dependency_is_declared():
    found = third_party_imports()
    missing = {name: where for name, where in found.items() if name not in declared()}
    assert not missing, f"imported but not in pyproject dependencies: {missing}"


def test_scan_sees_the_solver_stack():
    # Guards the scan itself: the OPT layer imports both at module top.
    assert {"numpy", "scipy"} <= set(third_party_imports())


def test_guarded_and_lazy_imports_are_optional():
    tree = ast.parse(
        "try:\n    import guarded\nexcept ImportError:\n    pass\n"
        "def f():\n    import lazy\n"
        "import eager.sub\nfrom other import x\nfrom . import sibling\n"
    )
    assert sorted(import_time_roots(tree)) == ["eager", "other"]
