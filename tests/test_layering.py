"""Layering: no clusterlife module reaches into another module's private names,
and only static_sched enumerates polling orders."""

import ast
from pathlib import Path

import clusterlife

PACKAGE = Path(clusterlife.__file__).parent


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def private_reaches(path):
    """(line, text) of each import or attribute access of another module's private name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    sibling_aliases = set()  # local names bound to clusterlife modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            internal = node.level > 0 or (node.module or "").split(".")[0] == "clusterlife"
            if not internal:
                continue
            for alias in node.names:
                if _private(alias.name):
                    found.append((node.lineno, f"from {node.module or '.'} import {alias.name}"))
                if node.module in (None, "clusterlife"):
                    sibling_aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "clusterlife":
                    sibling_aliases.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in sibling_aliases:
                found.append((node.lineno, ast.unparse(node)))
    return found


def test_no_module_uses_another_modules_private_names():
    offenders = {
        path.name: reaches
        for path in sorted(PACKAGE.glob("*.py"))
        if (reaches := private_reaches(path))
    }
    assert offenders == {}


def permutation_uses(path):
    """Lines that call or import ``itertools.permutations``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "itertools":
            found += [node.lineno for alias in node.names if alias.name == "permutations"]
        elif isinstance(node, ast.Attribute) and node.attr == "permutations":
            found.append(node.lineno)
    return found


def test_only_static_sched_enumerates_orders():
    # every other module takes its orders from static_sched.all_orders
    users = {path.name for path in sorted(PACKAGE.glob("*.py")) if permutation_uses(path)}
    assert users == {"static_sched.py"}
