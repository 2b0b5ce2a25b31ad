"""Every public top-level function and class of the package has a caller,
and every name a module imports is used there.

A name counts as used when some module of src/hcmlink other than
__init__.py refers to it by a Name or an Attribute node outside its own
definition; re-exports in __init__.py and mentions in docstrings do not
count. A public name that only tests use belongs in the tests. Only
__init__.py may import a name it never uses: it re-exports them.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hcmlink"


def _public_definitions(tree: ast.Module) -> list:
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]


def _referenced_names(tree: ast.AST, skip: set) -> set:
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_public_name_is_used_in_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"}
    unused = []
    for module, tree in trees.items():
        for node in _public_definitions(tree):
            used = any(node.name in _referenced_names(other, {id(node)})
                       for other in trees.values())
            if not used:
                unused.append(f"{module[:-3]}.{node.name}")
    assert not unused, f"public names no package code uses: {unused}"


def _imported_names(tree: ast.Module) -> list:
    """(name, line) of each binding made by an import statement."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.append(((alias.asname or alias.name).split(".")[0], node.lineno))
    return names


def test_every_imported_name_is_used_in_its_module():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}:{line} {name}" for name, line in _imported_names(tree)
                   if name not in loaded]
    assert not unused, f"imported names the module never uses: {unused}"
