"""No dead code in the package: every imported name is read by its module
(``__init__.py`` re-exports excepted), and every module-level private name
is read by some module of the package."""

import ast
from pathlib import Path

import qlevy

PACKAGE = Path(qlevy.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text(), str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def reads(tree):
    """The names a module reads: loaded names, attribute names and the
    names it imports from a sibling module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.level:
            out.update(alias.name for alias in node.names)
    return out


def loads(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def imported_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [n.id for target in node.targets for n in ast.walk(target)
                     if isinstance(n, ast.Name)]
        else:
            continue
        # "_" alone is a discarded value, "__x" a dunder
        yield from (n for n in names if n.startswith("_") and n[1:2].isalpha())


def test_every_import_is_read():
    unread = [f"{name}: {imp}" for name, tree in MODULES.items() if name != "__init__"
              for imp in imported_names(tree) if imp not in loads(tree)]
    assert not unread


def test_every_private_name_is_read():
    read = set().union(*(reads(tree) for tree in MODULES.values()))
    unread = [f"{name}: {priv}" for name, tree in MODULES.items()
              for priv in private_definitions(tree) if priv not in read]
    assert not unread
