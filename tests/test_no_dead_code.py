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


def options(tree):
    """(function, parameter, position) for every parameter with a default
    of a module-level function or a non-dunder method; the position counts
    from the first argument a caller passes, None for a keyword-only one."""
    scopes = [(node, False) for node in tree.body]
    scopes += [(item, True) for node in tree.body if isinstance(node, ast.ClassDef)
               for item in node.body]
    for node, method in scopes:
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("__"):
            continue
        bound = method and not any(isinstance(dec, ast.Name) and dec.id == "staticmethod"
                                   for dec in node.decorator_list)
        args = node.args.posonlyargs + node.args.args
        for k, arg in enumerate(args[len(args) - len(node.args.defaults):]):
            yield node.name, arg.arg, len(args) - len(node.args.defaults) + k - bound
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield node.name, arg.arg, None


def callers():
    """Per called name, the calls to it in the package, the tests and the
    benchmark, each as (positional count, keyword names); a ``*args`` call
    counts as setting every position and a ``**kwargs`` one every keyword."""
    root = PACKAGE.parent.parent
    out = {}
    for path in sorted({*PACKAGE.glob("*.py"), *(root / "tests").glob("*.py"),
                        *(root / "bench").glob("*.py")}):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            npos = float("inf") if starred else len(node.args)
            kws = {kw.arg for kw in node.keywords}
            out.setdefault(name, []).append((npos, kws))
    return out


def test_every_option_is_set():
    calls = callers()
    unset = [f"{module}: {func}({param}=)" for module, tree in MODULES.items()
             for func, param, pos in options(tree)
             if not any(param in kws or None in kws or (pos is not None and npos > pos)
                        for npos, kws in calls.get(func, ()))]
    assert not unset
