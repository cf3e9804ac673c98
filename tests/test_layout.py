"""Every top-level name in src/catscope has a production caller: a walk of
name references from cli.main reaches it.  A bare name resolves to its
module's own definition or through a relative `from .x import y`; `mod.attr`
resolves when `from . import mod` bound mod.  A reached definition reaches
every name its code mentions (a class's methods included), and import-time
statements are roots.  A local that shadows a top-level name counts as a
use of it.  Reference code only tests call belongs in tests/oracles.py."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "catscope"

# (module, name) kept without a production caller, with the reason
ALLOWED = {
    ("fits", "minimize"): "perfbench/spans.py wraps it to count optimizer calls",
    ("fits", "minimize_scalar"): "perfbench/spans.py wraps it to count optimizer calls",
}


def _tables():
    """Per module: (definitions, relative-import bindings, import-time code);
    a binding is (module, name), with name None for a whole module."""
    modules = {p.stem for p in SRC.glob("*.py")}
    tables = {}
    for module in modules:
        defs, imports, roots = {}, {}, []
        for stmt in ast.parse((SRC / f"{module}.py").read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs[stmt.name] = stmt
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = getattr(stmt, "targets", None) or [stmt.target]
                for node in ast.walk(ast.Tuple(targets)):
                    if isinstance(node, ast.Name):
                        defs[node.id] = stmt
            elif isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
                for alias in stmt.names:
                    if stmt.module is None and alias.name in modules:
                        bound = (alias.name, None)
                    else:
                        bound = (stmt.module or "__init__", alias.name)
                    imports[alias.asname or alias.name] = bound
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                roots.append(stmt)
        tables[module] = defs, imports, roots
    return tables


def _mentions(tables, module, node):
    """The definitions, as (module, name), that node's code names."""
    for sub in ast.walk(node):
        where, name = module, None
        if isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            where, name = tables[module][1].get(sub.value.id, (None, None))
            if name is not None or where is None:
                continue  # not a package module
            name = sub.attr
        while name is not None and name not in tables[where][0]:
            where, name = tables[where][1].get(name, (None, None))
        if name is not None:
            yield where, name


def test_every_top_level_name_is_reachable_from_the_cli():
    tables = _tables()
    todo = [("cli", "main")]
    for module, (_, _, roots) in tables.items():
        for stmt in roots:
            todo.extend(_mentions(tables, module, stmt))
    reached = set()
    while todo:
        key = todo.pop()
        if key not in reached:
            reached.add(key)
            todo.extend(_mentions(tables, key[0], tables[key[0]][0][key[1]]))
    every = {(m, name) for m, (defs, _, _) in tables.items() for name in defs}
    # equality: an allowlisted name that gains a caller or goes leaves the list
    assert every - reached == set(ALLOWED), sorted((every - reached) ^ set(ALLOWED))
