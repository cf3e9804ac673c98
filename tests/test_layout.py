"""Every top-level name and every method in src/catscope has a production
caller: a walk of name references from cli.main reaches it.  A bare name
resolves to its module's own definition or through a relative
`from .x import y`; `mod.attr` resolves when `from . import mod` bound mod.
A reached definition reaches every name its code mentions, and import-time
statements are roots.  A reached class reaches its bases, decorators, class
body and dunder methods; any other method or property of it is reached once
reached code loads an attribute of that name, on whatever object.  A local
that shadows a top-level name counts as a use of it.  Reference code only
tests call belongs in tests/oracles.py."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "catscope"

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


def _split(node):
    """(the code a definition reaches at once, its methods by qualified
    name): a class's methods other than dunders wait for an attribute load."""
    if not isinstance(node, ast.ClassDef):
        return [node], {}
    own, methods = node.bases + node.keywords + node.decorator_list, {}
    for stmt in node.body:
        if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("__"):
            methods[f"{node.name}.{stmt.name}"] = stmt
        else:
            own.append(stmt)
    return own, methods


def test_every_top_level_name_is_reachable_from_the_cli():
    tables = _tables()
    todo, loaded, waiting, reached = [("cli", "main")], set(), {}, set()

    def visit(module, node):
        own, methods = _split(node)
        for part in own:
            todo.extend(_mentions(tables, module, part))
            loaded.update(
                sub.attr
                for sub in ast.walk(part)
                if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
            )
        waiting.update({(module, name): meth for name, meth in methods.items()})

    for module, (_, _, roots) in tables.items():
        for stmt in roots:
            visit(module, stmt)
    while True:
        while todo:
            key = todo.pop()
            if key not in reached:
                reached.add(key)
                visit(key[0], tables[key[0]][0][key[1]])
        ready = [k for k in waiting if k[1].split(".")[1] in loaded]
        if not ready:
            break
        for key in ready:
            reached.add(key)
            visit(key[0], waiting.pop(key))
    every = {(m, name) for m, (defs, _, _) in tables.items() for name in defs}
    every |= {
        (m, method)
        for m, (defs, _, _) in tables.items()
        for node in defs.values()
        for method in _split(node)[1]
    }
    # equality: an allowlisted name that gains a caller or goes leaves the list
    assert every - reached == set(ALLOWED), sorted((every - reached) ^ set(ALLOWED))


def test_benchmark_hooks_exist():
    # perfbench/spans.py wraps catscope functions by name (getattr); a
    # renamed or moved function would break the traced benchmark run
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    lists = [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "functions" for t in node.targets)
    ]
    assert len(lists) == 1
    hooks = [(e.elts[0].id, e.elts[1].value) for e in lists[0].elts]
    assert len(hooks) >= 10
    missing = [
        f"{module}.{attr}"
        for module, attr in hooks
        if not callable(getattr(importlib.import_module(f"catscope.{module}"), attr, None))
    ]
    assert not missing, missing
    # it also replaces these by name: the artifact writer's methods, which it
    # times as pipeline.write, and the optimizer names of fits it counts
    source = (ROOT / "perfbench" / "spans.py").read_text()
    pipeline = importlib.import_module("catscope.pipeline")
    fits = importlib.import_module("catscope.fits")
    patched = [
        (pipeline.RunWriter, "__init__"),
        (pipeline.RunWriter, "write"),
        (pipeline.RunWriter, "promote"),
        (pipeline.RunManifest, "to_json"),
        (fits, "minimize"),
        (fits, "minimize_scalar"),
    ]
    for owner, attr in patched:
        assert f'"{attr}"' in source, attr  # this list follows spans.py
    missing = [f"{owner.__name__}.{attr}" for owner, attr in patched if attr not in vars(owner)]
    assert not missing, missing


def test_pipeline_leaves_the_panel_rule_to_g_of_t():
    # the commands check g(t) by calling darkmatter.g_of_t, which alone
    # knows how many quadrature panels a batch of times takes
    tree = ast.parse((SRC / "pipeline.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not imported & {"g_panels", "MAX_G_PANELS"}, imported
    defined = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ] + [
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    ]
    assert not [name for name in defined if name.startswith("_check_g")], defined


def test_only_darkmatter_names_the_lineshape_offset():
    # the cavity-frequency <-> mass rule lives in darkmatter.omega_m and its
    # inverse resonant_mass; any other module calls them
    named = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            # a bare name, an attribute, or an imported alias
            if "OMEGA_M_OFFSET" in (getattr(node, a, None) for a in ("id", "attr", "name")):
                named.add(path.stem)
    assert named <= {"darkmatter"}, named


def test_dataclasses_are_plain_and_earn_their_machinery():
    # a value type is a plain dataclass: one that checks its fields at
    # construction (__post_init__) or has a method of its own.  A bare
    # record of values is a typing.NamedTuple, and no class is frozen
    frozen, bare = [], []
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            for deco in node.decorator_list:
                call = deco if isinstance(deco, ast.Call) else None
                target = call.func if call else deco
                if getattr(target, "id", getattr(target, "attr", None)) != "dataclass":
                    continue
                name = f"{path.stem}.{node.name}"
                keywords = call.keywords if call else []
                if any(
                    k.arg == "frozen" and getattr(k.value, "value", None) is True
                    for k in keywords
                ):
                    frozen.append(name)
                if not any(isinstance(s, ast.FunctionDef) for s in node.body):
                    bare.append(name)
    assert not frozen, sorted(frozen)
    assert not bare, sorted(bare)
