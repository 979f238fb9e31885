"""Every top-level definition under src/topab is reachable from the product.

The product is the command line (`topab.cli`, whose `__main__` statement
calls `main`), the module-level statements of the package (the theorem
registry) and the benchmark under perfbench/, which wraps and calls
functions by name.  A definition that only tests reach belongs in the tests
(references in tests/oracles.py), so this walk fails when one comes back.

The walk is by `ast`: a definition's body reaches a name `n` it reads
directly (a definition of its own module or a `from .m import n`), or
`m.n` for a submodule `m` it imported.  Reaching a class reaches its
decorators, bases, class-level statements and dunder methods; any other
method of a reached class is reached once reached code reads an attribute
of its name, `x.name` on any object, as the walk cannot tell types apart.
A name that any perfbench/*.py file mentions, as a word anywhere in it, is a
root, and so is a method of that name, because the benchmark looks names
up with getattr and wraps methods on their classes.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "topab"


def _module_index():
    """module -> (definitions: name -> node, imports: local name -> (module, name),
    submodule aliases: local name -> module, root statements)."""
    index = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs, imports, submodules, roots = {}, {}, {}, []
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs[stmt.name] = stmt
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for t in targets:
                    if isinstance(t, ast.Name):
                        defs[t.id] = stmt.value
            elif isinstance(stmt, ast.ImportFrom):
                if stmt.level == 1 and stmt.module:
                    for alias in stmt.names:
                        imports[alias.asname or alias.name] = (stmt.module, alias.name)
                elif stmt.level == 1:
                    for alias in stmt.names:
                        submodules[alias.asname or alias.name] = alias.name
            elif not isinstance(stmt, ast.Import):
                roots.append(stmt)
        index[path.stem] = (defs, imports, submodules, roots)
    return index


def _reads(index, module, nodes):
    """The (module, name) definitions that `nodes` read, and the attribute
    names `.n` that they read."""
    defs, imports, submodules, _ = index[module]
    out, attrs = set(), set()
    for sub in (s for node in nodes for s in ast.walk(node)):
        if isinstance(sub, ast.Name):
            if sub.id in defs:
                out.add((module, sub.id))
            elif sub.id in imports:
                out.add(imports[sub.id])
        elif isinstance(sub, ast.Attribute):
            if isinstance(sub.ctx, ast.Load):
                attrs.add(sub.attr)
            if isinstance(sub.value, ast.Name) and sub.value.id in submodules:
                out.add((submodules[sub.value.id], sub.attr))
    return out, attrs


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _class_parts(node):
    """A class's shell (decorators, bases, class-level statements and dunder
    methods), which reaching the class reaches, and its other methods."""
    shell = [*node.decorator_list, *node.bases, *node.keywords]
    methods = {}
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _is_dunder(stmt.name):
            methods[stmt.name] = stmt
        else:
            shell.append(stmt)
    return shell, methods


def unreached_definitions():
    index = _module_index()
    words = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        words |= set(re.findall(r"[A-Za-z_]\w*", path.read_text(encoding="utf-8")))
    frontier = [
        (module, name)
        for module, (defs, *_) in index.items()
        for name in defs
        if name in words
    ]
    attrs = set()

    def visit(module, nodes):
        reads, read_attrs = _reads(index, module, nodes)
        frontier.extend(reads)
        attrs.update(read_attrs)

    for module, (_, _, _, roots) in index.items():
        visit(module, roots)
    seen, methods = set(), {}  # methods: (module, class, method) -> node, of reached classes
    while True:
        while frontier:
            key = frontier.pop()
            module, name = key
            if key in seen or module not in index or name not in index[module][0]:
                continue
            seen.add(key)
            node = index[module][0][name]
            if isinstance(node, ast.ClassDef):
                shell, own = _class_parts(node)
                visit(module, shell)
                methods.update({(module, name, m): fn for m, fn in own.items()})
            else:
                visit(module, [node])
        reached = [
            key for key in methods if key not in seen and (key[2] in attrs or key[2] in words)
        ]
        if not reached:
            break
        for key in reached:
            seen.add(key)
            visit(key[0], [methods[key]])
    unreached_methods = [".".join(key) for key in methods if key not in seen]
    return sorted(
        [
            f"{module}.{name}"
            for module, (defs, *_) in index.items()
            for name in defs
            if (module, name) not in seen and not _is_dunder(name)
        ]
        + unreached_methods
    )


def test_every_definition_is_reached_by_a_command_a_law_or_the_benchmark():
    assert unreached_definitions() == []
