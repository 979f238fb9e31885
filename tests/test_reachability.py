"""Every top-level definition under src/topab is reachable from the product.

The product is the command line (`topab.cli`, whose `__main__` statement
calls `main`), the module-level statements of the package (the theorem
registry) and the benchmark under perfbench/, which wraps and calls
functions by name.  A definition that only tests reach belongs in the tests
(references in tests/oracles.py), so this walk fails when one comes back.

The walk is by `ast`: a definition's body reaches a name `n` it reads
directly (a definition of its own module or a `from .m import n`), or
`m.n` for a submodule `m` it imported.  Methods are part of their class.  A
name that any perfbench/*.py file mentions, as a word anywhere in it, is a
root, because the benchmark looks names up with getattr.
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


def _reads(index, module, node):
    """The (module, name) definitions that `node` reads."""
    defs, imports, submodules, _ = index[module]
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            if sub.id in defs:
                out.add((module, sub.id))
            elif sub.id in imports:
                out.add(imports[sub.id])
        elif (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id in submodules
        ):
            out.add((submodules[sub.value.id], sub.attr))
    return out


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
    for module, (_, _, _, roots) in index.items():
        for stmt in roots:
            frontier += _reads(index, module, stmt)
    seen = set()
    while frontier:
        key = frontier.pop()
        module, name = key
        if key in seen or module not in index or name not in index[module][0]:
            continue
        seen.add(key)
        frontier += _reads(index, module, index[module][0][name])
    return sorted(
        f"{module}.{name}"
        for module, (defs, *_) in index.items()
        for name in defs
        if (module, name) not in seen and not (name.startswith("__") and name.endswith("__"))
    )


def test_every_definition_is_reached_by_a_command_a_law_or_the_benchmark():
    assert unreached_definitions() == []
