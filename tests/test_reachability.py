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
method of a reached class is reached once reached code reads it.  Where the
walk knows the type of `x`, a read `x.name` reaches `name` only on that
class, the package classes it inherits from and those that inherit from it:
`self` in a method of the class, and a parameter annotated with a package
class, if the function binds that name nowhere else.  Any other read
`x.name` reaches every method of that name, as the walk cannot tell types
apart there.  A name that any perfbench/*.py file mentions, as a word
anywhere in it, is a root, and so is a method of that name, because the
benchmark looks names up with getattr and wraps methods on their classes.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "topab"


def _module_index(package):
    """module -> (definitions: name -> node, imports: local name -> (module, name),
    submodule aliases: local name -> module, root statements)."""
    index = {}
    for path in sorted(package.glob("*.py")):
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


class _Package:
    """The package's definitions, and what a piece of its code reads."""

    def __init__(self, package):
        self.index = _module_index(package)
        self.classes = {
            (module, name): node
            for module, (defs, *_) in self.index.items()
            for name, node in defs.items()
            if isinstance(node, ast.ClassDef)
        }
        bases = {
            key: {
                base
                for b in node.bases
                if isinstance(b, ast.Name) and (base := self.class_named(key[0], b.id))
            }
            for key, node in self.classes.items()
        }
        ancestors = {}
        for key in self.classes:
            seen, todo = set(), [key]
            while todo:
                k = todo.pop()
                if k not in seen:
                    seen.add(k)
                    todo.extend(bases[k])
            ancestors[key] = seen
        # a class, the package classes it inherits from and those inheriting from it
        self.related = {
            key: ancestors[key] | {k for k in self.classes if key in ancestors[k]}
            for key in self.classes
        }
        self.method_names = {key: set(_class_parts(node)[1]) for key, node in self.classes.items()}

    def class_named(self, module, name):
        """The (module, class) that `name` denotes in module, or None."""
        defs, imports, _, _ = self.index[module]
        key = (module, name) if name in defs else imports.get(name)
        return key if key in self.classes else None

    def _annotated_class(self, module, annotation):
        if isinstance(annotation, ast.Name):
            return self.class_named(module, annotation.id)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            return self.class_named(module, annotation.value)
        return None

    def _scope(self, module, fn, env, self_class):
        """The typed names inside fn: env without the names fn binds, plus
        its parameters annotated with a package class and, for a method of
        self_class, its first parameter; a name fn binds anywhere else in its
        body stays untyped."""
        args = fn.args
        positional = [*args.posonlyargs, *args.args]
        params = [*positional, *args.kwonlyargs, *filter(None, (args.vararg, args.kwarg))]
        names = {a.arg for a in params}
        rebound = {
            n.id
            for n in ast.walk(fn)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load)
        } | {a.arg for a in ast.walk(fn) if isinstance(a, ast.arg) and a not in params}
        env = {k: v for k, v in env.items() if k not in rebound | names}
        for a in params:
            cls = self._annotated_class(module, a.annotation)
            if cls and a.arg not in rebound:
                env[a.arg] = cls
        decorators = getattr(fn, "decorator_list", ())
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in decorators)
        if self_class and positional and not static and positional[0].arg not in rebound:
            env[positional[0].arg] = self_class
        return env

    def reads(self, module, nodes, owner=None):
        """The (module, name) definitions that `nodes` read; the attribute
        names `.n` they read on an object of unknown type; and the methods
        (module, class, n) they read as `x.n` on an object of known type.
        `owner` is the class whose methods `nodes` are, if they are."""
        defs, imports, submodules, _ = self.index[module]
        out, attrs, typed = set(), set(), set()

        def walk(node, env, self_class=None):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                env = self._scope(module, node, env, self_class)
            elif isinstance(node, ast.Name):
                if node.id in defs:
                    out.add((module, node.id))
                elif node.id in imports:
                    out.add(imports[node.id])
            elif isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Load):
                    cls = env.get(node.value.id) if isinstance(node.value, ast.Name) else None
                    methods = {
                        (*k, node.attr)
                        for k in self.related.get(cls, ())
                        if node.attr in self.method_names[k]
                    }
                    if methods:
                        typed.update(methods)
                    else:
                        attrs.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in submodules:
                    out.add((submodules[node.value.id], node.attr))
            for child in ast.iter_child_nodes(node):
                walk(child, env)

        for node in nodes:
            walk(node, {}, owner)
        return out, attrs, typed


def unreached_definitions(package=PACKAGE, bench=ROOT / "perfbench"):
    pkg = _Package(package)
    index = pkg.index
    words = set()
    for path in sorted(bench.glob("*.py")):
        words |= set(re.findall(r"[A-Za-z_]\w*", path.read_text(encoding="utf-8")))
    frontier = [
        (module, name)
        for module, (defs, *_) in index.items()
        for name in defs
        if name in words
    ]
    attrs, typed = set(), set()

    def visit(module, nodes, owner=None):
        reads, read_attrs, read_methods = pkg.reads(module, nodes, owner)
        frontier.extend(reads)
        attrs.update(read_attrs)
        typed.update(read_methods)

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
                visit(module, shell, key)
                methods.update({(module, name, m): fn for m, fn in own.items()})
            else:
                visit(module, [node])
        reached = [
            key
            for key in methods
            if key not in seen and (key in typed or key[2] in attrs or key[2] in words)
        ]
        if not reached:
            break
        for key in reached:
            seen.add(key)
            visit(key[0], [methods[key]], key[:2])
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


SYNTHETIC = '''
class Box:
    def size(self):
        return 1

    def twice(self):
        return 2 * self.size()


class Crate(Box):
    def weight(self):
        return 3


class Lid:
    def size(self):
        return 4

    def weight(self):
        return 5

    def shut(self):
        return 6


def total(box: Box, lid: "Lid"):
    return box.twice() + lid.shut()


def peek(thing):
    return thing.weight()


total(Crate(), Lid())
peek(Lid())
'''


def test_a_dead_method_that_shares_its_name_with_a_live_one_is_reported(tmp_path):
    """`Lid.size` has the name of the live `Box.size`, but only `self.size`
    in `Box` and a read on a parameter annotated `Lid` for `shut` reach the
    two classes: it is dead.  `Crate.weight` is read by name, on a parameter
    of unknown type, so the walk keeps it with `Lid.weight`."""
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SYNTHETIC, encoding="utf-8")
    (tmp_path / "bench").mkdir()
    assert unreached_definitions(tmp_path / "pkg", tmp_path / "bench") == ["a.Lid.size"]
