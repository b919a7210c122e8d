"""Every public function and method in ``src/`` has a caller in ``src/``,
every attribute set on ``self`` is read in ``src/``, ``src/`` computes with
ints only, and no check in ``src/`` is an ``assert``.

The scan collects every ``Name`` and ``Attribute`` reference in
``src/pathcrystals/*.py``; a public module-level function or method fails
when no reference to its name lies outside its own body.  It matches names,
not bindings, so a name collision (a method ``value`` and any variable
``value``) can hide an unused name.  Test-only tools live in
``tests/helpers.py``.  The attribute scan matches names the same way: an
attribute assigned as ``self.name`` fails when no ``.name`` is read on any
object.  A third scan keeps ``fractions`` out of every module: weights and
path directions are int tuples, so the program has one kind of arithmetic,
and the Fraction references live in ``tests/``.  A fourth scan finds every
``assert`` statement in ``src/``: ``python -O`` strips them, and the
program's invariants must hold under it, so a check raises instead.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pathcrystals"


def _names(tree):
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_public_function_has_a_caller_in_src():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    refs = sum(map(_names, trees.values()), Counter())
    defs = [(module, sub) for module, tree in trees.items() for node in tree.body
            for sub in (node.body if isinstance(node, ast.ClassDef) else [node])
            if isinstance(sub, ast.FunctionDef)]
    unused = [f"{module}: {fn.name}" for module, fn in defs
              if not fn.name.startswith("_")
              and refs[fn.name] == _names(fn)[fn.name]]
    assert unused == []


def test_every_attribute_set_on_self_is_read_in_src():
    attrs = [node for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Attribute)]
    stored = {node.attr for node in attrs if isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id == "self"}
    read = {node.attr for node in attrs if isinstance(node.ctx, ast.Load)}
    assert sorted(stored - read) == []


def test_the_path_kernel_names_no_fractions():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        imports = [node for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))]
        names = set(_names(tree)) | {alias.name for node in imports for alias in node.names}
        names |= {node.module for node in imports if isinstance(node, ast.ImportFrom)}
        assert not names & {"fractions", "Fraction"}, path.name


def test_src_holds_no_assert_statement():
    for path in sorted(SRC.glob("*.py")):
        lines = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Assert)]
        assert lines == [], path.name
