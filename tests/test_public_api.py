"""Every public function, class and method of `mrparse` has a caller.

A public name (no leading underscore, not a dunder) counts as used when it
appears somewhere other than its own definition: in `src/` as a name or an
attribute, or in `benchmarks/` as a name, an attribute or a part of a
dotted string (`benchmarks/tracing.py` looks spans up as
`"LSTMCell.step"`). A method counts only as an attribute or a string part,
so a local variable of the same name is no use of it. Names in `__all__`
and imports do not count. The exceptions below are kept on purpose, each
for the ROADMAP aim or item named with it.

Every defaulted parameter of a public function, method or constructor is
passed by some call in `src/`, `benchmarks/` or `tests/`: by keyword, by
position, or through `*` or `**`. Calls are matched by name, as above: a
call of `f` or `x.f` counts for every `f`, and a call of `C` for the
constructor of class `C`.

No module under `src/` imports a private name (one leading underscore)
from another module: a helper lives with its callers.

No package `__init__.py` under `src/` imports anything: a name has one
import path, the module that defines it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ALLOWED = {
    "grad_check": "aim 1: the float64 gate for any rewrite of autograd or nn/",
    "validate_graph": "aim 4: violations reported as data, counted by code",
    "read_mrp_file": "item 4: file IO of MRP records",
    "write_mrp_file": "item 4: file IO of MRP records",
    "write_companion": "item 4: file IO of companion blocks",
    "sentence_entry": "item 4: the AMR entry of a sentence without a graph",
    "AmrTables.to_lines": "item 4: the AmrTables line format",
    "AmrTables.from_lines": "item 4: the AmrTables line format",
    "MultiwordTable.to_lines": "item 4: the MultiwordTable line format",
    "MultiwordTable.from_lines": "item 4: the MultiwordTable line format",
}


def _definitions(tree):
    """(qualified name, name, is a method) of every module-level function
    and class, and of every method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, False
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item.name, True)
                        for item in node.body if isinstance(item, ast.FunctionDef))


def _uses(tree, strings):
    """(name, bare, enclosing definition names) of every name (bare) and
    attribute in tree, and, with `strings`, of every part of a dotted string
    constant."""
    out = []

    def walk(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name):
            out.append((node.id, True, inside))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, False, inside))
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.extend((part, False, inside) for part in node.value.split("."))
        for child in ast.iter_child_nodes(node):
            walk(child, inside)

    walk(tree, frozenset())
    return out


def _parse(directory):
    return [(p, ast.parse(p.read_text(encoding="utf-8"))) for p in sorted(directory.rglob("*.py"))]


SRC = _parse(ROOT / "src" / "mrparse")
BENCH = _parse(ROOT / "benchmarks")
TESTS = _parse(ROOT / "tests")


def test_every_public_name_has_a_caller():
    used = {}
    for trees, strings in ((SRC, False), (BENCH, True)):
        for _, tree in trees:
            for name, bare, inside in _uses(tree, strings):
                used.setdefault(name, []).append((bare, inside))
    unused = []
    for path, tree in SRC:
        for qualified, name, method in _definitions(tree):
            if name.startswith("_") or qualified in ALLOWED:
                continue
            # a use inside the definition of the same name is its own
            if not any(name not in inside and not (method and bare) for bare, inside in used.get(name, ())):
                unused.append(f"{path.relative_to(ROOT)}: {qualified}")
    assert unused == []


def test_every_allowed_name_is_still_defined():
    defined = {name for _, tree in SRC for name, _, _ in _definitions(tree)}
    assert sorted(set(ALLOWED) - defined) == []


def _defaulted(tree):
    """(qualified name, called name, parameter, its position among the
    arguments a call passes, or None when keyword-only) of every defaulted
    parameter of a public module-level function, and of a public method or
    the constructor of a public module-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield from ((node.name, node.name, *p) for p in _parameters(node, 0))
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and (item.name == "__init__" or item.name[0] != "_"):
                    called = node.name if item.name == "__init__" else item.name
                    yield from ((f"{node.name}.{item.name}", called, *p) for p in _parameters(item, 1))


def _parameters(fn, skip):
    """(name, position) of fn's defaulted parameters, positions counted
    after the first `skip` parameters (a method's self or cls)."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    yield from ((a.arg, k - skip) for k, a in enumerate(positional) if k >= first)
    yield from ((a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None)


def test_every_defaulted_parameter_is_passed_somewhere():
    calls = {}  # called name -> (positional count, keywords, has *, has **) per call
    for _, tree in SRC + BENCH + TESTS:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append((
                    len(node.args), {k.arg for k in node.keywords},
                    any(isinstance(a, ast.Starred) for a in node.args), any(k.arg is None for k in node.keywords)))
    never = []
    for path, tree in SRC:
        for qualified, called, param, position in _defaulted(tree):
            if not any(param in keywords or double or (position is not None and (star or position < n))
                       for n, keywords, star, double in calls.get(called, ())):
                never.append(f"{path.relative_to(ROOT)}: {qualified}({param})")
    assert never == []


def test_no_module_imports_a_private_name_from_another():
    private = [f"{path.relative_to(ROOT)}: {'.' * node.level}{node.module or ''} {alias.name}"
               for path, tree in SRC for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.name.startswith("_") and not alias.name.startswith("__")]
    assert private == []


def test_no_package_init_imports_anything():
    imports = [f"{path.relative_to(ROOT)}:{node.lineno}" for path, tree in SRC if path.name == "__init__.py"
               for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports == []
