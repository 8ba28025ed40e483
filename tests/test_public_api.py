"""The package exports only what ships uses: every name in a moplab
module's `__all__` is read by another moplab module, by its own module
beyond its definition and its `__all__` entry, or by the benchmark under
perfbench/. A name that only the tests call is an API the package carries
for nothing; the tests move onto the API that production calls instead.
No module, the tests' and the benchmark's included, imports a name it
never reads, and no module of the package defines a function, class or
constant at its top level that neither it nor another module reads."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "moplab").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py")) + sorted(
    (ROOT / "perfbench" / "tests").glob("*.py"))

# ROADMAP item 8 reruns an aborted batch with finite checks on to name the
# op behind the abort; until then only the tests switch them on.
EXEMPT = {("engine", "set_finite_checks")}


def _all_node(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return node
    return None


def _names_read(tree, skip=None) -> set:
    """Identifiers the code reads: loaded names, attribute names, imported
    names and string constants (perfbench's tracer wraps a function by its
    attribute name). Definitions and assignments are not reads; nodes under
    `skip` are left out."""
    skipped = {id(n) for n in ast.walk(skip)} if skip is not None else set()
    names = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


TREES = {path: ast.parse(path.read_text()) for path in MODULES + BENCHMARK}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_exported_name_is_used_outside_the_tests(path):
    tree = TREES[path]
    all_node = _all_node(tree)
    exported = [e.value for e in all_node.value.elts] if all_node else []
    used = _names_read(tree, skip=all_node)
    for other, other_tree in TREES.items():
        if other != path:
            used |= _names_read(other_tree)
    unused = [name for name in exported
              if name not in used and (path.stem, name) not in EXEMPT]
    assert unused == [], f"{path.stem} exports names only the tests use"


def _module_level_names(tree) -> list:
    """The functions, classes and constants a module defines at its top
    level, `__all__` aside."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if name != "__all__"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_module_level_name_is_read(path):
    # a helper or constant that a deletion left behind: defined, not
    # exported, and read by no module of the package or the benchmark
    all_node = _all_node(TREES[path])
    exported = {e.value for e in all_node.value.elts} if all_node else set()
    read = set().union(*(_names_read(tree) for tree in TREES.values()))
    unread = [name for name in _module_level_names(TREES[path])
              if name not in exported and name not in read]
    assert unread == [], f"{path.stem} defines names nothing reads"


def _unused_imports(tree) -> list:
    """Names an import binds that the module never loads as a name and does
    not list in `__all__`; `import a.b` binds `a`, and a __future__ import
    binds nothing."""
    all_node = _all_node(tree)
    read = {e.value for e in all_node.value.elts} if all_node else set()
    read |= {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    bound = [alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
             for alias in node.names]
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES + BENCHMARK + TESTS,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_read(path):
    unused = _unused_imports(ast.parse(path.read_text()))
    assert unused == [], f"{path.name} imports names it never reads"


# ---------------------------------------------------------------------------
# defaulted parameters that only the tests set
# ---------------------------------------------------------------------------

# Defaulted parameters that no call in the package or the benchmark passes,
# each with the reason it stays.
KNOB_EXEMPT = {
    ("cli", "main", "argv"): "the console script calls main() and argparse "
                             "reads sys.argv; tests pass argv",
}
# Functions that pass their trailing arguments on: cli._timed(phases, key, fn,
# *args, **kwargs) calls fn(*args, **kwargs), so it counts as a call of fn.
FORWARDERS = {"_timed": 2}


def _callee(func):
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _calls(tree):
    """(callee name, positional args, keyword names) of every call, a
    forwarded call taken as a call of the function it forwards to. A
    starred argument stands for every later position, ** for every name."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name, args = _callee(node.func), node.args
        if name in FORWARDERS and len(args) > FORWARDERS[name]:
            name, args = _callee(args[FORWARDERS[name]]), args[FORWARDERS[name] + 1:]
        starred = [i for i, a in enumerate(args) if isinstance(a, ast.Starred)]
        positional = float("inf") if starred else len(args)
        keywords = {k.arg for k in node.keywords}
        yield name, positional, keywords


def _defaulted_params(tree):
    """(qualified name, matched call name, {param: position or None}) of
    every function with defaulted parameters; a method's position counts
    from after self, and __init__ is called by its class's name."""
    def visit(body, prefix, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from visit(node.body, f"{prefix}{node.name}.", node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                positional = a.posonlyargs + a.args
                if cls is not None and not any(
                        _callee(d) == "staticmethod" for d in node.decorator_list):
                    positional = positional[1:]
                params = {p.arg: i for i, p in enumerate(positional)
                          if i >= len(positional) - len(a.defaults)}
                params.update({p.arg: None for p, d in zip(a.kwonlyargs, a.kw_defaults)
                               if d is not None})
                if params:
                    called = cls if node.name == "__init__" else node.name
                    yield f"{prefix}{node.name}", called, params
                yield from visit(node.body, f"{prefix}{node.name}.", None)

    yield from visit(tree.body, "", None)


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    calls = [c for tree in TREES.values() for c in _calls(tree)]
    unpassed = []
    for path in MODULES:
        for qualname, called, params in _defaulted_params(TREES[path]):
            for param, position in params.items():
                passed = any(name == called and (
                    None in keywords or param in keywords
                    or (position is not None and positional > position))
                    for name, positional, keywords in calls)
                if not passed and (path.stem, qualname, param) not in KNOB_EXEMPT:
                    unpassed.append(f"{path.stem}.{qualname}({param})")
    assert unpassed == [], f"defaulted parameters that only the tests pass: {unpassed}"
