"""The package exports only what ships uses: every name in a moplab
module's `__all__` is read by another moplab module, by its own module
beyond its definition and its `__all__` entry, or by the benchmark under
perfbench/. A name that only the tests call is an API the package carries
for nothing; the tests move onto the API that production calls instead."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "moplab").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))

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
