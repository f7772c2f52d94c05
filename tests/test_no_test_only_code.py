"""Every module-level function and class in ``src/crma``, and every public method
and property of those classes, has a caller outside the tests.

A definition that only tests reach lets an oracle check code that training
never runs. Reference loops for tests belong in ``tests/oracles.py``.

Three kinds of reference do not count, because they would keep any name
alive: the re-exports of ``crma/__init__.py``, attribute names on ``np`` or
``numpy`` (``np.stack`` is not ``crma.autodiff.stack``), and the bare names and
imports of ``perfbench/``, which reaches ``crma`` only through attributes
and strings.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _referenced_names(node, bare=True):
    """Names that ``node`` refers to: an attribute or a string, and when ``bare``
    is set a Name or an import.

    Strings count because the benchmark harness names what it wraps in them.
    """
    if isinstance(node, ast.Name) and bare:
        return [node.id]
    if isinstance(node, ast.Attribute):
        on_numpy = isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
        return [] if on_numpy else [node.attr]
    if isinstance(node, ast.alias) and bare:
        return [node.name, node.asname] if node.asname else [node.name]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    return []


def _definitions(tree):
    """(label, node) of each module-level function and class, and of each
    public method and property of those classes (dunders and ``_`` names skipped)."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def test_every_src_definition_has_a_caller_outside_the_tests():
    trees = {
        path: ast.parse(path.read_text())
        for path in [*sorted((ROOT / "src").rglob("*.py")), *sorted((ROOT / "perfbench").rglob("*.py"))]
    }
    # name -> (file, line) of every reference
    references = {}
    for path, tree in trees.items():
        if path == ROOT / "src" / "crma" / "__init__.py":
            continue
        in_perfbench = path.is_relative_to(ROOT / "perfbench")
        for node in ast.walk(tree):
            for name in _referenced_names(node, bare=not in_perfbench):
                references.setdefault(name, []).append((path, node.lineno))

    unreferenced = []
    for path in sorted((ROOT / "src" / "crma").glob("*.py")):
        for label, node in _definitions(trees[path]):
            outside = [
                (where, line)
                for where, line in references.get(node.name, [])
                if where != path or not node.lineno <= line <= node.end_lineno
            ]
            if not outside:
                unreferenced.append(f"{path.name}:{node.lineno} {label}")
    assert not unreferenced, f"defined in src/ but only tests use them: {unreferenced}"


def test_no_src_module_imports_a_private_name_of_another():
    """A ``_`` name is its module's own; what another module needs is public."""
    private = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in sorted((ROOT / "src" / "crma").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("crma"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"imports of private names of another crma module: {private}"
