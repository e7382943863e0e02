"""Every name the package defines is used by the package or the benchmark.

A top-level function, class or constant, or a non-dunder method, defined
in ``src/`` must be referenced somewhere in ``src/`` or ``benchmarks/``
other than its own definition: as a name, an attribute, an import or an
identifier string (the benchmark ledger wraps methods by name).  An
annotated field of a class defined in ``src/`` must be read there: as an
attribute, or named in an identifier string; a write or a constructor
keyword is not a read.  Tests do not count, so a name or a field that only
a test reaches fails here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def trees(*dirs: str) -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(), str(path))
            for d in dirs for path in sorted((ROOT / d).rglob("*.py"))}


def definitions(tree: ast.Module):
    """(name, line) of each top-level function, class and constant, and each
    non-dunder method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield item.name, item.lineno
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name) and not target.id.startswith("__"):
                yield target.id, node.lineno


def reads(tree: ast.Module):
    """The attributes a module loads and the identifier strings it holds:
    what reads a field."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value


def references(tree: ast.Module):
    """:func:`reads`, and the names a module loads or imports."""
    yield from reads(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def fields(tree: ast.Module):
    """(class, field, line) of each annotated field of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id, item.lineno


def test_every_defined_name_is_used_outside_the_tests():
    used = {name for tree in trees("src", "benchmarks").values() for name in references(tree)}
    defined = [(path.relative_to(ROOT), line, name)
               for path, tree in trees("src").items() for name, line in definitions(tree)]
    assert len(defined) > 150  # the scan sees the package
    assert [f"{path}:{line}: {name}" for path, line, name in defined if name not in used] == []


def test_every_field_is_read_outside_the_tests():
    read = {name for tree in trees("src", "benchmarks").values() for name in reads(tree)}
    defined = [(path.relative_to(ROOT), line, f"{cls}.{name}")
               for path, tree in trees("src").items() for cls, name, line in fields(tree)]
    assert len(defined) > 80  # the scan sees the dataclasses
    assert [f"{path}:{line}: {name}" for path, line, name in defined
            if name.split(".")[1] not in read] == []
