"""The shared file walk of the ``ast`` source scans in ``tests/``.

``test_public_surface``, ``test_config_surface`` and
``test_unused_imports`` each parse every Python file of some repo
directories.  This module owns the walk and the kinds of node the name
scans never count as code: docstrings, every module's ``__all__``, and
the re-exports of an ``__init__.py`` (its imports and lazy-export
tables).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Every directory of Python code in the repo.
CODE_DIRS = (SRC, ROOT / "benchmarks", ROOT / "examples", ROOT / "tests")


def python_files(*directories, skip_init=False):
    """Every ``*.py`` under ``directories``, sorted, ``__pycache__`` skipped."""
    for directory in directories:
        for path in sorted(Path(directory).rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            if skip_init and path.name == "__init__.py":
                continue
            yield path


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _docstring_nodes(tree):
    """The ``ast.Constant`` of every module/class/def docstring."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(tree):
        if isinstance(node, owners) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                yield first.value


def _dunder_all_nodes(tree):
    """Every top-level ``__all__`` assignment."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            yield node


def _reexport_nodes(tree):
    """Top-level imports and string-list assignments of an ``__init__.py``."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.Assign) and isinstance(
            node.value, (ast.Tuple, ast.List)
        ):
            yield node


def code_nodes(path):
    """Every node of ``path`` except docstrings, ``__all__`` and re-exports."""
    tree = parse(path)
    skipped = {id(node) for node in _docstring_nodes(tree)}
    listings = list(_dunder_all_nodes(tree))
    if path.name == "__init__.py":
        listings.extend(_reexport_nodes(tree))
    for node in listings:
        skipped.update(id(sub) for sub in ast.walk(node))
    return [node for node in ast.walk(tree) if id(node) not in skipped]
