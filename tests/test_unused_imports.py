"""No module imports a name it never uses (pyflakes/ruff rule F401).

``pyproject.toml`` selects F401 for ``ruff``, but the lint lane skips
when ``ruff`` is absent.  This is the same check in plain ``ast`` so it
runs with the tier-1 suite.  A binding counts as used when its name
appears as an ``ast.Name`` anywhere in the module, inside a string
annotation (``Optional["Batch"]``), or in ``__all__``.  ``__init__.py``
files (re-exports), ``from __future__`` imports and lines marked
``# noqa`` are skipped.
"""

import ast

from tests.source_scan import CODE_DIRS, ROOT, python_files


def _annotation_names(annotation):
    """Names inside an annotation, including quoted forward references."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            yield from _annotation_names(parsed)


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                if arg.annotation is not None:
                    yield arg.annotation
            for arg in (args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _dunder_all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            for elt in getattr(node.value, "elts", ()):
                if isinstance(elt, ast.Constant):
                    yield elt.value


def unused_imports(source, filename="<source>"):
    """``[(line, name)]`` of every import binding ``source`` never uses."""
    tree = ast.parse(source, filename=filename)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        used.update(_annotation_names(annotation))
    used.update(_dunder_all(tree))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("noqa" in lines[i] for i in range(node.lineno - 1, node.end_lineno)):
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                found.append((node.lineno, alias.asname or alias.name))
    return found


def test_no_unused_imports():
    offenders = []
    for path in python_files(*CODE_DIRS, skip_init=True):
        for line, name in unused_imports(path.read_text(), str(path)):
            offenders.append(f"{path.relative_to(ROOT)}:{line} {name}")
    assert not offenders, "unused imports (F401):\n" + "\n".join(offenders)


def test_detects_unused_and_accepts_annotation_uses():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from typing import TYPE_CHECKING, List, Optional\n"
        "if TYPE_CHECKING:\n"
        "    from pkg import Batch\n"
        "import json  # noqa: F401\n"
        "def f(x: Optional['Batch']) -> int:\n"
        "    return 1\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "osp"), (4, "List")]
