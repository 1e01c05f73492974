"""Every public top-level name in ``src/`` has a caller outside ``tests/``.

A public function or class that only tests reach is dead weight: it is
documented, maintained and tested, but nothing in the library, the
examples or the benchmarks runs it.  This scan parses ``src/`` with
``ast`` for every top-level public ``def``/``class`` and demands that
its name occurs somewhere in ``src/``, ``examples/`` or ``benchmarks/``
other than at its own definition.  An occurrence is any identifier
token, so by-name lookups (``weight_init="xavier_uniform"``) count.
Re-exports in ``__init__.py`` files (their imports, ``__all__`` and
lazy-export tables) do not count.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CALLER_DIRS = (SRC, ROOT / "examples", ROOT / "benchmarks")

#: Names kept public without a non-test caller, each with its reason.
EXEMPT = {
    "bootstrap_mean_ci": "the seed-crossing claims harness (ROADMAP item 2) "
    "is its planned caller",
    "run_month": "the reproduction guide's documented entry point for the "
    "simulated production month",
}


def _python_files(directory):
    return sorted(p for p in directory.rglob("*.py") if "__pycache__" not in p.parts)


def public_definitions():
    """``{name: "path:line"}`` for every top-level public def/class."""
    found = {}
    for path in _python_files(SRC):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    found.setdefault(
                        node.name, f"{path.relative_to(ROOT)}:{node.lineno}"
                    )
    return found


def _is_reexport(node):
    """Imports and name lists (``__all__``, lazy-export tables)."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return True
    return (
        isinstance(node, ast.Assign)
        and isinstance(node.value, (ast.Tuple, ast.List))
        and all(
            isinstance(e, ast.Constant) and isinstance(e.value, str)
            for e in node.value.elts
        )
    )


def _definition_sites(tree):
    """``{line: name}`` of every def/class header in ``tree``."""
    return {
        node.lineno: node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


def referenced_names():
    """Every identifier token outside ``tests/``, minus definition names
    and ``__init__.py`` re-exports."""
    names = set()
    for directory in CALLER_DIRS:
        for path in _python_files(directory):
            source = path.read_text()
            tree = ast.parse(source, filename=str(path))
            lines = source.splitlines()
            if path.name == "__init__.py":
                for node in tree.body:
                    if _is_reexport(node):
                        for i in range(node.lineno - 1, node.end_lineno):
                            lines[i] = ""
            for lineno, name in _definition_sites(tree).items():
                lines[lineno - 1] = re.sub(
                    rf"\b(def|class)\s+{name}\b", "", lines[lineno - 1], count=1
                )
            names.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", "\n".join(lines)))
    return names


def test_every_public_name_has_a_caller_outside_tests():
    used = referenced_names()
    orphans = {
        name: where
        for name, where in public_definitions().items()
        if name not in used and name not in EXEMPT
    }
    assert not orphans, (
        "public names reached only from tests (delete them, give them a "
        f"caller, or exempt them with a reason): {sorted(orphans.items())}"
    )


def test_exemptions_are_still_defined_and_still_needed():
    defined = public_definitions()
    used = referenced_names()
    for name in EXEMPT:
        assert name in defined, f"exempt name {name} no longer exists"
        assert name not in used, f"{name} has a caller now; drop its exemption"
