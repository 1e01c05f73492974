"""Every public top-level name in ``src/`` has a caller outside ``tests/``.

A public function or class that only tests reach is dead weight: it is
documented, maintained and tested, but nothing in the library, the
examples or the benchmarks runs it.  This scan parses ``src/`` with
``ast`` for every top-level public ``def``/``class`` and demands a code
reference to its name somewhere in ``src/``, ``examples/`` or
``benchmarks/``.  A reference is one of:

* an ``ast.Name`` or ``ast.Attribute`` (a load, a call, a base class);
* a ``from ... import name`` outside ``__init__.py``;
* a string constant that is exactly the name, so by-name lookups
  (``weight_init="xavier_uniform"``) count.

Docstrings, comments, every module's ``__all__`` and ``__init__.py``
re-exports (their imports and lazy-export tables) do not count.
"""

import ast

from tests.source_scan import ROOT, SRC, code_nodes, parse, python_files

CALLER_DIRS = (SRC, ROOT / "examples", ROOT / "benchmarks")

#: Names kept public without a non-test caller, each with its reason.
EXEMPT = {
    "bootstrap_mean_ci": "the seed-crossing claims harness (ROADMAP item 2) "
    "is its planned caller",
    "run_month": "the reproduction guide's documented entry point for the "
    "simulated production month",
}


def public_definitions(src=SRC):
    """``{name: "path:line"}`` for every top-level public def/class."""
    found = {}
    for path in python_files(src):
        for node in parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    found.setdefault(
                        node.name, f"{path.relative_to(src.parent)}:{node.lineno}"
                    )
    return found


def code_references(path):
    """Every name ``path`` references in code (see the module docstring)."""
    names = set()
    for node in code_nodes(path):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
        ):
            names.add(node.value)
    return names


def referenced_names(caller_dirs=CALLER_DIRS):
    """The union of :func:`code_references` over every caller file."""
    names = set()
    for path in python_files(*caller_dirs):
        names |= code_references(path)
    return names


def orphans(src=SRC, caller_dirs=CALLER_DIRS):
    """``{name: "path:line"}`` of public names no caller references."""
    used = referenced_names(caller_dirs)
    return {
        name: where
        for name, where in public_definitions(src).items()
        if name not in used and name not in EXEMPT
    }


def test_every_public_name_has_a_caller_outside_tests():
    found = orphans()
    assert not found, (
        "public names reached only from tests (delete them, give them a "
        f"caller, or exempt them with a reason): {sorted(found.items())}"
    )


def test_exemptions_are_still_defined_and_still_needed():
    defined = public_definitions()
    used = referenced_names()
    for name in EXEMPT:
        assert name in defined, f"exempt name {name} no longer exists"
        assert name not in used, f"{name} has a caller now; drop its exemption"


def test_docstrings_and_reexports_do_not_count(tmp_path):
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text(
        "from .mod import called, by_name, documented\n"
        "__all__ = ['called', 'by_name', 'documented']\n"
    )
    (pkg / "mod.py").write_text(
        '"""``documented`` is only named here."""\n'
        "__all__ = ['listed']\n"
        "def listed():\n"
        "    pass\n"
        "def called():\n"
        "    return by_name_lookup('by_name')\n"
        "def by_name():\n"
        "    pass\n"
        "def documented():\n"
        '    """See documented() and called()."""\n'
        "    # documented\n"
        "def by_name_lookup(name):\n"
        "    return called()\n"
    )
    assert orphans(tmp_path / "src", (tmp_path / "src",)) == {
        "listed": "src/pkg/mod.py:3",
        "documented": "src/pkg/mod.py:9",
    }
