"""Every defaulted config field is set somewhere, or it is a constant.

A field that no code ever sets runs with exactly one value, yet every
reader has to reason about the others.  This scan parses ``src/`` with
``ast`` for every dataclass named ``*Config``, ``*Policy``, ``*Spec`` or
``*Thresholds`` and demands a setter for each of its defaulted fields
somewhere in ``src/``, ``benchmarks/``, ``examples/`` or ``tests/``.  A
setter is one of:

* a call keyword naming the field (``MonthConfig(days=3)``,
  ``replace(policy, days=3)``, ``dict(days=3)``);
* a string dict key naming the field (``with_overrides(**{"days": 3})``).

Setters inside a ``with pytest.raises(...)`` block do not count: a test
that only checks a field's own validation is no reason to keep the
field.  The scan matches by name, not by class, so it errs toward
keeping a field.  A field with no setter becomes a module constant.
"""

import ast
import functools
import re

from tests.source_scan import CODE_DIRS, SRC, code_nodes, parse, python_files

SUFFIXES = ("Config", "Policy", "Spec", "Thresholds")

#: Fields kept settable without a setter, each with its reason.
EXEMPT = {
    ("ColumnSpec", "click_column"): "names a column of an outside CSV file, "
    "whose format this code does not choose",
    ("ColumnSpec", "conversion_column"): "names a column of an outside CSV "
    "file, whose format this code does not choose",
    ("ColumnSpec", "user_column"): "names a column of an outside CSV file, "
    "whose format this code does not choose",
    ("ColumnSpec", "item_column"): "names a column of an outside CSV file, "
    "whose format this code does not choose",
    ("ModelConfig", "cvr_weight"): "w_cvr, a weight of the paper's Eq. (14) "
    "objective",
    ("ModelConfig", "ctcvr_weight"): "w_ctcvr, a weight of the paper's "
    "Eq. (14) objective",
}


def _is_dataclass(node):
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def defaulted_fields(src=SRC):
    """``{(class, field): "path:line"}`` of every scanned defaulted field."""
    found = {}
    for path in python_files(src):
        if "@dataclass" not in path.read_text():
            continue
        for node in parse(path).body:
            if not (
                isinstance(node, ast.ClassDef)
                and node.name.endswith(SUFFIXES)
                and _is_dataclass(node)
            ):
                continue
            for stmt in node.body:
                if (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and stmt.value is not None
                ):
                    found[(node.name, stmt.target.id)] = (
                        f"{path.relative_to(src.parent)}:{stmt.lineno}"
                    )
    return found


def _raises_blocks(nodes):
    """Every ``with pytest.raises(...)`` statement among ``nodes``."""
    for node in nodes:
        if isinstance(node, ast.With) and any(
            isinstance(item.context_expr, ast.Call)
            and getattr(item.context_expr.func, "attr", None) == "raises"
            for item in node.items
        ):
            yield node


def setters(path):
    """Every field name ``path`` sets (see the module docstring)."""
    nodes = code_nodes(path)
    skipped = set()
    for block in _raises_blocks(nodes):
        for stmt in block.body:
            skipped.update(id(sub) for sub in ast.walk(stmt))
    names = set()
    for node in nodes:
        if id(node) in skipped:
            continue
        if isinstance(node, ast.keyword) and node.arg is not None:
            names.add(node.arg)
        elif isinstance(node, ast.Dict):
            names.update(
                key.value
                for key in node.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            )
    return names


#: A cheap necessary condition for a setter of ``name``: ``name=`` after
#: a ``(`` or ``,`` (comments allowed between), or a quoted ``name``
#: before a ``:``.  Only files that pass it for a name still unset are
#: parsed.
_SETTER_TEXT = re.compile(
    r"[(,](?:\s|#[^\n]*)*(\w+)\s*=(?!=)|['\"](\w+)['\"]\s*:"
)


def set_names(names, code_dirs=CODE_DIRS):
    """The subset of ``names`` that some code file sets."""
    found = set()
    for path in python_files(*code_dirs):
        candidates = set()
        for match in _SETTER_TEXT.finditer(path.read_text()):
            candidates.add(match.group(1) or match.group(2))
        wanted = (candidates & names) - found
        if wanted:
            found |= setters(path) & wanted
    return found


@functools.lru_cache(maxsize=None)
def scan(src, code_dirs):
    """``(defaulted_fields(src), the names among them that code sets)``."""
    defined = defaulted_fields(src)
    return defined, set_names({name for _, name in defined}, code_dirs)


def unset_fields(src=SRC, code_dirs=CODE_DIRS):
    """``{(class, field): "path:line"}`` of defaulted fields nothing sets."""
    defined, used = scan(src, code_dirs)
    return {
        key: where
        for key, where in defined.items()
        if key[1] not in used and key not in EXEMPT
    }


def test_every_defaulted_config_field_has_a_setter():
    found = unset_fields()
    assert not found, (
        "config fields nothing sets (fold each into a module constant, "
        f"or exempt it with a reason): {sorted(found.items())}"
    )


def test_exemptions_are_still_defined_still_needed_and_reasoned():
    defined, used = scan(SRC, CODE_DIRS)
    for key, reason in EXEMPT.items():
        assert key in defined, f"exempt field {key} no longer exists"
        assert key[1] not in used, f"{key} has a setter now; drop its exemption"
        assert isinstance(reason, str) and reason.strip(), f"{key} needs a reason"


def test_only_setters_outside_raises_blocks_count(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "config.py").write_text(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class ToyConfig:\n"
        '    """``by_docstring`` is only named here."""\n'
        "    required: int\n"
        "    by_keyword: int = 1\n"
        "    by_dict_key: int = 2\n"
        "    by_raises: int = 3\n"
        "    by_docstring: int = 4\n"
        "class NotAConfig:\n"
        "    never_set: int = 5\n"
    )
    (src / "use.py").write_text(
        "import pytest\n"
        "ToyConfig(by_keyword=0, **{'by_dict_key': 0})\n"
        "with pytest.raises(ValueError):\n"
        "    ToyConfig(by_raises=-1)\n"
    )
    assert unset_fields(src, (src,)) == {
        ("ToyConfig", "by_raises"): "src/config.py:8",
        ("ToyConfig", "by_docstring"): "src/config.py:9",
    }
