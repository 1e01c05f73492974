"""Importing ``repro`` loads no third-party package except numpy.

numpy is the one runtime dependency in ``pyproject.toml``.  A fresh
interpreter records ``sys.modules`` after ``import numpy``, then imports
every ``repro`` module found by ``pkgutil.walk_packages`` (``__main__``
modules skipped, since importing one runs it).  Every top-level package
newly loaded on the way must be ``repro``, ``numpy`` or part of the
standard library (``sys.stdlib_module_names``).  An alias of a module
loaded before, such as the ``__mp_main__`` that ``multiprocessing``
points at ``__main__``, is not new.  ``sys.stdlib_module_names`` only
exists from Python 3.10, so on 3.9 the test is skipped.
"""

import json
import os
import subprocess
import sys

import pytest

from tests.source_scan import SRC

ALLOWED = {"repro", "numpy"}

_PROBE = """
import importlib, json, pkgutil, sys
import numpy
before = {id(module) for module in sys.modules.values()}
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.name.rsplit(".", 1)[-1] != "__main__":
        importlib.import_module(info.name)
loaded = {
    name.split(".")[0]
    for name, module in sys.modules.items()
    if id(module) not in before
}
print(json.dumps(sorted(loaded - set(sys.stdlib_module_names))))
"""


def third_party_imports():
    """Top-level non-stdlib packages that importing all of ``repro`` loads."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return set(json.loads(out.splitlines()[-1]))


@pytest.mark.skipif(
    sys.version_info < (3, 10), reason="sys.stdlib_module_names needs Python 3.10"
)
def test_only_numpy_beyond_the_standard_library():
    assert third_party_imports() - ALLOWED == set()
