"""Every symcone module imports first in a fresh interpreter, so that a
circular import between the modules fails here rather than in a user's
program.

Python runs a package's `__init__` before any of its submodules, and
symcone's `__init__` imports most of them in one fixed order, which would
hide a cycle that only another order trips.  So the package is registered
with only the part of `__init__` that precedes its imports (the docstring and
`__version__`), the module under test is imported, and then the rest of
`__init__` runs.
"""

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import symcone

SRC = str(Path(symcone.__file__).resolve().parents[1])
# `symcone.__main__` runs the command line when imported; `python -m symcone`
# is covered by the CLI tests.
MODULES = sorted(f"symcone.{m.name}" for m in pkgutil.iter_modules(symcone.__path__) if m.name != "__main__")

FIRST = """
import importlib, importlib.util, sys
spec = importlib.util.find_spec("symcone")
package = importlib.util.module_from_spec(spec)
source = open(spec.origin).read()
exec(compile(source[: source.index("\\nfrom ")], spec.origin, "exec"), package.__dict__)
sys.modules["symcone"] = package
importlib.import_module(sys.argv[1])
spec.loader.exec_module(package)
"""


def test_every_module_is_listed():
    assert {"symcone.parallel", "symcone.registry", "symcone.cli"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_imports_first(module):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", FIRST, module], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module", ["symcone"] + MODULES)
def test_star_import_matches_all(module):
    # a name left in `__all__` after its definition is deleted breaks
    # `from module import *`
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []
    exec(f"from {module} import *", {})


MAX_MODULE_LINES = 520


@pytest.mark.parametrize("module", ["symcone"] + MODULES)
def test_module_stays_small(module):
    # A checkout without bytecode compiles every module on import, and the
    # compiler's peak memory grows with the largest module; see README,
    # "Checking a change".
    path = importlib.util.find_spec(module).origin
    with open(path) as fh:
        lines = sum(1 for _ in fh)
    assert lines <= MAX_MODULE_LINES, f"{path} has {lines} lines"
