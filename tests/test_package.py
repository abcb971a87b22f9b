import os
import subprocess
import sys
import types

import pytest

import mcgcalc
from conftest import SRC, other_python
from test_kernel_parity import OTHER_PYTHONS


def test_all_is_exactly_the_public_names_the_package_binds():
    """A class or function removed from the package cannot leave a stale
    ``__all__`` entry behind, which would break ``from mcgcalc import *``."""
    bound = {
        name
        for name, value in vars(mcgcalc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(mcgcalc.__all__) == sorted(bound)
    namespace = {}
    exec("from mcgcalc import *", namespace)
    assert bound <= set(namespace)


# Imports the package in a fresh interpreter, with the compiled kernel blocked
# when argv[1] is "blocked", and prints the kernel it selected or the ImportError.
SELECT_KERNEL = """
import sys
if sys.argv[1] == "blocked":
    sys.modules["mcgcalc._wordops_c"] = None
try:
    from mcgcalc import kernel_backend
except ImportError as exc:
    print(f"ImportError: {exc}")
else:
    print(kernel_backend())
"""


@pytest.mark.parametrize(
    "requested, extension, expected",
    [
        (None, "blocked", "py"),
        ("", "blocked", "py"),
        ("c", "blocked", "ImportError: import of mcgcalc._wordops_c halted; None in sys.modules"),
        ("bogus", "blocked", "ImportError: unknown MCGCALC_KERNEL value: 'bogus'"),
        ("bogus", "as built", "ImportError: unknown MCGCALC_KERNEL value: 'bogus'"),
        (" PY ", "blocked", "py"),
        (" PY ", "as built", "py"),
    ],
    ids=repr,
)
def test_the_kernel_is_selected_as_the_readme_says(requested, extension, expected):
    env = {k: v for k, v in os.environ.items() if k != "MCGCALC_KERNEL"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    if requested is not None:
        env["MCGCALC_KERNEL"] = requested
    proc = subprocess.run(
        [sys.executable, "-c", SELECT_KERNEL, extension],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == expected


# Imports the CLI in a fresh isolated interpreter, as a cold CLI process does,
# and prints which of the costly stdlib modules the import loaded (a ``.pth``
# file that ``site`` ran may have loaded them before).
COLD_IMPORT = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import mcgcalc.cli
print(sorted({"dataclasses", "inspect"} & (set(sys.modules) - before)))
"""


# The value classes are plain classes, so starting the CLI generates no code
# and pulls in neither ``dataclasses`` nor the ``inspect`` it imports.
@pytest.mark.parametrize(
    "version", ["running", *sorted(OTHER_PYTHONS, key=lambda v: int(v.split(".")[1]))]
)
def test_importing_the_cli_loads_neither_dataclasses_nor_inspect(version):
    env = dict(os.environ)
    if version == "running":
        interpreter = sys.executable
    else:
        python, why = other_python(OTHER_PYTHONS[version])
        if python is None:
            pytest.skip(f"no CPython {version} with its own headers: {why}")
        interpreter = python.interpreter
        env["MCGCALC_KERNEL"] = "py"  # the compiled kernel is built for this interpreter
    proc = subprocess.run(
        [interpreter, "-I", "-c", COLD_IMPORT, str(SRC)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
