"""Shared fixtures: the compiled word kernel and a CLI run under either kernel.

When ``mcgcalc._wordops_c`` is not built in place, the kernel source is
compiled into a temporary directory in a subprocess (so no build warning
reaches the suite), and tests that need it skip only without a C compiler.
"""

import importlib.util
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
KERNEL_SOURCE = SRC / "mcgcalc" / "_wordops_c.c"


def c_compiler():
    """The C compiler Python was built with (else ``cc``), or None if absent."""
    command = shlex.split(sysconfig.get_config_var("CC") or "cc")
    return command if command and shutil.which(command[0]) else None


def compile_kernel(compiler, out_dir, flags=()):
    """Compile the kernel source into ``out_dir``; returns (target, process)."""
    target = Path(out_dir) / ("_wordops_c" + sysconfig.get_config_var("EXT_SUFFIX"))
    proc = subprocess.run(
        [*compiler, "-O2", "-shared", "-fPIC", *flags,
         "-I", sysconfig.get_paths()["include"], str(KERNEL_SOURCE), "-o", str(target)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    return target, proc


@pytest.fixture(scope="session")
def compiled_kernel(tmp_path_factory):
    """The compiled kernel: the in-place build, else one compiled once per test run."""
    try:
        from mcgcalc import _wordops_c

        return _wordops_c
    except ImportError:
        pass
    compiler = c_compiler()
    if compiler is None:
        pytest.skip("no C compiler to build the compiled kernel")
    target, proc = compile_kernel(compiler, tmp_path_factory.mktemp("kernel"))
    if proc.returncode != 0:
        pytest.fail(f"the compiled kernel does not build:\n{proc.stderr}")
    spec = importlib.util.spec_from_file_location("mcgcalc._wordops_c", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Loads the compiled kernel from the path in argv[1] under its package name,
# so that ``mcgcalc._wordops`` finds it, then runs the CLI on argv[2:].
_LAUNCH = """\
import importlib.util, sys
spec = importlib.util.spec_from_file_location("mcgcalc._wordops_c", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
sys.modules[spec.name] = module
from mcgcalc.cli import main
sys.exit(main(sys.argv[2:]))
"""


@pytest.fixture(scope="session")
def run_cli(compiled_kernel):
    """``run_cli(kernel, argv)``: the CLI in a fresh interpreter with
    ``MCGCALC_KERNEL=kernel``; returns the completed process (text output)."""

    def run(kernel, argv):
        path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
        env = dict(os.environ, MCGCALC_KERNEL=kernel, PYTHONPATH=os.pathsep.join(path))
        return subprocess.run(
            [sys.executable, "-c", _LAUNCH, compiled_kernel.__file__, *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=600,
        )

    return run
