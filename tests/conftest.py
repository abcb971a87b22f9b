"""Shared fixtures: the compiled word kernel and CLI runs under either kernel.

When ``mcgcalc._wordops_c`` is not built in place, the kernel source is
compiled into a temporary directory in a subprocess (so no build warning
reaches the suite), and tests that need it skip only without a C compiler.
An importable build from other source stops the run before any test: every
test would otherwise run a kernel built from other code. ``setup.py``
records the sha256 of the source in the build, and that hash must match;
a build by hand records none and must not be older than the source.
"""

import hashlib
import importlib.machinery
import importlib.util
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
KERNEL_SOURCE = SRC / "mcgcalc" / "_wordops_c.c"


# The source tag the kernel keeps in its binary (its ``_SOURCE`` attribute).
SOURCE_TAG = re.compile(rb"_wordops_c\.c sha256=([0-9a-f]{64}|unknown)")


def stale_kernel_reason(build, source=KERNEL_SOURCE):
    """Why the compiled kernel at ``build`` was not built from ``source``, or None."""
    tag = SOURCE_TAG.search(Path(build).read_bytes())
    if tag is None or tag[1] == b"unknown":
        if os.path.getmtime(build) < os.path.getmtime(source):
            return f"the compiled kernel {build} is older than {source}"
        return None
    if tag[1].decode() != hashlib.sha256(Path(source).read_bytes()).hexdigest():
        return f"the compiled kernel {build} was built from other source than {source}"
    return None


def pytest_sessionstart(session):
    # find the importable build without importing mcgcalc, which loads it
    package = importlib.util.find_spec("mcgcalc")
    spec = package and importlib.machinery.PathFinder.find_spec(
        "mcgcalc._wordops_c", package.submodule_search_locations
    )
    reason = spec and stale_kernel_reason(spec.origin)
    if reason:
        pytest.exit(
            f"{reason}; rebuild it with `python setup.py build_ext --inplace --force`",
            returncode=pytest.ExitCode.USAGE_ERROR,
        )


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
# so that ``mcgcalc._wordops`` finds it, then imports the CLI.
_LOAD = """\
import importlib.util, sys
spec = importlib.util.spec_from_file_location("mcgcalc._wordops_c", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
sys.modules[spec.name] = module
from mcgcalc.cli import main
"""

# Runs the CLI once, on argv[2:].
_LAUNCH = _LOAD + "sys.exit(main(sys.argv[2:]))\n"

# Runs each argv of the JSON list on stdin through the one ``main`` of this
# process and prints [exit code, stdout, stderr] for each as a JSON list.
_LAUNCH_MANY = _LOAD + """\
import contextlib, io, json
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def _python(compiled_kernel, kernel, script, args, stdin=None):
    """``script`` in a fresh interpreter with ``MCGCALC_KERNEL=kernel``."""
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, MCGCALC_KERNEL=kernel, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run(
        [sys.executable, "-c", script, compiled_kernel.__file__, *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )


@pytest.fixture(scope="session")
def run_cli(compiled_kernel):
    """``run_cli(kernel, argv)``: the CLI in a fresh interpreter with
    ``MCGCALC_KERNEL=kernel``; returns the completed process (text output)."""

    def run(kernel, argv):
        return _python(compiled_kernel, kernel, _LAUNCH, argv)

    return run


@pytest.fixture(scope="session")
def run_cli_many(compiled_kernel):
    """``run_cli_many(kernel, argvs)``: every argv through one in-process
    ``main`` of a fresh interpreter with ``MCGCALC_KERNEL=kernel``; returns
    (exit code, stdout, stderr) for each."""

    def run(kernel, argvs):
        proc = _python(compiled_kernel, kernel, _LAUNCH_MANY, [], json.dumps(argvs))
        assert proc.returncode == 0, proc.stderr
        return [tuple(result) for result in json.loads(proc.stdout)]

    return run
