"""The compiled kernel under AddressSanitizer and UndefinedBehaviorSanitizer.

The kernel is built with both sanitizers into a temporary directory and
loaded, under its package name, into a fresh interpreter that runs the
kernel's contract rows, its budget rows, a fixed-seed parity sweep against
the pure kernel and the reference-count tests of ``test_kernel_parity.py``.
Both runtimes are preloaded, as the interpreter itself is not built with
them, and ``PYTHONMALLOC=malloc`` sends every Python allocation through
the sanitized ``malloc``, so a read or write past a buffer the kernel
allocates is caught. Leak detection stays off: the interpreter's own
allocations at exit would drown what the kernel leaves, and the
reference-count tests cover the kernel's references.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import SRC, c_compiler, compile_kernel

TESTS = Path(__file__).resolve().parent
SANITIZE = ["-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=undefined"]
RUNTIMES = ["libasan.so", "libubsan.so"]
EXAMPLES = 10

# The tests of test_kernel_parity.py run against the sanitized build.
SELECTED = " or ".join([
    "test_kernel_contract",
    "test_kernel_budget",
    "test_kernels_agree",
    "reference_count",
])

# Loads the kernel built at argv[1] under its package name, so that the
# ``compiled_kernel`` fixture returns it, then runs pytest on argv[2:]. The
# sanitizers make every call several times slower, so the sweep draws fewer
# examples than tier-1 does, with no deadline.
RUN = f"""\
import importlib.util, sys
spec = importlib.util.spec_from_file_location("mcgcalc._wordops_c", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
sys.modules[spec.name] = module
import pytest

class Profile:
    def pytest_configure(self, config):  # hypothesis is imported after pytest starts
        from hypothesis import settings
        settings.register_profile("sanitized", max_examples={EXAMPLES}, deadline=None)
        settings.load_profile("sanitized")

sys.exit(pytest.main(sys.argv[2:], plugins=[Profile()]))
"""


def runtime(compiler, name):
    """The path of the compiler's runtime library ``name``, or None; the
    compiler echoes the bare name when it has no such file."""
    proc = subprocess.run(
        [*compiler, f"-print-file-name={name}"], capture_output=True, text=True, timeout=60
    )
    path = proc.stdout.strip()
    return path if proc.returncode == 0 and os.path.isabs(path) and os.path.exists(path) else None


def test_kernel_is_clean_under_the_sanitizers(tmp_path):
    compiler = c_compiler()
    if compiler is None:
        pytest.skip("no C compiler")
    preload = [runtime(compiler, name) for name in RUNTIMES]
    missing = [name for name, path in zip(RUNTIMES, preload) if path is None]
    if missing:
        pytest.skip(f"{' '.join(compiler)} has no {', '.join(missing)}")
    target, proc = compile_kernel(compiler, tmp_path, SANITIZE)
    assert proc.returncode == 0, proc.stderr
    env = dict(
        os.environ,
        LD_PRELOAD=" ".join(preload),
        ASAN_OPTIONS="detect_leaks=0",
        PYTHONMALLOC="malloc",
        PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]),
    )
    proc = subprocess.run(
        [sys.executable, "-c", RUN, str(target),
         "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", "-k", SELECTED,
         # a sanitizer report is written to fd 2 and ends the process at once
         "--capture=sys",
         str(TESTS / "test_kernel_parity.py")],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,  # where hypothesis keeps its example database
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[:4000]
    assert " passed" in proc.stdout and " skipped" not in proc.stdout, proc.stdout[-2000:]
