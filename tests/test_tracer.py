"""The benchmark's per-layer tracer (``perfbench/tracer.py``) runs against
the package as it is: it wraps every layer, replays the sampled kernel
calls through both kernels, and finds them in agreement.

The tracer replays each sampled ``substitute`` call from its positional
arguments as ``(word, images)``; a change to how the package calls the
kernel ops shows up here before it shows up as a malformed traced run.
"""

import importlib.util
from pathlib import Path

import pytest

from mcgcalc import cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# One small request of each benchmark workload's kind. Each is traced on its
# own, as a traced benchmark run traces one workload: a workload whose
# requests stop calling an op must still leave its c_over_py metric.
REQUESTS = {
    "braid-trivial": ["braid-trivial", "--strands", "4", "b1 b2 b1 b2^-1 b1^-1 b2^-1 b3 b3^-1"],
    "act": ["act", "twist-word", "a1 b2 w1^-1 a2", "--genus", "3", "--on", "x1 y2 x3^-1 y1 x2"],
    "verify": ["verify", "--which", "yz-roundtrip", "--genus", "2..3", "--json"],
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv", REQUESTS.values(), ids=REQUESTS.keys())
def test_traced_request_is_well_formed(tmp_path, capsys, argv):
    try:
        from mcgcalc import _wordops_c  # noqa: F401
    except ImportError:
        pytest.skip("the compiled kernel is not built: the tracer compares it with the pure one")
    tracing = load_tracer()
    # This copy of the module is the test's own; its kernel timings are not
    # read here, so one short replay per kernel is enough.
    tracing.REPLAY_MIN_S = 0.01
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    report = tracer.report(None, tmp_path / "spans.tsv.gz")
    metrics = report["metrics"]
    assert report["kernel_disagreements"] == []
    for op in tracing.KERNEL_OPS:
        assert f"_wordops.{op}.c_over_py" in metrics, op
    assert metrics["_wordops.substitute.calls"] > 0


def test_traced_verify_times_the_identity_checks(tmp_path, capsys):
    # thm22 and relations run through identity_report; their spans stay keyed
    # to the verifiers the CLI runs, whatever those call inside
    tracing = load_tracer()
    tracing.REPLAY_MIN_S = 0.01
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(["verify", "--which", "thm22,relations", "--genus", "2..3", "--json"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    metrics = tracer.report(None, tmp_path / "spans.tsv.gz")["metrics"]
    assert metrics["cli.verify.thm22_s"] > 0
    assert metrics["cli.verify.relations_s"] > 0
