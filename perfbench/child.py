"""One cold mcgcalc process: import the CLI, load the batch, answer it.

Started by ``run.py`` with ``python -I perfbench/child.py``. The job comes
as JSON on stdin:

    {"src": dir holding the mcgcalc package, "mode": "setup" | "batch",
     "requests": [argv, ...], "after": [argv, ...], "sample": bool,
     "trace": null | {"ctwin": path or null, "spans_out": path}}

``setup`` stops once the CLI is imported and the job is loaded. ``batch``
then sends every request through ``mcgcalc.cli.main`` in a closed loop
(the next request starts when the previous verdict is back), timing each,
and afterwards runs the ``after`` requests untimed. The answer is one JSON
object on stdout; ``ready`` is the CLOCK_MONOTONIC reading at which set-up
ended, so the parent can subtract its own spawn time.

Both modes also time reference slices: a fixed free reduction that
measures how fast the host runs Python at that moment. A process runs
REF_EDGE slices once set up (``ref_s``). With ``sample`` set, an interval
timer runs one slice every REF_GAP_S of wall time while the requests run,
from its signal handler, so these slices (``sampled_s``) cover the same
seconds as the requests; their time is left out of the request and batch
times.
"""

import io
import json
import os
import resource
import signal
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

clock = time.monotonic

REF_LETTERS = 8000
REF_EDGE = 15
REF_GAP_S = 0.05


def reference_word():
    """REF_LETTERS signed letters over 4 generators, from a fixed LCG."""
    state, word = 12345, []
    for _ in range(REF_LETTERS):
        state = (state * 6364136223846793005 + 1442695040888963407) & ((1 << 64) - 1)
        k = (state >> 33) % 8
        word.append(k // 2 + 1 if k % 2 else -(k // 2 + 1))
    return tuple(word)


def reference_slice(word):
    """Freely reduce ``word`` and format the result; returns the seconds taken."""
    t0 = time.perf_counter()
    out = []
    pop, push = out.pop, out.append
    for c in word:
        if out and out[-1] == -c:
            pop()
        else:
            push(c)
    " ".join(map(str, out))
    return time.perf_counter() - t0


class Sampler:
    """Runs a reference slice every REF_GAP_S of wall time while entered,
    if ``armed``."""

    def __init__(self, word, ref_s, armed):
        self.word = word
        self.ref_s = ref_s
        self.armed = armed
        self.total = 0.0  # seconds spent in slices so far

    def _tick(self, signum, frame):
        spent = reference_slice(self.word)
        self.ref_s.append(spent)
        self.total += spent

    def __enter__(self):
        if self.armed:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, REF_GAP_S, REF_GAP_S)
        return self

    def __exit__(self, *exc):
        if self.armed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


def peak_rss_kb():
    """Peak resident memory of this process image.

    ``VmHWM`` counts only memory mapped since exec; ``ru_maxrss`` would also
    count the parent's memory, which a vfork-started child inherits as its
    starting peak.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_one(main, argv):
    """One CLI request: (exit code, stdout, stderr); -1 for an uncaught error."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc = -1
            err.write(traceback.format_exc())
    return [rc, out.getvalue(), err.getvalue()]


def main() -> int:
    job = json.load(sys.stdin)
    src = os.path.realpath(job["src"])
    sys.path.insert(0, src)
    import mcgcalc.cli

    ready = clock()
    package = os.path.realpath(os.path.dirname(mcgcalc.__file__))
    if os.path.dirname(package) != src:
        print(f"imported mcgcalc from {package}, not from {src}", file=sys.stderr)
        return 3
    answer = {
        "ready": ready,
        "backend": mcgcalc.kernel_backend(),
        "python": sys.version.split()[0],
    }
    ref_word = reference_word()
    answer["ref_s"] = [reference_slice(ref_word) for _ in range(REF_EDGE)]
    if job["mode"] == "setup":
        json.dump(answer, sys.stdout)
        return 0

    tracer = None
    run = run_one
    if job.get("trace"):
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        run = tracer.wrap("bench.item", run_one)  # the root span of each request

    cli_main = mcgcalc.cli.main
    latencies = []
    results = []
    sampled_s = []
    with Sampler(ref_word, sampled_s, job.get("sample", False)) as sampler:
        first = clock()
        for argv in job["requests"]:
            t0, sliced = clock(), sampler.total
            results.append(run(cli_main, argv))
            latencies.append(clock() - t0 - (sampler.total - sliced))
        last = clock()
        between = sampler.total
    peak_kb = peak_rss_kb()

    if tracer is not None:
        tracer.uninstall()
        answer["trace"] = tracer.report(job["trace"]["ctwin"], job["trace"]["spans_out"])
    answer.update(
        batch_s=last - first - between,
        sampled_s=sampled_s,
        latency_s=latencies,
        results=results,
        after=[run_one(cli_main, argv) for argv in job.get("after", [])],
        peak_rss_kb=peak_kb,
    )
    json.dump(answer, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
