#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the mcgcalc CLI.

    python3 perfbench/run.py --workload verify-all|braid-pairs|act-long \\
        --seed N --seconds S --trace 0|1

Run from anywhere; the program is the ``src/mcgcalc`` package next to this
directory, built in place by ``setup.py build_ext --inplace`` before the
run starts. Each workload is a closed loop with one client: a single
process and thread sends the next CLI request through ``mcgcalc.cli.main``
only after the previous verdict is back. Every batch of requests runs in a
fresh interpreter, because the CLI pays its lru-cached construction work
on every invocation and a warm process would hide it.

With ``--trace 0`` the run spawns a few set-up-only processes, then batches
until ``--seconds`` have passed (at least three), each batch on its own
input set drawn from the seed. It prints the end-to-end metrics:

* ``setup_s``      median time from spawn until ``mcgcalc.cli`` is
                   imported and the batch is loaded, over all processes;
* ``batch_s``      median time from the first request to the last verdict;
* ``item_p50_ms``, ``item_p90_ms``  per-request latency over all batches;
* ``peak_rss_mb``  median peak resident memory of a batch process;
* ``ok_ratio``     share of requests whose verdict checked out (the
                   complement of the failed ratio, which is also printed).

Times are reported at reference speed: every process also times reference
slices (see ``child.py``), and its wall times are multiplied by REF_SLICE_S
times the mean of 1 / (slice time), the host's mean speed over the slices.
A batch is rescaled by the slices taken while its requests ran, set-up by
the slices taken right after it. The speed of a shared host drifts by up
to a factor of two over minutes and moves the program and the slices
alike, so the rescaled times follow the program, not the host. The raw
wall-clock medians are printed too.

With ``--trace 1`` it runs batch 0 twice untraced and twice traced (see
``tracer.py``), times ``verify --all`` at ``--jobs 1`` and ``--jobs 2``,
and prints the per-layer metrics. Every verdict is checked by the
benchmark's own code after the timed region; the last line of stdout is
the JSON result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
sys.path.insert(0, str(HERE))

import freegroup  # noqa: E402
import inputs  # noqa: E402

SETUP_PROBES = 10
REF_SLICE_S = 0.002  # reference speed: one reference slice takes this long
MIN_BATCHES = 3
RUN_LIMIT_S = 170  # a run ends within this time after the build, whatever happens
CHECKS = ("thm22", "chains", "relations", "relator", "artin-restriction", "yz-roundtrip")

END_TO_END = (
    ("setup_s", "s"),
    ("batch_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)

# Layers are the mcgcalc modules; metric names drop the leading underscore
# of ``_wordops`` because a metric name must start with a letter.
PER_LAYER = (
    ("wordops.substitute.calls", "count"),
    ("wordops.substitute.self_s", "s"),
    ("wordops.substitute.letters_in", "count"),
    ("wordops.substitute.letters_out", "count"),
    ("wordops.substitute.kept_ratio", "ratio"),
    ("wordops.reduce_letters.self_s", "s"),
    ("wordops.concat_reduced.self_s", "s"),
    ("wordops.reduce_letters.c_over_py", "x"),
    ("wordops.concat_reduced.c_over_py", "x"),
    ("wordops.substitute.c_over_py", "x"),
    ("words.random_word.calls", "count"),
    ("words.random_word.self_s", "s"),
    ("words.parse_word.self_s", "s"),
    ("words.parse_word.letters", "count"),
    ("words.format_word.self_s", "s"),
    ("words.format_word.letters", "count"),
    ("endos.compose.calls", "count"),
    ("endos.compose.self_s", "s"),
    ("endos.apply.calls", "count"),
    ("endos.apply.self_s", "s"),
    ("endos.construct.calls", "count"),
    ("endos.construct.self_s", "s"),
    ("endos.peak_letters", "count"),
    ("endos.budget_errors", "count"),
    ("twists.parse_twist_word.self_s", "s"),
    ("twists.evaluate_twist_word.self_s", "s"),
    ("twists.dehn_twist_action.hit_ratio", "ratio"),
    ("braids.parse_braid_word.self_s", "s"),
    ("braids.artin_action.self_s", "s"),
    ("braids.psi_action.self_s", "s"),
    ("braids.is_trivial_braid.self_s", "s"),
    ("pillars.to_yz.calls", "count"),
    ("pillars.to_yz.self_s", "s"),
    ("pillars.from_yz.calls", "count"),
    ("pillars.from_yz.self_s", "s"),
    ("pillars.conjugate_to_yz.calls", "count"),
    ("pillars.conjugate_to_yz.self_s", "s"),
    ("pillars.pillar_switching_action.hit_ratio", "ratio"),
    ("reports.case_from_endos.self_s", "s"),
    ("reports.to_json_dict.self_s", "s"),
    ("cli.main.self_s", "s"),
    *((f"cli.verify.{which}_s", "s") for which in CHECKS),
    *((f"cli.verify.{which}.g12_s", "s") for which in CHECKS),
    ("cli.jobs2_over_jobs1", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)


class BenchError(Exception):
    """The benchmark cannot run here (no program, failed build)."""


# --- workloads: requests, untimed follow-ups, and independent checks ---------


def _verify_seed(seed, batch):
    return inputs._stream(seed, "verify-all", batch).below(1 << 31)


def _verify_argv(seed, jobs=1):
    return ["verify", "--all", "--genus", "2..12", "--json", "--jobs", str(jobs), "--seed", str(seed)]


def _load_cases():
    cases = {}
    for which, genus, name in json.loads((HERE / "verify_cases.json").read_text()):
        cases.setdefault((which, genus), set()).add(name)
    if sum(map(len, cases.values())) != 1034 or len(cases) != 66:
        raise BenchError("verify_cases.json does not hold the 1034 recorded cases")
    return cases


CASES = _load_cases()


def _verify_ok(result, expected):
    """``expected``: (which, genus) -> case names the output must hold exactly."""
    rc, out, _ = result
    if rc != 0:
        return False
    try:
        payload = json.loads(out)
        got = {}
        for report in payload["results"]:
            key = (report["which"], report["genus"])
            if key in got or not all(case["holds"] for case in report["cases"]):
                return False
            got[key] = {case["name"] for case in report["cases"]}
    except (ValueError, KeyError, TypeError):
        return False
    return payload["ok"] is True and got == expected


def verify_batch(seed, batch):
    """One request: ``verify --all --genus 2..12 --jobs 1 --json``."""
    return [_verify_argv(_verify_seed(seed, batch))], [], [CASES]


def check_verify(expected, results, after):
    return [_verify_ok(result, exp) for result, exp in zip(results, expected)]


def braid_batch(seed, batch):
    items = inputs.braid_pairs(seed, batch)
    requests = [["braid-trivial", "--strands", str(it["strands"]), it["word"]] for it in items]
    return requests, [], [it["trivial"] for it in items]


def check_braid(expected, results, after):
    return [
        (rc, out.strip()) == ((0, "trivial") if trivial else (1, "nontrivial"))
        for trivial, (rc, out, _) in zip(expected, results)
    ]


def act_batch(seed, batch):
    items = inputs.act_long(seed, batch)
    requests, after = [], []
    for it in items:
        spec = [it["object"], it["spec"], "--genus", str(it["genus"])]
        requests.append(["act", *spec, "--on", it["on"]])
        after.append(["export", *spec, "--json"])
    return requests, after, items


def _act_ok(item, result, export):
    """The printed image is the exported map applied to the word, reduced by
    the benchmark's own code; the exported map is the benchmark's own
    evaluation of the request and fixes the boundary relator."""
    genus = item["genus"]
    if result[0] != 0 or export[0] != 0:
        return False
    try:
        payload = json.loads(export[1])
        if payload["basis"] != {"kind": "xy", "genus_or_rank": genus}:
            return False
        named = payload["images"]
        if len(named) != 2 * genus:
            return False
        images = {
            code: freegroup.parse_xy(named[freegroup.letter_name(code)], genus)
            for code in range(1, 2 * genus + 1)
        }
    except (ValueError, KeyError, TypeError):
        return False
    if images != item["map"]:
        return False
    relator = freegroup.relator(genus)
    if freegroup.substitute(relator, images) != relator:
        return False
    word = freegroup.parse_xy(item["on"], genus)
    expected = freegroup.format_xy(freegroup.substitute(word, images))
    return result[1].strip() == expected


def check_act(expected, results, after):
    return [_act_ok(*args) for args in zip(expected, results, after)]


WORKLOADS = {
    "verify-all": (verify_batch, check_verify),
    "braid-pairs": (braid_batch, check_braid),
    "act-long": (act_batch, check_act),
}


# --- building and spawning ---------------------------------------------------


def _build_env():
    """Compilers put their temporary files under the checkout, not in /tmp."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build_program():
    """Build the package in place the way ``setup.py`` defines it."""
    if not (SRC / "mcgcalc" / "cli.py").is_file():
        raise BenchError(f"no mcgcalc package under {SRC}")
    BUILD.mkdir(exist_ok=True)
    if not (ROOT / "setup.py").is_file():
        return
    log = BUILD / "build_ext.log"
    with open(log, "w") as out:
        proc = subprocess.run(
            [sys.executable, "setup.py", "build_ext", "--inplace"],
            cwd=ROOT,
            env=_build_env(),
            stdout=out,
            stderr=subprocess.STDOUT,
            timeout=800,
        )
    if proc.returncode != 0:
        raise BenchError(f"setup.py build_ext failed; see {log}")


def build_ctwin():
    """Compile the committed ``_wordops_c.c`` for the kernel comparison, or None."""
    source = SRC / "mcgcalc" / "_wordops_c.c"
    compiler = shutil.which("gcc") or shutil.which("cc")
    if not source.is_file() or compiler is None:
        return None
    target = BUILD / "ctwin" / ("_wordops_c" + sysconfig.get_config_var("EXT_SUFFIX"))
    if target.is_file() and target.stat().st_mtime >= source.stat().st_mtime:
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    partial = target.with_suffix(".partial")
    proc = subprocess.run(
        [compiler, "-O2", "-shared", "-fPIC", "-I" + sysconfig.get_paths()["include"],
         str(source), "-o", str(partial)],
        env=_build_env(),
        capture_output=True,
        timeout=300,
    )
    if proc.returncode != 0:
        print(f"note: C twin did not build: {proc.stderr.decode()[-500:]}", file=sys.stderr)
        return None
    os.replace(partial, target)
    return target


def speed(answer, during="sampled_s"):
    """Factor that rescales a process's wall times to reference speed.

    ``during`` names the slices to use: those sampled while the requests
    ran if there are any, else those taken right after set-up.
    """
    slices = answer.get(during) or answer["ref_s"]
    return REF_SLICE_S * statistics.fmean(1 / t for t in slices)


def spawn(job, timeout):
    """Run one cold child; returns (answer or None, setup seconds)."""
    job = dict(job, src=str(SRC))
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-I", str(HERE / "child.py")],
        cwd=ROOT,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(json.dumps(job).encode(), timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("child timed out", file=sys.stderr)
        return None, None
    if proc.returncode != 0:
        print(f"child exited {proc.returncode}: {err.decode()[-2000:]}", file=sys.stderr)
        return None, None
    try:
        answer = json.loads(out)
    except ValueError:
        print(f"child answered no JSON: {out[-500:]!r}", file=sys.stderr)
        return None, None
    return answer, answer["ready"] - t_spawn


class Run:
    """Counts and samples gathered over the batches of one run."""

    def __init__(self, workload, seed):
        self.make_batch, self.check = WORKLOADS[workload]
        self.seed = seed
        self.limit = time.monotonic() + RUN_LIMIT_S
        self.setup = []
        self.batch = []
        self.latency = []
        self.wall = {"setup_s": [], "batch_s": [], "speed": []}
        self.rss_mb = []
        self.attempted = 0
        self.failed = 0
        self.host = {}
        self.first_requests = None

    def probe_setup(self):
        if self.first_requests is None:
            self.first_requests = self.make_batch(self.seed, 0)[0]
        answer, setup = spawn(
            {"mode": "setup", "requests": self.first_requests}, self.limit - time.monotonic()
        )
        if answer is None:
            raise BenchError("the program does not start")
        self.host = {"kernel": answer["backend"], "python": answer["python"]}
        self._add_setup(answer, setup)

    def _add_setup(self, answer, setup):
        self.setup.append(setup * speed(answer, "ref_s"))
        self.wall["setup_s"].append(setup)

    def run_batch(self, index, trace=None, sample=False):
        """Batch ``index`` of the workload in one cold process."""
        requests, after, expected = self.make_batch(self.seed, index)
        return self.run_requests(requests, after, expected, self.check, trace, sample)

    def run_requests(self, requests, after, expected, check, trace=None, sample=False):
        """One cold process; returns the child's answer (None if it died).

        ``sample`` interleaves reference slices with the requests (see
        ``child.py``); without it the speed comes from the slices taken
        right after set-up.
        """
        answer, setup = spawn(
            {"mode": "batch", "requests": requests, "after": after, "trace": trace,
             "sample": sample},
            self.limit - time.monotonic(),
        )
        self.attempted += len(requests)
        if answer is None:
            self.failed += len(requests)
            return None
        verdicts = check(expected, answer["results"], answer["after"])
        self.failed += verdicts.count(False)
        for argv, ok in zip(requests, verdicts):
            if not ok:
                print(f"wrong verdict: {' '.join(argv)[:200]}", file=sys.stderr)
        self._add_setup(answer, setup)
        self.batch.append(answer["batch_s"] * speed(answer))
        self.wall["speed"].append(speed(answer))
        self.wall["batch_s"].append(answer["batch_s"])
        self.latency.extend(t * speed(answer) for t in answer["latency_s"])
        self.rss_mb.append(answer["peak_rss_kb"] / 1024)
        return answer


def _quantile(values, q):
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def end_to_end(run, seconds):
    for _ in range(SETUP_PROBES):
        run.probe_setup()
    deadline = time.monotonic() + seconds
    index = 0
    while True:
        t0 = time.monotonic()
        run.run_batch(index, sample=True)
        index += 1
        wall = time.monotonic() - t0
        now = time.monotonic()
        if index >= MIN_BATCHES and now + wall > deadline or now >= run.limit:
            break
    if not run.batch:
        raise BenchError("no batch completed")
    return {
        "setup_s": statistics.median(run.setup),
        "batch_s": statistics.median(run.batch),
        "item_p50_ms": statistics.median(run.latency) * 1e3,
        "item_p90_ms": _quantile(run.latency, 0.9) * 1e3,
        "peak_rss_mb": statistics.median(run.rss_mb),
        "ok_ratio": 1 - run.failed / run.attempted,
    }


def per_layer(run, workload):
    run.probe_setup()
    ctwin = build_ctwin()
    trace_dir = BUILD / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    spans_out = trace_dir / f"{workload}-seed{run.seed}.spans.tsv.gz"
    trace = {"ctwin": str(ctwin) if ctwin else None, "spans_out": str(spans_out)}
    # Two untraced/traced pairs of batch 0, alternating, for the overhead ratio;
    # the layer metrics come from the first traced batch.
    pairs = [(run.run_batch(0), run.run_batch(0, trace=trace)) for _ in range(2)]
    if any(answer is None for pair in pairs for answer in pair):
        raise BenchError("a traced or an untraced batch died")
    traced = pairs[0][1]
    for op in traced["trace"]["kernel_disagreements"]:
        print(f"wrong verdict: the word kernels disagree on sampled {op} calls", file=sys.stderr)
        run.failed += 1
    metrics = {name.lstrip("_"): value for name, value in traced["trace"]["metrics"].items()}
    metrics["trace.overhead_ratio"] = sum(t["batch_s"] * speed(t) for _, t in pairs) / sum(
        u["batch_s"] * speed(u) for u, _ in pairs
    )

    vseed = _verify_seed(run.seed, 0)
    seconds = {}
    for jobs in (1, 2):
        answer = run.run_requests([_verify_argv(vseed, jobs)], [], [CASES], check_verify)
        if answer is None:
            raise BenchError(f"verify --jobs {jobs} died")
        seconds[jobs] = answer["batch_s"] * speed(answer)
    metrics["cli.jobs2_over_jobs1"] = seconds[2] / seconds[1]

    print(f"spans: {traced['trace']['spans']} written to {spans_out.relative_to(ROOT)}")
    if ctwin is None:
        print("note: no C compiler or no _wordops_c.c; the c_over_py metrics are missing")
    return {name: metrics[name] for name, _ in PER_LAYER if name in metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build_program()
        run = Run(args.workload, args.seed)
        if args.trace:
            values = per_layer(run, args.workload)
            units = dict(PER_LAYER)
        else:
            values = end_to_end(run, args.seconds)
            units = dict(END_TO_END)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(
        f"host: nproc={len(os.sched_getaffinity(0))} python={run.host['python']} "
        f"kernel={run.host['kernel']}"
    )
    print(
        f"workload {args.workload} seed {args.seed}: {len(run.batch)} batches, "
        f"{run.attempted} requests, {run.failed} failed, "
        f"failed_ratio {run.failed / run.attempted:.4g}"
    )
    for name, value in values.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    if run.wall["batch_s"] and not args.trace:
        wall = {name: statistics.median(v) for name, v in run.wall.items()}
        print(
            f"  raw wall clock: setup_s {wall['setup_s']:.4g} s, batch_s {wall['batch_s']:.4g} s; "
            f"median speed factor {wall['speed']:.4g} "
            f"(range {min(run.wall['speed']):.4g}..{max(run.wall['speed']):.4g})"
        )
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
