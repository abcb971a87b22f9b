"""Per-layer tracing of mcgcalc from outside the package.

``Tracer.install`` replaces each public function of the mcgcalc modules
(and a few named methods) with a wrapper that records a span: name, start,
end and the span that was open when it began. The wrapper is put at every
binding site, that is in every mcgcalc module namespace that holds the
function, since ``from .words import random_word`` makes a second binding
in ``pillars``. The kernel ops are module attributes of
``mcgcalc._wordops`` that callers look up at call time, so replacing them
there covers every caller.

Spans stay in memory until ``report``, which derives self time (a span's
duration minus that of its direct children), writes the spans out, and
times a sample of the kernel calls through both word kernels.
"""

import functools
import gzip
import importlib
import importlib.util
import sys
import time
import types
from array import array
from collections import defaultdict

from mcgcalc.errors import ImageBudgetError

LAYERS = ("_wordops", "words", "endos", "twists", "braids", "pillars", "chains", "reports", "cli")
KERNEL_OPS = ("reduce_letters", "concat_reduced", "substitute")

# The function ``mcgcalc verify`` runs for each check name.
CHECK_RUNNERS = {
    "thm22": "pillars.verify_theorem_2_2",
    "chains": "pillars.replay_proof_chains",
    "relations": "braids.verify_psi_relations",
    "relator": "pillars.verify_relator_invariance",
    "artin-restriction": "braids.verify_artin_restriction",
    "yz-roundtrip": "pillars.verify_yz_roundtrip",
}

# Methods traced under a layer name of their own.
METHODS = (
    ("endos", "FreeEndomorphism", "apply", "endos.apply"),
    ("endos", "FreeEndomorphism", "compose", "endos.compose"),
    ("endos", "FreeEndomorphism", "__post_init__", "endos.construct"),
    ("reports", "VerificationReport", "to_json_dict", "reports.to_json_dict"),
)

SAMPLE_CALLS = 512  # kernel calls kept per op for the kernel comparison
SAMPLE_LETTERS = 2_000_000  # cap on the letters those calls hold alive
REPLAY_MIN_S = 0.2


class _Sample:
    """A systematic sample of calls: every ``stride``-th, stride doubling when full.

    ``letters`` counts the words the kept calls hold alive, each image table
    once however many calls share it, and stays under SAMPLE_LETTERS.
    """

    def __init__(self):
        self.calls = []
        self.tables = {}  # id -> (table, size) of the tables kept calls use
        self.letters = 0
        self.stride = 1
        self.seen = 0

    def offer(self, args, letters, table=None):
        """Consider one call: its arguments, its words' letters, its image table."""
        self.seen += 1
        if self.seen % self.stride:
            return
        if len(self.calls) == 2 * SAMPLE_CALLS:
            self._halve()
            if self.seen % self.stride:
                return
        new_table = table is not None and id(table) not in self.tables
        size = sum(map(len, table)) if new_table else 0
        if self.letters + letters + size > SAMPLE_LETTERS:
            return
        if new_table:
            self.tables[id(table)] = (table, size)
        self.calls.append((args, letters, table))
        self.letters += letters + size

    def _halve(self):
        self.calls = self.calls[::2]
        self.stride *= 2
        kept = {}
        self.letters = 0
        for _, letters, table in self.calls:
            self.letters += letters
            if table is not None and id(table) not in kept:
                kept[id(table)] = self.tables[id(table)]
                self.letters += kept[id(table)][1]
        self.tables = kept

    def args(self):
        return [args for args, _, _ in self.calls]


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.keys = {}  # span index -> genus, for the check runners
        self.counts = defaultdict(int)
        self.peak_letters = 0
        self.budget_errors = []
        self.kernel_disagreements = []  # ops whose sampled calls the kernels answer differently
        self.samples = {op: _Sample() for op in KERNEL_OPS}
        self.originals = {}  # traced name -> original callable
        self._undo = []

    # --- recording ------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, after=None, keyed=False):
        nid = self._name_id(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, keys = self.stack, self.keys
        clock = time.perf_counter
        on_error = self._on_error

        def traced(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
                on_error(exc)
                raise
            t1 = clock()
            stack.pop()
            start[idx] = t0
            end[idx] = t1
            if keyed:
                keys[idx] = args[0]
            if after is not None:
                after(args, result)
            return result

        functools.update_wrapper(traced, fn)
        return traced

    def _on_error(self, exc):
        if isinstance(exc, ImageBudgetError) and not any(
            exc is seen for seen in self.budget_errors
        ):
            self.budget_errors.append(exc)

    # --- hooks run after a traced call, outside its span ------------------

    def _after_substitute(self, args, result):
        self.counts["substitute.letters_in"] += len(args[0])
        self.counts["substitute.letters_out"] += len(result)
        self.samples["substitute"].offer(args, len(args[0]), args[1])

    def _after_reduce(self, args, result):
        self.samples["reduce_letters"].offer(args, len(args[0]))

    def _after_concat(self, args, result):
        self.samples["concat_reduced"].offer(args, len(args[0]) + len(args[1]))

    def _after_parse(self, args, result):
        self.counts["parse_word.letters"] += len(result.data)

    def _after_format(self, args, result):
        self.counts["format_word.letters"] += len(args[0].data)

    def _after_apply(self, args, result):
        if len(result.data) > self.peak_letters:
            self.peak_letters = len(result.data)

    def _after_construct(self, args, result):
        size = sum(len(img.data) for img in args[0].images)
        if size > self.peak_letters:
            self.peak_letters = size

    # --- installing -----------------------------------------------------

    def _hooks(self):
        return {
            "_wordops.substitute": self._after_substitute,
            "_wordops.reduce_letters": self._after_reduce,
            "_wordops.concat_reduced": self._after_concat,
            "words.parse_word": self._after_parse,
            "words.format_word": self._after_format,
            "endos.apply": self._after_apply,
            "endos.construct": self._after_construct,
        }

    def install(self):
        hooks = self._hooks()
        runners = set(CHECK_RUNNERS.values())
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = importlib.import_module(f"mcgcalc.{layer}")
            for attr, obj in vars(module).items():
                if not _traceable(layer, module, attr, obj):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self.wrap(name, obj, hooks.get(name), keyed=name in runners)
                wrappers[id(obj)] = (obj, wrapper)
                self.originals[name] = obj
        for modname, module in list(sys.modules.items()):
            if modname != "mcgcalc" and not modname.startswith("mcgcalc."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._undo.append((module, attr, obj))
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(f"mcgcalc.{layer}"), cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(name, original, hooks.get(name)))
            self._undo.append((cls, attr, original))
            self.originals[name] = original

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # --- reporting ------------------------------------------------------

    def report(self, ctwin_path, spans_out):
        n = len(self.name_of)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        child_s = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_s[p] += end[i] - start[i]
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        calls = defaultdict(int)
        for i in range(n):
            name = self.names[name_of[i]]
            d = end[i] - start[i]
            self_s[name] += d - child_s[i]
            total_s[name] += d
            calls[name] += 1
        by_genus = defaultdict(float)
        for i, genus in self.keys.items():
            by_genus[(self.names[name_of[i]], genus)] += end[i] - start[i]
        self._write_spans(spans_out)

        metrics = {}
        for name in self.names:
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.self_s"] = self_s[name]
        for which, name in CHECK_RUNNERS.items():
            metrics[f"cli.verify.{which}_s"] = total_s.get(name, 0.0)
            metrics[f"cli.verify.{which}.g12_s"] = by_genus.get((name, 12), 0.0)
        metrics["_wordops.substitute.letters_in"] = self.counts["substitute.letters_in"]
        metrics["_wordops.substitute.letters_out"] = self.counts["substitute.letters_out"]
        metrics["words.parse_word.letters"] = self.counts["parse_word.letters"]
        metrics["words.format_word.letters"] = self.counts["format_word.letters"]
        metrics["endos.peak_letters"] = self.peak_letters
        metrics["endos.budget_errors"] = len(self.budget_errors)
        for name in ("twists.dehn_twist_action", "pillars.pillar_switching_action"):
            info = self.originals[name].cache_info()
            lookups = info.hits + info.misses
            metrics[f"{name}.hit_ratio"] = info.hits / lookups if lookups else 0.0
        metrics.update(self._kernel_comparison(ctwin_path))
        return {"spans": n, "metrics": metrics, "kernel_disagreements": self.kernel_disagreements}

    def _write_spans(self, path):
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\tparent\tname\tstart_s\tend_s\n")
            names, name_of, parent = self.names, self.name_of, self.parent
            for i in range(len(name_of)):
                out.write(
                    f"{i}\t{parent[i]}\t{names[name_of[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )

    def _kernel_comparison(self, ctwin_path):
        """kept_ratio from the sampled substitute calls; c_over_py when a C twin loads."""
        from mcgcalc import _wordops_py as py

        metrics = {}
        kept = expanded = 0
        for word, table in self.samples["substitute"].args():
            kept += len(py.substitute(word, table))
            expanded += sum(len(table[c if c > 0 else -c]) for c in word)
        metrics["_wordops.substitute.kept_ratio"] = kept / expanded if expanded else 0.0

        compiled = _load_compiled(ctwin_path)
        if compiled is None:
            return metrics
        for op in KERNEL_OPS:
            calls = self.samples[op].args()
            if not calls:
                # The workload never calls this op: feed it the substituted words.
                words = [word for word, _ in self.samples["substitute"].args()]
                calls = [(w,) if op == "reduce_letters" else (w, w) for w in words]
            if not calls:
                continue
            py_fn, c_fn = getattr(py, op), getattr(compiled, op)
            if [py_fn(*a) for a in calls] != [c_fn(*a) for a in calls]:
                self.kernel_disagreements.append(op)
            metrics[f"_wordops.{op}.c_over_py"] = _time(py_fn, calls) / _time(c_fn, calls)
        return metrics


def _traceable(layer, module, attr, obj):
    if attr.startswith("_"):
        return False
    if layer == "_wordops":
        return attr in KERNEL_OPS
    if isinstance(obj, types.FunctionType):
        return obj.__module__ == module.__name__
    return isinstance(obj, functools._lru_cache_wrapper) and obj.__module__ == module.__name__


def _load_compiled(path):
    """The compiled kernel: importable from the package, else built at ``path``."""
    try:
        from mcgcalc import _wordops_c

        return _wordops_c
    except ImportError:
        pass
    if path is None:
        return None
    spec = importlib.util.spec_from_file_location("mcgcalc._wordops_c", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _time(fn, calls):
    """Best time of one pass over the sampled calls."""
    best = float("inf")
    spent = 0.0
    reps = 0
    while reps < 3 or spent < REPLAY_MIN_S:
        t0 = time.perf_counter()
        for args in calls:
            fn(*args)
        d = time.perf_counter() - t0
        best = min(best, d)
        spent += d
        reps += 1
    return best
