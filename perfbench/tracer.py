"""Outside-in span tracing for the evospace benchmark.

The tracer replaces module-level functions and class methods of the library
with timing wrappers at the places where their callers look them up, and
puts the originals back on ``restore``.  Nothing in the library knows it is
being traced.  Each thread keeps its own span stack, because scenario seeds
run on a thread pool; a span's self time is its duration minus the time of
the spans it directly contains.

Spans are timed in thread CPU time.  The pool's threads take turns holding
the interpreter lock, so a wall-clock span would also count the time its
thread spent waiting for the other one; CPU time charges each layer only
for the work it did.  Spans are aggregated per name as they close (count,
total seconds, self seconds) instead of being stored one by one, so a sweep
of a million steps costs a few dictionaries of memory.
"""

from __future__ import annotations

import functools
import os
import threading
from collections import Counter, defaultdict
from time import thread_time


class _ThreadTable:
    """Span stack and per-name totals of one thread."""

    def __init__(self):
        self.stack = []                                  # child seconds per open span
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> count, total, self


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables = []
        self._restore = []
        self.counters = Counter()
        self.workers = 0           # threads of the seed pool, see _record_run
        self.missing = []

    # -- recording ---------------------------------------------------------

    def _table(self) -> _ThreadTable:
        table = getattr(self._local, "table", None)
        if table is None:
            table = self._local.table = _ThreadTable()
            with self._lock:
                self._tables.append(table)
        return table

    def count(self, key: str, amount=1) -> None:
        with self._lock:
            self.counters[key] += amount

    def span(self, name: str, fn, on_return=None):
        """``fn`` wrapped in a span; ``on_return(tracer, args, result)`` runs after."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            table = tracer._table()
            stack = table.stack
            stack.append(0.0)
            t0 = thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = thread_time() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                entry = table.stats[name]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - child
            if on_return is not None:
                on_return(tracer, args, result)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, name: str, on_return=None) -> None:
        """Wrap ``owner.attr`` if ``owner`` itself defines it, else note it missing.

        Only attributes found in the owner's own namespace are wrapped, so a
        method inherited from a patched base class is not wrapped twice.
        """
        where = f"{getattr(owner, '__name__', owner)}.{attr}"
        if owner is None or attr not in vars(owner):
            self.missing.append(where)
            return
        original = vars(owner)[attr]
        setattr(owner, attr, self.span(name, original, on_return))
        self._restore.append((owner, attr, original))

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def totals(self) -> dict:
        """name -> (count, total seconds, self seconds), summed over threads."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, (n, total, self_s) in table.stats.items():
                acc = out[name]
                acc[0] += n
                acc[1] += total
                acc[2] += self_s
        return {name: tuple(v) for name, v in out.items()}


# ---------------------------------------------------------------------------
# the layer map: which library names are wrapped, under which span name


def _record_run(tracer, args, result):
    trace = getattr(result, "trace", None) or []
    tracer.count("engine.runs")
    tracer.count("engine.steps", len(trace))
    tracer.count("engine.halted_runs", int(bool(getattr(result, "failed", False))))
    tracer.count("engine.forced_steps", int(getattr(result, "forced_steps", 0)))
    tracer.count("engine.bene_steps", int(getattr(result, "bene_steps", 0)))
    # A seed pool keeps all its threads alive until its last seed is done,
    # and the benchmark starts no threads of its own, so the threads besides
    # the main one are the pool's.  Unlike the number of runs open at once,
    # this does not depend on how the seeds' work happens to interleave.
    workers = (1 if threading.current_thread() is threading.main_thread()
               else threading.active_count() - 1)
    with tracer._lock:
        tracer.workers = max(tracer.workers, workers)


def _record_sample(tracer, args, sample):
    points = getattr(sample, "points", None)
    tracer.count("model.sampler_draws")
    tracer.count("model.rows", 0 if points is None else int(points.shape[0]))


def _record_accept(tracer, args, result):
    tracer.count("experiments.dataset.accepted")


def _record_write(tracer, args, result):
    tracer.count("io.write_calls")
    if args and isinstance(args[0], (str, os.PathLike)) and os.path.exists(args[0]):
        tracer.count("io.write_bytes", os.path.getsize(args[0]))


_IO_WRITERS = ("write_trace_jsonl", "write_trace_csv", "write_path_csv",
               "write_json_report")
_IO_READERS = ("load_dataset_csv", "load_config")


def install(tracer: Tracer) -> None:
    """Wrap every traced library name; names that no longer exist are skipped."""
    import evospace.cli as cli
    import evospace.engine as engine
    import evospace.experiments as experiments
    import evospace.model as model

    # dataset generation and the seed pool
    tracer.patch(experiments, "_mixture_for", "experiments.dataset", _record_accept)
    tracer.patch(experiments, "gen_gaussian_mixture", "experiments.draw")
    tracer.patch(experiments, "_perceptron_separable", "experiments.perceptron")

    # the mutator loop, where its callers look it up
    for owner in (experiments, cli):
        tracer.patch(owner, "run_evolution", "engine.run", _record_run)
    tracer.patch(engine, "mutator_step", "engine.step")
    tracer.patch(engine, "classify_mutants", "engine.classify")

    # performance models: reduction, scoring, oracle, drift
    for cls in (getattr(engine, "QuadraticPerfModel", None),
                getattr(experiments, "MeanEstimationModel", None)):
        for attr, name in (("draw", "engine.reduce"), ("perf", "engine.score"),
                           ("perf_batch", "engine.score"),
                           ("true_perf", "engine.oracle"),
                           ("pre_step", "engine.drift")):
            if cls is not None and attr in vars(cls):
                tracer.patch(cls, attr, name)

    # condition sampling and its per-step random streams
    tracer.patch(getattr(model, "ConditionSampler", None), "draw", "model.draw",
                 _record_sample)
    tracer.patch(model, "rng_for", "model.rng_for")

    # model constants and schedule, as the scenarios and the CLI call them
    for owner in (experiments, cli):
        tracer.patch(owner, "estimate_model_constants", "schedule.constants")
        tracer.patch(owner, "compute_schedule", "schedule.compute")
        for attr in _IO_WRITERS:
            if attr in vars(owner):
                tracer.patch(owner, attr, "io.write", _record_write)
    for attr in _IO_READERS:
        tracer.patch(cli, attr, "io.load")

    # the CLI entry point, as the benchmark calls it
    tracer.patch(cli, "main", "cli.main")
