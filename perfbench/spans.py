"""In-memory span recorder for the traced run.

The recorder wraps public callables of the package at their module (or
class) attributes. Each call becomes one span: name, start, end and the
span that was open when it started. Spans live in typed arrays until the
run ends; :meth:`Recorder.arrays` hands them to numpy for the summaries
and :func:`save` writes them out. Use one recorder per traced call.
"""

from __future__ import annotations

import sys
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters: dict[str, int] = {}
        self._open: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recording one span per call; ``on_result(result)`` runs after."""
        nid = self._id(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._open)

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def arrays(self):
        """(name ids, parents, durations in ns, self times in ns) as numpy arrays."""
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end, dtype=np.int64) - np.array(self.start, dtype=np.int64)
        child = np.zeros(dur.size, dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return np.array(self.name_id, dtype=np.int64), parent, dur, dur - child


@contextmanager
def patched(recorder: Recorder, targets):
    """Wrap each (owner, attribute, span name, on_result) target, then restore.

    Yields the targets whose attribute does not exist, so that a refactor of
    the package degrades the trace instead of breaking the benchmark.
    """
    saved = []
    missing = []
    try:
        for owner, attr, name, on_result in targets:
            orig = getattr(owner, attr, None)
            if orig is None:
                missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            saved.append((owner, attr, orig, attr in vars(owner)))
            setattr(owner, attr, recorder.wrap(name, orig, on_result))
        yield missing
    finally:
        for owner, attr, orig, own in reversed(saved):
            if own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)


def package_targets(mp, recorder: Recorder):
    """The layer boundaries of the multiprox package that the trace wraps."""
    bench, federated, problems = mp.bench, mp.federated, mp.problems

    def on_sample(subset):
        if len(subset) == 0:
            recorder.count("sampling.empty_draws")

    def on_fed_run(result):
        ledgers = [r for r in result if isinstance(r, mp.CommLedger)]
        for ledger in ledgers:
            recorder.count("federated.uplink_reals", ledger.uplink_total_reals)

    targets = [
        (bench, "generate_instance", "problems.generate_instance", None),
        (bench, "derive_params", "solver.derive_params", None),
        (bench, "derive_fed_params", "federated.derive_fed_params", None),
        (bench, "step", "solver.step", None),
        (bench, "lyapunov", "solver.lyapunov", None),
        (federated, "lyapunov", "solver.lyapunov", None),
        (bench, "fed_run", "federated.fed_run", on_fed_run),
        (federated, "fed_step", "federated.fed_step", None),
        (federated, "compress", "federated.compress", None),
        (federated, "rescale", "federated.rescale", None),
        (bench, "aggregate_replicates", "bench.aggregate_replicates", None),
        (bench, "emit_csv", "bench.emit_csv", None),
        (bench, "emit_aggregate_csv", "bench.emit_aggregate_csv", None),
        # Oracles bind these through functools.partial when an instance is
        # generated, so they must be wrapped before generation.
        (problems, "quadratic_prox", "problems.prox.quadratic", None),
        (problems, "hyperplane_ridge_prox", "problems.prox.hyperplane_ridge", None),
    ]
    for cls in (mp.UniformMinibatch, mp.SingletonWeighted, mp.FullBatch):
        targets.append((cls, "sample", f"sampling.sample.{cls.law}", on_sample))
    return targets


def save(recorders: list[Recorder], path) -> None:
    """Write every span of every recorder, tagged with the recorder's index.

    Columns: repeat, name, parent (index within the repeat, -1 for a root),
    start and end in perf_counter nanoseconds.
    """
    names = sorted({name for rec in recorders for name in rec.names})
    cols = {"repeat": [], "name": [], "parent": [], "start": [], "end": []}
    for r, rec in enumerate(recorders):
        remap = np.array([names.index(name) for name in rec.names], dtype=np.int32)
        cols["repeat"].append(np.full(len(rec.start), r, dtype=np.int32))
        cols["name"].append(remap[np.array(rec.name_id, dtype=np.int64)])
        cols["parent"].append(np.array(rec.parent, dtype=np.int32))
        cols["start"].append(np.array(rec.start, dtype=np.int64))
        cols["end"].append(np.array(rec.end, dtype=np.int64))
    np.savez(path, names=np.array(names),
             **{key: np.concatenate(parts) for key, parts in cols.items()})


def warn_missing(missing) -> None:
    if missing:
        print(f"perfbench: not traced (attribute missing): {', '.join(missing)}",
              file=sys.stderr)
