#!/usr/bin/env python3
"""Run one multiprox benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from ``src/`` of the checkout this file sits in.
Load model: closed loop, one caller, one call at a time, in this process
only, with one BLAS thread.

One run times set-up several times, then repeats for ``--seconds`` seconds:
one ``run_experiment`` call (output files in a scratch directory), one
library solve and, with ``--trace 1``, one traced ``run_experiment`` call.
Every call is gated: its output bytes (trace CSVs, aggregate CSVs, summary
JSON) and the solve's final iterate are hashed and must match the committed
reference digests for the committed seed, or the seed's first call
otherwise, and its exact counts must repeat. A call that raises or fails
the gate counts as failed; the run goes on.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics without
tracing, the per-layer metrics with it. The line before it holds the run
metadata, digests, counts, raw wall-clock medians and the median time of
the calibration kernel (see ``Clock``); a copy goes to ``.perfbench_out/``
together with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

# The load model: one BLAS thread and the package's default worker count.
# BLAS reads these when numpy is first imported, so they come first.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ.pop("MULTIPROX_THREADS", None)

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import (  # noqa: E402
    BY_NAME, DISTRIBUTIONS, END_TO_END, PER_LAYER, SPANS, TOTALS, config_for, setup,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

# Set-up is timed in at least SETUP_BLOCKS blocks of at least
# SETUP_BLOCK_SECONDS each, and for at least SETUP_SECONDS in all.
SETUP_BLOCKS = 10
SETUP_BLOCK_SECONDS = 0.2
SETUP_SECONDS = 2.0
MIN_REPEATS = 3
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)
ROOT_SPAN = "bench.run_experiment"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="shrunken configs, for the smoke test")
    ap.add_argument("--reference", type=Path, default=REFERENCE,
                    help="reference digests (default: perfbench/reference.json)")
    ap.add_argument("--write-reference", action="store_true",
                    help="store this run's digests as the reference for its seed")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("need --seed >= 0 and --seconds > 0")
    return args


def load_package():
    """Import multiprox from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "multiprox" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package sources at {src / 'multiprox'}")
    sys.path.insert(0, str(src))
    import multiprox

    if Path(multiprox.__file__).resolve().parent != (src / "multiprox").resolve():
        sys.exit(f"perfbench: imported multiprox from {multiprox.__file__}, not {src}")
    return multiprox


# ---------------------------------------------------------------------------
# Timing at a reference machine speed


class Clock:
    """Times calls, and rescales each time to a reference machine speed.

    On a shared machine the speed of one core drifts by tens of percent
    over minutes with the load of other tenants, which no run length
    averages away. So every timed call is bracketed by a fixed reference
    kernel (interpreter loop, small numpy calls, BLAS matrix-vector products
    over 640 KB), and its time is scaled by NOMINAL_S over the mean of the
    two kernel times. The result is the call's time in reference seconds:
    seconds on a machine where the kernel takes NOMINAL_S. Raw wall times
    and the kernel's own times are kept too, so the two can be compared.
    """

    NOMINAL_S = 0.010

    def __init__(self):
        # small enough to stay out of peak_rss_mb's way
        self._q = np.random.default_rng(0).standard_normal((8, 100, 100))
        self._q /= 10.0
        self.kernel_s: list[float] = []

    def kernel(self) -> float:
        t0 = perf_counter()
        x = 0
        for i in range(40_000):
            x += i * i
        a = np.ones(64)
        for _ in range(2_500):
            a = a * 1.0000001 + 1e-9
        v = np.ones(100)
        for _ in range(30):
            for q in self._q:
                v = q @ v
                v /= np.abs(v).max()
        return perf_counter() - t0

    def time(self, fn):
        """(fn's result, raw wall seconds, seconds at reference speed)."""
        before = self.kernel()
        t0 = perf_counter()
        result = fn()
        wall = perf_counter() - t0
        after = self.kernel()
        self.kernel_s.append((before + after) / 2.0)
        return result, wall, wall * self.NOMINAL_S / self.kernel_s[-1]


# ---------------------------------------------------------------------------
# The gate


class Gate:
    """Counts calls and failed calls, and pins each value to its first one.

    Pins start from the reference digests when the run's seed and config
    are the ones the reference was recorded for. A call that raises is
    failed and yields no sample; a call whose checks fail is failed but
    keeps its timing, which is still a measurement.
    """

    def __init__(self, pinned: dict):
        self.pinned = dict(pinned)
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._problems: list[str] = []

    def expect(self, ok: bool, problem: str) -> None:
        if not ok:
            self._problems.append(problem)

    def pin(self, key: str, value) -> None:
        expected = self.pinned.setdefault(key, value)
        self.expect(expected == value, f"{key}: got {value}, expected {expected}")

    def call(self, what: str, fn):
        """fn() under the gate; its result, or None when it raised."""
        self.attempted += 1
        self._problems = []
        try:
            result = fn()
        except Exception:  # a failed call is counted, not fatal
            result = None
            self._problems.append(traceback.format_exc())
        if self._problems:
            self.failed += 1
            for problem in self._problems:
                self.messages.append(f"{what}: {problem}")
                print(f"perfbench: {what} failed: {problem}", file=sys.stderr)
        return result


def reference_pins(path: Path, workload: str, seed: int, cfg: dict) -> dict:
    if not path.is_file():
        return {}
    entry = json.loads(path.read_text()).get(workload)
    if entry is None or entry["seed"] != seed or entry["config"] != cfg:
        return {}
    return {"outputs": entry["outputs"], "solve": entry["solve"]}


def write_reference(path: Path, workload: str, seed: int, cfg: dict, pinned: dict) -> None:
    refs = json.loads(path.read_text()) if path.is_file() else {}
    refs[workload] = {"seed": seed, "config": cfg,
                      "outputs": pinned["outputs"], "solve": pinned["solve"]}
    path.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")


def digest_dir(out: Path) -> tuple[str, int]:
    """sha256 over (name, bytes) of every output file, and the CSV byte total."""
    h = hashlib.sha256()
    csv_bytes = 0
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        h.update(path.name.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
        if path.suffix == ".csv":
            csv_bytes += len(data)
    return h.hexdigest(), csv_bytes


# ---------------------------------------------------------------------------
# Calls


def harness_call(mp, cfg: dict, seed: int, gate: Gate, clock: Clock, recorder=None) -> dict:
    """One run_experiment call, timed, hashed and checked."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="run-") as out:
        config = mp.RunConfig(seed=seed, out=out, **cfg)
        if recorder is None:
            result, wall, norm = clock.time(lambda: mp.run_experiment(config))
        else:
            with spans.patched(recorder, spans.package_targets(mp, recorder)) as missing:
                spans.warn_missing(missing)
                root = recorder.wrap(ROOT_SPAN, mp.run_experiment)
                result, wall, norm = clock.time(lambda: root(config))
        digest, csv_bytes = digest_dir(Path(out))
    steps = check_result(cfg, result, gate)
    rows = sum(len(arm.rows) for arm in result.arms.values())
    gate.pin("outputs", digest)
    gate.pin("harness_counts", [steps, rows, csv_bytes])
    return {"wall": wall, "norm": norm, "steps": steps, "rows": rows, "csv_bytes": csv_bytes}


def check_result(cfg: dict, result, gate: Gate) -> int:
    """Sanity of a harness result; returns the iterations it ran.

    Every arm must trace every replicate with finite squared distances, and
    target runs must reach the target in every replicate. Progress is not
    checked: a constant-stepsize singleton arm may end a short run farther
    from the solution than it started.
    """
    steps = 0
    for name, arm in result.arms.items():
        by_rep: dict[int, list] = {}
        for row in arm.rows:
            by_rep.setdefault(row.replicate, []).append(row)
        gate.expect(len(by_rep) == cfg["replicates"],
                    f"arm {name}: {len(by_rep)} replicates traced")
        for rep, rows in by_rep.items():
            values = [r.sq_dist for r in rows]
            gate.expect(all(math.isfinite(v) for v in values),
                        f"arm {name} replicate {rep}: non-finite squared distance")
            steps += max(r.t for r in rows)
        if "target" in cfg:
            gate.expect(None not in arm.info["iterations_to_target"],
                        f"arm {name}: target {cfg['target']} not reached")
    return steps


def solve_call(solve, seed: int, steps: int, gate: Gate, clock: Clock) -> dict:
    (taken, x, seen), wall, norm = clock.time(lambda: solve(seed))
    gate.expect(taken == steps, f"solve took {taken} steps, expected {steps}")
    gate.expect(all(math.isfinite(v) for v in seen), "solve: non-finite squared distance")
    gate.pin("solve", hashlib.sha256(x.tobytes()).hexdigest())
    return {"wall": wall, "norm": norm, "steps": taken}


def trace_counts(recorder, harness: dict, gate: Gate) -> dict:
    """Exact counts of one traced call, cross-checked against the harness."""
    names = recorder.names
    ids, _, _, _ = recorder.arrays()
    per_name = {name: int((ids == i).sum()) for i, name in enumerate(names)}

    def spans_of(prefix):
        return sum(c for name, c in per_name.items() if name.startswith(prefix))

    counts = {
        "sampling.draws": spans_of("sampling.sample."),
        "sampling.empty_draws": recorder.counters.get("sampling.empty_draws", 0),
        "problems.prox_calls": spans_of("problems.prox."),
        "solver.steps": per_name.get("solver.step", 0),
        "solver.lyapunov_calls": per_name.get("solver.lyapunov", 0),
        "federated.rounds": per_name.get("federated.fed_step", 0),
        "federated.uplink_reals": recorder.counters.get("federated.uplink_reals", 0),
        "bench.rows": harness["rows"],
        "bench.csv_bytes": harness["csv_bytes"],
    }
    traced_steps = counts["solver.steps"] + counts["federated.rounds"]
    gate.expect(traced_steps == harness["steps"],
                f"trace saw {traced_steps} steps, the harness ran {harness['steps']}")
    gate.pin("trace_counts", counts)
    return counts


# ---------------------------------------------------------------------------
# Summaries


def median(values) -> float:
    return float(statistics.median(values))


def distribution(values_ns) -> dict:
    """Median and tail in microseconds, the tail percentile, the sample count.

    The tail is the highest percentile of the ladder with at least ten
    samples beyond it; both are 0 when there are too few samples.
    """
    n = int(values_ns.size)
    if n == 0:
        return {"": 0.0, ".tail": 0.0, ".tail_pct": 0.0, ".n": 0}
    pct = next((p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= 10.0), None)
    tail = float(np.percentile(values_ns, pct)) / 1e3 if pct is not None else 0.0
    return {"": float(np.median(values_ns)) / 1e3, ".tail": tail,
            ".tail_pct": pct or 0.0, ".n": n}


def per_layer_metrics(recorders, traced_walls, untraced_walls, counts) -> dict:
    units = {m.name: m.unit for m in PER_LAYER}
    arrays = [rec.arrays() for rec in recorders]

    def pooled(span, use_self):
        parts = []
        for rec, (ids, _, dur, self_ns) in zip(recorders, arrays):
            if span in rec.names:
                mask = ids == rec.names.index(span)
                parts.append((self_ns if use_self else dur)[mask])
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)

    def per_call_total(span_names, use_self):
        # one total per traced call, in ns
        out = []
        for rec, (ids, _, dur, self_ns) in zip(recorders, arrays):
            values = self_ns if use_self else dur
            total = 0
            for span in span_names:
                if span in rec.names:
                    total += int(values[ids == rec.names.index(span)].sum())
            out.append(total)
        return out

    values: dict[str, float] = {}
    for name, (span, use_self) in DISTRIBUTIONS.items():
        for suffix, v in distribution(pooled(span, use_self)).items():
            values[name + suffix] = v
    scale = {"s": 1e-9, "ms": 1e-6}
    for name, (span_names, unit) in TOTALS.items():
        values[name] = median(per_call_total(span_names, False)) * scale[unit]
    values.update(counts)
    self_ms = {span: statistics.fmean(per_call_total((span,), True)) * 1e-6 for span in SPANS}
    traced_run_s = median(traced_walls)
    values["trace.run_s"] = traced_run_s
    values["trace.untraced_run_s"] = median(untraced_walls)
    values["trace.overhead_s"] = traced_run_s - values["trace.untraced_run_s"]
    # Share of the traced call spent in the named layers: the self times of
    # every span below the root, over the call's wall time. What the root's
    # own code does outside every layer is left out, so an untraced layer
    # lowers it.
    layers_ms = sum(v for span, v in self_ms.items() if span != ROOT_SPAN)
    values["trace.accounted_frac"] = layers_ms * 1e-3 / statistics.fmean(traced_walls)
    for span, v in self_ms.items():
        values[f"trace.self_ms.{span}"] = v
    return {name: {"value": values[name], "unit": units[name]} for name in units}


# ---------------------------------------------------------------------------
# Metadata


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads():
    """OpenBLAS's own thread count when its library can be asked, else the env value."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("lib*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS")


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(workload: str, seed: int, cfg: dict, pinned_from: str) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "workload": workload,
        "seed": seed,
        "config": cfg,
        "multiprox_threads": os.environ.get("MULTIPROX_THREADS"),
        "digests_pinned_by": pinned_from,
    }


# ---------------------------------------------------------------------------
# Main


def run(args) -> int:
    mp = load_package()
    if args.workload not in BY_NAME:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; known: {sorted(BY_NAME)}")
    workload = BY_NAME[args.workload]
    cfg = config_for(workload, args.tiny)
    steps = workload.tiny_solve_steps if args.tiny else workload.solve_steps
    pins = reference_pins(args.reference, workload.name, args.seed, cfg)
    gate = Gate(pins)

    clock = Clock()
    solve = setup(mp, workload, cfg, args.seed, steps)  # warm-up, untimed

    def setup_block():
        reps, t0 = 0, perf_counter()
        while reps == 0 or perf_counter() - t0 < SETUP_BLOCK_SECONDS:
            setup(mp, workload, cfg, args.seed, steps)
            reps += 1
        return reps

    setup_raw, setup_norm = [], []
    setup_deadline = perf_counter() + SETUP_SECONDS
    while len(setup_norm) < SETUP_BLOCKS or perf_counter() < setup_deadline:
        reps, wall, norm = clock.time(setup_block)
        setup_raw.append(wall / reps)
        setup_norm.append(norm / reps)

    harness, solves, traced, recorders, counts = [], [], [], [], []
    deadline = perf_counter() + args.seconds
    while len(harness) < MIN_REPEATS and gate.attempted < 10 * MIN_REPEATS \
            or perf_counter() < deadline:
        h = gate.call("run_experiment", lambda: harness_call(mp, cfg, args.seed, gate, clock))
        if h is not None:
            harness.append(h)
        s = gate.call("solve", lambda: solve_call(solve, args.seed, steps, gate, clock))
        if s is not None:
            solves.append(s)
        if args.trace:
            rec = spans.Recorder()

            def traced_call():
                t = harness_call(mp, cfg, args.seed, gate, clock, recorder=rec)
                return t, trace_counts(rec, t, gate)

            result = gate.call("traced run_experiment", traced_call)
            if result is not None:
                traced.append(result[0])
                recorders.append(rec)
                counts.append(result[1])

    if not harness or not solves or (args.trace and not traced):
        print("perfbench: no call succeeded; no metrics", file=sys.stderr)
        return 1

    samples = {
        "setup_s": setup_norm,
        "run_steps_per_s": [h["steps"] / h["norm"] for h in harness],
        "solve_steps_per_s": [s["steps"] / s["norm"] for s in solves],
        "raw_setup_s": setup_raw,
        "kernel_s": clock.kernel_s,
        "raw_run_steps_per_s": [h["steps"] / h["wall"] for h in harness],
        "raw_solve_steps_per_s": [s["steps"] / s["wall"] for s in solves],
    }
    if args.trace:
        metrics = per_layer_metrics(recorders, [t["wall"] for t in traced],
                                    [h["wall"] for h in harness], counts[0])
    else:
        values = {
            "run_steps_per_s": median(samples["run_steps_per_s"]),
            "solve_steps_per_s": median(samples["solve_steps_per_s"]),
            "setup_s": median(samples["setup_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (gate.attempted - gate.failed) / gate.attempted,
        }
        metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in END_TO_END}

    if args.write_reference and gate.failed == 0:
        write_reference(args.reference, workload.name, args.seed, cfg, gate.pinned)
    detail = {
        "meta": metadata(workload.name, args.seed, cfg, "reference" if pins else "first call"),
        "digests": {k: gate.pinned[k] for k in ("outputs", "solve")},
        "counts": counts[0] if counts else {"harness": gate.pinned.get("harness_counts")},
        "raw_medians": {k[4:]: median(v) for k, v in samples.items() if k.startswith("raw_")},
        "kernel_s": median(clock.kernel_s),
        "repeats": {"setup_blocks": len(setup_norm), "run_experiment": len(harness),
                    "solve": len(solves), "traced": len(traced)},
        "failures": gate.messages,
    }
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(
        json.dumps({**detail, "samples": samples, "metrics": metrics}, indent=2) + "\n")
    if recorders:
        spans.save(recorders, OUT / f"{tag}-spans.npz")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(run(parse_args(sys.argv[1:])))
