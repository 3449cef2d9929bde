"""Benchmark of repcount: one seeded workload per run, one JSON line out.

Usage, from the root of a checkout:

    python3 bench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

The program is imported from ``src/`` of that checkout.  Each run is one
client in one process, a closed loop: the next operation starts when the
previous one returns.  A run times whole passes over the workload's fixed,
seeded operation list until ``--seconds`` of operation time have passed,
so every run has the same mix.  Every output is checked by ``checker``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
untraced passes, then one traced pass, and prints the per-layer metrics
and the tracing overhead.  Results go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 5
SETUP_SECONDS = 0.5
MIN_PASSES = 3

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_MS = (
    "exterior.degree", "splitting.pair_cohomology", "intlinalg.snf",
    "invariants.vanishing", "invariants.self", "splitting.validate",
    "splitting.assembly", "intlinalg.det", "splitting.parse", "cli.self",
    "oracle.torus", "oracle.coker_enum",
)
PER_LAYER_COUNTS = {
    "exterior.wedge_calls": "count",
    "exterior.peak_terms": "count",
    "intlinalg.snf_calls": "count",
    "intlinalg.snf_max_bits": "bits",
    "intlinalg.intmat_inits": "count",
}


def tail_percentile(ops_per_pass: int) -> int:
    """The highest whole percentile with at least ten of a pass's
    operations beyond it."""
    return math.floor(100 * (1 - 10 / ops_per_pass))


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def import_program():
    """Import repcount from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    for name in [m for m in sys.modules if m == "repcount" or m.startswith("repcount.")]:
        del sys.modules[name]
    rc = importlib.import_module("repcount")
    if not Path(rc.__file__).resolve().is_relative_to(src):
        raise ImportError(f"repcount imported from {rc.__file__}, not from {src}")
    return rc


def set_up(name: str, seed: int, workdir: Path):
    """Import the program and build the inputs, at least SETUP_REPEATS
    times and SETUP_SECONDS long, then write the documents once.  The last
    set-up is used.  Returns (rc, api, ops, median set-up seconds).

    Writing files is left out of the timed part: creating the 82
    documents of ``cli_docs`` took 7 to 34 ms depending on the directory
    and on how many files earlier runs had made, which is noise about the
    file system, not about the program."""
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        start = time.perf_counter()
        rc = import_program()
        api, ops, files = workloads.WORKLOADS[name](rc, seed, workdir)
        times.append(time.perf_counter() - start)
        # Free the previous set-up's modules and inputs now, so that the
        # number of repeats does not show in peak_rss_mb.
        gc.collect()
    workdir.mkdir(parents=True, exist_ok=True)
    for path, text in files.items():
        path.write_text(text, encoding="utf-8")
    return rc, api, ops, statistics.median(times)


class Run:
    """Latencies and outcomes of the passes of one run.

    ``latencies[i]`` lists operation i's latency in each pass where it
    completed; a failed operation has none.
    """

    def __init__(self, ops):
        self.ops = ops
        self.latencies: list[list[float]] = [[] for _ in ops]
        self.pass_seconds: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.failures: dict[str, str] = {}

    def one_pass(self) -> None:
        clock = time.perf_counter
        total = 0.0
        for op, latencies in zip(self.ops, self.latencies):
            self.attempted += 1
            start = clock()
            try:
                result = op.run()
            except Exception as exc:  # noqa: BLE001 - a failed operation is data
                total += clock() - start
                self.failed += 1
                self.failures.setdefault(op.label, repr(exc)[:200])
                continue
            elapsed = clock() - start
            total += elapsed
            latencies.append(elapsed)
            error = op.check(result)
            if error is not None:
                self.errors.append(f"{op.label}: {error}")
        self.pass_seconds.append(total)

    def passes(self, seconds: float) -> None:
        while sum(self.pass_seconds) < seconds or len(self.pass_seconds) < MIN_PASSES:
            self.one_pass()


def end_to_end(run: Run, setup_s: float) -> tuple[dict, int]:
    """Each completed operation's latency is its fastest pass, as timeit
    takes it: on a shared machine, contention only ever adds time, and
    second-to-second swings of 15% were seen.  Throughput is the completed
    operations of one pass over the sum of those latencies."""
    typical = sorted(min(lat) for lat in run.latencies if lat)
    tail = tail_percentile(len(run.ops))
    return {
        "ops_per_s": len(typical) / sum(typical),
        "latency_p50_ms": 1000 * statistics.median(typical),
        "latency_tail_ms": 1000 * percentile(typical, tail),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }, tail


def per_layer(tracer: spans.Tracer, overhead_pct: float) -> dict:
    values = {f"{name}_ms": 1000 * tracer.self_s.get(name, 0.0) for name in PER_LAYER_MS}
    for name in PER_LAYER_COUNTS:
        values[name] = tracer.maxima.get(name, tracer.counts.get(name, 0))
    values["trace.overhead_pct"] = overhead_pct
    return values


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name in PER_LAYER_COUNTS:
        return PER_LAYER_COUNTS[name]
    return "%" if name == "trace.overhead_pct" else "ms"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repcount" / "__init__.py").is_file():
        print(f"error: no repcount sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}"
    try:
        rc, api, ops, setup_s = set_up(args.workload, args.seed, workdir)
        # The inputs live for the whole run; keep the cyclic collector from
        # rescanning them, so its pauses reflect the program's garbage only.
        gc.collect()
        gc.freeze()
        run = Run(ops)
        run.passes(args.seconds)
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            spans.install(tracer, rc, api)
            traced = Run(ops)
            try:
                traced.one_pass()
            finally:
                tracer.restore()
            run.attempted += traced.attempted
            run.failed += traced.failed
            run.errors += traced.errors
            overhead = 100 * (traced.pass_seconds[0] / statistics.median(run.pass_seconds) - 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e, tail = end_to_end(run, setup_s)
    metrics = per_layer(tracer, overhead) if tracer else e2e
    for error in run.errors[:5]:
        print(f"check failed: {error}", file=sys.stderr)
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    slowest = sorted(((min(lat), op.label) for op, lat in zip(ops, run.latencies) if lat),
                     reverse=True)[:10]
    detail = dict(result, workload=args.workload, seed=args.seed, ops_per_pass=len(ops),
                  slowest_ms=[(round(1000 * t, 3), label) for t, label in slowest],
                  pass_seconds=run.pass_seconds, tail_percentile=tail,
                  failures=run.failures, end_to_end=e2e)
    stem = f"{args.workload}-{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(tracer.spans) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
