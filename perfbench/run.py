#!/usr/bin/env python3
"""Repository benchmark: one seeded workload per run, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It builds any native extension in place
first (`setup.py build_ext --inplace`), then measures whatever Keccak
backend `src/parashake` resolves to.  Operations run whole rotations in a
closed loop with one caller until `--seconds` have passed.

With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
wraps the package's module attributes (see tracer.py) and reports the
per-layer metrics instead.  Human-readable lines come first; the last
line of stdout is one JSON object with keys correct, attempted, failed and
metrics.  See README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 9
MIN_OPS = 12                   # operations per run, at least
OVERHEAD_SECONDS = 4.0         # untraced reference pass of a traced run
CONTEXT_SECONDS = 0.3          # per sample of a direct kernel rate


def metric_units(kind: str) -> dict:
    """Name -> unit of the "end_to_end" or "per_layer" metrics that
    BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


class Tally:
    """Operations attempted and failed, over a whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


def build() -> None:
    """Build native extensions in place, if the repository has any."""
    if not os.path.exists(os.path.join(ROOT, "setup.py")):
        return
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace",
         "--build-temp", os.path.join(".bench_build", "temp")],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        print("warning: extension build failed; measuring the backend "
              "that imports\n" + proc.stderr[-2000:], file=sys.stderr)


def measure_setup_s() -> float:
    """Median wall time of a fresh interpreter importing parashake, which
    resolves the Keccak backend."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", "import parashake; parashake.BACKEND"]
    subprocess.run(cmd, env=env, check=True)        # warm the bytecode cache
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def machine_record() -> dict:
    from parashake import keccak
    nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "backend": keccak.BACKEND,
        "numpy": importlib.util.find_spec("numpy") is not None,
        "note": "wall-clock timers only, shared %d-vCPU sandbox" % nproc,
    }


def run_one(workload, spec, tally: Tally, tracer=None):
    """Time one operation and check its outputs, untraced; None if the
    operation or its check raised."""
    try:
        record, outputs = workload.run(spec)
        with tracer.paused() if tracer else contextlib.nullcontext():
            ok = workload.check(spec, record, outputs)
    except Exception:
        traceback.print_exc()
        tally.add(False)
        return None
    tally.add(ok)
    return record


def run_rotations(workload, seconds: float, tally: Tally, tracer=None):
    """Whole rotations until `seconds` have passed and at least `MIN_OPS`
    operations ran."""
    records = []
    ops = 0
    deadline = time.perf_counter() + seconds
    while True:
        for spec in workload.rotation:
            record = run_one(workload, spec, tally, tracer)
            if record is not None:
                records.append(record)
        ops += len(workload.rotation)
        if time.perf_counter() >= deadline and ops >= MIN_OPS:
            return records


def percentile(values: list, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def _phase(record, name: str) -> float:
    return record.wall if name == "wall" else record.phases[name]


def end_to_end(workload, records: list, setup_s: float) -> dict:
    if not records:
        raise SystemExit("error: every operation raised")
    walls = [r.wall for r in records]

    def median_rate(phase: str) -> float:
        """Message bits per second of the phase, of the median operation."""
        return statistics.median(r.n_bits / _phase(r, phase) for r in records)

    return {
        "setup_s": setup_s,
        "hash_mbps": median_rate(workload.seq_phase) / 8e6,
        "par_mbps": median_rate(workload.par_phase) / 8e6,
        "hash_p50_ms": 1e3 * percentile(walls, 0.50),
        "hash_p99_ms": 1e3 * percentile(walls, 0.99),
        "plan_mbit_per_s": median_rate("wall") / 1e6,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, records: list, strategies: tuple, context: dict,
              overhead: float, scaling: float) -> dict:
    """Per-layer metrics of the traced operations, per operation."""
    ops = len(records)
    own, total = tracer.self_time, tracer.total
    calls, counts = tracer.calls, tracer.counts
    hashed = [r for r in records if "par" in r.phases]
    metrics = dict(context)
    metrics.update({
        "keccak.calls": counts["keccak.calls"] / ops,
        "keccak.self_s": own["keccak"] / ops,
        "sponge.self_s": own["sponge"] / ops,
        "bits.slice_calls": calls["bits.slice"] / ops,
        "bits.slice_self_s": own["bits.slice"] / ops,
        "bits.slice_bits_read": counts["bits.slice_bits_read"] / ops,
        "evaluate.assembly_self_s": own["evaluate.assembly"] / ops,
        "evaluate.nodes": calls["evaluate.assembly"] / ops,
        "evaluate.executor_self_s": own["evaluate.executor"] / ops,
        "evaluate.par_speedup": _ratio(sum(r.phases["seq"] for r in hashed),
                                       sum(r.phases["par"] for r in hashed)),
        "evaluate.scaling_exp": scaling or 0.0,
        "scheduler.simulate_s": total["scheduler"] / ops,
        "scheduler.depth": sum(r.depth for r in records) / ops,
        "scheduler.total_calls": sum(r.total_calls for r in records) / ops,
        "scheduler.ideal_speedup": _ratio(sum(r.total_calls for r in records),
                                          sum(r.depth for r in records)),
        "planner.plan_self_s": own["planner.plan"] / ops,
        "planner.nodes": counts["planner.nodes"] / ops,
        "sakura.map_s": total["sakura.map"] / ops,
        "sakura.validate_s": total["sakura.validate"] / ops,
        "treeio.dump_s": total["treeio.dump"] / ops,
        "treeio.load_s": total["treeio.load"] / ops,
        "treeio.doc_bytes": counts["treeio.doc_bytes"] / ops,
        "cli.self_s": own["cli"] / ops,
        "model.calls_match": _ratio(counts["keccak.calls"],
                                    sum(r.model_calls for r in records)),
        "trace.overhead": overhead,
    })
    for s in strategies:
        mine = [r for r in records if r.strategy == s]
        par = [r for r in mine if "par" in r.phases]
        metrics["evaluate.par_speedup." + s] = _ratio(
            sum(r.phases["seq"] for r in par), sum(r.phases["par"] for r in par))
        metrics["scheduler.ideal_speedup." + s] = _ratio(
            sum(r.total_calls for r in mine), sum(r.depth for r in mine))
    return metrics


def run_traced(workload, seconds: float, tally: Tally):
    from tracer import Tracer

    import workloads as wl
    context = wl.kernel_context(
        wl.source_bytes(workload.source_index, workload.scale.bulk_bytes),
        CONTEXT_SECONDS)
    # Untraced reference: the first operations, for the overhead ratio.
    reference = []
    t_end = time.perf_counter() + OVERHEAD_SECONDS
    for spec in workload.rotation:
        record = run_one(workload, spec, tally)
        if record is not None:
            reference.append(record)
        if time.perf_counter() >= t_end:
            break
    with Tracer() as tracer:
        records = run_rotations(workload, seconds, tally, tracer)
    if not records:
        raise SystemExit("error: every traced operation raised")
    m = len(reference)
    overhead = _ratio(sum(r.wall for r in records[:m]),
                      sum(r.wall for r in reference))
    scaling = workload.scaling_exponent(reference) if reference else None
    if scaling is not None:
        scaling, ok = scaling
        tally.add(ok)
    return records, per_layer(tracer, records, wl.TREE_STRATEGIES, context,
                              overhead, scaling)


def report(metrics: dict, units: dict, samples: int) -> None:
    for key in units:
        print("metric %-36s %16.6g %-9s n=%d" % (key, metrics[key],
                                                 units[key], samples))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("bulk-single", "bulk-tree", "small-mixed",
                                 "plan-large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the self-check")
    parser.add_argument("--golden", default=os.path.join(HERE, "golden.json"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(SRC, "parashake", "__init__.py")):
        print("error: %s has no parashake package to benchmark" % SRC,
              file=sys.stderr)
        return 2
    build()
    sys.path.insert(0, SRC)
    import workloads as wl

    with open(args.golden) as f:
        golden = json.load(f)
    machine = machine_record()
    print("machine: " + json.dumps(machine, sort_keys=True))
    scale = wl.TINY if args.scale == "tiny" else wl.FULL
    setup_s = measure_setup_s() if args.trace == 0 else 0.0
    workload = wl.WORKLOADS[args.workload](scale, args.seed, golden,
                                           machine["nproc"])
    tally = Tally()
    if args.trace:
        records, metrics = run_traced(workload, args.seconds, tally)
    else:
        records = run_rotations(workload, args.seconds, tally)
        metrics = end_to_end(workload, records, setup_s)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    print("workload: %s seed=%d seconds=%g trace=%d rotation=%d ops=%d "
          "failed=%d" % (args.workload, args.seed, args.seconds, args.trace,
                         len(workload.rotation), tally.attempted,
                         tally.failed))
    report(metrics, units, len(records))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
