#!/usr/bin/env python3
"""Self-check of the benchmark at tiny sizes; takes well under a minute.

    python3 perfbench/selfcheck.py

Runs every workload with and without tracing and asserts that each run is
correct and prints every metric with its unit.  Then corrupts one golden
digest of each digest-checking workload and asserts that the run counts a
failed operation instead of passing it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

import run

sys.path.insert(0, run.SRC)
import workloads as wl  # noqa: E402

SEED = 5
WORKLOADS = ("bulk-single", "bulk-tree", "small-mixed", "plan-large")


def bench(workload: str, trace: int, golden: str | None = None) -> tuple:
    argv = ["--workload", workload, "--seed", str(SEED), "--seconds", "0.1",
            "--trace", str(trace), "--scale", "tiny"]
    if golden is not None:
        argv += ["--golden", golden]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    lines = out.getvalue().splitlines()
    assert code == 0, "%s exited %d" % (workload, code)
    return lines, json.loads(lines[-1])


def check_metrics(workload: str, trace: int) -> None:
    lines, result = bench(workload, trace)
    units = run.metric_units("per_layer" if trace else "end_to_end")
    assert result["correct"] and result["failed"] == 0, (workload, result)
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(units), workload
    for name, unit in units.items():
        assert result["metrics"][name]["unit"] == unit
        assert any(line.split()[:2] == ["metric", name]
                   and line.split()[3] == unit for line in lines), name
    if trace and workload != "plan-large":
        assert result["metrics"]["model.calls_match"]["value"] == 1.0
    print("ok: %s trace=%d, %d operations" % (workload, trace,
                                              result["attempted"]))


def corrupt(doc: dict, workload: str) -> None:
    """Flip the first hex digit of one golden digest the run will check."""
    source = str(SEED % wl.SOURCES)
    if workload == "bulk-tree":
        entry = doc["bulk"][str(wl.TINY.bulk_bytes)][source]
        key = "compacted"
    else:
        entry = doc["small"]["digests"][source]["ternary"]
        key = 0                                 # the empty message
    digest = entry[key]
    entry[key] = ("1" if digest[0] == "0" else "0") + digest[1:]


def check_corrupted_golden(workload: str) -> None:
    with open(os.path.join(run.HERE, "golden.json")) as f:
        doc = json.load(f)
    corrupt(doc, workload)
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        path = os.path.join(tmp, "golden.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        _, result = bench(workload, 0, path)
    assert not result["correct"] and result["failed"] >= 1, result
    print("ok: %s counts a corrupted golden digest as failed (%d of %d)"
          % (workload, result["failed"], result["attempted"]))


def main() -> int:
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_metrics(workload, trace)
    for workload in ("bulk-tree", "small-mixed"):
        check_corrupted_golden(workload)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
