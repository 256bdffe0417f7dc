#!/usr/bin/env python3
"""Record the golden digests that the benchmark checks every tree digest
against, and the pool of small-message sizes they cover.

Run it once, from the repository root, on the commit whose hash function
the benchmark pins; later commits must reproduce these digests:

    python3 perfbench/record_golden.py

It writes perfbench/golden.json and takes a few minutes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from parashake import cli, evaluate, planner  # noqa: E402
from parashake.bits import BitString  # noqa: E402

import workloads as wl  # noqa: E402

# Sizes of bulk messages the benchmark and its self-check hash.
BULK_BYTES = sorted({wl.FULL.bulk_bytes, wl.FULL.scaling_bytes,
                     wl.TINY.bulk_bytes, wl.TINY.scaling_bytes})
SMALL_POOL = 128
SMALL_MAX_LOG2 = 16             # draws up to 64 kbit


def small_pool_sizes() -> list:
    """Log-uniform sizes from 1 to 64 kbit, one per equal log-width
    stratum, drawn once with a fixed seed."""
    rng = random.Random(0x5EED)
    return [int(2 ** (SMALL_MAX_LOG2 * (j + rng.random()) / SMALL_POOL))
            for j in range(SMALL_POOL)]


def bulk_digests() -> dict:
    out = {}
    for nbytes in BULK_BYTES:
        per_source = out[str(nbytes)] = {}
        for g in range(wl.SOURCES):
            message = BitString.from_bytes(wl.source_bytes(g, nbytes))
            per_source[str(g)] = {
                s: evaluate.evaluate_sequential(
                    planner.plan(s, len(message)).node_tree, message,
                    wl.OUT_BITS).hex()[:wl.GOLDEN_HEX_CHARS]
                for s in wl.TREE_STRATEGIES}
            print("bulk %d source %d done" % (nbytes, g), file=sys.stderr)
    return out


def small_digests(sizes: list) -> dict:
    out = {}
    for g in range(wl.SOURCES):
        source = wl.source_bytes(g, (max(sizes) + 7) // 8)
        per_strategy = out[str(g)] = {}
        for s in wl.CLI_STRATEGIES:
            column = per_strategy[s] = []
            for n in sizes:
                text = io.StringIO()
                with contextlib.redirect_stdout(text):
                    if cli.main(wl.cli_argv(source, n, s)) != 0:
                        raise SystemExit("hash of %d bits failed" % n)
                digest = wl.parse_cli_output(text.getvalue())["digest"]
                column.append(digest[:wl.GOLDEN_HEX_CHARS])
        print("small source %d done" % g, file=sys.stderr)
    return out


def main() -> int:
    sizes = list(wl.BRANCH_BITS) + small_pool_sizes()
    doc = {
        "about": "First %d hex digits of %d-bit digests; messages are "
                 "prefixes of workloads.source_bytes(source, ...)."
                 % (wl.GOLDEN_HEX_CHARS, wl.OUT_BITS),
        "bulk": bulk_digests(),
        "small": {"sizes": sizes, "digests": small_digests(sizes)},
    }
    with open(os.path.join(HERE, "golden.json"), "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
