"""Built-in verification suites behind the `selftest` CLI command.

Each suite returns (ok, detail) and never raises; a corrupt input to one
suite must not take the others down.  All randomness is seeded, so runs
are reproducible.
"""

from __future__ import annotations

import json
import random
from importlib import resources

from . import keccak, planner, scheduler, treeio
from .bits import BitString
from .evaluate import evaluate_parallel, evaluate_sequential
from .sponge import shake256

_SEED = 0x53414B  # fixed so selftest output is stable


def _suite(fn):
    def run(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - suite isolation
            return False, "%s: %s" % (type(exc).__name__, exc)
    run.__name__ = fn.__name__
    return run


def _data_text(name: str) -> str:
    return (resources.files("parashake") / "data" / name).read_text()


def default_vectors_text() -> str:
    return _data_text("shake256_vectors.json")


@_suite
def suite_shake_vectors(rows: list | None = None):
    """Known-answer vectors for the standard SHAKE256 path; `rows` as
    `treeio.load_vectors` returns them, the packaged file by default."""
    if rows is None:
        rows = treeio.load_vectors(default_vectors_text())
    for i, row in enumerate(rows):
        message = BitString.from_bytes(bytes.fromhex(row["message_hex"]),
                                       row["message_bit_length"])
        got = shake256(message, row["out_len_bits"]).hex()
        if got != row["digest_hex"]:
            return False, "vector %d mismatch" % i
    return True, "%d vectors" % len(rows)


@_suite
def suite_batched_kernel(widths: tuple = (2, 3, 17, 64, 257)):
    """The packed kernel against the scalar one: seeded states absorb one
    round of blocks in one `keccak.absorb_blocks` call of each width, and
    state by state."""
    rng = random.Random(_SEED + 3)
    for width in widths:
        for rate in (136, 72):
            states = rng.randbytes(200 * width)
            blocks = rng.randbytes(rate * width)
            got = bytearray(states)
            keccak.absorb_blocks(got, blocks, rate)
            for k in range(width):
                want = bytearray(states[200 * k:200 * (k + 1)])
                keccak.absorb_blocks(want, blocks[rate * k:rate * (k + 1)],
                                     rate)
                if got[200 * k:200 * (k + 1)] != want:
                    return False, "width %d, rate %d, state %d differs" % (
                        width, rate, k)
    return True, "widths %s" % "/".join(str(w) for w in widths)


def _sweep_points(count: int, lo: int = 3275, hi: int = 10 ** 6) -> list:
    return sorted({int(lo * (hi / lo) ** (i / (count - 1)))
                   for i in range(count)} | {29457})


@_suite
def suite_ternary_sweep(points: int = 40):
    for n in _sweep_points(points):
        plan = planner.plan("ternary", n)
        sched = scheduler.simulate(plan.node_tree)
        want = planner.ceil_log3_ratio(n, planner.TERNARY_PART_BITS) + 2
        if sched.depth != want:
            return False, "n=%d depth %d, expected %d" % (n, sched.depth, want)
        if plan.report.node_count > 3 * -(-n // planner.TERNARY_PART_BITS):
            return False, "n=%d exceeds the processor bound" % n
        if sched.total_stalls:
            return False, "n=%d stalls" % n
    return True, "%d points" % points


@_suite
def suite_compacted_sweep(points: int = 40):
    for j in range(2, 13):
        direct = sum(k * 3 ** k for k in range(j - 1))
        if 4 * direct != 3 ** (j - 1) * (2 * j - 5) + 3:
            return False, "summation identity fails at j=%d" % j
    for n in _sweep_points(points):
        plan = planner.plan("compacted", n)
        sched = scheduler.simulate(plan.node_tree)
        bound = planner.ceil_log3_ratio(n + 31, planner.COMPACTED_UNIT) + 2
        if sched.depth > bound:
            return False, "n=%d depth %d above bound %d" % (n, sched.depth,
                                                            bound)
        if sched.total_stalls:
            return False, "n=%d stalls" % n
        if not scheduler.validate_happens_before(sched, plan.node_tree):
            return False, "n=%d violates happens-before" % n
        relaxed = planner.plan("compacted-relaxed", n)
        if relaxed.node_tree != plan.node_tree:
            return False, "n=%d relaxed plan differs" % n
    return True, "%d points, identity for j in 2..12" % points


@_suite
def suite_differential(cases: int = 50):
    rng = random.Random(_SEED)
    for case in range(cases):
        n = int(10 ** rng.uniform(0, 5.3))
        strategy = planner.STRATEGIES[case % len(planner.STRATEGIES)]
        out_bits = rng.choice((256, 512, 2176))
        message = BitString(rng.getrandbits(n) if n else 0, n)
        plan = planner.plan(strategy, n)
        seq = evaluate_sequential(plan.node_tree, message, out_bits)
        par = evaluate_parallel(plan.node_tree, message, out_bits)
        if seq.bits != par.bits or seq.total_calls != par.total_calls:
            return False, "case %d (%s, n=%d) diverges" % (case, strategy, n)
        if strategy == "single":
            if seq.bits != shake256(message, out_bits):
                return False, "case %d: single-hop digest is not SHAKE256" % case
    return True, "%d cases" % cases


@_suite
def suite_tree_digests(max_bits: int | None = None,
                       out_bits: tuple = (256, 512, 4096)):
    """Every strategy's digest of seeded messages against the recorded
    goldens (`data/tree_digests.json`, one 4096-bit digest per strategy
    and message length); each shorter output must be their prefix.  Rows
    alternate between the two executors."""
    doc = json.loads(_data_text("tree_digests.json"))
    rows = [row for row in doc["digests"]
            if max_bits is None or row["message_bits"] <= max_bits]
    for i, row in enumerate(rows):
        n = row["message_bits"]
        message = BitString(random.Random(doc["seed"]).getrandbits(n), n)
        tree = planner.plan(row["strategy"], n).node_tree
        executor = (evaluate_sequential, evaluate_parallel)[i % 2]
        for bits in out_bits:
            got = executor(tree, message, bits).hex()
            if got != row["digest_hex"][:bits // 4]:
                return False, "%s, n=%d, %d bits differs" % (
                    row["strategy"], n, bits)
    return True, "%d digests at %s bits" % (
        len(rows), "/".join(str(bits) for bits in out_bits))


def run_all(quick: bool = False, vectors: list | None = None) -> list:
    """Run every suite; returns [(name, ok, detail), ...]."""
    scale = 1 if not quick else 0
    results = [
        ("shake-vectors", *suite_shake_vectors(vectors)),
        ("batched-kernel", *(suite_batched_kernel() if scale
                             else suite_batched_kernel((2, 3, 17)))),
        ("ternary-sweep", *suite_ternary_sweep(40 if scale else 8)),
        ("compacted-sweep", *suite_compacted_sweep(40 if scale else 8)),
        ("differential", *suite_differential(50 if scale else 10)),
        ("tree-digests", *(suite_tree_digests() if scale
                           else suite_tree_digests(29457, (512,)))),
    ]
    return results
