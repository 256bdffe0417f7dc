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
from .sakura import (FrameBits, HopTree, MessageHop,
                     map_hop_tree_to_node_tree, validate_grammar,
                     validate_node_tree)
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


@_suite
def suite_model_table():
    """Every catalogue subtree simulates to its tabled processor count
    and depth, at full capacity and with the final-hop extra bit."""
    for model in planner.MODELS[1:]:
        for as_final in (False, True):
            bits = model.capacity(as_final)
            root = planner.build_model_subtree(model.id, 0, bits, as_final)
            tree = map_hop_tree_to_node_tree(HopTree(root, bits), "aligned",
                                             root_final=as_final)
            sched = scheduler.simulate(tree)
            depth = max(t.finish for t in sched.timings)
            if (sched.processors, depth) != (model.processors,
                                             model.time_units):
                return False, "model %d simulates to (%d, %d)" % (
                    model.id, sched.processors, depth)
            if sched.total_stalls:
                return False, "model %d stalls" % model.id
    return True, "10 models, both variants"


def _sweep_points(count: int, lo: int = 3275, hi: int = 10 ** 6) -> list:
    return sorted({int(lo * (hi / lo) ** (i / (count - 1)))
                   for i in range(count)} | {29457})


@_suite
def suite_ternary_sweep(points: int = 40):
    for n in _sweep_points(points):
        plan = planner.plan_ternary(n)
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
        plan = planner.plan_compacted(n)
        sched = scheduler.simulate(plan.node_tree)
        bound = planner.ceil_log3_ratio(n + 31, planner.COMPACTED_UNIT) + 2
        if sched.depth > bound:
            return False, "n=%d depth %d above bound %d" % (n, sched.depth,
                                                            bound)
        if sched.total_stalls:
            return False, "n=%d stalls" % n
        if not scheduler.validate_happens_before(sched, plan.node_tree):
            return False, "n=%d violates happens-before" % n
        relaxed = planner.plan_compacted_relaxed(n)
        if relaxed.node_tree != plan.node_tree:
            return False, "n=%d relaxed plan differs" % n
    return True, "%d points, identity for j in 2..12" % points


@_suite
def suite_differential(cases: int = 50):
    rng = random.Random(_SEED)
    strategies = ("single", "ternary", "ternary-min-procs", "compacted",
                  "compacted-relaxed")
    for case in range(cases):
        n = int(10 ** rng.uniform(0, 5.3))
        strategy = strategies[case % len(strategies)]
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


@_suite
def suite_grammar(mutations: int = 200):
    rng = random.Random(_SEED + 1)
    plans = [planner.plan("ternary", 29457),
             planner.plan("compacted", 29457),
             planner.plan("ternary-min-procs", 13115),
             planner.plan("single", 1112)]
    nodes = [node for p in plans for node in p.node_tree.nodes]
    for p in plans:
        ok, why = validate_node_tree(p.node_tree)
        if not ok:
            return False, why
    rejected = 0
    for _ in range(mutations):
        node = rng.choice(nodes)
        frames = [(i, seg) for i, seg in enumerate(node.segments)
                  if isinstance(seg, FrameBits)]
        idx, seg = rng.choice(frames)
        flip = rng.randrange(seg.length)
        segments = list(node.segments)
        segments[idx] = FrameBits(seg.value ^ 1 << flip, seg.length)
        twisted = type(node)(tuple(segments), node.is_final)
        ok, _ = validate_grammar(twisted)
        if not ok:
            rejected += 1
    if rejected != mutations:
        return False, "%d of %d mutations accepted" % (mutations - rejected,
                                                       mutations)
    return True, "%d mutations rejected" % mutations


# (id, message bits, processors, time units), written out here, not read
# from the planner, so that the cross-check is independent of it
SUBTREE_TABLE = (
    (0, 2169, 1, 2),
    (1, 2704, 2, 2),
    (2, 3273, 3, 2),
    (3, 4880, 2, 3),
    (4, 6537, 3, 3),
    (5, 7106, 4, 3),
    (6, 7675, 5, 3),
    (7, 11458, 4, 4),
    (8, 13115, 5, 4),
    (9, 13684, 6, 4),
    (10, 14253, 7, 4),
)


def brute_force_model_choice(n: int) -> int:
    """Recompute the processor-minimizing model's candidate set and
    scores from scratch, for n >= 3275."""
    if n < 3275:
        raise ValueError("model choice needs n >= 3275")

    def ceil_log3(x: int) -> int:
        h, p = 0, 1
        while p < x:
            p *= 3
            h += 1
        return h

    def ceil_div(a: int, b: int) -> int:
        return (a + b - 1) // b

    target = ceil_log3(ceil_div(n, 3273)) + 2
    scored = []
    for mid, n_mb, n_p, t_units in SUBTREE_TABLE:
        parts = ceil_div(n, n_mb)
        if ceil_log3(parts) + t_units == target:
            scored.append((parts * n_p, mid))
    return min(scored)[1]


@_suite
def suite_select_model(samples: int = 60):
    rng = random.Random(_SEED + 2)
    ns = [3275, 9819, 13115, 29457] + \
        [rng.randrange(3275, 10 ** 6) for _ in range(samples)]
    for n in ns:
        if planner.select_model(n) != brute_force_model_choice(n):
            return False, "disagreement at n=%d" % n
    return True, "%d samples" % len(ns)


def run_all(quick: bool = False, vectors: list | None = None) -> list:
    """Run every suite; returns [(name, ok, detail), ...]."""
    scale = 1 if not quick else 0
    results = [
        ("shake-vectors", *suite_shake_vectors(vectors)),
        ("batched-kernel", *(suite_batched_kernel() if scale
                             else suite_batched_kernel((2, 3, 17)))),
        ("model-table", *suite_model_table()),
        ("ternary-sweep", *suite_ternary_sweep(40 if scale else 8)),
        ("compacted-sweep", *suite_compacted_sweep(40 if scale else 8)),
        ("differential", *suite_differential(50 if scale else 10)),
        ("tree-digests", *(suite_tree_digests() if scale
                           else suite_tree_digests(29457, (512,)))),
        ("grammar", *suite_grammar(200 if scale else 40)),
        ("select-model", *suite_select_model(60 if scale else 15)),
    ]
    return results
