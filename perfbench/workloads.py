"""The four benchmark workloads.

Each workload turns the seed into a fixed rotation of operations, runs one
operation at a time (a closed loop with one caller), and checks every
output.  A run always executes whole rotations, so every run weighs the
same mix of strategies and sizes whatever the seed.

Message contents come from one of `SOURCES` fixed byte streams, chosen by
the seed.  Tree digests have no independent reference, so the benchmark
pins them with golden digests recorded by `record_golden.py`; that needs a
finite set of inputs, hence the fixed sources and the fixed pool of
small-message sizes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import statistics
import time
from dataclasses import dataclass, field

from parashake import (cli, evaluate, keccak, planner, sakura, scheduler,
                       treeio)
from parashake.bits import BitString

SOURCES = 4
OUT_BITS = 512
# Golden digests are compared on their first 128 bits.
GOLDEN_HEX_CHARS = 32

TREE_STRATEGIES = ("compacted", "compacted-relaxed", "ternary",
                   "ternary-min-procs")
CLI_STRATEGIES = ("auto",) + planner.STRATEGIES
# Sizes at which the planners switch construction.
BRANCH_BITS = (0, 1, 2170, 2171, 3275, 29457, 10**5)


@dataclass(frozen=True)
class Scale:
    """Input sizes; `FULL` is what the benchmark measures, `TINY` is for
    the self-check."""
    bulk_bytes: int = 1 << 18
    scaling_bytes: int = 1 << 16
    small_pool: int | None = None        # None: the whole pool
    plan_lo_bits: int = 10**6
    plan_hi_bits: int = 10**7
    plan_strata: int = 8


FULL = Scale()
TINY = Scale(bulk_bytes=8 << 10, scaling_bytes=2 << 10, small_pool=4,
             plan_lo_bits=10**4, plan_hi_bits=10**5, plan_strata=2)


def source_bytes(index: int, nbytes: int) -> bytes:
    """Prefix of fixed content stream `index`; prefixes of one stream agree."""
    return hashlib.shake_256(b"perfbench source %d" % index).digest(nbytes)


def cli_argv(source: bytes, n_bits: int, strategy: str) -> list:
    """`parashake hash` arguments for the first `n_bits` of `source`."""
    nbytes = (n_bits + 7) // 8
    argv = ["hash", "--hex", source[:nbytes].hex(), "--strategy", strategy]
    if n_bits % 8:
        argv += ["--bits", str(n_bits % 8)]
    return argv


def parse_cli_output(text: str) -> dict:
    fields = {}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        fields[key] = value
    return fields


@dataclass
class Record:
    """One timed operation: its size, wall time, named phase times and the
    simulated schedule of its plan."""
    strategy: str
    n_bits: int
    wall: float
    phases: dict = field(default_factory=dict)
    model_calls: int = 0        # evaluations x Schedule.total_calls
    depth: int = 0
    total_calls: int = 0


class Workload:
    """Base: `rotation` lists operation specs; `run` times one, `check`
    verifies its outputs (untimed)."""
    name = ""
    seq_phase = "wall"         # phase behind hash_mbps
    par_phase = "wall"         # phase behind par_mbps

    def __init__(self, scale: Scale, seed: int, golden: dict, nproc: int):
        self.scale = scale
        self.golden = golden
        self.nproc = nproc
        self.rng = random.Random(seed)
        self.source_index = seed % SOURCES
        self.rotation = []

    def run(self, spec):
        raise NotImplementedError

    def check(self, spec, record: Record, outputs) -> bool:
        raise NotImplementedError

    def scaling_exponent(self, reference: list):
        """None: the workload hashes no bulk message."""
        return None


def _timer():
    return time.perf_counter()


def _rate(fn, seconds: float) -> float:
    """Median calls per second of `fn` over three samples of `seconds`."""
    rates = []
    for _ in range(3):
        calls = 0
        t0 = _timer()
        while True:
            fn()
            calls += 1
            elapsed = _timer() - t0
            if elapsed >= seconds:
                break
        rates.append(calls / elapsed)
    return statistics.median(rates)


def kernel_context(data: bytes, seconds: float) -> dict:
    """Direct kernel rates, and the hashlib reference rate on `data`."""
    state = bytearray(200)
    rate_bytes = 136
    blocks = data[:rate_bytes * min(64, len(data) // rate_bytes)]
    return {
        "keccak.perm_per_s": _rate(lambda: keccak.permute(state), seconds),
        "keccak.absorb_mbps": _rate(
            lambda: keccak.absorb_blocks(bytearray(200), blocks, rate_bytes),
            seconds) * len(blocks) / 1e6,
        "ref.hashlib_mbps": _rate(
            lambda: hashlib.shake_256(data).digest(OUT_BITS // 8),
            seconds) * len(data) / 1e6,
    }


class _Bulk(Workload):
    """Shared by the two workloads that hash one bulk message."""
    seq_phase = "seq"

    def __init__(self, *args):
        super().__init__(*args)
        self.data = source_bytes(self.source_index, self.scale.bulk_bytes)
        self.message = BitString.from_bytes(self.data)

    def digest_ok(self, data: bytes, digest, strategy: str) -> bool:
        raise NotImplementedError

    def scaling_exponent(self, reference: list):
        """Hash a quarter-size message with the strategy of the first
        reference operation, three times; return (log(t_full / t_quarter)
        / log(size ratio), all digests ok), from median times.  1.0 means
        linear."""
        strategy = reference[0].strategy
        full = statistics.median(r.phases["seq"] for r in reference
                                 if r.strategy == strategy)
        data = source_bytes(self.source_index, self.scale.scaling_bytes)
        message = BitString.from_bytes(data)
        plan = planner.plan(strategy, len(message))
        times, ok = [], True
        for _ in range(3):
            t0 = _timer()
            digest = evaluate.evaluate_sequential(plan.node_tree, message,
                                                  OUT_BITS)
            times.append(_timer() - t0)
            ok = ok and self.digest_ok(data, digest, strategy)
        ratio = len(self.data) / len(data)
        return (math.log(full / statistics.median(times)) / math.log(ratio),
                ok)


class BulkSingle(_Bulk):
    """Plan, evaluate_sequential and simulate one 256 KiB message under
    `single`: one node, so the kernel does nearly all the work."""
    name = "bulk-single"

    def __init__(self, *args):
        super().__init__(*args)
        self.rotation = ["single"]

    def run(self, strategy):
        n = len(self.message)
        t0 = _timer()
        plan = planner.plan(strategy, n)
        t1 = _timer()
        digest = evaluate.evaluate_sequential(plan.node_tree, self.message,
                                              OUT_BITS)
        t2 = _timer()
        sched = scheduler.simulate(plan.node_tree, OUT_BITS)
        t3 = _timer()
        rec = Record(strategy, n, wall=t3 - t0, phases={"seq": t2 - t1},
                     model_calls=sched.total_calls,
                     depth=sched.depth, total_calls=sched.total_calls)
        return rec, (digest, sched)

    def check(self, strategy, record, outputs):
        digest, sched = outputs
        return (self.digest_ok(self.data, digest, strategy)
                and digest.total_calls == sched.total_calls)

    def digest_ok(self, data, digest, strategy):
        return digest.hex() == hashlib.shake_256(data).hexdigest(OUT_BITS // 8)


class BulkTree(_Bulk):
    """The 256 KiB message under each tree strategy, through
    evaluate_sequential and evaluate_parallel; the digests must agree with
    each other and with the golden digest."""
    name = "bulk-tree"
    par_phase = "par"

    def __init__(self, *args):
        super().__init__(*args)
        self.rotation = list(TREE_STRATEGIES)

    def run(self, strategy):
        n = len(self.message)
        t0 = _timer()
        plan = planner.plan(strategy, n)
        t1 = _timer()
        seq = evaluate.evaluate_sequential(plan.node_tree, self.message,
                                           OUT_BITS)
        t2 = _timer()
        par = evaluate.evaluate_parallel(plan.node_tree, self.message,
                                         OUT_BITS, max_workers=self.nproc)
        t3 = _timer()
        sched = scheduler.simulate(plan.node_tree, OUT_BITS)
        t4 = _timer()
        rec = Record(strategy, n, wall=t4 - t0,
                     phases={"seq": t2 - t1, "par": t3 - t2},
                     model_calls=2 * sched.total_calls, depth=sched.depth,
                     total_calls=sched.total_calls)
        return rec, (seq, par, sched)

    def check(self, strategy, record, outputs):
        seq, par, sched = outputs
        return (self.digest_ok(self.data, seq, strategy)
                and par.bits == seq.bits
                and seq.total_calls == par.total_calls == sched.total_calls)

    def digest_ok(self, data, digest, strategy):
        golden = self.golden["bulk"][str(len(data))][str(self.source_index)]
        return digest.hex()[:GOLDEN_HEX_CHARS] == golden[strategy]


class SmallMixed(Workload):
    """In-process `parashake hash --hex` calls on short messages: the
    planner branch points, then a pool of log-uniform sizes up to 64 kbit,
    each under `auto` and the five strategies."""
    name = "small-mixed"

    def __init__(self, *args):
        super().__init__(*args)
        small = self.golden["small"]
        sizes = small["sizes"]
        if self.scale.small_pool is not None:
            sizes = sizes[:len(BRANCH_BITS) + self.scale.small_pool]
        self.digests = small["digests"][str(self.source_index)]
        self.source = source_bytes(self.source_index,
                                   (max(sizes) + 7) // 8)
        branch = [(i, s) for i in range(len(BRANCH_BITS))
                  for s in CLI_STRATEGIES]
        pool = [(i, s) for i in range(len(BRANCH_BITS), len(sizes))
                for s in CLI_STRATEGIES]
        self.rng.shuffle(pool)
        self.sizes = sizes
        self.rotation = [(i, s, cli_argv(self.source, sizes[i], s))
                         for i, s in branch + pool]
        # Live schedules of the program under test, for the model check.
        self.schedules = {}
        for i, s, _ in self.rotation:
            key = (s, sizes[i])
            if key not in self.schedules:
                self.schedules[key] = scheduler.simulate(
                    planner.plan(s, sizes[i]).node_tree, OUT_BITS)

    def run(self, spec):
        i, strategy, argv = spec
        out = io.StringIO()
        t0 = _timer()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        t1 = _timer()
        n = self.sizes[i]
        sched = self.schedules[(strategy, n)]
        rec = Record(strategy, n, wall=t1 - t0,
                     model_calls=sched.total_calls, depth=sched.depth,
                     total_calls=sched.total_calls)
        return rec, (code, out.getvalue())

    def check(self, spec, record, outputs):
        i, strategy, _ = spec
        code, text = outputs
        fields = parse_cli_output(text)
        digest = fields.get("digest", "")
        if code != 0 or fields.get("total-calls") != str(record.total_calls):
            return False
        if digest[:GOLDEN_HEX_CHARS] != self.digests[strategy][i]:
            return False
        n = self.sizes[i]
        if strategy == "single" and n % 8 == 0:
            data = self.source[:n // 8]
            return digest == hashlib.shake_256(data).hexdigest(OUT_BITS // 8)
        return True


class PlanLarge(Workload):
    """What `parashake plan --emit-tree` then `parashake analyze --plan`
    do, in memory: plan, dump, load, validate, simulate and check
    happens-before for n from 10^6 to 10^7 bits.  No message bytes."""
    name = "plan-large"

    def __init__(self, *args):
        super().__init__(*args)
        lo = math.log10(self.scale.plan_lo_bits)
        span = math.log10(self.scale.plan_hi_bits) - lo
        k = self.scale.plan_strata
        # One size per equal log-width stratum, jittered by up to a tenth
        # of the stratum around its centre, so every run plans the same
        # spread of sizes.
        sizes = [int(10 ** (lo + span * (j + 0.5 + self.rng.uniform(-0.1, 0.1))
                            / k))
                 for j in range(k)]
        self.rotation = [(n, s) for n in sizes for s in planner.STRATEGIES]
        self.rng.shuffle(self.rotation)

    def run(self, spec):
        n, strategy = spec
        t0 = _timer()
        plan = planner.plan(strategy, n)
        doc = treeio.dump_plan(plan)
        loaded = treeio.load_plan(doc)
        valid, _ = sakura.validate_node_tree(loaded.node_tree)
        sched = scheduler.simulate(loaded.node_tree, OUT_BITS)
        happens_before = scheduler.validate_happens_before(sched,
                                                           loaded.node_tree)
        t1 = _timer()
        rec = Record(strategy, n, wall=t1 - t0, depth=sched.depth,
                     total_calls=sched.total_calls)
        return rec, (doc, loaded, valid, sched, happens_before)

    def check(self, spec, record, outputs):
        doc, loaded, valid, sched, happens_before = outputs
        return (valid and happens_before
                and sched.depth == loaded.report.predicted_depth
                and treeio.dump_plan(loaded) == doc)


WORKLOADS = {w.name: w for w in (BulkSingle, BulkTree, SmallMixed, PlanLarge)}
