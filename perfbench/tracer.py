"""Per-layer tracing from outside the program.

While a `Tracer` is installed it replaces chosen module attributes of
`parashake` with wrappers that time each call, and restores them when it
is removed.  Nothing in the package changes.  A span's self time is its
duration minus the part of it covered by its child spans; children that
run in executor threads attach to the span open in the caller's thread,
and their intervals are merged before subtracting, so overlapping
children are not counted twice.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import defaultdict

from parashake import (cli, evaluate, keccak, planner, sakura, scheduler,
                       treeio)
from parashake.bits import BitString


def _count_kernel_calls(counts, args, result):
    counts["keccak.calls"] += result


def _count_permute(counts, args, result):
    counts["keccak.calls"] += 1


def _count_slice_source(counts, args, result):
    counts["bits.slice_bits_read"] += args[0].length


def _count_plan_nodes(counts, args, result):
    counts["planner.nodes"] += len(result.node_tree.nodes)


def _count_doc_bytes(counts, args, result):
    counts["treeio.doc_bytes"] += len(result)


# (owner, attribute, span name, counter).  A function imported by name into
# another module is wrapped at each binding that the package calls through.
SPANS = (
    (cli, "main", "cli", None),
    (planner, "plan", "planner.plan", _count_plan_nodes),
    (planner, "map_hop_tree_to_node_tree", "sakura.map", None),
    (sakura, "validate_node_tree", "sakura.validate", None),
    (cli, "validate_node_tree", "sakura.validate", None),
    (scheduler, "simulate", "scheduler", None),
    (scheduler, "validate_happens_before", "scheduler", None),
    (evaluate, "evaluate_sequential", "evaluate.executor", None),
    (cli, "evaluate_sequential", "evaluate.executor", None),
    (evaluate, "evaluate_parallel", "evaluate.executor", None),
    (evaluate, "materialize_node", "evaluate.assembly", None),
    (evaluate, "inner_f", "sponge", None),
    (evaluate, "xof_output", "sponge", None),
    (keccak, "absorb_blocks", "keccak", _count_kernel_calls),
    (keccak, "permute", "keccak", _count_permute),
    (BitString, "slice", "bits.slice", _count_slice_source),
    (treeio, "dump_plan", "treeio.dump", _count_doc_bytes),
    (treeio, "dump_schedule", "treeio.dump", _count_doc_bytes),
    (treeio, "load_plan", "treeio.load", None),
)


def _covered(children: list, t0: float, t1: float) -> float:
    """Length of the union of child intervals, clipped to [t0, t1]."""
    covered = 0.0
    end = t0
    for a, b in sorted(children):
        a = max(a, end)
        b = min(b, t1)
        if b > a:
            covered += b - a
            end = b
    return covered


class Tracer:
    """Accumulates, per span name, call count, total and self seconds, plus
    the counters of `SPANS`."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._caller_stack = None
        self._saved = []
        self._paused = False

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, span: str, count):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._caller_stack:
                parent = tracer._caller_stack[-1]
            else:
                parent = None
            children = []
            stack.append(children)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                own = (t1 - t0) - _covered(children, t0, t1)
                with tracer._lock:
                    tracer.calls[span] += 1
                    tracer.total[span] += t1 - t0
                    tracer.self_time[span] += own
                if parent is not None:
                    parent.append((t0, t1))
            if count is not None:
                with tracer._lock:
                    count(tracer.counts, args, result)
            return result

        return wrapper

    def __enter__(self):
        self._caller_stack = self._stack()
        for owner, attr, span, count in SPANS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span, count))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside are not traced (used for output checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False
