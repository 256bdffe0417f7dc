"""Deterministic parallel-time simulation of a node tree.

One time unit is one permutation call.  Every node gets its own
processor starting at time 0 and absorbs one rate block per unit,
stalling on any block that contains a chaining-value slot whose producer
has not finished.  A value produced at time u is usable by a block whose
absorption starts at time >= u (strict precedence: finish before start).

Squeeze calls beyond the first rate extraction are charged to the final
node's processor after its last absorb; at the default 512-bit output
there are none, so theorem-level depth figures are pure absorption
depth.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sakura import RATE_BITS, NodeTree
from .sponge import check_out_bits


@dataclass(frozen=True)
class NodeTiming:
    node_id: int
    block_end: tuple          # absorption end time of each block, 1-based
    stalls: int

    @property
    def finish(self) -> int:
        return self.block_end[-1]


@dataclass(frozen=True)
class Schedule:
    timings: tuple
    depth: int
    processors: int
    max_concurrency: int
    absorb_calls: int
    squeeze_calls: int
    out_bits: int

    @property
    def total_calls(self) -> int:
        return self.absorb_calls + self.squeeze_calls

    @property
    def total_stalls(self) -> int:
        return sum(t.stalls for t in self.timings)


def simulate(tree: NodeTree, out_bits: int = 512) -> Schedule:
    """Simulate absorption of every node; deterministic.  Raises
    `DependencyCycleError` unless every producer is an earlier node, and
    `OutputLengthError` unless `out_bits` is positive."""
    check_out_bits(out_bits)
    finish = []
    timings = []
    for nid, (node, node_deps) in enumerate(zip(tree.nodes, tree.deps)):
        ready = [0] * node.blocks
        for block, producer, _ in node_deps:
            if finish[producer] > ready[block]:
                ready[block] = finish[producer]
        end = 0
        ends = []
        for r in ready:
            end = max(end, r) + 1
            ends.append(end)
        finish.append(end)
        timings.append(NodeTiming(nid, tuple(ends), end - node.blocks))
    squeeze = 0
    if tree.nodes[-1].is_final:
        squeeze = max(0, -(-out_bits // RATE_BITS) - 1)
    depth = max(finish) + squeeze
    busy = [0] * (max(finish) + 1)
    for t in timings:
        for end in t.block_end:
            busy[end] += 1
    return Schedule(tuple(timings), depth, len(tree.nodes), max(busy),
                    sum(n.blocks for n in tree.nodes), squeeze, out_bits)


def validate_happens_before(schedule: Schedule, tree: NodeTree) -> bool:
    """True iff every chaining value is finished strictly before the
    absorption of the block holding it starts."""
    deps = tree.deps
    finish = {t.node_id: t.finish for t in schedule.timings}
    for timing in schedule.timings:
        ends = timing.block_end
        if len(ends) != tree.nodes[timing.node_id].blocks:
            return False
        if any(b <= a for a, b in zip((0,) + ends, ends)):
            return False                 # blocks absorb one per unit
        for block, producer, _ in deps[timing.node_id]:
            if finish[producer] > ends[block] - 1:
                return False
    return True
