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
from operator import ge

from .sakura import RATE_BITS, NodeTree
from .sponge import check_out_bits


@dataclass(frozen=True)
class NodeTiming:
    """The timing of the node at the same position in the tree."""
    block_end: tuple          # absorption end time of each block, 1-based

    @property
    def finish(self) -> int:
        return self.block_end[-1]

    @property
    def stalls(self) -> int:
        return self.finish - len(self.block_end)


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
    for node, node_deps in zip(tree.nodes, tree.deps):
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
        timings.append(NodeTiming(tuple(ends)))
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
    """True iff `schedule` can run `tree`: one timing per node, one end
    per block of the node, ends that are at least 1 and strictly
    increasing, and every chaining value finished strictly before the
    absorption of the block holding it starts."""
    timings = schedule.timings
    if len(timings) != len(tree.nodes):
        return False
    finish = []
    for timing, node, node_deps in zip(timings, tree.nodes, tree.deps):
        ends = timing.block_end
        if (len(ends) != node.blocks or ends[0] < 1
                or any(map(ge, ends, ends[1:]))):
            return False
        for block, producer, _ in node_deps:
            if finish[producer] >= ends[block]:
                return False
        finish.append(ends[-1])
    return True


def launches(schedule: Schedule, cap: int) -> list:
    """The launches that run `schedule`, in order: lists of (node id,
    first block, block count).  A time unit of several blocks goes out in
    launches of at most `cap` states of one block each.  A maximal run of
    units that each hold one block of one node goes out as one launch of
    all the run's blocks.  For a schedule that passes
    `validate_happens_before`, every producer's last block is in an
    earlier launch than the block holding its value."""
    timings = schedule.timings
    units = [[] for _ in range(max(t.finish for t in timings) + 1)]
    for nid, t in enumerate(timings):
        for block, end in enumerate(t.block_end):
            units[end].append((nid, block))
    out = []
    u = 0
    while u < len(units):
        unit = units[u]
        u += 1
        if len(unit) != 1:
            for lo in range(0, len(unit), cap):
                out.append([(nid, block, 1)
                            for nid, block in unit[lo:lo + cap]])
            continue
        nid, block = unit[0]
        first = u
        while (u < len(units) and len(units[u]) == 1
               and units[u][0][0] == nid):
            u += 1
        out.append([(nid, block, 1 + u - first)])
    return out
