"""Digest evaluation: the sequential reference path and the schedule-order
path that must agree with it bit for bit.

The tree shape is part of the function being computed: two strategies
hashing the same message generally produce different digests.  Within a
fixed tree, the digest is independent of evaluation order.  Both paths
check their node order against the tree's dependency index
(`NodeTree.deps`), so a reference to a node that is not an earlier one
raises `DependencyCycleError` before any node is evaluated, and both run
one node step: assemble the node's f-input, then `inner_f` for an inner
node or `xof_output` for the final one.  `evaluate_parallel` takes its
order from the simulated schedule and runs it on the calling thread; it
starts no threads.  Scheduling metrics (depth, processors) come from the
simulator, never from wall clocks.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import scheduler
from .bits import BitString
from .errors import DependencyCycleError, SliceRangeError
from .sakura import (AlignPad, CVSlot, FrameBits, MessageBits, NodeLayout,
                     NodeTree)
from .sponge import DEFAULT_PARAMS, SpongeParams, inner_f, xof_output


@dataclass(frozen=True)
class Digest:
    bits: BitString
    total_calls: int

    def hex(self) -> str:
        return self.bits.hex()


def materialize_node(node: NodeLayout, message: BitString,
                     values: dict) -> BitString:
    """Assemble the node's bit stream from its segments."""
    acc = 0
    pos = 0
    for seg in node.segments:
        if isinstance(seg, MessageBits):
            if seg.offset + seg.length > len(message):
                raise SliceRangeError(
                    "slice [%d, %d) beyond the %d-bit message"
                    % (seg.offset, seg.offset + seg.length, len(message)))
            acc |= message.slice(seg.offset, seg.length).value << pos
            pos += seg.length
        elif isinstance(seg, CVSlot):
            cv = values[seg.producer]
            acc |= cv.value << pos
            pos += cv.length
        elif isinstance(seg, FrameBits):
            acc |= BitString.from01(seg.bits).value << pos
            pos += len(seg.bits)
        elif isinstance(seg, AlignPad):
            acc |= 1 << pos
            pos += 1 + seg.zeros
        else:
            raise TypeError("unknown segment %r" % (seg,))
    return BitString(acc, pos)


def _check_order(tree: NodeTree, order) -> list:
    deps = tree.deps
    if order is None:
        return list(range(len(deps)))
    order = list(order)
    if sorted(order) != list(range(len(deps))):
        raise DependencyCycleError("order is not a permutation of the nodes")
    seen = set()
    for nid in order:
        for _, producer in deps[nid]:
            if producer not in seen:
                raise DependencyCycleError(
                    "order evaluates node %d before its producer %d"
                    % (nid, producer))
        seen.add(nid)
    return order


def _node_step(node: NodeLayout, message: BitString, values: dict,
               out_bits: int, params: SpongeParams) -> tuple:
    """(value, calls) of one node: its chaining value, or the digest
    squeezed to `out_bits` when it is the final node."""
    bits = materialize_node(node, message, values)
    if node.is_final:
        return xof_output(bits, out_bits, params)
    return inner_f(bits, params)


def evaluate_sequential(tree: NodeTree, message: BitString,
                        out_bits: int = 512,
                        params: SpongeParams = DEFAULT_PARAMS,
                        order=None) -> Digest:
    """Evaluate every node in (any) topological order; the final node is
    squeezed to `out_bits`.  Ground truth for all digests."""
    if not tree.nodes[-1].is_final:
        raise ValueError("tree has no final node")
    values = {}
    calls = 0
    for nid in _check_order(tree, order):
        values[nid], used = _node_step(tree.nodes[nid], message, values,
                                       out_bits, params)
        calls += used
    return Digest(values[len(tree.nodes) - 1], calls)


def evaluate_parallel(tree: NodeTree, message: BitString,
                      out_bits: int = 512,
                      params: SpongeParams = DEFAULT_PARAMS,
                      max_workers: int | None = None) -> Digest:
    """Evaluate the nodes in the order of the simulated schedule: by
    finish time, ties in node order, all on the calling thread.

    The order is topological: a block holding a chaining value ends at
    least one unit after its producer finishes, so every consumer
    finishes strictly later.  It is the order in which a parallel
    machine completes the nodes.  `max_workers` is unused; it is still
    accepted because callers pass it.
    """
    finish = [t.finish for t in scheduler.simulate(tree, out_bits).timings]
    order = sorted(range(len(finish)), key=finish.__getitem__)
    return evaluate_sequential(tree, message, out_bits, params, order)


def differential_check(tree: NodeTree, message: BitString,
                       out_bits: int = 512,
                       params: SpongeParams = DEFAULT_PARAMS) -> bool:
    """True iff the parallel executor reproduces the sequential digest."""
    a = evaluate_sequential(tree, message, out_bits, params)
    b = evaluate_parallel(tree, message, out_bits, params)
    return a.bits == b.bits and a.total_calls == b.total_calls
