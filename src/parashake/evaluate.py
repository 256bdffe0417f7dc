"""Digest evaluation: the sequential reference path and the schedule
executor that must agree with it bit for bit.

The tree shape is part of the function being computed: two strategies
hashing the same message generally produce different digests.  Within a
fixed tree, the digest is independent of evaluation order.

Both executors assemble each node's f-input with `materialize_node`,
once per node, from the node's layout and what the node tree holds for
it: where its message starts and which nodes produce its chaining
values.  The message is converted to bytes once per evaluation; a
message segment is read as the byte window that holds it, and frame
bits are integers stored on their segments, so assembly is linear in the
tree's size.

`evaluate_sequential` is the oracle.  It checks its node order against
the tree's dependency index (`NodeTree.deps`), so a reference to a node
that is not an earlier one raises `DependencyCycleError` before any node
is evaluated.  Then, node by node, it runs `inner_f` for an inner node
and `xof_output` for the final one.

`evaluate_parallel` runs, on the calling thread, the launches that
`scheduler.launches` expands a schedule into.  Each launch is one
`keccak.absorb_blocks` call with one state per node, so the kernel runs
them as packed lanes.  A caller that has already simulated the tree
passes that `Schedule` in, so the tree is simulated once.  The final
node's squeeze stays scalar.  Scheduling metrics (depth, processors)
come from the simulator, never from wall clocks.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import keccak, scheduler
from .bits import BitString
from .errors import DependencyCycleError, SliceRangeError
from .sakura import FrameBits, MessageBits, NodeTree
from .sponge import (CV_BITS, RATE_BITS, check_out_bits, inner_f, squeeze,
                     xof_output)

# The widest launch of the schedule executor, in states.  A 256 KiB tree
# hashes as fast with a cap of 256 as with 1024, and its peak RSS grows
# with the cap (the packed lanes and masks of one launch); 128 is slower.
# A 256 KiB `ternary` tree has 1922 blocks in its first time unit.
LAUNCH_CAP = 256

_STATE_BYTES = keccak.STATE_BITS // 8


@dataclass(frozen=True)
class Digest:
    bits: BitString
    total_calls: int

    def hex(self) -> str:
        return self.bits.hex()


def materialize_node(tree: NodeTree, nid: int, data: bytes,
                     values: dict) -> BitString:
    """Assemble node `nid`'s bit stream; `data` is the tree's message as
    bytes.  A chaining-value slot whose producer is not in `values` is
    left zero."""
    acc = pos = 0
    offset = tree.offsets[nid]
    for seg in tree.nodes[nid].segments:
        if isinstance(seg, MessageBits):
            end = offset + seg.length
            if end > tree.message_bits:
                raise SliceRangeError(
                    "slice [%d, %d) beyond the %d-bit message"
                    % (offset, end, tree.message_bits))
            window = int.from_bytes(data[offset >> 3:(end + 7) >> 3],
                                    "little")
            acc |= (window >> (offset & 7) & ((1 << seg.length) - 1)) << pos
        elif isinstance(seg, FrameBits):
            acc |= seg.value << pos
        pos += seg.length
    for _, producer, at in tree.deps[nid]:
        if producer in values:
            acc |= values[producer].value << at
    return BitString(acc, pos)


def _check_message(tree: NodeTree, message: BitString) -> None:
    """Raise `SliceRangeError` unless `message` is as long as the message
    the tree was planned for."""
    if len(message) != tree.message_bits:
        raise SliceRangeError("message is %d bits, the tree covers %d"
                              % (len(message), tree.message_bits))


def _check_order(tree: NodeTree, order) -> list:
    deps = tree.deps
    if order is None:
        return list(range(len(deps)))
    order = list(order)
    if sorted(order) != list(range(len(deps))):
        raise DependencyCycleError("order is not a permutation of the nodes")
    seen = set()
    for nid in order:
        for _, producer, _ in deps[nid]:
            if producer not in seen:
                raise DependencyCycleError(
                    "order evaluates node %d before its producer %d"
                    % (nid, producer))
        seen.add(nid)
    return order


def evaluate_sequential(tree: NodeTree, message: BitString,
                        out_bits: int = 512, order=None) -> Digest:
    """Evaluate every node in (any) topological order; the final node is
    squeezed to `out_bits`.  `out_bits` and the message length are
    checked before any node is evaluated.  Ground truth for all
    digests."""
    check_out_bits(out_bits)
    _check_message(tree, message)
    if not tree.nodes[-1].is_final:
        raise ValueError("tree has no final node")
    data = message.to_bytes()
    values = {}
    calls = 0
    for nid in _check_order(tree, order):
        bits = materialize_node(tree, nid, data, values)
        if tree.nodes[nid].is_final:
            values[nid], used = xof_output(bits, out_bits)
        else:
            values[nid], used = inner_f(bits)
        calls += used
    return Digest(values[len(tree.nodes) - 1], calls)


def _place(buf: bytearray, pos: int, cv: bytes) -> None:
    """OR the chaining value `cv` into `buf` at bit `pos`."""
    lo, shift = pos >> 3, pos & 7
    hi = lo + len(cv) + (shift > 0)
    window = (int.from_bytes(buf[lo:hi], "little")
              | int.from_bytes(cv, "little") << shift)
    buf[lo:hi] = window.to_bytes(hi - lo, "little")


def evaluate_parallel(tree: NodeTree, message: BitString,
                      out_bits: int = 512,
                      max_workers: int | None = None,
                      schedule: scheduler.Schedule | None = None) -> Digest:
    """Evaluate the tree by running the launches of
    `scheduler.launches(schedule, LAUNCH_CAP)` in order, on the calling
    thread.

    `schedule` is `scheduler.simulate(tree, out_bits)`, which is computed
    here when it is not given.  A given schedule for another output
    length, or one that fails `scheduler.validate_happens_before`, raises
    `ValueError`.  An `out_bits` below 1, and a message whose length is
    not the tree's, are rejected before any node is absorbed.
    `max_workers` is unused; it is still accepted because callers pass
    it.
    """
    check_out_bits(out_bits)
    nodes = tree.nodes
    if schedule is None:
        schedule = scheduler.simulate(tree, out_bits)
    elif schedule.out_bits != out_bits:
        raise ValueError("schedule is for %d output bits, not %d"
                         % (schedule.out_bits, out_bits))
    elif not scheduler.validate_happens_before(schedule, tree):
        raise ValueError("schedule cannot run this tree")
    if not nodes[-1].is_final:
        raise ValueError("tree has no final node")
    _check_message(tree, message)
    rate = RATE_BITS // 8
    deps = tree.deps
    data = message.to_bytes()
    inputs = {}            # f-input bytes of each node being absorbed
    states = {}            # state of each node between two of its launches
    cvs = {}
    calls = 0
    zero = bytes(_STATE_BYTES)
    for launch in scheduler.launches(schedule, LAUNCH_CAP):
        blocks = []
        for nid, block, count in launch:
            if not block:
                inputs[nid] = bytearray(
                    materialize_node(tree, nid, data, {}).to_bytes())
            buf = inputs[nid]
            for b, producer, pos in deps[nid]:
                if block <= b < block + count:
                    _place(buf, pos, cvs[producer])
            blocks.append(buf[block * rate:(block + count) * rate])
        state = bytearray(b"".join(states.pop(nid, zero)
                                   for nid, _, _ in launch))
        calls += keccak.absorb_blocks(state, b"".join(blocks), rate)
        for i, (nid, block, count) in enumerate(launch):
            own = state[_STATE_BYTES * i:_STATE_BYTES * (i + 1)]
            if block + count < nodes[nid].blocks:
                states[nid] = own
                continue
            del inputs[nid]
            if nodes[nid].is_final:
                digest, used = squeeze(own, out_bits)
                calls += used
            else:
                cvs[nid] = bytes(own[:CV_BITS // 8])
    return Digest(digest, calls)
