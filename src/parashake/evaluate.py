"""Digest evaluation: the sequential reference path and the schedule
executor that must agree with it bit for bit.

The tree shape is part of the function being computed: two strategies
hashing the same message generally produce different digests.  Within a
fixed tree, the digest is independent of evaluation order.

Both executors assemble each node's f-input with `materialize_node`,
once per node.  The message is converted to bytes once per evaluation;
a message segment is read as the byte window that holds it, and frame
bits are integers stored on their segments, so assembly is linear in the
tree's size.

`evaluate_sequential` is the oracle.  It checks its node order against
the tree's dependency index (`NodeTree.deps`), so a reference to a node
that is not an earlier one raises `DependencyCycleError` before any node
is evaluated.  Then, node by node, it runs `inner_f` for an inner node
and `xof_output` for the final one.

`evaluate_parallel` runs the schedule of `scheduler.simulate`, one
simulated time unit after the other, on the calling thread.  A caller
that has already simulated the tree passes that `Schedule` in, so the
tree is simulated once.  The executor absorbs every (node, block) pair
at the unit where the simulator ends that block.  The blocks of one unit
go to `keccak.absorb_blocks` together, as one state per node in launches
of at most `LAUNCH_CAP` states, so the kernel runs them as packed lanes.
A maximal run of units in which one node absorbs alone (the whole of a
`single` tree, the tail of a root) is one width-1 launch of all its
blocks, so such a node costs what it costs the oracle.  A chaining value
is ORed into its consumer's f-input before the launch that holds the
block `NodeTree.deps` binds it to; in a width-1 run nothing else runs,
so every producer of the run finished before it began.  The final
node's squeeze stays scalar.  Scheduling metrics (depth, processors)
come from the simulator, never from wall clocks.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import keccak, scheduler
from .bits import BitString
from .errors import DependencyCycleError, SliceRangeError
from .sakura import CVSlot, FrameBits, MessageBits, NodeLayout, NodeTree
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


def materialize_node(node: NodeLayout, data: bytes, message_bits: int,
                     values: dict) -> BitString:
    """Assemble the node's bit stream from its segments.

    `data` is the `message_bits`-bit message as bytes.  A chaining-value
    slot whose producer is not in `values` is left zero.
    """
    acc = 0
    pos = 0
    for seg in node.segments:
        if isinstance(seg, MessageBits):
            end = seg.offset + seg.length
            if end > message_bits:
                raise SliceRangeError(
                    "slice [%d, %d) beyond the %d-bit message"
                    % (seg.offset, end, message_bits))
            window = int.from_bytes(data[seg.offset >> 3:(end + 7) >> 3],
                                    "little")
            acc |= (window >> (seg.offset & 7)
                    & ((1 << seg.length) - 1)) << pos
        elif isinstance(seg, CVSlot):
            cv = values.get(seg.producer)
            if cv is not None:
                acc |= cv.value << pos
        elif isinstance(seg, FrameBits):
            acc |= seg.value << pos
        else:
            raise TypeError("unknown segment %r" % (seg,))
        pos += seg.length
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
        node = tree.nodes[nid]
        bits = materialize_node(node, data, len(message), values)
        if node.is_final:
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


def _launches(units: list):
    """Yield the launches of a schedule, in order, as lists of (node id,
    first block, block count).  A unit of several blocks goes out in
    launches of at most `LAUNCH_CAP` states of one block each.  A maximal
    run of units that each hold one block of the same node goes out as
    one launch of all the run's blocks."""
    u = 0
    while u < len(units):
        unit = units[u]
        u += 1
        if len(unit) != 1:
            for lo in range(0, len(unit), LAUNCH_CAP):
                yield [(nid, block, 1)
                       for nid, block in unit[lo:lo + LAUNCH_CAP]]
            continue
        nid, block = unit[0]
        first = u
        while (u < len(units) and len(units[u]) == 1
               and units[u][0][0] == nid):
            u += 1
        yield [(nid, block, 1 + u - first)]


def evaluate_parallel(tree: NodeTree, message: BitString,
                      out_bits: int = 512,
                      max_workers: int | None = None,
                      schedule: scheduler.Schedule | None = None) -> Digest:
    """Evaluate the tree as the simulated schedule runs it: each time
    unit's blocks in launches of at most `LAUNCH_CAP` states, and each
    run of units in which one node absorbs alone in one width-1 launch,
    on the calling thread.

    `schedule` is `scheduler.simulate(tree, out_bits)`, which is computed
    here when it is not given.  A schedule for another output length, or
    whose timings do not match the tree's nodes and their block counts,
    raises `ValueError`.  A block
    holding a chaining value ends at least one unit after its producer
    finishes, so every value is ready when its block runs.  An `out_bits`
    below 1, and a message whose length is not the tree's, are rejected
    before any node is absorbed.  `max_workers` is unused; it is still
    accepted because callers pass it.
    """
    check_out_bits(out_bits)
    nodes = tree.nodes
    if schedule is None:
        schedule = scheduler.simulate(tree, out_bits)
    elif schedule.out_bits != out_bits:
        raise ValueError("schedule is for %d output bits, not %d"
                         % (schedule.out_bits, out_bits))
    timings = schedule.timings
    if len(timings) != len(nodes) or any(
            len(t.block_end) != node.blocks
            for t, node in zip(timings, nodes)):
        raise ValueError("schedule does not match the tree's nodes")
    if not nodes[-1].is_final:
        raise ValueError("tree has no final node")
    _check_message(tree, message)
    rate = RATE_BITS // 8
    units = [[] for _ in range(max(t.finish for t in timings) + 1)]
    for t in timings:
        for block, end in enumerate(t.block_end):
            units[end].append((t.node_id, block))
    binds = {}
    for nid, node_deps in enumerate(tree.deps):
        for block, producer, pos in node_deps:
            binds.setdefault((nid, block), []).append((producer, pos))
    data = message.to_bytes()
    inputs = {}            # f-input bytes of each node being absorbed
    states = {}            # state of each node between two of its launches
    cvs = {}
    calls = 0
    zero = bytes(_STATE_BYTES)
    for launch in _launches(units):
        blocks = []
        for nid, block, count in launch:
            if not block:
                inputs[nid] = bytearray(materialize_node(
                    nodes[nid], data, len(message), {}).to_bytes())
            buf = inputs[nid]
            for b in range(block, block + count):
                for producer, pos in binds.get((nid, b), ()):
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

