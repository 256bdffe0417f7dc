"""Independent reference implementations used only to check the package.

Everything here is deliberately written from first principles, with its
own data tables and its own arithmetic, so agreement with the package is
meaningful.
"""

from __future__ import annotations

import random

import networkx as nx

from parashake.bits import BitString
from parashake.sakura import RATE_BITS, FrameBits, NodeTree
from parashake.scheduler import NodeTiming, Schedule
# the model-choice brute force, with its own table, is the selftest's
from parashake.selftest import brute_force_model_choice  # noqa: F401

# ---------------------------------------------------------------------------
# Bit-level Keccak-f[1600], following the step mappings over A[x][y][z].


def _rc_bit(t: int) -> int:
    """Output of the degree-8 LFSR x^8+x^6+x^5+x^4+1 at step t."""
    if t % 255 == 0:
        return 1
    reg = [1, 0, 0, 0, 0, 0, 0, 0]
    for _ in range(t % 255):
        reg = [0] + reg
        reg[0] ^= reg[8]
        reg[4] ^= reg[8]
        reg[5] ^= reg[8]
        reg[6] ^= reg[8]
        reg = reg[:8]
    return reg[0]


def _round_constant_bits(round_index: int) -> dict:
    bits = {}
    for j in range(7):
        bits[(1 << j) - 1] = _rc_bit(j + 7 * round_index)
    return bits


def keccak_f1600_bitwise(state_bits: list) -> list:
    """Keccak-f[1600] on a list of 1600 bits, S[64*(5y+x)+z] = A[x][y][z]."""
    w = 64
    a = [[[state_bits[w * (5 * y + x) + z] for z in range(w)]
          for y in range(5)] for x in range(5)]
    for rnd in range(24):
        # theta
        c = [[a[x][0][z] ^ a[x][1][z] ^ a[x][2][z] ^ a[x][3][z] ^ a[x][4][z]
              for z in range(w)] for x in range(5)]
        d = [[c[(x - 1) % 5][z] ^ c[(x + 1) % 5][(z - 1) % w]
              for z in range(w)] for x in range(5)]
        a = [[[a[x][y][z] ^ d[x][z] for z in range(w)] for y in range(5)]
             for x in range(5)]
        # rho
        b = [[list(a[x][y]) for y in range(5)] for x in range(5)]
        x, y = 1, 0
        for t in range(24):
            shift = (t + 1) * (t + 2) // 2
            b[x][y] = [a[x][y][(z - shift) % w] for z in range(w)]
            x, y = y, (2 * x + 3 * y) % 5
        a = b
        # pi
        a = [[a[(x + 3 * y) % 5][x] for y in range(5)] for x in range(5)]
        # chi
        a = [[[a[x][y][z] ^ ((a[(x + 1) % 5][y][z] ^ 1) & a[(x + 2) % 5][y][z])
               for z in range(w)] for y in range(5)] for x in range(5)]
        # iota
        for z, bit in _round_constant_bits(rnd).items():
            a[0][0][z] ^= bit
    return [a[x][y][z]
            for y in range(5) for x in range(5) for z in range(w)]


def state_from_bits(bits: BitString) -> list:
    """FIPS 202 mapping of a 1600-bit string onto the 25 lanes."""
    if len(bits) != 1600:
        raise ValueError("state must be exactly 1600 bits")
    mask = (1 << 64) - 1
    return [(bits.value >> (64 * i)) & mask for i in range(25)]


def state_to_bits(lanes) -> BitString:
    """Inverse of `state_from_bits`."""
    value = 0
    for i, lane in enumerate(lanes):
        if lane >> 64:
            raise ValueError("lane wider than 64 bits")
        value |= lane << (64 * i)
    return BitString(value, 1600)


# ---------------------------------------------------------------------------
# Bits written as '0'/'1' strings in stream order (index 0 first).


def from01(text: str) -> BitString:
    value = 0
    for i, ch in enumerate(text):
        if ch == "1":
            value |= 1 << i
        elif ch != "0":
            raise ValueError("invalid bit character %r" % ch)
    return BitString(value, len(text))


def frame(text: str) -> FrameBits:
    bits = from01(text)
    return FrameBits(bits.value, bits.length)


def text01(seg: FrameBits) -> str:
    """The inverse of `frame`."""
    return "".join(str(seg.value >> i & 1) for i in range(seg.length))


def is_pad(seg) -> bool:
    """Whether `seg` is an alignment pad '1 0^z' with z >= 1.  With z = 0
    it is the '1' that also opens every chaining hop not aligned."""
    return isinstance(seg, FrameBits) and seg.value == 1 and seg.length > 1


# ---------------------------------------------------------------------------
# Longest-path depth over the block-dependency DAG.


def longest_path_depth(tree: NodeTree) -> int:
    """Depth as the longest chain of unit-time blocks, via networkx."""
    g = nx.DiGraph()
    last_block = {}
    for nid, node in enumerate(tree.nodes):
        for b in range(node.blocks):
            g.add_node((nid, b))
            if b:
                g.add_edge((nid, b - 1), (nid, b))
        last_block[nid] = node.blocks - 1
    for nid, node in enumerate(tree.nodes):
        for pos, producer in node.cv_positions():
            g.add_edge((producer, last_block[producer]),
                       (nid, pos // RATE_BITS))
    order = list(nx.topological_sort(g))
    dist = {}
    for v in order:
        dist[v] = 1 + max((dist[u] for u in g.predecessors(v)), default=0)
    return max(dist.values())


# ---------------------------------------------------------------------------
# Rigid schedule: one block per unit with no stalls, for violation tests.


def rigid_schedule(tree: NodeTree, out_bits: int = 512) -> Schedule:
    timings = []
    for nid, node in enumerate(tree.nodes):
        timings.append(NodeTiming(nid, tuple(range(1, node.blocks + 1)), 0))
    depth = max(t.finish for t in timings)
    return Schedule(tuple(timings), depth, len(tree.nodes), 0,
                    sum(n.blocks for n in tree.nodes), 0, out_bits)


# ---------------------------------------------------------------------------
# Random topological orders.


def random_topological_order(tree: NodeTree, rng: random.Random) -> list:
    deps = {nid: {p for _, p in node.cv_positions()}
            for nid, node in enumerate(tree.nodes)}
    ready = [nid for nid, d in deps.items() if not d]
    done = set()
    order = []
    while ready:
        nid = ready.pop(rng.randrange(len(ready)))
        order.append(nid)
        done.add(nid)
        for other, d in deps.items():
            if other not in done and other not in ready and d <= done:
                ready.append(other)
    assert len(order) == len(tree.nodes)
    return order
