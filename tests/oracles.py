"""Independent reference implementations used only to check the package.

Everything here is deliberately written from first principles, with its
own data tables and its own arithmetic, so agreement with the package is
meaningful.  Two exceptions only check the package's own output and are
read by tests alone: the grammar parser, which reads node layouts back,
and `max_single_kangaroo`, a recipe built from the planner's capacity
rule that no strategy plans.
"""

from __future__ import annotations

import random
import struct

import networkx as nx

from parashake import keccak
from parashake.bits import BitString
from parashake.errors import GrammarError, TooManyChainingValues
from parashake.planner import (_fill, _kangaroo_caps, _message_slots,
                               _own_capacity)
from parashake.sakura import (CV_BITS, MAX_CVS, RATE_BITS, ChainingHop,
                              CVSlot, FrameBits, HopTree, MessageBits,
                              MessageHop, NodeLayout, NodeTree,
                              validate_node_tree)
from parashake.scheduler import NodeTiming, Schedule
from parashake.sponge import inner_f, xof_output

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


_STATE = struct.Struct("<25Q")


def keccak_f(lanes) -> list:
    """24-round Keccak-f[1600] on 25 unsigned 64-bit lanes (x + 5*y order),
    through the package's `keccak.permute`.

    Pure function: returns a new list, the input is unchanged.
    """
    buf = bytearray(_STATE.pack(*lanes))
    keccak.permute(buf)
    return list(_STATE.unpack(buf))


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
# Costs in closed form: node sizes and RawSHAKE256 calls.


def node_bit_cost(role: str, kind: str, l: int = 0, n_cv: int = 0) -> int:
    """Sakura-coded node size, excluding the 4 suffix/pad bits.

    role is 'inner' or 'final'; kind is 'message_only', 'chaining_only'
    or 'kangaroo'.  For kinds with a chaining hop the size is
    l [+2] + n_cv*512 + (floor(log256(n_cv)) + 1)*8 + 27 (inner) or
    + 26 (final); a lone message hop costs l+3 / l+2.
    """
    if role not in ("inner", "final"):
        raise ValueError("role must be inner or final")
    marker = 3 if role == "inner" else 2
    if kind == "message_only":
        if l < 0:
            raise ValueError("negative message length")
        return l + marker
    if kind not in ("chaining_only", "kangaroo"):
        raise ValueError("unknown node kind %r" % kind)
    if n_cv < 1:
        raise ValueError("chaining hop needs at least one value")
    if n_cv > MAX_CVS:
        raise TooManyChainingValues("chaining hop must hold 1..255 values")
    count_bytes = (n_cv.bit_length() - 1) // 8 + 2
    chain = n_cv * CV_BITS + 8 * count_bytes + 16 + 1
    if kind == "chaining_only":
        return chain + marker - 1
    return l + 2 + chain + marker - 1


def rawshake_cost(message_bits: int, digest_bits: int) -> int:
    """Permutation calls of unredefined RawSHAKE256 on an l-bit input.

    ceil((l+4)/r) + ceil(d/r) - 1: the 4 covers the domain suffix and the
    minimal multi-rate padding; the first r output bits come with the last
    absorb, and each further r bits cost one squeeze call.
    """
    if message_bits < 0 or digest_bits < 1:
        raise ValueError("invalid cost query")
    r = RATE_BITS
    return (message_bits + 4 + r - 1) // r + (digest_bits - 1) // r


# ---------------------------------------------------------------------------
# Bits written as '0'/'1' strings in stream order (index 0 first).


def from01(text: str) -> BitString:
    if not set(text) <= {"0", "1"}:
        raise ValueError("invalid bit characters in %r" % text)
    return BitString(int(text[::-1] or "0", 2), len(text))


def to01(value: int, width: int) -> str:
    """The low `width` bits of `value`, least significant first."""
    return format(value, "0%db" % width)[::-1] if width else ""


def frame(text: str) -> FrameBits:
    bits = from01(text)
    return FrameBits(bits.value, bits.length)


def text01(seg: FrameBits) -> str:
    """The inverse of `frame`."""
    return to01(seg.value, seg.length)


def is_pad(seg) -> bool:
    """Whether `seg` is an alignment pad '1 0^z' with z >= 1.  With z = 0
    it is the '1' that also opens every chaining hop not aligned."""
    return isinstance(seg, FrameBits) and seg.value == 1 and seg.length > 1


# ---------------------------------------------------------------------------
# The tree coding, written from its rules (Sakura, ePrint 2013/231, with
# kangaroo hopping as in KangarooTwelve, ePrint 2016/770).  A node is a
# '0'/'1' string built by recursion on the hop tree; nothing here reads a
# node layout.
#
# * A node holds a kangaroo chain: its first hop (a message hop, or a
#   chaining hop that absorbs no child), then each chaining hop whose
#   child 1 is the chain so far.
# * A message hop is its message bits, then '1'.
# * A chaining hop is the chaining values of its other children, in order,
#   then the coded count: the count byte, a length byte of 1 (bytes least
#   significant bit first), sixteen '1's for no interleaving, then '0'.
# * Each chaining hop but a node's first is preceded by '1 0^z'.  z is 0
#   unless the hop is aligned; then the hop, and the node's closing bits
#   if it is the last hop, end flush on a rate boundary.
# * A node closes with '1' if final and '10' if inner, the suffix '11' and
#   the pad '1 0^z 1' up to a rate boundary.
# * The message is read in stream order: a node's own message hop, then
#   the subtrees of its chaining values, innermost hop first.
# * A chaining value is the first 512 bits of the state that absorbed an
#   inner node.


def sakura_node(anchor, is_final: bool, message: str, at: int = 0) -> tuple:
    """The bits of the node whose kangaroo chain ends at hop `anchor`,
    its message hop read from bit `at` of `message`, a '0'/'1' string.
    Returns them and the bit after the subtree's message."""
    chain = [anchor]
    while isinstance(chain[-1], ChainingHop) and chain[-1].kangaroo_first:
        chain.append(chain[-1].children[0])
    chain.reverse()
    bits = ""
    if isinstance(chain[0], MessageHop):
        bits = message[at:at + chain[0].length] + "1"
        at += chain[0].length
        chain.pop(0)
    closing = ("1" if is_final else "10") + "11" + "1"
    for i, hop in enumerate(chain):
        values = hop.children[1:] if hop.kangaroo_first else hop.children
        hop_bits = ""
        for child in values:
            child_bits, at = sakura_node(child, False, message, at)
            cv, _ = inner_f(from01(child_bits))
            hop_bits += to01(cv.value, CV_BITS)
        hop_bits += to01(len(values), 8) + to01(1, 8) + "1" * 16 + "0"
        if bits:                        # not the node's first hop
            end = len(bits) + 1 + len(hop_bits)
            if i == len(chain) - 1:
                end += len(closing) + 1
            bits += "1" + "0" * (-end % RATE_BITS if hop.aligned else 0)
        bits += hop_bits
    bits += closing
    return bits + "0" * (-(len(bits) + 1) % RATE_BITS) + "1", at


def sakura_final_node(tree: HopTree, message: BitString) -> BitString:
    """The final node of `tree` over `message`, chaining values filled."""
    bits, end = sakura_node(tree.root, True, to01(message.value,
                                                  len(message)))
    if end != len(message):
        raise ValueError("the tree reads %d of %d message bits"
                         % (end, len(message)))
    return from01(bits)


def sakura_digest(tree: HopTree, message: BitString,
                  out_bits: int) -> BitString:
    return xof_output(sakura_final_node(tree, message), out_bits)[0]


# ---------------------------------------------------------------------------
# The grammar parser: reads a node layout back under the coding rules.


def validate_grammar(node: NodeLayout) -> tuple[bool, str]:
    """Parse the node right to left under the tree coding rules.

    Returns (ok, diagnosis).  Frame bits are checked exactly: markers,
    suffix, multi-rate pad, alignment pads, the coded chaining-value
    count against the actual slot count, and the interleaving marker.
    """
    frame = mask = 0        # the frame bits, and which positions they fill
    messages, cvs = {}, {}  # end position -> start of each such segment
    p = 0
    for seg in node.segments:
        if isinstance(seg, MessageBits):
            messages[p + seg.length] = p
        elif isinstance(seg, CVSlot):
            cvs[p + seg.length] = p
        elif isinstance(seg, FrameBits):
            frame |= seg.value << p
            mask |= ((1 << seg.length) - 1) << p
        else:
            raise TypeError("unknown segment %r" % (seg,))
        p += seg.length
    stops = frame | mask ^ ((1 << p) - 1)   # every bit but a frame '0'
    # p counts the bits not yet read; the next one read is bit p - 1

    def fail(msg: str):
        raise GrammarError(msg)

    def take_frame(expect: int | None = None) -> int:
        nonlocal p
        if p <= 0 or not mask >> (p - 1) & 1:
            fail("expected a frame bit")
        p -= 1
        bit = frame >> p & 1
        if expect is not None and bit != expect:
            fail("frame bit '%d' where '%d' was required" % (bit, expect))
        return bit

    def skip_zeros() -> None:
        nonlocal p
        p = (stops & ((1 << p) - 1)).bit_length()

    try:
        # backwards: the multi-rate pad '1 0^z 1', the suffix '11' and the
        # node marker ('1' final, '10' inner)
        take_frame(1)
        skip_zeros()
        for expect in (1, 1, 1, 1) if node.is_final else (1, 1, 1, 0, 1):
            take_frame(expect)
        # hops
        while True:
            if p <= 0:
                fail("node has no hops")
            if not mask >> (p - 1) & 1:
                fail("unexpected %s token inside frame position"
                     % ("m" if p in messages else "c"))
            if take_frame():
                p = messages.get(p, p)  # message hop terminator, message
                if p > 0:
                    fail("message hop is not at the start of the node")
                break
            if p < 32 or mask >> (p - 32) & 0xFFFFFFFF != 0xFFFFFFFF:
                fail("expected a frame bit")
            p -= 32
            coded = frame >> p & 0xFFFFFFFF
            count = coded & 0xFF
            if coded >> 16 != 0xFFFF:
                fail("bad interleaving marker")
            if coded >> 8 & 0xFF != 1:
                fail("bad coded-count length byte")
            if not 1 <= count <= MAX_CVS:
                fail("coded chaining-value count out of range")
            got = 0
            while p in cvs:
                p = cvs.pop(p)      # popped: a zero-length slot ends the loop
                got += 1
            if got != count:
                fail("coded count %d disagrees with %d slots" % (count, got))
            if p <= 0:
                break               # chaining hop opens the node
            skip_zeros()
            take_frame(1)           # pad before this hop
    except GrammarError as exc:
        return False, str(exc)
    return True, "ok"


def validate_tree(tree: NodeTree, fragment: bool = False) -> tuple:
    """`validate_node_tree`, after parsing every node with
    `validate_grammar`; (ok, diagnosis)."""
    for nid, node in enumerate(tree.nodes):
        ok, why = validate_grammar(node)
        if not ok:
            return False, "node %d: %s" % (nid, why)
    return validate_node_tree(tree, fragment)


# ---------------------------------------------------------------------------
# The subtree catalogue and the model choice, from the paper's table.


# (id, message bits, processors, time units), the paper's subtree table
# written out here, not read from the planner
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


def max_single_kangaroo(k: int, as_final: bool = False) -> tuple:
    """Maximize message bits through one kangaroo hop in a node of k
    blocks.

    Chaining values pack the tail of the node, as many as start past its
    first block (at most MAX_CVS); each comes from the full message-only
    leaf `_kangaroo_caps` puts behind it.  Returns (root hop, total
    message bits)."""
    if k < 2:
        raise ValueError("the node must span at least 2 blocks")
    # most values with _own_capacity(k, n) >= RATE_BITS, CV_BITS per value
    n_cv = min(MAX_CVS, (_own_capacity(k, 1) - RATE_BITS) // CV_BITS + 1)
    caps = _kangaroo_caps(k, n_cv)
    total = sum(caps) + as_final
    return _fill(total, _message_slots(caps, as_final)), total


# ---------------------------------------------------------------------------
# Hop-tree rewrites.


def merge_chains(tree: HopTree) -> HopTree:
    """`tree` with each node's kangaroo chain rewritten as one chaining
    hop, not aligned, that holds the chain's chaining values innermost
    hop first.  Its nodes are those that `sakura-plan/2` documents
    marked "compacted" were mapped to: the first hop, then a single
    merged chaining hop behind it."""
    def node(hop):
        chain = []
        while isinstance(hop, ChainingHop) and hop.kangaroo_first:
            chain.append(hop)
            hop = hop.children[0]
        if isinstance(hop, ChainingHop):
            hop = ChainingHop(tuple(node(c) for c in hop.children),
                              kangaroo_first=False, aligned=hop.aligned)
        if not chain:
            return hop
        return ChainingHop((hop,) + tuple(node(c) for link in reversed(chain)
                                          for c in link.cv_children))

    return HopTree(node(tree.root))


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
        for pos, producer in zip(node.cv_positions(), tree.producers[nid]):
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
    timings = [NodeTiming(tuple(range(1, node.blocks + 1)))
               for node in tree.nodes]
    depth = max(t.finish for t in timings)
    return Schedule(tuple(timings), depth, len(tree.nodes), 0,
                    sum(n.blocks for n in tree.nodes), 0, out_bits)


# ---------------------------------------------------------------------------
# Random topological orders.


def random_topological_order(tree: NodeTree, rng: random.Random) -> list:
    deps = {nid: set(producers)
            for nid, producers in enumerate(tree.producers)}
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
