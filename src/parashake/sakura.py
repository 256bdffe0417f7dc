"""Sakura tree coding: hops, nodes, frame bits and size formulas.

A hop is a logical unit (message bits or chaining values); a node is a
fully framed f-input.  Kangaroo hopping encodes a hop followed by
chaining hops into a single node.  Every node carries its own suffix and
padding bits, so the inner function absorbs exact rate multiples and
performs no padding of its own.

Layout conventions:

* Frame bits are integers stored on their segments: bit i of a
  segment's `value` is its i-th bit in stream order, so multi-bit fields
  are bytes in stream order, least-significant bit first within each
  byte.  The coded chaining-value count is two bytes (value, then a
  length byte of 1); the no-interleaving marker is two bytes of all
  ones.
* Each node ends with marker bits ('1' for the final node, '10' for
  inner nodes), the suffix '11' and the multi-rate pad '1 0^z 1'.  Nodes
  designed rate-full have z = 0, i.e. they end with the literal 1111.
* Every chaining hop after a node's first hop is preceded by frame bits
  '1 0^z'.  z is 0 unless the hop is flagged `aligned`: then the z zeros
  pad it flush against the end of a fresh rate block, so each one is
  absorbed by a single permutation call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice, repeat

from .errors import (BlockAlignmentError, DependencyCycleError, GrammarError,
                     SliceRangeError, TooManyChainingValues)
from .sponge import CV_BITS, RATE_BITS

MAX_CVS = 255

_NO_INTERLEAVING = 0xFFFF


def chaining_frame_bits(n_cv: int) -> "FrameBits":
    """Frame tail of a chaining hop: coded count (the count byte, then a
    length byte of 1), the interleaving marker and '0'."""
    if not 1 <= n_cv <= MAX_CVS:
        raise TooManyChainingValues("chaining hop must hold 1..255 values")
    return FrameBits(n_cv | 1 << 8 | _NO_INTERLEAVING << 16, 33)


# ---------------------------------------------------------------------------
# Hops

@dataclass(frozen=True)
class MessageHop:
    """A slice of the global message: offset and length in bits."""
    offset: int
    length: int

    def __post_init__(self):
        if self.offset < 0 or self.length < 0:
            raise SliceRangeError("negative message slice")


@dataclass(frozen=True)
class ChainingHop:
    """A hop holding the chaining values of its children.

    Child 1 comes first in `children`.  With `kangaroo_first` it is
    encoded into the same node as this hop; all remaining children
    contribute 512-bit chaining values.  `aligned` nodes place the hop in
    its own rate block (used by composition layers, never by the first
    hop of a node).
    """
    children: tuple
    kangaroo_first: bool = True
    aligned: bool = False

    def __post_init__(self):
        n_cv = self.n_cv
        if n_cv < 1:
            raise GrammarError("chaining hop needs at least one chaining value")
        if n_cv > MAX_CVS:
            raise TooManyChainingValues("chaining hop must hold 1..255 values")

    @property
    def cv_children(self) -> tuple:
        return self.children[1:] if self.kangaroo_first else self.children

    @property
    def n_cv(self) -> int:
        return len(self.children) - (1 if self.kangaroo_first else 0)


@dataclass(frozen=True)
class HopTree:
    """A hop tree; the root is the final hop."""
    root: object
    message_bits: int


def iter_hops(tree: HopTree):
    """Yield (index, hop) pairs; the final hop has the empty index and
    child i of a hop indexed alpha has index alpha + (i-1,)."""
    stack = [((), tree.root)]
    while stack:
        index, hop = stack.pop()
        yield index, hop
        if isinstance(hop, ChainingHop):
            for i in range(len(hop.children) - 1, -1, -1):
                stack.append((index + (i,), hop.children[i]))


# ---------------------------------------------------------------------------
# Node layout segments

@dataclass(frozen=True)
class MessageBits:
    offset: int
    length: int


@dataclass(frozen=True)
class FrameBits:
    """`length` frame bits; bit i of `value` is stream bit i."""
    value: int
    length: int


@dataclass(frozen=True)
class CVSlot:
    producer: int = -1
    length: int = CV_BITS


@dataclass(frozen=True)
class NodeLayout:
    """One fully framed f-input as an ordered list of segments."""
    segments: tuple
    is_final: bool
    total_bits: int = field(init=False, default=0)

    def __post_init__(self):
        total = sum(s.length for s in self.segments)
        if total <= 0 or total % RATE_BITS:
            raise BlockAlignmentError(
                "node is %d bits, not a positive multiple of %d"
                % (total, RATE_BITS))
        object.__setattr__(self, "total_bits", total)

    @property
    def blocks(self) -> int:
        return self.total_bits // RATE_BITS

    def cv_positions(self):
        """Yield (bit_position, producer) for every chaining-value slot."""
        pos = 0
        for seg in self.segments:
            if isinstance(seg, CVSlot):
                yield pos, seg.producer
            pos += seg.length

    def message_slices(self):
        pos = 0
        for seg in self.segments:
            if isinstance(seg, MessageBits):
                yield pos, seg.offset, seg.length
            pos += seg.length


@dataclass(frozen=True)
class NodeTree:
    """Topologically ordered nodes; in a complete plan the final node is
    last.  Fragments (inner-rooted subtrees) have no final node."""
    nodes: tuple
    message_bits: int

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @cached_property
    def deps(self) -> tuple:
        """Per node, a (block, producer, bit position) triple for every
        chaining-value slot, in slot order.  A value spanning several blocks
        binds at the first block it touches; its later blocks are absorbed
        afterwards anyway.
        Raises `DependencyCycleError` unless every producer is an earlier
        node.
        """
        index = []
        for nid, node in enumerate(self.nodes):
            slots = []
            for pos, producer in node.cv_positions():
                if not (isinstance(producer, int) and 0 <= producer < nid):
                    raise DependencyCycleError(
                        "node %d consumes value of node %r, "
                        "which is not an earlier node" % (nid, producer))
                slots.append((pos // RATE_BITS, producer, pos))
            index.append(tuple(slots))
        return tuple(index)


# ---------------------------------------------------------------------------
# Size formulas

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


# ---------------------------------------------------------------------------
# Node encoding

def encode_node(first, chain=(), is_final: bool = False,
                producer_ids=None) -> NodeLayout:
    """Lay out one node from a kangaroo chain, in stream order.

    `first` is the node's first hop (message or chaining hop); `chain`
    holds the subsequent chaining hops, outermost last.  `producer_ids`
    is a sequence of one node id per chaining-value slot, in order; None
    gives placeholders, and any other count raises `GrammarError`.  Each
    hop flagged `aligned` is packed flush against the end of a fresh rate
    block.
    """
    hops = list(chain)
    for hop in hops:
        if not isinstance(hop, ChainingHop):
            raise GrammarError("only chaining hops may extend a node")
        if not hop.kangaroo_first:
            raise GrammarError("chain hops must absorb their first child")
    marker = 1 if is_final else 2
    tail = marker + 4       # the marker, the suffix '11', the pad's two '1's
    if isinstance(first, MessageHop):
        segs = []
        if first.length:
            segs.append(MessageBits(first.offset, first.length))
        segs.append(FrameBits(1, 1))
        pos = first.length + 1
    elif not isinstance(first, ChainingHop):
        raise GrammarError("unknown hop %r" % (first,))
    elif first.kangaroo_first:
        raise GrammarError("the first hop of a node cannot absorb a child")
    else:
        segs, pos = [], 0
        hops.insert(0, first)
    ids = repeat(-1) if producer_ids is None else iter(producer_ids)
    slots = 0
    for i, hop in enumerate(hops):
        frame = chaining_frame_bits(hop.n_cv)
        size = hop.n_cv * CV_BITS + frame.length
        if hop is not first:
            zeros = 0
            if hop.aligned:     # end flush: the hop, and the tail if last
                end = pos + 1 + size + (tail if i == len(hops) - 1 else 0)
                zeros = -end % RATE_BITS
            segs.append(FrameBits(1, 1 + zeros))
            pos += 1 + zeros
        segs += map(CVSlot, islice(ids, hop.n_cv))
        slots += hop.n_cv
        segs.append(frame)
        pos += size
    if producer_ids is not None and len(producer_ids) != slots:
        raise GrammarError("%d producer ids for %d chaining-value slots"
                           % (len(producer_ids), slots))
    z = -(pos + tail) % RATE_BITS
    segs.append(FrameBits(1 | 0b111 << marker | 1 << marker + 3 + z, tail + z))
    return NodeLayout(tuple(segs), is_final)


# ---------------------------------------------------------------------------
# Hop tree -> node tree

def map_hop_tree_to_node_tree(tree: HopTree,
                              root_final: bool = True) -> NodeTree:
    """Deterministically expand a hop tree into its tree of nodes: one
    node per kangaroo chain, one chaining hop per hop of the chain.  The
    mapping visits producers before consumers, so node ids are
    topologically ordered and the root node comes last.  A message hop
    reaching past `tree.message_bits` raises `SliceRangeError`.
    """
    nodes = []
    _map_chain(tree.root, root_final, tree.message_bits, nodes)
    return NodeTree(tuple(nodes), tree.message_bits)


def _map_chain(anchor, is_final: bool, message_bits: int, nodes: list) -> int:
    """Append the node of the chain ending at `anchor`; return its id."""
    chain_rev = [anchor]
    cur = anchor
    while isinstance(cur, ChainingHop) and cur.kangaroo_first:
        cur = cur.children[0]
        chain_rev.append(cur)
    hops = chain_rev[::-1]              # first hop ... anchor
    if isinstance(cur, MessageHop) and cur.offset + cur.length > message_bits:
        raise SliceRangeError("message slice beyond message end")
    producer_ids = []
    for hop in hops:
        if isinstance(hop, ChainingHop):
            for child in hop.cv_children:
                producer_ids.append(_map_chain(child, False, message_bits,
                                               nodes))
    nodes.append(encode_node(hops[0], hops[1:], is_final,
                             producer_ids=producer_ids))
    return len(nodes) - 1


# ---------------------------------------------------------------------------
# Validation

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
            if coded >> 16 != _NO_INTERLEAVING:
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


def validate_node_tree(tree: NodeTree,
                       fragment: bool = False) -> tuple[bool, str]:
    """Structural checks over a whole node tree.

    Verifies per-node grammar, the single-final-node rule, topological
    chaining-value references, single use of every inner node's value,
    and that message slices partition the message exactly.
    """
    if not tree.nodes:
        return False, "empty tree"
    for nid, node in enumerate(tree.nodes):
        ok, why = validate_grammar(node)
        if not ok:
            return False, "node %d: %s" % (nid, why)
        if node.is_final != (not fragment and nid == len(tree.nodes) - 1):
            return False, "node %d has the wrong final flag" % nid
    try:
        deps = tree.deps
    except DependencyCycleError as exc:
        return False, str(exc)
    uses = [0] * len(tree.nodes)
    for node_deps in deps:
        for _, producer, _ in node_deps:
            uses[producer] += 1
    for nid, n in enumerate(uses[:-1]):
        if n != 1:
            return False, "node %d value used %d times" % (nid, n)
    if uses[-1] != 0:
        return False, "root node value must be unused"
    slices = sorted((offset, length) for node in tree.nodes
                    for _, offset, length in node.message_slices())
    pos = 0
    for offset, length in slices:
        if offset != pos:
            return False, "message gap or overlap at bit %d" % pos
        pos += length
    if pos != tree.message_bits:
        return False, "message covers %d of %d bits" % (pos, tree.message_bits)
    return True, "ok"
