"""Sakura tree coding: hops, nodes, frame bits, the mapping, validation.

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

`encode_node` is the one writer of this coding, and `validate_node_tree`
checks only how nodes fit into a tree.  The coding's checks live in
`tests/oracles.py`: a parser that reads node layouts back, and an oracle
that re-derives every node's bits from the rules above.
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
    """`length` bits of the message, from where the hops before it end."""
    length: int

    def __post_init__(self):
        if self.length < 0:
            raise SliceRangeError("negative message slice")

    @property
    def message_bits(self) -> int:
        return self.length


@dataclass(frozen=True)
class ChainingHop:
    """A hop holding the chaining values of its children.

    Child 1 comes first in `children`.  With `kangaroo_first` it is
    encoded into the same node as this hop; all remaining children
    contribute 512-bit chaining values.  `aligned` nodes place the hop in
    its own rate block (used by composition layers, never by the first
    hop of a node).  `message_bits` is the sum over the children.
    """
    children: tuple
    kangaroo_first: bool = True
    aligned: bool = False
    message_bits: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n_cv = self.n_cv
        if n_cv < 1:
            raise GrammarError("chaining hop needs at least one chaining value")
        if n_cv > MAX_CVS:
            raise TooManyChainingValues("chaining hop must hold 1..255 values")
        object.__setattr__(self, "message_bits",
                           sum(c.message_bits for c in self.children))

    @property
    def cv_children(self) -> tuple:
        return self.children[1:] if self.kangaroo_first else self.children

    @property
    def n_cv(self) -> int:
        return len(self.children) - (1 if self.kangaroo_first else 0)


@dataclass(frozen=True)
class HopTree:
    """A hop tree; the root is the final hop.  Equal subtrees may share."""
    root: object

    @property
    def message_bits(self) -> int:
        return self.root.message_bits


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
# Node encoding

def encode_node(first, chain=(), is_final: bool = False,
                producer_ids=None, offset: int = 0) -> NodeLayout:
    """Lay out one node from a kangaroo chain, in stream order.

    `first` is the node's first hop (a message hop reads from bit
    `offset`); `chain` holds the subsequent chaining hops, outermost last.
    `producer_ids` holds one node id per chaining-value slot, in order;
    None gives placeholders, and any other count raises `GrammarError`.
    Each hop flagged `aligned` is packed flush against the end of a fresh
    rate block.
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
            segs.append(MessageBits(offset, first.length))
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
    topologically ordered and the root node comes last.  The message is
    read in stream order: a chain's first hop from the running position,
    then its producers, innermost hop first."""
    nodes = []
    _, end = _map_chain(tree.root, root_final, 0, nodes)
    return NodeTree(tuple(nodes), end)


def _map_chain(anchor, is_final: bool, at: int, nodes: list) -> tuple:
    """Append the node of the chain ending at `anchor`, whose message
    starts at bit `at`; return its id and the bit after its subtree."""
    hops = [anchor]
    while isinstance(hops[-1], ChainingHop) and hops[-1].kangaroo_first:
        hops.append(hops[-1].children[0])
    hops.reverse()                      # first hop ... anchor
    start = at
    producer_ids = []
    for hop in hops:
        if isinstance(hop, MessageHop):
            at += hop.length
        else:
            for child in hop.cv_children:
                nid, at = _map_chain(child, False, at, nodes)
                producer_ids.append(nid)
    nodes.append(encode_node(hops[0], hops[1:], is_final, producer_ids,
                             start))
    return len(nodes) - 1, at


# ---------------------------------------------------------------------------
# Validation

def validate_node_tree(tree: NodeTree,
                       fragment: bool = False) -> tuple[bool, str]:
    """Structural checks over a whole node tree.

    Verifies the single-final-node rule, topological chaining-value
    references, single use of every inner node's value, and that message
    slices partition the message exactly.  Each node's frame bits are
    `encode_node`'s, so they are not parsed here.
    """
    if not tree.nodes:
        return False, "empty tree"
    for nid, node in enumerate(tree.nodes):
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
