"""Tree coding: size formulas, frame bits, grammar, hop indexing, mapping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (frame, is_pad, max_single_kangaroo, merge_chains,
                     node_bit_cost, text01, validate_grammar, validate_tree)
from parashake import planner
from parashake.errors import GrammarError, TooManyChainingValues
from parashake.sakura import (ChainingHop, CVSlot, FrameBits,
                              HopTree, MessageBits, MessageHop, NodeLayout,
                              NodeTree, chaining_frame_bits, encode_node,
                              iter_hops, map_hop_tree_to_node_tree)


def tail_fill_zeros(node: NodeLayout) -> int:
    """Zero bits inside the closing multi-rate pad of a node."""
    tail = node.segments[-1]
    assert isinstance(tail, FrameBits)
    marker = 1 if node.is_final else 2
    return tail.length - marker - 4


def sakura_size(node: NodeLayout) -> int:
    """Encoded size excluding the 4 suffix/pad bits and any fill."""
    return node.total_bits - 4 - tail_fill_zeros(node)


# ---------------------------------------------------------------------------
# size formulas


def test_formula_anchor_values():
    assert node_bit_cost("inner", "message_only", l=1081) == 1084
    assert node_bit_cost("final", "message_only", l=2170) == 2172
    assert node_bit_cost("final", "kangaroo", l=1112, n_cv=2) == 2172
    assert node_bit_cost("inner", "kangaroo", l=1111, n_cv=2) == 2172
    assert node_bit_cost("inner", "chaining_only", n_cv=2) == 1059
    assert node_bit_cost("final", "chaining_only", n_cv=2) == 1058


def test_formula_errors():
    with pytest.raises(TooManyChainingValues):
        node_bit_cost("inner", "kangaroo", l=0, n_cv=256)
    with pytest.raises(ValueError):
        node_bit_cost("inner", "chaining_only", n_cv=0)
    with pytest.raises(ValueError):
        node_bit_cost("outer", "message_only", l=1)


def _encode_class(role, kind, l, n_cv):
    is_final = role == "final"
    if kind == "message_only":
        return encode_node(MessageHop(l), (), is_final)
    chain_hop = ChainingHop((MessageHop(l),) + (MessageHop(0),) * n_cv,
                            kangaroo_first=True)
    if kind == "kangaroo":
        return encode_node(MessageHop(l), [chain_hop], is_final)
    lone = ChainingHop((MessageHop(0),) * n_cv, kangaroo_first=False)
    return encode_node(lone, (), is_final)


@settings(max_examples=300, deadline=None)
@given(role=st.sampled_from(["inner", "final"]),
       kind=st.sampled_from(["message_only", "chaining_only", "kangaroo"]),
       l=st.integers(min_value=0, max_value=10 ** 5),
       n_cv=st.integers(min_value=1, max_value=255))
def test_encoded_size_matches_formula(role, kind, l, n_cv):
    node = _encode_class(role, kind, l, n_cv)
    l_used = 0 if kind == "chaining_only" else l
    n_used = 0 if kind == "message_only" else n_cv
    assert sakura_size(node) == node_bit_cost(role, kind, l_used, n_used)
    ok, why = validate_grammar(node)
    assert ok, why


# ---------------------------------------------------------------------------
# hop encodings


def hop_bits(node: NodeLayout) -> int:
    """Bits of a node's hops: everything before its tail."""
    return node.total_bits - node.segments[-1].length


def test_message_hop_encoding():
    empty = encode_node(MessageHop(0))
    assert empty.segments[:-1] == (FrameBits(1, 1),)
    node = encode_node(MessageHop(9))
    assert node.segments[:-1] == (MessageBits(9), FrameBits(1, 1))
    assert hop_bits(node) == 10


def test_chaining_hop_lengths():
    for n_cv, want in ((1, 545), (2, 1057), (4, 2081), (255, 130593)):
        lone = ChainingHop((MessageHop(0),) * n_cv, kangaroo_first=False)
        node = encode_node(lone)
        assert hop_bits(node) == want
        assert node.segments[-2] == chaining_frame_bits(n_cv)
        assert len(list(node.cv_positions())) == n_cv


def test_chaining_frame_bit_pattern():
    # {4}{no interleaving}0: count byte 4, length byte 1, two 0xFF bytes
    bits = chaining_frame_bits(4)
    assert bits.length == 33
    assert bits == frame("00100000" + "10000000" + "11111111" * 2 + "0")
    with pytest.raises(TooManyChainingValues):
        chaining_frame_bits(256)


def test_chaining_hop_count_bounds():
    # the hop refuses 256 values, so no node can be asked to write them
    with pytest.raises(TooManyChainingValues):
        encode_node(ChainingHop((MessageHop(0),) * 256,
                                kangaroo_first=False))
    with pytest.raises(TooManyChainingValues):
        encode_node(MessageHop(0), [ChainingHop((MessageHop(0),) * 257)])


# ---------------------------------------------------------------------------
# node encoding


def test_single_final_hop_sizes():
    # 1112 message bits alone under-fill; the closing pad absorbs the slack
    node = encode_node(MessageHop(1112), (), is_final=True)
    assert node.total_bits == 2176
    assert tail_fill_zeros(node) == 2176 - 1118
    # at 2170 bits the final node is exactly rate-full
    node = encode_node(MessageHop(2170), (), is_final=True)
    assert node.total_bits == 2176
    assert tail_fill_zeros(node) == 0


def test_inner_message_node_rate_full():
    node = encode_node(MessageHop(1081), (), is_final=False)
    assert node.total_bits == 1088
    assert tail_fill_zeros(node) == 0


def test_model_full_final_node_layout():
    # 1112-bit message hop plus a kangaroo hop of two values: two blocks
    hop = ChainingHop((MessageHop(1112), MessageHop(1081),
                       MessageHop(1081)))
    node = encode_node(MessageHop(1112), [hop], is_final=True)
    assert node.total_bits == 2176
    assert tail_fill_zeros(node) == 0
    assert list(node.cv_positions()) == [1114, 1626]


def test_aligned_extra_hop_gets_own_block():
    base = ChainingHop((MessageHop(1111), MessageHop(1081),
                        MessageHop(1081)))
    upper = ChainingHop((base, MessageHop(1), MessageHop(1)),
                        aligned=True)
    node = encode_node(MessageHop(1111), [base, upper], is_final=True)
    assert node.total_bits == 3264
    positions = list(node.cv_positions())
    # the upper hop's values live entirely in the third block
    assert positions[2] >= 2176 and positions[3] + 512 <= 3264
    assert any(is_pad(s) for s in node.segments)
    assert tail_fill_zeros(node) == 0


def test_encode_rejects_bad_chains():
    with pytest.raises(GrammarError):
        encode_node(MessageHop(10), [MessageHop(10)])
    lone = ChainingHop((MessageHop(0),), kangaroo_first=False)
    with pytest.raises(GrammarError):
        encode_node(ChainingHop((MessageHop(1),), kangaroo_first=True))
    # a chain hop must absorb its first child
    with pytest.raises(GrammarError):
        encode_node(MessageHop(10), [lone])


# ---------------------------------------------------------------------------
# hop indexing


def test_hop_indexing_rule():
    leaves = tuple(MessageHop(10 + i) for i in range(3))
    inner = ChainingHop((MessageHop(5),) + leaves[:2])
    root = ChainingHop((inner, leaves[2]), aligned=True)
    tree = HopTree(root)
    indexed = dict(iter_hops(tree))
    assert indexed[()] is root
    assert indexed[(0,)] is inner
    assert indexed[(0, 0)] == MessageHop(5)
    assert indexed[(0, 1)] is leaves[0]
    assert indexed[(1,)] is leaves[2]
    # every non-root index extends its parent by one position
    for index in indexed:
        if index:
            assert index[:-1] in indexed


# ---------------------------------------------------------------------------
# mapping


def test_single_hop_maps_to_one_node():
    tree = HopTree(MessageHop(500))
    nt = map_hop_tree_to_node_tree(tree)
    assert nt.node_count == 1
    assert nt.nodes[0].is_final


def test_mapping_is_deterministic():
    plan = planner.plan("ternary", 29457)
    again = map_hop_tree_to_node_tree(plan.hop_tree)
    assert again == plan.node_tree


def test_ternary_tree_maps_to_27_nodes():
    plan = planner.plan("ternary", 29457)
    assert plan.node_tree.node_count == 27
    ok, why = validate_tree(plan.node_tree)
    assert ok, why


def test_compacted_mapping_single_chain_hop_per_node():
    plan = planner.plan("ternary", 29457)
    compacted = map_hop_tree_to_node_tree(merge_chains(plan.hop_tree))
    assert compacted.node_count == plan.node_tree.node_count
    ok, why = validate_tree(compacted)
    assert ok, why
    for node in compacted.nodes:
        frames = [s for s in node.segments if isinstance(s, FrameBits)]
        assert sum(1 for f in frames if f.length == 33) <= 1
        assert not any(is_pad(s) for s in node.segments)


def test_message_coverage_is_checked():
    # a hop tree cannot express overlapping slices; lay out the nodes by
    # hand, the leaf reading bits 50..149 where the root reads 0..99
    leaf = encode_node(MessageHop(100))
    root = encode_node(MessageHop(100),
                       [ChainingHop((MessageHop(100), MessageHop(100)))],
                       is_final=True)

    def tree(leaf_offset, message_bits):
        return NodeTree((leaf, root), message_bits, (leaf_offset, 0),
                        ((), (0,)))

    ok, why = validate_tree(tree(50, 150))
    assert not ok and "overlap" in why
    ok, why = validate_tree(tree(50, 200))
    assert not ok and "overlap" in why
    assert validate_tree(tree(100, 200)) == (True, "ok")
    ok, why = validate_tree(tree(100, 250))
    assert not ok and "covers 200 of 250" in why


# ---------------------------------------------------------------------------
# grammar validation


def test_constructed_nodes_validate(rng):
    for strategy, n in (("ternary", 29457), ("compacted", 29457),
                        ("single", 3), ("ternary-min-procs", 13115)):
        plan = planner.plan(strategy, n)
        for node in plan.node_tree.nodes:
            ok, why = validate_grammar(node)
            assert ok, (strategy, why)


def test_wrong_suffix_rejected():
    node = encode_node(MessageHop(1081), (), is_final=False)
    tail = node.segments[-1]
    bad = frame(text01(tail)[:-4] + "1101")
    mutated = NodeLayout(node.segments[:-1] + (bad,), node.is_final)
    ok, why = validate_grammar(mutated)
    assert not ok


def test_coded_count_mismatch_rejected():
    segs = [MessageBits(100), frame("1"), frame("1"),
            CVSlot(), CVSlot(), chaining_frame_bits(3)]
    total = sum(s.length for s in segs)
    pad = (-(total + 6)) % 1088
    segs.append(frame("10" + "11" + "1" + "0" * pad + "1"))
    node = NodeLayout(tuple(segs), is_final=False)
    ok, why = validate_grammar(node)
    assert not ok and "disagrees" in why


def test_every_frame_bit_mutation_rejected(rng):
    plan = planner.plan("ternary", 29457)
    nodes = list(plan.node_tree.nodes)
    plan2 = planner.plan("compacted", 6000)
    nodes += list(plan2.node_tree.nodes)
    checked = 0
    for node in nodes:
        for idx, seg in enumerate(node.segments):
            if not isinstance(seg, FrameBits):
                continue
            bits = text01(seg)
            for flip in range(len(bits)):
                if checked >= 400:
                    return
                mutated = (bits[:flip] +
                           ("1" if bits[flip] == "0" else "0") +
                           bits[flip + 1:])
                segments = list(node.segments)
                segments[idx] = frame(mutated)
                twisted = NodeLayout(tuple(segments), node.is_final)
                ok, _ = validate_grammar(twisted)
                assert not ok, (idx, flip)
                checked += 1


def _le(value: int, width: int) -> str:
    return "".join(str(value >> i & 1) for i in range(width))


def _coded(count: int, length_byte: int = 1, marker: int = 0xFFFF):
    """A chaining hop's frame: count byte, length byte, marker, '0'."""
    return frame(_le(count, 8) + _le(length_byte, 8) + _le(marker, 16) + "0")


def _closed(segs, is_final=False, marker=None, last="1") -> NodeLayout:
    """`segs` followed by the node marker, the suffix and a rate-filling
    multi-rate pad whose last bit is `last`."""
    if marker is None:
        marker = "1" if is_final else "10"
    used = sum(s.length for s in segs) + len(marker) + 4
    tail = frame(marker + "11" + "1" + "0" * (-used % 1088) + last)
    return NodeLayout(tuple(segs) + (tail,), is_final)


GRAMMAR_DIAGNOSES = [
    (_closed([MessageBits(100), frame("1")]), "ok"),
    (NodeLayout((MessageBits(1088),), True), "expected a frame bit"),
    (_closed([CVSlot(), frame("1" * 20 + "0")]), "expected a frame bit"),
    (_closed([MessageBits(100), frame("1")], last="0"),
     "frame bit '0' where '1' was required"),
    (_closed([MessageBits(100), frame("1")], marker="11"),
     "frame bit '1' where '0' was required"),
    (_closed([], is_final=True), "node has no hops"),
    (_closed([CVSlot(), _coded(1, marker=0x7FFF)]),
     "bad interleaving marker"),
    (_closed([CVSlot(), _coded(1, length_byte=2)]),
     "bad coded-count length byte"),
    (_closed([CVSlot(), _coded(0)]),
     "coded chaining-value count out of range"),
    (_closed([CVSlot(), _coded(2)]), "coded count 2 disagrees with 1 slots"),
    (_closed([frame("1"), MessageBits(100), frame("1")]),
     "message hop is not at the start of the node"),
    (_closed([MessageBits(100)]),
     "unexpected m token inside frame position"),
    (_closed([CVSlot()]), "unexpected c token inside frame position"),
]


@pytest.mark.parametrize("node, diagnosis", GRAMMAR_DIAGNOSES,
                         ids=[d for _, d in GRAMMAR_DIAGNOSES])
def test_grammar_diagnosis(node, diagnosis):
    assert validate_grammar(node) == (diagnosis == "ok", diagnosis)


def test_zero_length_cv_slot_is_read_once():
    node = _closed([CVSlot(0), _coded(1)])
    assert validate_grammar(node) == (True, "ok")


def test_fragment_trees_validate():
    root, total = max_single_kangaroo(3)
    nt = map_hop_tree_to_node_tree(HopTree(root), root_final=False)
    assert nt.message_bits == total
    ok, why = validate_tree(nt, fragment=True)
    assert ok, why
