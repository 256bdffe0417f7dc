"""Simulation: depth, stalls, happens-before, work and width metrics."""

import pytest

from oracles import longest_path_depth, merge_chains, rigid_schedule
from parashake import planner, scheduler
from parashake.errors import DependencyCycleError, OutputLengthError
from parashake.sakura import (ChainingHop, HopTree, MessageHop,
                              map_hop_tree_to_node_tree)
from parashake.scheduler import simulate, validate_happens_before


def fragment(root, as_final=False):
    return map_hop_tree_to_node_tree(HopTree(root),
                                     root_final=as_final)


def test_single_node_depth():
    tree = fragment(MessageHop(500), as_final=True)
    s = simulate(tree)
    assert s.depth == 1
    assert (s.total_calls, s.processors, s.max_concurrency) == (1, 1, 1)


def test_fig3_depth_and_processors():
    p = planner.plan("ternary", 29457)
    s = simulate(p.node_tree)
    assert s.depth == 4
    assert s.processors == 27
    assert s.total_stalls == 0
    assert validate_happens_before(s, p.node_tree)


def test_model6_subtree_timing():
    root = planner.build_model_subtree(6, 7675)
    tree = fragment(root)
    s = simulate(tree)
    assert max(t.finish for t in s.timings) == 3
    assert s.processors == 5
    assert s.total_stalls == 0
    # children of one and two blocks finish at 1 and 2
    finishes = sorted(t.finish for t in s.timings)
    assert finishes == [1, 1, 2, 2, 3]


def test_block_times_are_consecutive_without_stalls():
    p = planner.plan("compacted", 50000)
    s = simulate(p.node_tree)
    for t in s.timings:
        assert list(t.block_end) == list(range(1, len(t.block_end) + 1))


def test_stall_is_simulated():
    # a parent whose first block holds the value of a two-block child
    # cannot start absorbing until that child finishes
    child = MessageHop(2169)
    root = ChainingHop((child,), kangaroo_first=False)
    tree = fragment(root)
    s = simulate(tree)
    parent = s.timings[-1]
    assert parent.block_end[0] == 3  # waits for the child's finish at 2
    assert parent.stalls == 2
    assert validate_happens_before(s, tree)  # stalls make it consistent


def test_rigid_schedule_violates_happens_before():
    child = MessageHop(2169)
    root = ChainingHop((child,), kangaroo_first=False)
    tree = fragment(root)
    assert not validate_happens_before(rigid_schedule(tree), tree)
    # but a rigid schedule of a stall-free plan is the simulated one
    p = planner.plan("compacted", 29457)
    assert validate_happens_before(rigid_schedule(p.node_tree), p.node_tree)


def test_happens_before_over_plan_corpus(rng):
    for strategy in ("ternary", "ternary-min-procs", "compacted"):
        for _ in range(5):
            n = rng.randrange(1, 300000)
            p = planner.plan(strategy, n)
            s = simulate(p.node_tree)
            assert validate_happens_before(s, p.node_tree), (strategy, n)


def test_depth_lower_bound_is_final_node_blocks(rng):
    for _ in range(10):
        n = rng.randrange(1, 200000)
        p = planner.plan("ternary", n)
        s = simulate(p.node_tree)
        assert s.depth >= p.node_tree.nodes[-1].blocks


def test_depth_equals_longest_path(rng):
    cases = [planner.plan("ternary", 29457).node_tree,
             planner.plan("compacted", 29457).node_tree,
             planner.plan("ternary-min-procs", 100000).node_tree]
    for _ in range(6):
        cases.append(planner.plan("compacted",
                                  rng.randrange(1, 200000)).node_tree)
    for tree in cases:
        assert simulate(tree).depth == longest_path_depth(tree)


def test_stalled_tree_depth_equals_longest_path():
    # merging the aligned plan's kangaroo chains destroys alignment and
    # induces stalls; the stall-aware depth still equals the critical path
    p = planner.plan("ternary", 29457)
    merged = map_hop_tree_to_node_tree(merge_chains(p.hop_tree))
    s = simulate(merged)
    assert s.total_stalls > 0
    assert s.depth == longest_path_depth(merged)


def test_squeeze_charged_to_final_node():
    p = planner.plan("ternary", 29457)
    base = simulate(p.node_tree, out_bits=512)
    long = simulate(p.node_tree, out_bits=4096)
    assert long.depth == base.depth + 3          # ceil(4096/1088) - 1
    assert long.squeeze_calls == 3
    assert long.total_calls == base.total_calls + 3
    frag = fragment(planner.build_model_subtree(2, 3273))
    assert simulate(frag, out_bits=4096).squeeze_calls == 0


@pytest.mark.parametrize("out_bits", [0, -1, -7000])
def test_output_length_must_be_positive(out_bits):
    tree = fragment(MessageHop(500), as_final=True)
    with pytest.raises(OutputLengthError, match="must be positive"):
        simulate(tree, out_bits)


def test_work_totals(rng):
    p = planner.plan("ternary", 29457)
    s = simulate(p.node_tree)
    assert s.absorb_calls == sum(n.blocks for n in p.node_tree.nodes)
    assert s.processors == 27
    assert s.max_concurrency <= s.processors
    assert s.total_calls == s.absorb_calls


def test_max_concurrency():
    p = planner.plan("ternary", 29457)
    s = simulate(p.node_tree)
    # 27 single-processor nodes all absorb during the first unit
    assert s.max_concurrency == 27


def test_cycle_detection():
    from oracles import frame
    from parashake.sakura import (CVSlot, NodeLayout, NodeTree,
                                  chaining_frame_bits)
    segs = (CVSlot(), chaining_frame_bits(1),
            frame("1" + "11" + "1" + "0" * (1088 - 545 - 5) + "1"))
    node = NodeLayout(segs, is_final=True)
    loop = NodeTree((node,), 0, (0,), ((1,),))
    with pytest.raises(DependencyCycleError):
        simulate(loop)
