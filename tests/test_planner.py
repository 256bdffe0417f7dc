"""Planners: catalogue fidelity, composition, model selection, the
compacted construction."""

import dataclasses

import pytest

from oracles import (brute_force_model_choice, is_pad, max_single_kangaroo,
                     validate_tree)
from parashake import planner, scheduler, treeio
from parashake.errors import MessageTooShortError, NodeCapacityError
from parashake.planner import (MODELS, build_model_subtree, ceil_log3_ratio,
                               compacted_capacity, leaf_idle_allowance,
                               leaf_idle_slack, plan, plan_ternary_with_model,
                               predict, select_model)
from parashake.planner import LEAF_CAPACITY
from parashake.sakura import (ChainingHop, HopTree, MessageHop, encode_node,
                              iter_hops, map_hop_tree_to_node_tree)
from parashake.sponge import RATE_BITS


def simulate_fragment(root, as_final=False):
    tree = map_hop_tree_to_node_tree(HopTree(root),
                                     root_final=as_final)
    return scheduler.simulate(tree), tree


# ---------------------------------------------------------------------------
# ceil log3


def test_ceil_log3_ratio():
    assert ceil_log3_ratio(1) == 0
    assert ceil_log3_ratio(3) == 1
    assert ceil_log3_ratio(4) == 2
    assert ceil_log3_ratio(9819, 3273) == 1
    assert ceil_log3_ratio(9820, 3273) == 2
    assert ceil_log3_ratio(531, 3305) == -1
    assert ceil_log3_ratio(1101, 3305) == -1
    assert ceil_log3_ratio(1102, 3305) == 0


# ---------------------------------------------------------------------------
# catalogue


def test_model_table_rows():
    table = MODELS
    assert [m.id for m in table] == list(range(11))
    m2 = table[2]
    assert (m2.message_bits, m2.processors, m2.time_units) == (3273, 3, 2)
    assert m2.distribution == (1111, 1081, 1081)
    m6 = table[6]
    assert (m6.message_bits, m6.processors, m6.time_units) == (7675, 5, 3)
    assert m6.distribution == (1175, 1081, 1081, 2169, 2169)
    assert sum(m6.distribution) == 7675
    m10 = table[10]
    assert (m10.message_bits, m10.processors, m10.time_units) == (14253, 7, 4)
    for m in table:
        assert sum(m.distribution) == m.message_bits
        assert len(m.distribution) == max(1, m.processors)


def test_model_subtrees_simulate_to_table():
    for m in MODELS[1:]:
        root = build_model_subtree(m.id, m.message_bits)
        sched, tree = simulate_fragment(root)
        assert sched.processors == m.processors
        assert max(t.finish for t in sched.timings) == m.time_units
        assert sched.total_stalls == 0
        ok, why = validate_tree(tree, fragment=True)
        assert ok, why


def test_model_final_variant_takes_one_more_bit():
    for m in MODELS:
        bits = m.message_bits + 1
        root = build_model_subtree(m.id, bits, as_final=True)
        sched, _ = simulate_fragment(root, as_final=True)
        assert sched.processors == m.processors
        assert sched.depth == m.time_units
        with pytest.raises(NodeCapacityError):
            build_model_subtree(m.id, bits + 1, as_final=True)
        with pytest.raises(NodeCapacityError):
            build_model_subtree(m.id, m.message_bits + 1)


def test_model_trimming_shrinks_last_children_first():
    # model 2 with 2171 bits: first child keeps 1111, second 1060, third gone
    root = build_model_subtree(2, 2171)
    assert isinstance(root, ChainingHop)
    assert [c.length for c in root.children] == [1111, 1060]
    sched, _ = simulate_fragment(root)
    assert sched.total_stalls == 0


def test_model_examples():
    # a full final template of the three-processor row: two blocks + leaves
    root = build_model_subtree(2, 3274, as_final=True)
    sched, tree = simulate_fragment(root, as_final=True)
    assert sched.depth == 2 and sched.processors == 3
    assert tree.nodes[-1].blocks == 2
    root = build_model_subtree(1, 2704)
    sched, _ = simulate_fragment(root)
    assert sched.depth == 2 and sched.processors == 2
    root = build_model_subtree(2, 3273)
    sched, _ = simulate_fragment(root)
    assert sched.depth == 2 and sched.processors == 3


# ---------------------------------------------------------------------------
# ternary


def test_ternary_fig3():
    p = plan("ternary", 29457)
    s = scheduler.simulate(p.node_tree)
    assert (s.depth, p.report.node_count) == (4, 27)
    assert s.total_stalls == 0


def test_ternary_small_bands():
    p = plan("ternary", 2170)
    s = scheduler.simulate(p.node_tree)
    assert (s.depth, s.processors) == (2, 1)
    p = plan("ternary", 3273)
    s = scheduler.simulate(p.node_tree)
    assert (s.depth, s.processors) == (2, 3)
    p = plan("ternary", 3274)
    s = scheduler.simulate(p.node_tree)
    assert (s.depth, s.processors) == (2, 3)
    p = plan("ternary", 2171)
    s = scheduler.simulate(p.node_tree)
    assert (s.depth, s.processors) == (2, 2)
    p = plan("ternary", 700)
    s = scheduler.simulate(p.node_tree)
    assert (s.depth, s.processors) == (1, 1)


def test_ternary_depth_formula_sweep(rng):
    ns = [3275, 6546, 6547, 9819, 9820, 29457]
    ns += [rng.randrange(3275, 10 ** 6) for _ in range(20)]
    for n in ns:
        p = plan("ternary", n)
        s = scheduler.simulate(p.node_tree)
        assert s.depth == ceil_log3_ratio(n, 3273) + 2, n
        assert p.report.node_count <= 3 * -(-n // 3273), n
        assert s.total_stalls == 0, n
        ok, why = validate_tree(p.node_tree)
        assert ok, (n, why)


def test_ternary_last_part_models(rng):
    # remainder sizes map onto the smallest fitting template
    for rem, nodes_for_last in ((1, 1), (2169, 1), (2170, 2), (2704, 2),
                                (2705, 3), (3273, 3)):
        n = 3273 * 3 + rem
        p = plan("ternary", n)
        assert p.report.node_count == 9 + nodes_for_last, rem


# ---------------------------------------------------------------------------
# model selection


def test_select_model_examples():
    assert select_model(13115) == 8
    assert select_model(3275) == brute_force_model_choice(3275)
    assert select_model(9819) == brute_force_model_choice(9819)
    with pytest.raises(MessageTooShortError):
        select_model(3274)


def test_select_model_matches_brute_force(rng):
    ns = [3275, 3276, 9819, 13115, 14253, 29457, 3273 * 3 + 1]
    ns += [rng.randrange(3275, 10 ** 7) for _ in range(120)]
    for n in ns:
        assert select_model(n) == brute_force_model_choice(n), n


def test_select_model_never_worse_than_bulk_template(rng):
    for n in [3275, 9819, 29457] + [rng.randrange(3275, 10 ** 6)
                                    for _ in range(40)]:
        model = MODELS[select_model(n)]
        score = -(-n // model.message_bits) * model.processors
        assert score <= 3 * -(-n // 3273), n


def test_plan_with_model_examples():
    p = plan_ternary_with_model(13115)
    s = scheduler.simulate(p.node_tree)
    assert (s.depth, s.processors) == (4, 5)
    assert p.report.tree_height == 0
    # same depth as the bulk plan, never more processors
    t = plan("ternary", 29457)
    pm = plan_ternary_with_model(29457)
    st_ = scheduler.simulate(t.node_tree)
    sm = scheduler.simulate(pm.node_tree)
    assert sm.depth == st_.depth == 4
    assert sm.processors <= st_.processors


def test_plan_with_model_substitute_example():
    # 7675 bits decomposed with the bulk template: 7 nodes at depth 3,
    # versus 5 nodes for the height-3 template of the same capacity
    p = plan_ternary_with_model(7675, model_id=2)
    s = scheduler.simulate(p.node_tree)
    assert p.report.node_count == 7
    assert s.depth == 3
    alt = plan_ternary_with_model(7675, model_id=6)
    s6 = scheduler.simulate(alt.node_tree)
    assert alt.report.node_count == 5
    assert s6.depth == 3


def test_plan_with_model_depth_equals_selection_target(rng):
    for n in [3275, 9819, 13115] + [rng.randrange(3275, 10 ** 6)
                                    for _ in range(25)]:
        p = plan_ternary_with_model(n)
        s = scheduler.simulate(p.node_tree)
        assert s.depth == ceil_log3_ratio(n, 3273) + 2, n
        assert s.total_stalls == 0, n


# ---------------------------------------------------------------------------
# compacted


def _node(bits: int, n_cv: int, final: bool):
    """A message hop of `bits`, then a chaining hop of `n_cv` values."""
    values = (MessageHop(0),) * n_cv
    chain = [ChainingHop((MessageHop(bits),) + values)] if n_cv else []
    return encode_node(MessageHop(bits), chain, final)


def _fill(node) -> tuple:
    """(blocks, zeros in the closing pad) of an encoded node."""
    marker = 1 if node.is_final else 2
    return node.blocks, node.segments[-1].length - marker - 4


@pytest.mark.parametrize("final", (False, True))
def test_capacities_are_the_writers_maxima(final):
    # each message capacity the planner assumes fills the node the writer
    # lays out exactly, and one more bit spills into a fresh block
    for b in range(2, 21):
        caps = planner._compacted_caps(b, False)
        cap = planner._compacted_children(b, caps, False, final)[0][1]
        assert cap == 64 * b + 983 + final
        node = _node(cap, 2 * (b - 1), final)
        assert _fill(node) == (b, 0)
        assert _fill(_node(cap + 1, 2 * (b - 1), final)) == (b + 1, 1087)
        starts = list(node.cv_positions())
        assert starts[0] == 64 * b + 985 + final
        for slot in (0, 1):
            assert (leaf_idle_slack(b, slot)
                    == starts[slot] // RATE_BITS - 1)
    assert LEAF_CAPACITY == 1081
    lone = ([(RATE_BITS * k - 6, k) for k in range(1, 21)] if final
            else [(LEAF_CAPACITY, 1)])
    for cap, k in lone:
        assert _fill(_node(cap, 0, final)) == (k, 0)
        assert _fill(_node(cap + 1, 0, final)) == (k + 1, 1087)


def test_compacted_capacity_closed_form():
    for j in range(1, 13):
        assert compacted_capacity(j) == 3 ** (j - 1) * 3305 - 31


def test_summation_identity():
    for j in range(2, 13):
        direct = sum(k * 3 ** k for k in range(j - 1))
        assert 4 * direct == 3 ** (j - 1) * (2 * j - 5) + 3


def test_compacted_fig_sizes():
    p = plan("compacted", 29457)
    s = scheduler.simulate(p.node_tree)
    assert p.report.tree_height == 3
    assert s.depth == 4
    assert s.total_stalls == 0
    sizes = sorted(n.blocks for n in p.node_tree.nodes)
    assert sizes.count(1) == 18 and sizes.count(2) == 6
    assert sizes.count(3) == 2 and sizes.count(4) == 1


def test_compacted_has_no_alignment_pads():
    for n in (29457, 9884, 123456):
        p = plan("compacted", n)
        for node in p.node_tree.nodes:
            assert not any(is_pad(s) for s in node.segments)


def test_compacted_sweep(rng):
    ns = [2171, 3274, 3275, 9884, 9885, 29457]
    ns += [rng.randrange(1, 10 ** 6) for _ in range(25)]
    for n in ns:
        p = plan("compacted", n)
        s = scheduler.simulate(p.node_tree)
        assert s.depth <= ceil_log3_ratio(n + 31, 3305) + 2, n
        assert p.report.node_count <= 3 * -(-(n + 31) // 3305), n
        assert s.total_stalls == 0, n
        assert scheduler.validate_happens_before(s, p.node_tree)
        ok, why = validate_tree(p.node_tree)
        assert ok, (n, why)


def test_compacted_depth_monotone(rng):
    prev = 0
    for n in sorted([rng.randrange(1, 10 ** 6) for _ in range(40)]):
        d, _ = predict("compacted", n)
        assert d >= prev
        prev = d


# ---------------------------------------------------------------------------
# relaxation


def test_relaxed_identical_below_boundary(rng):
    for n in [3275, 29457] + [rng.randrange(1, 10 ** 6) for _ in range(15)]:
        a = plan("compacted", n)
        b = plan("compacted-relaxed", n)
        assert a.node_tree == b.node_tree, n


def test_relaxed_capacity_never_smaller():
    for j in range(1, 22):
        assert compacted_capacity(j, relaxed=True) >= compacted_capacity(j)


def test_leaf_idle_allowance_values():
    assert leaf_idle_allowance(17) == 0          # floor(64*16/1088)
    assert leaf_idle_allowance(18) == 1          # floor(64*17/1088)
    assert leaf_idle_allowance(19) == 1
    assert leaf_idle_allowance(35) == 2


def test_leaf_idle_slack_boundary():
    # j = 17 (final node of 18 blocks): the idle-time rule grants a block
    # to both leaf children, but the first child's value starts 38 bits
    # before the block boundary, so only the second child may grow
    assert leaf_idle_allowance(18) == 1
    assert leaf_idle_slack(18, 0) == 0
    assert leaf_idle_slack(18, 1) == 1
    # j = 18: both leaves of the final node really can grow
    assert leaf_idle_slack(19, 0) == 1
    assert leaf_idle_slack(19, 1) == 1
    # inner parents one level down hit the same boundary at 18 blocks
    assert leaf_idle_slack(18, 0) == 0
    assert leaf_idle_slack(20, 0) == 1


def _synthetic_relaxed_fragment(parent_blocks: int, grow: tuple,
                                as_final: bool):
    """Parent node with its two leaf children grown by `grow` blocks and
    message-only stand-ins for the deeper subtree producers."""
    n_cv = 2 * (parent_blocks - 1)
    msg = 64 * parent_blocks + (984 if as_final else 983)
    children = [MessageHop(msg)]
    for slot in (0, 1):
        children.append(MessageHop(1081 + grow[slot] * 1088))
    for m in range(2, parent_blocks):
        for _ in range(2):
            # a stand-in finishing at time m
            children.append(MessageHop(m * 1088 - 7))
    assert len(children) == n_cv + 1
    root = ChainingHop(tuple(children), kangaroo_first=True)
    tree = map_hop_tree_to_node_tree(HopTree(root), root_final=as_final)
    return scheduler.simulate(tree)


def test_relaxed_growth_is_stall_free_at_j18():
    # final node of 19 blocks: both leaves absorb exactly one extra block
    sched = _synthetic_relaxed_fragment(19, (1, 1), as_final=True)
    assert sched.total_stalls == 0
    assert sched.depth == 19


def test_relaxed_growth_boundary_at_j17():
    # growing only the second leaf is free; growing the first one stalls
    sched = _synthetic_relaxed_fragment(18, (0, 1), as_final=True)
    assert sched.total_stalls == 0 and sched.depth == 18
    sched = _synthetic_relaxed_fragment(18, (1, 1), as_final=True)
    assert sched.total_stalls > 0


def test_relaxed_growth_inner_family_j20():
    # inner parents of 20 blocks accept the idle-time growth on both leaves
    sched = _synthetic_relaxed_fragment(20, (1, 1), as_final=False)
    assert sched.total_stalls == 0
    assert max(t.finish for t in sched.timings) == 20


# ---------------------------------------------------------------------------
# single-kangaroo recipe


def test_recipe_matches_catalogue_maxima():
    for k, model_id in ((2, 2), (3, 6), (4, 10)):
        root, total = max_single_kangaroo(k)
        m = MODELS[model_id]
        assert total == m.message_bits
        assert [c.length for c in root.children] == list(m.distribution)


def test_recipe_leaf_sizes():
    root, _ = max_single_kangaroo(3)
    assert [c.length for c in root.children][3:] == [2169, 2169]


def test_recipe_depth_equals_k(rng):
    for k in (2, 3, 5, 8, 12):
        root, total = max_single_kangaroo(k)
        sched, tree = simulate_fragment(root)
        assert tree.message_bits == total
        assert max(t.finish for t in sched.timings) == k
        assert sched.total_stalls == 0
        ok, why = validate_tree(tree, fragment=True)
        assert ok, why


def test_recipe_final_variant():
    root, total = max_single_kangaroo(2, as_final=True)
    assert total == 3274
    with pytest.raises(ValueError):
        max_single_kangaroo(1)


# ---------------------------------------------------------------------------
# predictions and dispatch


def test_predict_examples():
    assert predict("ternary", 29457) == (4, 27)
    assert predict("ternary", 3273) == (2, 3)
    assert predict("compacted", 29457) == (4, 27)
    assert predict("single", 0) == (1, 1)
    assert predict("single", 29457) == (28, 1)


def test_predict_matches_simulation(rng):
    for _ in range(12):
        n = rng.randrange(1, 200000)
        for strategy in ("single", "ternary", "compacted"):
            depth, procs = predict(strategy, n)
            p = plan(strategy, n)
            s = scheduler.simulate(p.node_tree)
            if strategy == "compacted":
                assert s.depth <= depth and s.processors <= procs
            else:
                assert s.depth == depth, (strategy, n)
                assert s.processors <= procs


@pytest.mark.parametrize("strategy", planner.STRATEGIES)
def test_report_is_the_prediction(strategy):
    # the sizes on either side of every planner branch
    for n in (0, 1, 2169, 2170, 2171, 2704, 2705, 2706, 3273, 3274, 3275,
              9819, 9820, 29457, 29458, 10 ** 5, 10 ** 6):
        r = plan(strategy, n).report
        assert (r.predicted_depth, r.predicted_processors) == \
            predict(strategy, n), n


@pytest.mark.parametrize("strategy", planner.STRATEGIES[1:])
def test_paper_claims_at_10_8_bits(strategy):
    # depth and processors as functions of n, past the sweeps' 10^7 bits
    n = 10 ** 8
    depth, processors = predict(strategy, n)
    tree = plan(strategy, n).node_tree
    s = scheduler.simulate(tree)
    assert s.depth == depth
    assert tree.node_count <= processors
    assert s.max_concurrency == tree.node_count
    assert s.total_stalls == 0


def test_ternary_is_the_model_2_composition():
    for n in (3275, 9820, 29457, 10 ** 5):
        a, b = plan("ternary", n), plan_ternary_with_model(n, 2)
        assert (a.strategy, b.strategy) == ("ternary", "ternary-min-procs")
        assert a.hop_tree == b.hop_tree and a.node_tree == b.node_tree
        assert a.report == dataclasses.replace(b.report, strategy="ternary")


def test_dispatcher_auto():
    assert plan("auto", 29457).strategy == "ternary-min-procs"
    assert plan("auto", 3274).strategy == "ternary"
    with pytest.raises(ValueError):
        plan("nonsense", 10)


# ---------------------------------------------------------------------------
# shared subtrees


@pytest.mark.parametrize("strategy", planner.STRATEGIES[1:])
def test_equal_subtrees_are_one_object(strategy):
    # 68,840 to 137,492 hops at 10^8 bits; each subtree that recurs is
    # built once, so a walk that skips objects it has seen stays short
    n = 10 ** 8
    root, _ = planner._choose(strategy, n)[3]()
    seen = {}
    stack = [root]
    while stack:
        hop = stack.pop()
        if id(hop) not in seen:
            seen[id(hop)] = hop
            stack.extend(getattr(hop, "children", ()))
    assert len(seen) <= 100, len(seen)
    assert HopTree(root).message_bits == n


def _distinct(items) -> int:
    return len({id(item) for item in items})


@pytest.mark.parametrize("strategy", planner.STRATEGIES)
def test_nodes_of_one_chain_share_one_layout(strategy):
    # a layout depends on its chain and role alone, so the mapping lays
    # out each (hop object, role) once: one more than the hop objects
    # bounds the layouts, whether the tree was planned or loaded
    planned = plan(strategy, 10 ** 6)
    loaded = treeio.load_plan(treeio.dump_plan(planned))
    for p in (planned, loaded):
        hops = _distinct(hop for _, hop in iter_hops(p.hop_tree))
        assert _distinct(p.node_tree.nodes) <= hops + 1, p is loaded
    assert loaded.node_tree == planned.node_tree
    if strategy in ("ternary-min-procs", "compacted"):
        nodes = plan(strategy, 10 ** 8).node_tree.nodes
        assert _distinct(nodes) <= 100, _distinct(nodes)
