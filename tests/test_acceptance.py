"""Acceptance gate: one test per exit criterion, at stated tolerances.

Each test prints a pass line on success (run with -s to see them); a
failed assertion is the fail line.  Budgets are asserted where the
criterion fixes one.
"""

import random
import time

from oracles import (brute_force_model_choice, node_bit_cost,
                     random_topological_order, text01, validate_grammar,
                     validate_tree)
from parashake import planner, scheduler
from parashake.bits import BitString
from parashake.evaluate import evaluate_parallel, evaluate_sequential
from parashake.planner import (MODELS, build_model_subtree, ceil_log3_ratio,
                               compacted_capacity, leaf_idle_allowance,
                               select_model)
from parashake.sakura import (ChainingHop, FrameBits, HopTree,
                              MessageHop, NodeLayout,
                              map_hop_tree_to_node_tree)
from parashake.scheduler import simulate, validate_happens_before
from parashake.sponge import shake256

SHAKE256_EMPTY_512 = (
    "46b9dd2b0ba88d13233b3feb743eeb243fcd52ea62b81b82b50c27646ed5762f"
    "d75dc4ddd8c0f200cb05019d67b592f6fc821c49479ab48640292eacb3b7c4be")
SHAKE256_1600BIT_512 = (
    "cd8a920ed141aa0407a22d59288652e9d9f1a7ee0c1e7c1ca699424da84a904d"
    "2d700caae7396ece96604440577da4f3aa22aeb8857f961c4cd8e06f0ae6610b")


def _report(criterion: int, detail: str):
    print("[acceptance] criterion %d: PASS — %s" % (criterion, detail))


def _log_spaced(count: int, lo: int, hi: int) -> list:
    return sorted({int(lo * (hi / lo) ** (i / (count - 1)))
                   for i in range(count)})


def test_criterion_1_fips_anchor():
    start = time.monotonic()
    assert shake256(BitString(), 512).hex() == SHAKE256_EMPTY_512
    msg = BitString.from_bytes(bytes([0xA3] * 200))
    assert shake256(msg, 512).hex() == SHAKE256_1600BIT_512
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, "budget exceeded: %.2fs" % elapsed
    _report(1, "published example digests reproduced in %.3fs" % elapsed)


def test_criterion_2_node_size_formulas():
    start = time.monotonic()
    rng = random.Random(2)
    roles = ("inner", "final")
    kinds = ("message_only", "chaining_only", "kangaroo")
    cases = 0
    for _ in range(10_000):
        role = roles[rng.getrandbits(1)]
        kind = kinds[rng.randrange(3)]
        l = rng.randrange(10 ** 5 + 1)
        n_cv = rng.randrange(1, 256)
        is_final = role == "final"
        if kind == "message_only":
            node = _encode(role, "message_only", l, 0)
            expect = node_bit_cost(role, kind, l=l)
        elif kind == "chaining_only":
            node = _encode(role, "chaining_only", 0, n_cv)
            expect = node_bit_cost(role, kind, n_cv=n_cv)
        else:
            node = _encode(role, "kangaroo", l, n_cv)
            expect = node_bit_cost(role, kind, l=l, n_cv=n_cv)
        tail = node.segments[-1]
        fill = tail.length - (1 if is_final else 2) - 4
        assert node.total_bits - 4 - fill == expect, (role, kind, l, n_cv)
        cases += 1
    # rate-full instances carry the literal 1111 with no fill at all
    for l, role, kind, n_cv in ((1081, "inner", "message_only", 0),
                                (2170, "final", "message_only", 0),
                                (1111, "inner", "kangaroo", 2),
                                (1112, "final", "kangaroo", 2)):
        node = _encode(role, kind, l, n_cv)
        assert node.total_bits - 4 == node_bit_cost(
            role, kind, l=l, n_cv=n_cv)
        assert text01(node.segments[-1]).endswith("1111")
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, "budget exceeded: %.2fs" % elapsed
    _report(2, "%d randomized cases across six classes in %.2fs"
            % (cases, elapsed))


def _encode(role, kind, l, n_cv):
    from parashake.sakura import encode_node
    is_final = role == "final"
    if kind == "message_only":
        return encode_node(MessageHop(l), (), is_final)
    if kind == "chaining_only":
        lone = ChainingHop((MessageHop(0),) * n_cv, kangaroo_first=False)
        return encode_node(lone, (), is_final)
    hop = ChainingHop((MessageHop(l),) + (MessageHop(0),) * n_cv)
    return encode_node(MessageHop(l), [hop], is_final)


def test_criterion_3_model_table_fidelity():
    for model in MODELS[1:]:
        for as_final, bits in ((False, model.message_bits),
                               (True, model.message_bits + 1)):
            root = build_model_subtree(model.id, bits, as_final)
            tree = map_hop_tree_to_node_tree(HopTree(root),
                                             root_final=as_final)
            sched = simulate(tree)
            depth = max(t.finish for t in sched.timings)
            assert (sched.processors, depth) == (model.processors,
                                                 model.time_units), model.id
            for node in tree.nodes:
                tail = node.segments[-1]
                marker = 1 if node.is_final else 2
                assert tail.length == marker + 4, (model.id, "slack")
        # one more bit than the final-hop capacity must not fit
        try:
            build_model_subtree(model.id, model.message_bits + 2, True)
        except Exception:
            pass
        else:
            raise AssertionError("model %d accepted 2 extra bits" % model.id)
    assert (MODELS[2].processors, MODELS[2].time_units) == (3, 2)
    assert (MODELS[6].processors, MODELS[6].time_units) == (5, 3)
    assert (MODELS[10].processors, MODELS[10].time_units) == (7, 4)
    _report(3, "models 1..10 exact, final variants take exactly one more bit")


def test_criterion_4_ternary_sweep():
    start = time.monotonic()
    ns = _log_spaced(200, 3275, 10 ** 7)
    ns.append(29457)
    for n in ns:
        plan = planner.plan("ternary", n)
        sched = simulate(plan.node_tree)
        assert sched.depth == ceil_log3_ratio(n, 3273) + 2, n
        assert plan.report.node_count <= 3 * -(-n // 3273), n
        if n == 29457:
            assert (sched.depth, plan.report.node_count) == (4, 27)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, "budget exceeded: %.2fs" % elapsed
    _report(4, "%d points in [3275, 1e7] match the depth formula in %.1fs"
            % (len(ns), elapsed))


def test_criterion_5_compacted_sweep():
    for j in range(2, 13):
        direct = sum(k * 3 ** k for k in range(j - 1))
        assert 4 * direct == 3 ** (j - 1) * (2 * j - 5) + 3, j
    ns = _log_spaced(200, 3275, 10 ** 7)
    for n in ns:
        plan = planner.plan("compacted", n)
        sched = simulate(plan.node_tree)
        assert sched.depth <= ceil_log3_ratio(n + 31, 3305) + 2, n
        assert plan.report.node_count <= 3 * -(-(n + 31) // 3305), n
        assert sched.total_stalls == 0, n
        assert validate_happens_before(sched, plan.node_tree), n
    _report(5, "%d points bounded, stall-free, happens-before valid; "
            "summation identity exact for j in 2..12" % len(ns))


def test_criterion_6_relaxation_consistency():
    ns = _log_spaced(60, 3275, 10 ** 7)
    for n in ns:
        a = planner.plan("compacted", n)
        b = planner.plan("compacted-relaxed", n)
        da = simulate(a.node_tree).depth
        db = simulate(b.node_tree).depth
        assert da == db, n
        assert b.node_tree == a.node_tree, n
    for j in range(1, 17):
        assert compacted_capacity(j, relaxed=True) == compacted_capacity(j)
    for j in range(17, 24):
        assert compacted_capacity(j, relaxed=True) >= compacted_capacity(j)

    # synthetic shapes past the idle-time boundary: the designated leaf
    # families absorb exactly floor(64*(j-(k+1))/1088)*1088 extra bits
    # with no stalls (j = 18 exercises the final node's leaves, j = 20
    # with k = 0 the leaves of the 1088*(j-k)-bit inner family)
    for parent_blocks, as_final, depth in ((19, True, 19), (20, False, 20)):
        extra = leaf_idle_allowance(parent_blocks) * 1088
        assert extra == 1088
        sched, grown = _grown_leaf_fragment(parent_blocks, extra, as_final)
        assert sched.total_stalls == 0, parent_blocks
        assert max(t.finish for t in sched.timings) == depth
        assert grown == [1081 + extra, 1081 + extra]
    _report(6, "relaxed plans identical on the sweep; synthetic j>=17 "
            "families absorb the idle-time growth stall-free")


def _grown_leaf_fragment(parent_blocks: int, extra: int, as_final: bool):
    msg = 64 * parent_blocks + (984 if as_final else 983)
    children = [MessageHop(msg)]
    grown = []
    for _ in range(2):
        bits = 1081 + extra
        children.append(MessageHop(bits))
        grown.append(bits)
    for m in range(2, parent_blocks):
        for _ in range(2):
            children.append(MessageHop(m * 1088 - 7))
    root = ChainingHop(tuple(children), kangaroo_first=True)
    tree = map_hop_tree_to_node_tree(HopTree(root),
                                     root_final=as_final)
    return simulate(tree), grown


def test_criterion_7_differential_digests():
    start = time.monotonic()
    rng = random.Random(7)
    strategies = ("single", "ternary", "ternary-min-procs", "compacted",
                  "compacted-relaxed")
    cases = 1000
    for case in range(cases):
        n = int(10 ** rng.uniform(0, 6)) if case % 50 else 10 ** 6
        strategy = strategies[case % len(strategies)]
        out_bits = (256, 512, 4096)[case % 3]
        message = BitString(rng.getrandbits(n), n)
        plan = planner.plan(strategy, n)
        seq = evaluate_sequential(plan.node_tree, message, out_bits)
        par = evaluate_parallel(plan.node_tree, message, out_bits)
        assert seq.bits == par.bits, (case, strategy, n)
        assert seq.total_calls == par.total_calls
        if case % 25 == 0:
            order = random_topological_order(plan.node_tree, rng)
            alt = evaluate_sequential(plan.node_tree, message, out_bits,
                                      order=order)
            assert alt.bits == seq.bits, (case, strategy, n)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, "budget exceeded: %.2fs" % elapsed
    _report(7, "%d tuples, parallel == sequential, order-invariant, %.1fs"
            % (cases, elapsed))


def test_criterion_8_grammar_robustness():
    rng = random.Random(8)
    plans = [planner.plan("ternary", 29457),
             planner.plan("ternary", 10 ** 5),
             planner.plan("compacted", 29457),
             planner.plan("compacted", 10 ** 5),
             planner.plan("ternary-min-procs", 13115),
             planner.plan("single", 1112),
             planner.plan("single", 0)]
    nodes = []
    for plan in plans:
        ok, why = validate_tree(plan.node_tree)
        assert ok, (plan.strategy, why)
        nodes.extend(plan.node_tree.nodes)
    mutations = 1000
    for _ in range(mutations):
        node = nodes[rng.randrange(len(nodes))]
        frames = [(i, seg) for i, seg in enumerate(node.segments)
                  if isinstance(seg, FrameBits)]
        idx, seg = frames[rng.randrange(len(frames))]
        flip = rng.randrange(seg.length)
        segments = list(node.segments)
        segments[idx] = FrameBits(seg.value ^ 1 << flip, seg.length)
        twisted = NodeLayout(tuple(segments), node.is_final)
        ok, _ = validate_grammar(twisted)
        assert not ok, (idx, flip)
    _report(8, "all generated nodes parse; %d frame-bit mutations rejected"
            % mutations)


def test_criterion_9_select_model_oracle():
    rng = random.Random(9)
    ns = [3275, 9819, 13115, 14253, 29457]          # includes tie cases
    ns += [rng.randrange(3275, 10 ** 7) for _ in range(120)]
    for n in ns:
        assert select_model(n) == brute_force_model_choice(n), n
    _report(9, "%d samples match the brute-force argmin" % len(ns))
