"""Wire formats: canonical dumps, lossless loads, defect detection."""

import gc
import json
import random

import pytest

from parashake import planner, scheduler, treeio
from parashake.bits import BitString
from parashake.errors import GrammarError
from parashake.evaluate import evaluate_parallel, evaluate_sequential
from parashake.sakura import (iter_hops, map_hop_tree_to_node_tree,
                              validate_node_tree)


def test_plan_roundtrip_is_byte_identical():
    for strategy, n in (("ternary", 29457), ("compacted", 12345),
                        ("single", 0), ("ternary-min-procs", 13115)):
        plan = planner.plan(strategy, n)
        text = treeio.dump_plan(plan)
        again = treeio.dump_plan(treeio.load_plan(text))
        assert text == again, strategy


SIZES = (0, 1, 2170, 2171, 3275, 29457, 10**5)


def test_loaded_plan_equals_original():
    for strategy in planner.STRATEGIES:
        for n in SIZES:
            plan = planner.plan(strategy, n)
            text = treeio.dump_plan(plan)
            loaded = treeio.load_plan(text)
            assert loaded.hop_tree == plan.hop_tree, (strategy, n)
            assert loaded.node_tree == plan.node_tree, (strategy, n)
            assert loaded.report == plan.report, (strategy, n)
            assert treeio.dump_plan(loaded) == text, (strategy, n)


def _distinct_hops(tree) -> int:
    return len({id(hop) for _, hop in iter_hops(tree)})


@pytest.mark.parametrize("strategy", planner.STRATEGIES)
def test_loaded_plan_shares_equal_subtrees(strategy):
    plan = planner.plan(strategy, 10 ** 6)
    loaded = treeio.load_plan(treeio.dump_plan(plan)).hop_tree
    assert loaded == plan.hop_tree
    assert _distinct_hops(loaded) <= _distinct_hops(plan.hop_tree)


def test_plan_document_shape():
    plan = planner.plan("compacted", 9884)
    doc = json.loads(treeio.dump_plan(plan))
    assert doc["schema"] == "sakura-plan/3"
    assert set(doc) == {"schema", "message_bits", "report", "hops"}
    assert doc["message_bits"] == 9884
    assert doc["report"]["node_count"] == plan.node_tree.node_count
    # hop indices: the final hop has the empty index
    indexes = [tuple(h["index"]) for h in doc["hops"]]
    assert () in set(indexes)
    for idx in indexes:
        if idx:
            assert idx[:-1] in set(indexes)


def test_load_rejects_bad_documents():
    plan = planner.plan("single", 100)
    doc = json.loads(treeio.dump_plan(plan))
    broken = dict(doc, schema="something-else")
    with pytest.raises(GrammarError):
        treeio.load_plan(json.dumps(broken))
    broken = json.loads(treeio.dump_plan(plan))
    broken["report"]["node_count"] = 2
    with pytest.raises(GrammarError, match="report disagrees"):
        treeio.load_plan(json.dumps(broken))
    broken = json.loads(treeio.dump_plan(plan))
    broken["report"]["message_bits"] = 101
    with pytest.raises(GrammarError, match="report disagrees"):
        treeio.load_plan(json.dumps(broken))
    broken = json.loads(treeio.dump_plan(plan))
    broken["hops"] = []
    with pytest.raises(GrammarError):
        treeio.load_plan(json.dumps(broken))
    # a /2 document, which named one of two mappings, is not read as /3
    broken = dict(doc, schema="sakura-plan/2", compaction="compacted")
    with pytest.raises(GrammarError, match="not a sakura-plan/3 document"):
        treeio.load_plan(json.dumps(broken))


def test_load_rejects_offsets_and_lengths_that_are_not_derived():
    text = treeio.dump_plan(planner.plan("ternary", 9819))
    # the message one bit longer than its hops, in the report as well
    broken = json.loads(text)
    broken["message_bits"] = broken["report"]["message_bits"] = 9820
    with pytest.raises(GrammarError, match="message_bits 9820 is not 9819"):
        treeio.load_plan(json.dumps(broken))
    # two message hops that trade offsets: the slices still partition the
    # message, but not in stream order
    broken = json.loads(text)
    second, third = [h for h in broken["hops"] if h["kind"] == "message"][1:3]
    second["offset_bits"], third["offset_bits"] = (third["offset_bits"],
                                                   second["offset_bits"])
    with pytest.raises(GrammarError,
                       match=r"hop \[0, 1\]: offset_bits is not 1111"):
        treeio.load_plan(json.dumps(broken))


def test_schedule_document():
    plan = planner.plan("ternary", 29457)
    sched = scheduler.simulate(plan.node_tree)
    doc = json.loads(treeio.dump_schedule(sched))
    assert doc["schema"] == "sakura-schedule/1"
    assert doc["depth"] == 4
    assert doc["processors"] == 27
    assert len(doc["rows"]) == 27
    row = doc["rows"][-1]
    assert row["finish"] == max(r["finish"] for r in doc["rows"])
    assert row["block_times"] == sorted(row["block_times"])
    assert all(r["stalls"] == 0 for r in doc["rows"])


def test_vector_loader():
    rows = treeio.load_vectors('[{"message_hex": "", "message_bit_length": 0,'
                               ' "out_len_bits": 8, "digest_hex": "ab"}]')
    assert rows[0]["out_len_bits"] == 8
    with pytest.raises(ValueError):
        treeio.load_vectors('{"not": "a list"}')
    with pytest.raises(ValueError):
        treeio.load_vectors('[{"message_hex": ""}]')
    with pytest.raises(ValueError):
        treeio.load_vectors('[{"message_hex": "", ')
    with pytest.raises(GrammarError):
        treeio.load_vectors('not json')


@pytest.mark.parametrize("strategy, n", (("ternary", 29457),
                                         ("compacted", 10**5),
                                         ("compacted-relaxed", 10**5),
                                         ("single", 29457)))
def test_planning_and_loading_leave_no_reference_cycles(strategy, n):
    # with the collector off, whatever the calls leave unreachable stays
    # until gc.collect(), which reports how much it freed; the calls are
    # those of planning, `analyze` and `hash`, and both executors
    text = treeio.dump_plan(planner.plan(strategy, n))
    message = BitString(random.Random(n).getrandbits(n), n)
    gc.collect()
    gc.disable()
    try:
        plan = planner.plan(strategy, n)
        map_hop_tree_to_node_tree(plan.hop_tree)
        tree = treeio.load_plan(text).node_tree
        assert validate_node_tree(tree) == (True, "ok")
        schedule = scheduler.simulate(tree)
        assert scheduler.validate_happens_before(schedule, tree)
        digest = evaluate_sequential(tree, message)
        assert evaluate_parallel(tree, message, schedule=schedule) == digest
        assert evaluate_parallel(tree, message) == digest
        del plan, tree, schedule, digest
        assert gc.collect() == 0
    finally:
        gc.enable()
