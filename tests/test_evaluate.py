"""Digest evaluation: determinism, order independence, parallel equality."""

import json
import pathlib
import threading
from dataclasses import replace

import pytest

from oracles import random_topological_order, rigid_schedule
from parashake import evaluate, keccak, planner, scheduler, selftest
from parashake.bits import BitString
from parashake.errors import (DependencyCycleError, OutputLengthError,
                              SliceRangeError)
from parashake.evaluate import (evaluate_parallel, evaluate_sequential,
                                materialize_node)
from parashake.sakura import (ChainingHop, HopTree, MessageHop,
                              map_hop_tree_to_node_tree)
from parashake.scheduler import NodeTiming
from parashake.sponge import shake256


def random_message(rng, n):
    return BitString(rng.getrandbits(n) if n else 0, n)


def test_single_strategy_equals_shake256(rng):
    for n in (0, 1, 7, 1082, 1083, 2170, 5000):
        message = random_message(rng, n)
        p = planner.plan("single", n)
        digest = evaluate_sequential(p.node_tree, message, 512)
        assert digest.bits == shake256(message, 512), n


def test_deterministic(rng):
    message = random_message(rng, 29457)
    p = planner.plan("ternary", 29457)
    a = evaluate_sequential(p.node_tree, message)
    b = evaluate_sequential(p.node_tree, message)
    assert a.bits == b.bits and a.total_calls == b.total_calls


def test_total_work_matches_schedule(rng):
    for strategy in ("ternary", "compacted", "single"):
        n = rng.randrange(1, 100000)
        message = random_message(rng, n)
        p = planner.plan(strategy, n)
        for out_bits in (512, 4096):
            digest = evaluate_sequential(p.node_tree, message, out_bits)
            sched = scheduler.simulate(p.node_tree, out_bits)
            assert digest.total_calls == sched.total_calls, (strategy, n)


def test_order_independence(rng):
    n = 29457
    message = random_message(rng, n)
    p = planner.plan("ternary", n)
    want = evaluate_sequential(p.node_tree, message)
    for _ in range(5):
        order = random_topological_order(p.node_tree, rng)
        got = evaluate_sequential(p.node_tree, message, order=order)
        assert got.bits == want.bits


def test_bad_order_rejected(rng):
    p = planner.plan("ternary", 29457)
    message = random_message(rng, 29457)
    order = list(range(p.node_tree.node_count))
    order[0], order[-1] = order[-1], order[0]
    with pytest.raises(DependencyCycleError):
        evaluate_sequential(p.node_tree, message, order=order)
    with pytest.raises(DependencyCycleError):
        evaluate_sequential(p.node_tree, message, order=order[:-1])


def test_parallel_matches_sequential(rng):
    for strategy in ("ternary", "ternary-min-procs", "compacted",
                     "compacted-relaxed", "single"):
        n = rng.randrange(1, 200000)
        message = random_message(rng, n)
        p = planner.plan(strategy, n)
        seq = evaluate_sequential(p.node_tree, message)
        par = evaluate_parallel(p.node_tree, message)
        assert (par.bits, par.total_calls) == (seq.bits, seq.total_calls), \
            (strategy, n)


def _trace_launches(monkeypatch):
    """Record (width, rounds, thread) for every `keccak.absorb_blocks`."""
    launches = []
    original = keccak.absorb_blocks

    def traced(state, data, rate_bytes):
        width = len(state) // 200
        launches.append((width, len(data) // (rate_bytes * width),
                         threading.get_ident()))
        return original(state, data, rate_bytes)

    monkeypatch.setattr(keccak, "absorb_blocks", traced)
    return launches


@pytest.mark.parametrize("strategy", ["ternary", "compacted", "single"])
@pytest.mark.parametrize("cap", [evaluate.LAUNCH_CAP, 5],
                         ids=["module-cap", "cap-5"])
def test_parallel_launches_follow_the_schedule(strategy, cap, rng,
                                               monkeypatch):
    n = 50000
    message = random_message(rng, n)
    tree = planner.plan(strategy, n).node_tree
    want = evaluate_sequential(tree, message)
    launches = _trace_launches(monkeypatch)
    monkeypatch.setattr(evaluate, "LAUNCH_CAP", cap)
    got = evaluate_parallel(tree, message)
    sched = scheduler.simulate(tree)
    busy = {}
    for t in sched.timings:
        for end in t.block_end:
            busy[end] = busy.get(end, 0) + 1
    widths = [busy[unit] for unit in sorted(busy)]
    # a width-1 launch of k rounds is a run of k units of one block each;
    # a wider launch is one round
    expanded = []
    for width, rounds, _ in launches:
        assert width == 1 or rounds == 1
        expanded += [width] * rounds
    rest = iter(expanded)
    for w in widths:
        total = 0
        while total < w:
            total += next(rest)
        assert total == w
    assert next(rest, None) is None
    assert max(width for width, _, _ in launches) <= cap
    assert {ident for _, _, ident in launches} == {threading.get_ident()}
    assert sum(width * rounds for width, rounds, _ in launches) == \
        sched.absorb_calls
    assert got == want


@pytest.mark.parametrize("strategy, n, launches, units", [
    ("single", 50000, [(1, 46)], 46),
    # the final node absorbs its last two blocks alone
    ("compacted", 10 ** 5, [(91, 1), (30, 1), (10, 1), (4, 1), (1, 2)], 6),
], ids=["single", "compacted-tail"])
def test_node_absorbing_alone_takes_one_launch(strategy, n, launches, units,
                                               rng, monkeypatch):
    message = random_message(rng, n)
    tree = planner.plan(strategy, n).node_tree
    want = evaluate_sequential(tree, message)
    traced = _trace_launches(monkeypatch)
    got = evaluate_parallel(tree, message)
    assert got == want
    assert max(t.finish for t in scheduler.simulate(tree).timings) == units
    assert [(width, rounds) for width, rounds, _ in traced] == launches
    assert len(launches) < units


def test_parallel_runs_the_given_schedule(rng, monkeypatch):
    n = 29457
    message = random_message(rng, n)
    tree = planner.plan("ternary", n).node_tree
    sched = scheduler.simulate(tree, 4096)
    want = evaluate_sequential(tree, message, 4096)

    def no_simulation(*args):
        raise AssertionError("the given schedule was simulated again")

    monkeypatch.setattr(scheduler, "simulate", no_simulation)
    assert evaluate_parallel(tree, message, 4096, schedule=sched) == want
    with pytest.raises(ValueError):
        evaluate_parallel(tree, message, 512, schedule=sched)
    other = planner.plan("ternary", 9819).node_tree
    with pytest.raises(ValueError):
        evaluate_parallel(other, message, 4096, schedule=sched)
    with pytest.raises(OutputLengthError):
        evaluate_parallel(tree, message, 0, schedule=sched)


def test_tree_digests_match_the_goldens():
    path = pathlib.Path(selftest.__file__).parent / "data" / "tree_digests.json"
    doc = json.loads(path.read_text())
    assert sorted((row["strategy"], row["message_bits"])
                  for row in doc["digests"]) == sorted(
        (s, n) for s in planner.STRATEGIES
        for n in (0, 1, 2170, 2171, 3275, 29457, 10 ** 5, 10 ** 6))
    assert doc["out_bits"] == 4096
    assert selftest.suite_tree_digests() == (
        True, "40 digests at 256/512/4096 bits")


def test_avalanche_on_message_flip(rng):
    n = 29457
    message = random_message(rng, n)
    p = planner.plan("ternary", n)
    base = evaluate_sequential(p.node_tree, message)
    for _ in range(5):
        flip = rng.randrange(n)
        mutated = BitString(message.value ^ (1 << flip), n)
        assert evaluate_sequential(p.node_tree, mutated).bits != base.bits


def test_strategy_changes_digest(rng):
    # the tree shape is part of the function definition
    n = 29457
    message = random_message(rng, n)
    digests = set()
    for strategy in ("single", "ternary", "compacted"):
        p = planner.plan(strategy, n)
        digests.add(evaluate_sequential(p.node_tree, message).bits.hex())
    assert len(digests) == 3


def test_xof_prefix_across_outputs(rng):
    n = 12345
    message = random_message(rng, n)
    p = planner.plan("compacted", n)
    long = evaluate_sequential(p.node_tree, message, 4096)
    for out_bits in (256, 512):
        short = evaluate_sequential(p.node_tree, message, out_bits)
        assert short.bits == long.bits.slice(0, out_bits)


def _no_permutations(*args, **kwargs):
    raise AssertionError("permutation run before the arguments were checked")


@pytest.mark.parametrize("out_bits", [0, -1])
@pytest.mark.parametrize("executor", [evaluate_sequential, evaluate_parallel])
def test_bad_out_bits_fail_before_hashing(monkeypatch, rng, executor,
                                          out_bits):
    monkeypatch.setattr(keccak, "absorb_blocks", _no_permutations)
    monkeypatch.setattr(keccak, "permute", _no_permutations)
    p = planner.plan("ternary", 29457)
    with pytest.raises(OutputLengthError):
        executor(p.node_tree, random_message(rng, 29457), out_bits)


def _unrunnable(case: str) -> tuple:
    """A 2,169-bit tree and a schedule that cannot run it."""
    if case == "block-ends-2-2":
        tree = planner.plan("single", 2169).node_tree
        return tree, replace(scheduler.simulate(tree),
                             timings=(NodeTiming((2, 2)),))
    tree = map_hop_tree_to_node_tree(HopTree(
        ChainingHop((MessageHop(2169),), kangaroo_first=False)))
    if case == "rigid":
        return tree, rigid_schedule(tree)
    sched = scheduler.simulate(tree)
    return tree, replace(sched, timings=sched.timings[:-1])


@pytest.mark.parametrize("case", ["block-ends-2-2", "rigid",
                                  "missing-last-timing"])
def test_unrunnable_schedule_fails_before_hashing(monkeypatch, rng, case):
    # a schedule that absorbs two blocks of a node in one unit, reads a
    # value before its producer finishes, or leaves a node out is
    # rejected, not run into a wrong digest or a KeyError
    tree, sched = _unrunnable(case)
    assert not scheduler.validate_happens_before(sched, tree)
    monkeypatch.setattr(keccak, "absorb_blocks", _no_permutations)
    monkeypatch.setattr(keccak, "permute", _no_permutations)
    with pytest.raises(ValueError):
        evaluate_parallel(tree, random_message(rng, 2169), schedule=sched)


@pytest.mark.parametrize("extra", [-1, 8])
@pytest.mark.parametrize("executor", [evaluate_sequential, evaluate_parallel])
def test_wrong_message_length_fails_before_hashing(monkeypatch, rng,
                                                   executor, extra):
    # a longer message is not cut to the tree's length, nor a shorter one
    # hashed as far as it goes
    monkeypatch.setattr(keccak, "absorb_blocks", _no_permutations)
    monkeypatch.setattr(keccak, "permute", _no_permutations)
    p = planner.plan("ternary", 5000)
    with pytest.raises(SliceRangeError, match="message is %d bits"
                       % (5000 + extra)):
        executor(p.node_tree, random_message(rng, 5000 + extra))


def test_slice_out_of_range(rng):
    p = planner.plan("ternary", 29457)
    message = random_message(rng, 1000)  # too short for the plan
    with pytest.raises(SliceRangeError):
        evaluate_sequential(p.node_tree, message)


def test_materialize_node_assembles_stream(rng):
    p = planner.plan("single", 42)
    message = random_message(rng, 42)
    bits = materialize_node(p.node_tree, 0, message.to_bytes(), {})
    assert len(bits) == 1088
    assert bits.slice(0, 42) == message
    # message hop marker and final marker follow the message
    assert bits.value >> 42 & 1 == 1 and bits.value >> 43 & 1 == 1
