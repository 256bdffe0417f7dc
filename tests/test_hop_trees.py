"""Random hop trees: every tree the mapping accepts validates, schedules
without a happens-before violation, expands into the launches a brute
expansion of its schedule gives, hashes to one digest and one call count
under both executors, to the digest the coding oracle
(`oracles.sakura_digest`) derives, and survives a plan-document round
trip.

`data/hop_tree_digests.json` pins 32 seeded trees, as `sakura-plan/3`
documents, with their 512-bit digests.  `PYTHONPATH=src python
tests/test_hop_trees.py` rewrites it; do that only when the function
being computed is meant to change.
"""

import json
import pathlib
import random
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import is_pad, merge_chains, sakura_digest, validate_tree
from parashake import evaluate, treeio
from parashake.bits import BitString
from parashake.evaluate import evaluate_parallel, evaluate_sequential
from parashake.planner import Plan, PlanReport
from parashake.sakura import (ChainingHop, HopTree, MessageHop,
                              map_hop_tree_to_node_tree)
from parashake.scheduler import launches, simulate, validate_happens_before

PINNED = pathlib.Path(__file__).parent / "data" / "hop_tree_digests.json"


def _hop(shape):
    """The hop of `shape`: a message length, or a (kangaroo, aligned,
    children) triple."""
    if isinstance(shape, int):
        return MessageHop(shape)
    kangaroo, aligned, kids = shape
    return ChainingHop(tuple(map(_hop, kids)), kangaroo, aligned)


def _tree(shape) -> HopTree:
    return HopTree(_hop(shape))


def _grow_first_hop(shape, bits: int):
    """`shape` with the first hop of its root node `bits` longer."""
    if isinstance(shape, int):
        return shape + bits
    kangaroo, aligned, kids = shape
    if not kangaroo:
        return shape
    return kangaroo, aligned, [_grow_first_hop(kids[0], bits)] + kids[1:]


def _first_pad_zeros(shape) -> int:
    """Zeros of the first alignment pad in the root node of `shape`."""
    root = map_hop_tree_to_node_tree(_tree(shape)).nodes[-1]
    return next((seg.length - 1 for seg in root.segments if is_pad(seg)),
                0)


def draw_case(randint) -> tuple:
    """A hop tree of depth 1 to 3 and an output length, from
    `randint(lo, hi)` draws.  Chaining hops have 2 to 5 children and
    random kangaroo and `aligned` flags; message hops hold 0, 1, 7, 8 or
    up to 5000 bits.  Half the trees lengthen the root node's first hop
    so that its first alignment pad has no zeros, and half are rewritten
    by `merge_chains` into one merged chaining hop per node."""
    def length():
        return (0, 1, 7, 8)[randint(0, 3)] if randint(0, 1) else \
            randint(0, 5000)

    def shape(depth: int, root: bool = False):
        if depth == 0 or not root and randint(0, 1):
            return length()
        kids = [shape(depth - 1) for _ in range(randint(2, 5))]
        return bool(randint(0, 1)), bool(randint(0, 1)), kids

    root = shape(randint(1, 3), root=True)
    if randint(0, 1):
        root = _grow_first_hop(root, _first_pad_zeros(root))
    tree = _tree(root)
    if randint(0, 1):
        tree = merge_chains(tree)
    return tree, randint(1, 2177)


def check_tree(tree: HopTree, out_bits: int) -> str:
    """Assert every property of the module docstring; returns the digest
    of the tree's seeded message in hex."""
    nodes = map_hop_tree_to_node_tree(tree)
    ok, why = validate_tree(nodes)
    assert ok, why
    schedule = simulate(nodes, out_bits)
    assert validate_happens_before(schedule, nodes)
    n = tree.message_bits
    message = BitString(random.Random(n).getrandbits(n), n)
    seq = evaluate_sequential(nodes, message, out_bits)
    par = evaluate_parallel(nodes, message, out_bits, schedule=schedule)
    assert seq.bits == par.bits == sakura_digest(tree, message, out_bits)
    assert seq.total_calls == par.total_calls == schedule.total_calls
    assert treeio.load_plan(_document(tree)).node_tree == nodes
    return seq.hex()


def _document(tree: HopTree) -> str:
    """The plan document of a tree no strategy built: no predictions."""
    nodes = map_hop_tree_to_node_tree(tree)
    report = PlanReport("random", None, tree.message_bits, 0, 0, 0,
                        nodes.node_count)
    return treeio.dump_plan(Plan("random", tree, nodes, report))


@st.composite
def _cases(draw):
    return draw_case(lambda lo, hi: draw(st.integers(lo, hi)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=_cases())
def test_random_hop_tree(case):
    check_tree(*case)


def _brute_launches(schedule, cap: int) -> list:
    """The launches of `schedule`, from its units built block by block:
    each maximal run of one-block units of one node is one launch, and
    every other unit goes out in slices of at most `cap` blocks."""
    depth = max(t.finish for t in schedule.timings)
    units = [[(nid, block) for nid, t in enumerate(schedule.timings)
              for block, end in enumerate(t.block_end) if end == unit]
             for unit in range(1, depth + 1)]
    want = []
    for nid, run in groupby(units, lambda unit:
                            unit[0][0] if len(unit) == 1 else None):
        run = list(run)
        if nid is not None:
            want.append([(nid, run[0][0][1], len(run))])
            continue
        for unit in run:
            want += [[(node, block, 1) for node, block in unit[lo:lo + cap]]
                     for lo in range(0, len(unit), cap)]
    return want


@pytest.mark.parametrize("cap", [1, 5, evaluate.LAUNCH_CAP])
def test_launches_match_a_brute_expansion(cap):
    for seed in range(32):
        tree, out_bits = draw_case(random.Random(seed).randint)
        schedule = simulate(map_hop_tree_to_node_tree(tree), out_bits)
        got = launches(schedule, cap)
        assert got == _brute_launches(schedule, cap), seed
        assert all(1 <= len(launch) <= cap for launch in got), seed
        # a launch is one round of many states or many rounds of one
        rounds = [launch[0][2] for launch in got]
        assert all(len(launch) == 1 or r == 1
                   for launch, r in zip(got, rounds)), seed
        assert sum(len(launch) * r for launch, r in zip(got, rounds)) == \
            schedule.absorb_calls, seed


def test_pinned_hop_tree_digests():
    cases = json.loads(PINNED.read_text())
    assert len(cases) == 32
    for i, case in enumerate(cases):
        tree = treeio.load_plan(json.dumps(case["plan"])).hop_tree
        got = check_tree(tree, 512)
        assert got == case["digest_hex"], i


def record(count: int = 32) -> None:
    """Write the digests of the trees drawn from seeds 0..count-1."""
    rows = []
    for seed in range(count):
        tree, _ = draw_case(random.Random(seed).randint)
        rows.append(json.dumps({
            "plan": json.loads(_document(tree)),
            "digest_hex": check_tree(tree, 512)}, sort_keys=True))
    PINNED.write_text("[\n" + ",\n".join(rows) + "\n]\n")


if __name__ == "__main__":
    record()
