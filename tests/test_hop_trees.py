"""Random hop trees: every tree the mapping accepts validates, schedules
without a happens-before violation, hashes to one digest and one call
count under both executors, and survives a plan-document round trip.

`data/hop_tree_digests.json` pins 32 seeded trees with their 512-bit
digests, as `sakura-plan/2` documents: a tree marked "compacted" stands
for its `merge_chains` rewrite.  `PYTHONPATH=src python
tests/test_hop_trees.py` rewrites it; do that only when the function
being computed is meant to change.
"""

import json
import pathlib
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import is_pad, merge_chains
from parashake import treeio
from parashake.bits import BitString
from parashake.evaluate import evaluate_parallel, evaluate_sequential
from parashake.planner import Plan, PlanReport
from parashake.sakura import (ChainingHop, HopTree, MessageHop,
                              map_hop_tree_to_node_tree, validate_node_tree)
from parashake.scheduler import simulate, validate_happens_before

PINNED = pathlib.Path(__file__).parent / "data" / "hop_tree_digests.json"


def _hop(shape, offset: int = 0) -> tuple:
    """The hop of `shape` (a message length, or a (kangaroo, aligned,
    children) triple) over the message from bit `offset`, and the bit
    after it."""
    if isinstance(shape, int):
        return MessageHop(offset, shape), offset + shape
    kangaroo, aligned, kids = shape
    children = []
    for kid in kids:
        child, offset = _hop(kid, offset)
        children.append(child)
    return ChainingHop(tuple(children), kangaroo, aligned), offset


def _tree(shape) -> HopTree:
    return HopTree(*_hop(shape))


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


def draw_seeded(randint) -> tuple:
    """A hop tree of depth 1 to 3, a "compaction" flag and an output
    length, from `randint(lo, hi)` draws.  Chaining hops have 2 to 5
    children and random kangaroo and `aligned` flags; message hops hold
    0, 1, 7, 8 or up to 5000 bits.  Half the trees lengthen the root
    node's first hop so that its first alignment pad has no zeros.  The
    flag, "aligned" or "compacted", is what the pinned documents record
    for the tree."""
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
    return _tree(root), ("aligned", "compacted")[randint(0, 1)], \
        randint(1, 2177)


def _flagged(tree: HopTree, flag: str) -> HopTree:
    """The tree that `tree` flagged `flag` stands for."""
    return merge_chains(tree) if flag == "compacted" else tree


def draw_case(randint) -> tuple:
    """The tree `draw_seeded` stands for, and the output length."""
    tree, flag, out_bits = draw_seeded(randint)
    return _flagged(tree, flag), out_bits


def check_tree(tree: HopTree, out_bits: int) -> str:
    """Assert every property of the module docstring; returns the digest
    of the tree's seeded message in hex."""
    nodes = map_hop_tree_to_node_tree(tree)
    ok, why = validate_node_tree(nodes)
    assert ok, why
    schedule = simulate(nodes, out_bits)
    assert validate_happens_before(schedule, nodes)
    n = tree.message_bits
    message = BitString(random.Random(n).getrandbits(n), n)
    seq = evaluate_sequential(nodes, message, out_bits)
    par = evaluate_parallel(nodes, message, out_bits, schedule=schedule)
    assert seq.bits == par.bits
    assert seq.total_calls == par.total_calls == schedule.total_calls
    assert treeio.load_plan(_document(tree)).node_tree == nodes
    return seq.hex()


def _document(tree: HopTree) -> str:
    """The plan document of a tree no strategy built: no predictions."""
    nodes = map_hop_tree_to_node_tree(tree)
    report = PlanReport("random", None, tree.message_bits, 0, 0, 0,
                        nodes.node_count)
    return treeio.dump_plan(Plan("random", tree, nodes, report))


def _pinned_document(tree: HopTree, flag: str) -> dict:
    """`tree` as a `sakura-plan/2` document flagged `flag`."""
    doc = json.loads(_document(tree))
    doc.update(schema="sakura-plan/2", compaction=flag)
    return doc


def _pinned_tree(doc: dict) -> HopTree:
    """The tree a pinned `sakura-plan/2` document stands for."""
    doc = dict(doc, schema=treeio.PLAN_SCHEMA)
    flag = doc.pop("compaction")
    return _flagged(treeio.load_plan(json.dumps(doc)).hop_tree, flag)


@st.composite
def _cases(draw):
    return draw_case(lambda lo, hi: draw(st.integers(lo, hi)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=_cases())
def test_random_hop_tree(case):
    check_tree(*case)


def test_pinned_hop_tree_digests():
    cases = json.loads(PINNED.read_text())
    assert len(cases) == 32
    for i, case in enumerate(cases):
        got = check_tree(_pinned_tree(case["plan"]), 512)
        assert got == case["digest_hex"], i


def record(count: int = 32) -> None:
    """Write the digests of the trees drawn from seeds 0..count-1."""
    rows = []
    for seed in range(count):
        tree, flag, _ = draw_seeded(random.Random(seed).randint)
        rows.append(json.dumps({
            "plan": _pinned_document(tree, flag),
            "digest_hex": check_tree(_flagged(tree, flag), 512)},
            sort_keys=True))
    PINNED.write_text("[\n" + ",\n".join(rows) + "\n]\n")


if __name__ == "__main__":
    record()
