"""The dependency index: one topology check for validation, simulation
and both executors."""

import pytest

from oracles import validate_tree
from parashake import planner
from parashake.bits import BitString
from parashake.errors import DependencyCycleError
from parashake.evaluate import evaluate_parallel, evaluate_sequential
from parashake.sakura import CVSlot, NodeLayout, NodeTree, validate_node_tree
from parashake.scheduler import simulate, validate_happens_before


def test_index_lists_blocks_and_producers():
    tree = planner.plan("ternary", 29457).node_tree
    for nid, (node, node_deps) in enumerate(zip(tree.nodes, tree.deps)):
        assert node_deps == tuple((pos // 1088, producer, pos)
                                  for pos, producer in node.cv_positions())
        assert all(0 <= producer < nid for _, producer, _ in node_deps)
    assert tree.deps is tree.deps


def _redirect_first_slot(tree: NodeTree, reference: str) -> tuple:
    """Point the tree's first chaining-value slot at its own node, at the
    last node or at a name that is no node id; returns the mutated tree,
    the slot's node and its new producer."""
    nodes = list(tree.nodes)
    nid, idx = next((nid, idx) for nid, node in enumerate(nodes)
                    for idx, seg in enumerate(node.segments)
                    if isinstance(seg, CVSlot))
    producer = {"self": nid, "forward": len(nodes) - 1,
                "not-an-id": "x"}[reference]
    segs = list(nodes[nid].segments)
    segs[idx] = CVSlot(producer)
    nodes[nid] = NodeLayout(tuple(segs), nodes[nid].is_final)
    return NodeTree(tuple(nodes), tree.message_bits), nid, producer


@pytest.mark.parametrize("reference", ["self", "forward", "not-an-id"])
def test_bad_reference_is_one_error_everywhere(reference, rng):
    plan = planner.plan("ternary", 9819)
    tree, nid, producer = _redirect_first_slot(plan.node_tree, reference)
    want = ("node %d consumes value of node %r, which is not an earlier node"
            % (nid, producer))
    assert validate_node_tree(tree) == (False, want)
    message = BitString(rng.getrandbits(9819), 9819)
    sched = simulate(plan.node_tree)
    for call in (lambda: simulate(tree),
                 lambda: validate_happens_before(sched, tree),
                 lambda: evaluate_sequential(tree, message),
                 lambda: evaluate_parallel(tree, message)):
        with pytest.raises(DependencyCycleError) as info:
            call()
        assert str(info.value) == want


def test_one_dependency_walk_per_node(monkeypatch, rng):
    walks = []
    original = NodeLayout.cv_positions

    def counted(self):
        walks.append(self)
        return original(self)

    monkeypatch.setattr(NodeLayout, "cv_positions", counted)
    tree = planner.plan("ternary", 9819).node_tree
    message = BitString(rng.getrandbits(9819), 9819)
    assert validate_tree(tree) == (True, "ok")
    sched = simulate(tree)
    assert validate_happens_before(sched, tree)
    evaluate_parallel(tree, message)
    evaluate_sequential(tree, message)
    assert len(walks) == tree.node_count
    assert {id(node) for node in walks} == {id(node) for node in tree.nodes}
