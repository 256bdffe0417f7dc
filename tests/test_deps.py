"""The dependency index: one topology check for validation, simulation
and both executors."""

from dataclasses import replace

import pytest

from oracles import validate_tree
from parashake import planner
from parashake.bits import BitString
from parashake.errors import DependencyCycleError
from parashake.evaluate import evaluate_parallel, evaluate_sequential
from parashake.sakura import NodeLayout, NodeTree, validate_node_tree
from parashake.scheduler import simulate, validate_happens_before


def test_index_lists_blocks_and_producers():
    tree = planner.plan("ternary", 29457).node_tree
    for nid, (node, node_deps) in enumerate(zip(tree.nodes, tree.deps)):
        assert node_deps == tuple(
            (pos // 1088, producer, pos) for pos, producer
            in zip(node.cv_positions(), tree.producers[nid]))
        assert all(0 <= producer < nid for _, producer, _ in node_deps)
    assert tree.deps is tree.deps


def _break(tree: NodeTree, fault: str) -> tuple:
    """The tree with one fault and the error that it must raise.  The
    reference faults point the first chaining value at its own node, at
    the last node or at a name that is no node id; the others drop the
    last offset or producer list, or give the first consumer one producer
    fewer or more than it has slots."""
    nid = next(nid for nid, ids in enumerate(tree.producers) if ids)
    producers = list(tree.producers)
    ids = producers[nid]
    if fault in ("self", "forward", "not-an-id"):
        producer = {"self": nid, "forward": len(producers) - 1,
                    "not-an-id": "x"}[fault]
        producers[nid] = (producer,) + ids[1:]
        want = ("node %d consumes value of node %r, which is not an earlier "
                "node" % (nid, producer))
    elif fault in ("fewer-producers", "more-producers"):
        producers[nid] = ids[:-1] if fault == "fewer-producers" else ids + (0,)
        want = ("node %d has %d producers for %d chaining-value slots"
                % (nid, len(producers[nid]), len(ids)))
    elif fault == "short-offsets":
        tree = replace(tree, offsets=tree.offsets[:-1])
        want = "%d nodes, %d offsets, %d producer lists" % (
            tree.node_count, tree.node_count - 1, tree.node_count)
    else:
        producers.pop()
        want = "%d nodes, %d offsets, %d producer lists" % (
            tree.node_count, tree.node_count, tree.node_count - 1)
    return replace(tree, producers=tuple(producers)), want


@pytest.mark.parametrize("reference", ["self", "forward", "not-an-id",
                                       "fewer-producers", "more-producers",
                                       "short-offsets", "short-producers"])
def test_bad_reference_is_one_error_everywhere(reference, rng):
    plan = planner.plan("ternary", 9819)
    tree, want = _break(plan.node_tree, reference)
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
