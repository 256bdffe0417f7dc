"""The benchmark's tracer wraps package attributes by name; a refactor that
removes or rebinds one of them must fail here, not only in a traced run."""

import importlib.util
import os

from parashake import evaluate, planner
from parashake.bits import BitString

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists():
    tracer = _load_tracer()
    for owner, attr, span, _ in tracer.SPANS:
        assert attr in vars(owner), (owner.__name__, attr, span)
        assert callable(vars(owner)[attr]), (owner.__name__, attr)


def test_traced_run_sees_every_node_step():
    tracer = _load_tracer()
    p = planner.plan("ternary", 9819)
    message = BitString((1 << 9819) - 1, 9819)
    with tracer.Tracer() as t:
        digest = evaluate.evaluate_sequential(p.node_tree, message)
        evaluate.evaluate_parallel(p.node_tree, message)
    assert t.calls["evaluate.assembly"] == 2 * p.node_tree.node_count
    assert t.calls["sponge"] == p.node_tree.node_count      # sequential only
    assert t.counts["keccak.calls"] == 2 * digest.total_calls
