"""Parallel SHAKE256 tree hashing over Keccak-f[1600] with Sakura-coded
nodes: planners for depth/processor-optimized node trees, a
permutation-call-granular scheduler, and sequential/parallel digest
evaluation."""

from .bits import BitString
from .evaluate import (Digest, differential_check, evaluate_parallel,
                       evaluate_sequential)
from .keccak import BACKEND, keccak_f
from .planner import (MODELS, Plan, PlanReport, plan, plan_compacted,
                      plan_compacted_relaxed, plan_single, plan_ternary,
                      plan_ternary_with_model, predict, select_model)
from .sakura import (HopTree, NodeTree, map_hop_tree_to_node_tree,
                     node_bit_cost, validate_grammar, validate_node_tree)
from .scheduler import Schedule, simulate, validate_happens_before
from .sponge import inner_f, rawshake_cost, shake256, xof_output

__version__ = "0.1.0"

__all__ = [
    "BACKEND", "BitString", "Digest", "HopTree", "MODELS", "NodeTree",
    "Plan", "PlanReport", "Schedule", "__version__",
    "differential_check", "evaluate_parallel", "evaluate_sequential",
    "inner_f", "keccak_f", "map_hop_tree_to_node_tree", "node_bit_cost",
    "plan", "plan_compacted", "plan_compacted_relaxed", "plan_single",
    "plan_ternary", "plan_ternary_with_model", "predict", "rawshake_cost",
    "select_model", "shake256", "simulate", "validate_grammar",
    "validate_happens_before", "validate_node_tree", "xof_output",
]
