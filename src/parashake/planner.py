"""Hop-tree planners: per-strategy constructions plus closed-form predictions.

Strategies:

* single            - one final message hop; sequential baseline.
* ternary           - 3273-bit parts under the three-processor subtree
                      template, composed by a ternary tree of rate-aligned
                      kangaroo hops.
* ternary-min-procs - parts sized by the template that minimizes the
                      processor count at the same depth.
* compacted         - at most one chaining hop per node, no alignment
                      padding; message capacities follow the per-level
                      node-length distribution.
* compacted-relaxed - compacted, with leaf hops enlarged where their
                      processor would otherwise sit idle.

All planning is pure integer arithmetic on layouts; message bytes are
never touched.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MessageTooShortError, NodeCapacityError
from .sakura import (CV_BITS, MAX_CVS, RATE_BITS, ChainingHop, HopTree,
                     MessageHop, NodeTree, map_hop_tree_to_node_tree)

STRATEGIES = ("single", "ternary", "ternary-min-procs", "compacted",
              "compacted-relaxed")

#: Inner-node message capacity of a one-block message-only node.
LEAF_CAPACITY = RATE_BITS - 7


@dataclass(frozen=True)
class ModelEntry:
    """One row of the subtree catalogue: a height-1 tree with a single
    kangaroo hop.  `distribution` lists the child-hop message capacities;
    the first child is absorbed into the root node."""
    id: int
    message_bits: int
    processors: int
    time_units: int
    distribution: tuple

    def capacity(self, as_final: bool) -> int:
        # a final hop carries one extra message bit
        return self.message_bits + (1 if as_final else 0)


MODELS = (
    ModelEntry(0, 2169, 1, 2, (2169,)),
    ModelEntry(1, 2704, 2, 2, (1623, 1081)),
    ModelEntry(2, 3273, 3, 2, (1111, 1081, 1081)),
    ModelEntry(3, 4880, 2, 3, (2711, 2169)),
    ModelEntry(4, 6537, 3, 3, (2199, 2169, 2169)),
    ModelEntry(5, 7106, 4, 3, (1687, 1081, 2169, 2169)),
    ModelEntry(6, 7675, 5, 3, (1175, 1081, 1081, 2169, 2169)),
    ModelEntry(7, 11458, 4, 4, (2775, 2169, 3257, 3257)),
    ModelEntry(8, 13115, 5, 4, (2263, 2169, 2169, 3257, 3257)),
    ModelEntry(9, 13684, 6, 4, (1751, 1081, 2169, 2169, 3257, 3257)),
    ModelEntry(10, 14253, 7, 4, (1239, 1081, 1081, 2169, 2169, 3257, 3257)),
)

#: Message capacity of the bulk subtree used by the ternary strategy.
TERNARY_PART_BITS = MODELS[2].message_bits

#: Per-level capacity unit of the compacted construction (see
#: `compacted_capacity`): capacity(j) = 3**(j-1) * 3305 - 31.
COMPACTED_UNIT = 3305


@dataclass(frozen=True)
class PlanReport:
    strategy: str
    model_id: int | None
    message_bits: int
    predicted_depth: int
    predicted_processors: int
    tree_height: int
    node_count: int


@dataclass(frozen=True)
class Plan:
    strategy: str
    compaction: str
    hop_tree: HopTree
    node_tree: NodeTree
    report: PlanReport


def model_table() -> tuple:
    return MODELS


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def ceil_log3_ratio(num: int, den: int = 1) -> int:
    """Smallest integer h with 3**h >= num/den, in exact arithmetic."""
    if num < 1 or den < 1:
        raise ValueError("positive operands required")
    if den >= num:
        g = 0
        while den >= num * 3 ** (g + 1):
            g += 1
        return -g
    t = den
    h = 0
    while t < num:
        t *= 3
        h += 1
    return h


# ---------------------------------------------------------------------------
# Subtree catalogue

def build_model_subtree(model_id: int, offset: int, length: int,
                        as_final: bool = False):
    """Instantiate one catalogue subtree over `length` message bits.

    Short slices shrink the last child hops first, dropping empty ones,
    so earlier nodes stay rate-full.  Returns the subtree's root hop.
    """
    model = MODELS[model_id]
    if length > model.capacity(as_final):
        raise NodeCapacityError(
            "%d bits exceed model %d capacity %d"
            % (length, model_id, model.capacity(as_final)))
    if length < 0:
        raise ValueError("negative slice")
    dist = list(model.distribution)
    if as_final:
        dist[0] += 1
    first = MessageHop(offset, min(dist[0], length))
    children = [first]
    used = first.length
    off = offset + used
    for cap in dist[1:]:
        if used == length:
            break
        take = min(cap, length - used)
        children.append(MessageHop(off, take))
        off += take
        used += take
    if len(children) == 1:
        return children[0]
    return ChainingHop(tuple(children), kangaroo_first=True)


def _compose_ternary(part_roots: list) -> tuple:
    """Build the ternary composition tree over part root hops.

    Groups of three (the trailing group may be smaller) gain one
    rate-aligned kangaroo hop on the first member's node; singleton
    groups pass through.  Returns (root hop, height)."""
    hops = part_roots
    height = 0
    while len(hops) > 1:
        nxt = []
        for i in range(0, len(hops), 3):
            group = hops[i:i + 3]
            if len(group) == 1:
                nxt.append(group[0])
            else:
                nxt.append(ChainingHop(tuple(group), kangaroo_first=True,
                                       aligned=True))
        hops = nxt
        height += 1
    return hops[0], height


# ---------------------------------------------------------------------------
# closed-form predictions: (depth, processor bound), exact integer arithmetic

def _single_prediction(n: int) -> tuple:
    return max(1, _ceil_div(n + 6, RATE_BITS)), 1


def _small_model_id(n: int) -> int:
    """Smallest final-capable catalogue subtree for 2171..3274 bits."""
    return 1 if n <= MODELS[1].capacity(True) else 2


def _small_prediction(n: int) -> tuple:
    """Below the composition threshold (n <= 3274): one final message hop,
    then one final catalogue subtree."""
    if n <= MODELS[0].capacity(True):
        return _single_prediction(n)
    model = MODELS[_small_model_id(n)]
    return model.time_units, model.processors


def _composed_prediction(n: int, model: ModelEntry) -> tuple:
    """Ternary composition over ceil(n/N_mb) parts of one catalogue model:
    ceil(log3(parts)) + T_model, parts * N_p."""
    parts = _ceil_div(n, model.message_bits)
    return ceil_log3_ratio(parts) + model.time_units, parts * model.processors


def _compacted_prediction(n: int) -> tuple:
    """ceil(log3((n+31)/3305)) + 2, 3*ceil((n+31)/3305)."""
    units = _ceil_div(n + 31, COMPACTED_UNIT)
    return ceil_log3_ratio(units) + 2, 3 * units


def _finish(strategy: str, root, n: int, model_id, height: int,
            prediction: tuple, compaction: str) -> Plan:
    tree = HopTree(root, n)
    node_tree = map_hop_tree_to_node_tree(tree, compaction)
    depth, processors = prediction
    report = PlanReport(strategy=strategy, model_id=model_id, message_bits=n,
                        predicted_depth=depth,
                        predicted_processors=processors,
                        tree_height=height,
                        node_count=node_tree.node_count)
    return Plan(strategy, compaction, tree, node_tree, report)


# ---------------------------------------------------------------------------
# single

def plan_single(n: int) -> Plan:
    """One final message hop: the sequential baseline.  Its digest equals
    standard SHAKE256 of the message."""
    return _finish("single", MessageHop(0, n), n, None, 0,
                   _single_prediction(n), "aligned")


# ---------------------------------------------------------------------------
# ternary

def _small_final_plan(strategy: str, n: int) -> Plan:
    """Messages below the composition threshold: a single final hop up to
    2170 bits, then the smallest final-capable catalogue subtree."""
    if n <= MODELS[0].capacity(True):
        root, model_id = MessageHop(0, n), 0
    else:
        model_id = _small_model_id(n)
        root = build_model_subtree(model_id, 0, n, as_final=True)
    return _finish(strategy, root, n, model_id, 0, _small_prediction(n),
                   "aligned")


def _trimmed_node_count(model: ModelEntry, length: int) -> int:
    nodes = 1
    remaining = length - min(model.distribution[0], length)
    for cap in model.distribution[1:]:
        if remaining == 0:
            break
        nodes += 1
        remaining -= min(cap, remaining)
    return nodes


def _encapsulate_remainder(offset: int, remainder: int, t_budget: int):
    """Cheapest subtree for a trailing part: a single message hop when
    its node fits the part time budget, otherwise the fitting catalogue
    subtree with the fewest nodes."""
    if remainder <= RATE_BITS * t_budget - 7:
        return MessageHop(offset, remainder)
    best = None
    for model in MODELS[1:]:
        if model.time_units > t_budget or model.message_bits < remainder:
            continue
        key = (_trimmed_node_count(model, remainder), model.id)
        if best is None or key < best:
            best = key
    assert best is not None, "the bulk model always fits its own remainder"
    return build_model_subtree(best[1], offset, remainder)


def plan_ternary(n: int) -> Plan:
    """Parts of 3273 bits composed by a ternary tree of kangaroo hops.

    Depth is ceil(log3(n/3273)) + 2 for n >= 3275, with at most
    3*ceil(n/3273) processors.
    """
    if n <= MODELS[2].capacity(True):
        return _small_final_plan("ternary", n)
    return _plan_composed("ternary", n, 2)


# ---------------------------------------------------------------------------
# processor-minimizing model selection

SELECT_MODEL_MIN_BITS = 3275


def select_model(n: int) -> int:
    """Pick the catalogue subtree that minimizes processors at the target
    depth t = ceil(log3(n/3273)) + 2.

    Among models whose composed depth ceil(log3(ceil(n/N_mb))) + T equals
    t, returns the one minimizing ceil(n/N_mb) * N_p; ties break toward
    the smallest id.
    """
    if n < SELECT_MODEL_MIN_BITS:
        raise MessageTooShortError(
            "model selection needs at least %d bits" % SELECT_MODEL_MIN_BITS)
    target, _ = _composed_prediction(n, MODELS[2])
    best = None
    for model in MODELS:
        depth, procs = _composed_prediction(n, model)
        if depth == target and (best is None or procs < best[0]):
            best = (procs, model.id)
    assert best is not None, "model 2 always meets the target depth"
    return best[1]


def plan_ternary_with_model(n: int, model_id: int | None = None) -> Plan:
    """Ternary composition over parts sized by the chosen catalogue
    subtree (the last part may shrink)."""
    if n < SELECT_MODEL_MIN_BITS:
        raise MessageTooShortError(
            "composition with model selection needs at least %d bits"
            % SELECT_MODEL_MIN_BITS)
    if model_id is None:
        model_id = select_model(n)
    return _plan_composed("ternary-min-procs", n, model_id)


def _plan_composed(strategy: str, n: int, model_id: int) -> Plan:
    """Parts of one catalogue model under the ternary composition; the
    last part is encapsulated within the model's time budget."""
    model = MODELS[model_id]
    p = _ceil_div(n, model.message_bits)
    if p == 1:
        root = build_model_subtree(model_id, 0, n, as_final=True)
        height = 0
    else:
        roots = []
        for i in range(p - 1):
            roots.append(build_model_subtree(
                model_id, i * model.message_bits, model.message_bits))
        last = n - (p - 1) * model.message_bits
        roots.append(_encapsulate_remainder(
            (p - 1) * model.message_bits, last, model.time_units))
        root, height = _compose_ternary(roots)
    return _finish(strategy, root, n, model_id, height,
                   _composed_prediction(n, model), "aligned")


# ---------------------------------------------------------------------------
# compacted construction

def _inner_message_capacity(blocks: int) -> int:
    # 1088*i - 2*(i-1)*512 - 41: one chaining hop with 2(i-1) values
    return 64 * blocks + 983


def _final_message_capacity(blocks: int) -> int:
    return 64 * blocks + 984


def leaf_idle_allowance(parent_blocks: int) -> int:
    """Whole rate blocks a leaf child may grow by, per the idle-time rule
    floor(64*(i-1)/1088) for a parent of i blocks."""
    return 64 * (parent_blocks - 1) // RATE_BITS


def leaf_idle_slack(parent_blocks: int, slot: int, parent_final: bool) -> int:
    """Exact stall-free growth bound for leaf child `slot` (0 or 1).

    The leaf's chaining value starts at a fixed bit position inside the
    parent; the producer must finish strictly before the rate block
    holding that position is absorbed.  The idle-time rule overshoots
    this by one block when the position falls within the frame-bit
    offset of a block boundary.
    """
    start = 64 * parent_blocks + (986 if parent_final else 985) + CV_BITS * slot
    return start // RATE_BITS - 1


def _leaf_capacity(parent_blocks: int, slot: int, parent_final: bool,
                   relaxed: bool) -> int:
    if not relaxed:
        return LEAF_CAPACITY
    gain = min(leaf_idle_allowance(parent_blocks),
               leaf_idle_slack(parent_blocks, slot, parent_final))
    return LEAF_CAPACITY + gain * RATE_BITS


def _compacted_caps(max_blocks: int, relaxed: bool) -> list:
    """caps[i] = message capacity of a compacted subtree whose root node
    spans i blocks (inner role)."""
    caps = [0, LEAF_CAPACITY]
    for i in range(2, max_blocks + 1):
        total = (_inner_message_capacity(i)
                 + _leaf_capacity(i, 0, False, relaxed)
                 + _leaf_capacity(i, 1, False, relaxed)
                 + 2 * sum(caps[2:i]))
        caps.append(total)
    return caps


def compacted_capacity(j: int, relaxed: bool = False) -> int:
    """Message capacity of the full construction of height parameter j
    (final node of j+1 blocks).  Unrelaxed this is 3**(j-1)*3305 - 31."""
    if j < 1:
        raise ValueError("height parameter must be at least 1")
    caps = _compacted_caps(j, relaxed)
    return (_final_message_capacity(j + 1)
            + _leaf_capacity(j + 1, 0, True, relaxed)
            + _leaf_capacity(j + 1, 1, True, relaxed)
            + 2 * sum(caps[2:j + 1]))


def _build_compacted_subtree(blocks: int, offset: int, budget: int,
                             caps: list, relaxed: bool, is_final: bool):
    """Greedy prefix fill of the canonical child order: the node's own
    message hop, the two leaf children, then two subtrees per lower
    level.  Returns (hop, bits used)."""
    msg_cap = (_final_message_capacity(blocks) if is_final
               else _inner_message_capacity(blocks))
    take = min(msg_cap, budget)
    children = [MessageHop(offset, take)]
    used = take
    off = offset + take
    specs = [(1, 0), (1, 1)] + [(m, None) for m in range(2, blocks)
                                for _ in range(2)]
    for m, slot in specs:
        if used == budget:
            break
        cap = (_leaf_capacity(blocks, slot, is_final, relaxed)
               if m == 1 else caps[m])
        grab = min(cap, budget - used)
        if m == 1:
            children.append(MessageHop(off, grab))
        else:
            child, got = _build_compacted_subtree(m, off, grab, caps,
                                                  relaxed, False)
            assert got == grab
            children.append(child)
        used += grab
        off += grab
    if len(children) == 1:
        return children[0], used
    return ChainingHop(tuple(children), kangaroo_first=True), used


def plan_compacted(n: int, relaxed: bool = False) -> Plan:
    """At most one chaining hop per node, compacted behind the message
    hop; zero alignment padding and zero stalls by construction."""
    strategy = "compacted-relaxed" if relaxed else "compacted"
    if n <= MODELS[0].capacity(True):
        return _finish(strategy, MessageHop(0, n), n, None, 0,
                       _single_prediction(n), "compacted")
    j = 1
    while compacted_capacity(j, relaxed) < n:
        j += 1
    caps = _compacted_caps(j, relaxed)
    root, used = _build_compacted_subtree(j + 1, 0, n, caps, relaxed, True)
    assert used == n
    return _finish(strategy, root, n, None, j, _compacted_prediction(n),
                   "compacted")


def plan_compacted_relaxed(n: int) -> Plan:
    return plan_compacted(n, relaxed=True)


# ---------------------------------------------------------------------------
# single-hop maximization recipe

def max_single_kangaroo(k: int, offset: int = 0,
                        as_final: bool = False) -> tuple:
    """Maximize message bits through one kangaroo hop in a node of k
    blocks.

    Chaining values pack the tail of the node; a value whose bits start
    in block chunk i is produced by a message-only node of (i-1) blocks
    carrying (i-1)*1088 - 7 message bits.  Returns (root hop, total
    message bits)."""
    if k < 2:
        raise ValueError("the node must span at least 2 blocks")
    tail = 38 if as_final else 39
    n_cv = min(MAX_CVS, ((k - 1) * RATE_BITS - tail) // CV_BITS)
    msg = k * RATE_BITS - tail - CV_BITS * n_cv - 2
    children = [MessageHop(offset, msg)]
    total = msg
    off = offset + msg
    for m in range(n_cv):
        start = k * RATE_BITS - tail - CV_BITS * (n_cv - m)
        chunk = start // RATE_BITS + 1
        leaf = (chunk - 1) * RATE_BITS - 7
        children.append(MessageHop(off, leaf))
        off += leaf
        total += leaf
    return ChainingHop(tuple(children), kangaroo_first=True), total


# ---------------------------------------------------------------------------
# predictions and dispatch

def predict(strategy: str, n: int) -> tuple:
    """Closed-form (depth, processor bound) for a strategy, using exact
    integer arithmetic; `plan(strategy, n).report` carries the same pair."""
    if strategy not in STRATEGIES:
        raise ValueError("unknown strategy %r" % strategy)
    if strategy == "single" or n <= MODELS[0].capacity(True):
        return _single_prediction(n)
    if strategy in ("compacted", "compacted-relaxed"):
        return _compacted_prediction(n)
    if n <= MODELS[2].capacity(True):
        return _small_prediction(n)
    model_id = 2 if strategy == "ternary" else select_model(n)
    return _composed_prediction(n, MODELS[model_id])


def plan(strategy: str, n: int) -> Plan:
    """Plan dispatcher; 'auto' means ternary-min-procs when the message
    is large enough for model selection, the small-message fallback
    otherwise."""
    if strategy == "auto":
        strategy = ("ternary-min-procs" if n >= SELECT_MODEL_MIN_BITS
                    else "ternary")
    if strategy == "single":
        return plan_single(n)
    if strategy == "ternary":
        return plan_ternary(n)
    if strategy == "ternary-min-procs":
        if n < SELECT_MODEL_MIN_BITS:
            return plan_ternary(n)
        return plan_ternary_with_model(n)
    if strategy == "compacted":
        return plan_compacted(n)
    if strategy == "compacted-relaxed":
        return plan_compacted_relaxed(n)
    raise ValueError("unknown strategy %r" % strategy)
