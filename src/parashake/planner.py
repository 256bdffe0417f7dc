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

`plan` and `predict` read one construction choice per (strategy, n);
'auto' is ternary-min-procs.  All planning is pure integer arithmetic on
layouts; message bytes are never touched.
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
    hop_tree: HopTree
    node_tree: NodeTree
    report: PlanReport


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
# ternary composition

def _composed_prediction(n: int, model: ModelEntry) -> tuple:
    """Ternary composition over ceil(n/N_mb) parts of one catalogue model:
    ceil(log3(parts)) + T_model, parts * N_p."""
    parts = _ceil_div(n, model.message_bits)
    return ceil_log3_ratio(parts) + model.time_units, parts * model.processors


def _encapsulate_remainder(offset: int, remainder: int, t_budget: int):
    """Cheapest subtree for a trailing part: a single message hop when
    its node fits the part time budget, otherwise the fitting catalogue
    subtree with the fewest nodes (one per child hop), lowest id first."""
    if remainder <= RATE_BITS * t_budget - 7:
        return MessageHop(offset, remainder)
    fitting = [build_model_subtree(model.id, offset, remainder)
               for model in MODELS[1:]
               if model.time_units <= t_budget
               and model.message_bits >= remainder]
    # min keeps the first of equal keys, which is the lowest model id; the
    # bulk model always fits its own remainder
    return min(fitting, key=lambda hop: len(hop.children))


def _build_composed(n: int, model: ModelEntry) -> tuple:
    """Parts of one catalogue model under the ternary composition; the
    last part is encapsulated within the model's time budget.  Returns
    (root hop, height)."""
    parts = _ceil_div(n, model.message_bits)
    if parts == 1:
        return build_model_subtree(model.id, 0, n, as_final=True), 0
    roots = [build_model_subtree(model.id, i * model.message_bits,
                                 model.message_bits)
             for i in range(parts - 1)]
    offset = (parts - 1) * model.message_bits
    roots.append(_encapsulate_remainder(offset, n - offset, model.time_units))
    return _compose_ternary(roots)


# ---------------------------------------------------------------------------
# processor-minimizing model selection

#: Smallest message the composition plans: one bit past model 2's final
#: subtree.
SELECT_MODEL_MIN_BITS = MODELS[2].capacity(True) + 1


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


# ---------------------------------------------------------------------------
# compacted construction

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


def _compacted_children(blocks: int, caps: list, relaxed: bool,
                        is_final: bool) -> list:
    """Canonical child order of a compacted subtree whose root node spans
    `blocks` blocks, as (kind, message capacity) pairs: the node's own
    message hop (kind 0; 1088*i - 2*(i-1)*512 - 41 bits for one chaining
    hop with 2(i-1) values, one more as final), the two leaf children
    (kind 1), then two subtrees per lower level (kind = their root's
    blocks).  The subtree holds the sum of the capacities."""
    return ([(0, 64 * blocks + (984 if is_final else 983))]
            + [(1, _leaf_capacity(blocks, slot, is_final, relaxed))
               for slot in (0, 1)]
            + [(m, caps[m]) for m in range(2, blocks) for _ in range(2)])


def _compacted_caps(max_blocks: int, relaxed: bool) -> list:
    """caps[i] = message capacity of a compacted subtree whose root node
    spans i blocks (inner role)."""
    caps = [0, LEAF_CAPACITY]
    for i in range(2, max_blocks + 1):
        caps.append(sum(cap for _, cap in
                        _compacted_children(i, caps, relaxed, False)))
    return caps


def compacted_capacity(j: int, relaxed: bool = False) -> int:
    """Message capacity of the full construction of height parameter j
    (final node of j+1 blocks).  Unrelaxed this is 3**(j-1)*3305 - 31."""
    if j < 1:
        raise ValueError("height parameter must be at least 1")
    caps = _compacted_caps(j, relaxed)
    return sum(cap for _, cap in
               _compacted_children(j + 1, caps, relaxed, True))


def _build_compacted_subtree(blocks: int, offset: int, budget: int,
                             caps: list, relaxed: bool, is_final: bool):
    """Greedy prefix fill of the canonical child order of
    `_compacted_children`.  Returns (hop, bits used)."""
    children = []
    used = 0
    for m, cap in _compacted_children(blocks, caps, relaxed, is_final):
        if used == budget:
            break
        grab = min(cap, budget - used)
        if m < 2:
            children.append(MessageHop(offset + used, grab))
        else:
            child, got = _build_compacted_subtree(m, offset + used, grab,
                                                  caps, relaxed, False)
            assert got == grab
            children.append(child)
        used += grab
    if len(children) == 1:
        return children[0], used
    return ChainingHop(tuple(children), kangaroo_first=True), used


def _build_compacted(n: int, relaxed: bool) -> tuple:
    """The construction of the smallest height parameter j that holds n
    bits.  Returns (root hop, j)."""
    j = 1
    while compacted_capacity(j, relaxed) < n:
        j += 1
    root, used = _build_compacted_subtree(j + 1, 0, n,
                                          _compacted_caps(j, relaxed),
                                          relaxed, True)
    assert used == n
    return root, j


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
# the construction choice: plan, predict and the per-strategy entries

def _choose(strategy: str, n: int, model_id: int | None = None) -> tuple:
    """The construction of `strategy` over n bits, for `plan` and
    `predict` alike.

    Returns (strategy the report names, model id, closed-form (depth,
    processors), builder of (root hop, height)).  Below
    SELECT_MODEL_MIN_BITS the ternary strategies plan the smallest final
    catalogue subtree that holds the message (model 0's is one message
    hop), and the compacted ones plan one message hop while model 0's
    holds it.  `model_id` fixes the model of a ternary-min-procs
    composition instead of `select_model`."""
    if strategy not in STRATEGIES:
        raise ValueError("unknown strategy %r" % strategy)
    lone = ((max(1, _ceil_div(n + 6, RATE_BITS)), 1),
            lambda: (MessageHop(0, n), 0))
    small = (next(m for m in MODELS if n <= m.capacity(True))
             if n < SELECT_MODEL_MIN_BITS else None)
    if strategy == "single":
        return (strategy, None) + lone
    if strategy in ("compacted", "compacted-relaxed"):
        if small is MODELS[0]:
            return (strategy, None) + lone
        # ceil(log3((n+31)/3305)) + 2, 3*ceil((n+31)/3305)
        units = _ceil_div(n + 31, COMPACTED_UNIT)
        relaxed = strategy == "compacted-relaxed"
        return (strategy, None, (ceil_log3_ratio(units) + 2, 3 * units),
                lambda: _build_compacted(n, relaxed))
    if small is MODELS[0]:
        return ("ternary", 0) + lone
    if small is not None:
        return ("ternary", small.id, (small.time_units, small.processors),
                lambda: (build_model_subtree(small.id, 0, n, True), 0))
    if model_id is None:
        model_id = 2 if strategy == "ternary" else select_model(n)
    model = MODELS[model_id]
    return (strategy, model_id, _composed_prediction(n, model),
            lambda: _build_composed(n, model))


def _finish(n: int, strategy: str, model_id, prediction: tuple,
            build) -> Plan:
    """Build the chosen hop tree, map it to nodes and report on it."""
    root, height = build()
    tree = HopTree(root, n)
    node_tree = map_hop_tree_to_node_tree(tree)
    report = PlanReport(strategy, model_id, n, *prediction, height,
                        node_tree.node_count)
    return Plan(strategy, tree, node_tree, report)


def plan(strategy: str, n: int) -> Plan:
    """Plan one of STRATEGIES, or 'auto' (an alias of ternary-min-procs),
    over n message bits."""
    if strategy == "auto":
        strategy = "ternary-min-procs"
    return _finish(n, *_choose(strategy, n))


def predict(strategy: str, n: int) -> tuple:
    """Closed-form (depth, processor bound) for one of STRATEGIES, using
    exact integer arithmetic; `plan(strategy, n).report` carries the same
    pair."""
    return _choose(strategy, n)[2]


def plan_ternary_with_model(n: int, model_id: int | None = None) -> Plan:
    """Ternary composition over parts sized by the chosen catalogue
    subtree (the last part may shrink)."""
    if n < SELECT_MODEL_MIN_BITS:
        raise MessageTooShortError(
            "composition with model selection needs at least %d bits"
            % SELECT_MODEL_MIN_BITS)
    return _finish(n, *_choose("ternary-min-procs", n, model_id))
