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

One capacity rule (`_own_capacity`, `_kangaroo_caps`) sizes every planned
hop and builds the subtree catalogue `MODELS` from its 11 (root blocks,
chaining values) pairs; one greedy filler, `_fill`, lays out every subtree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MessageTooShortError, NodeCapacityError
from .sakura import (CV_BITS, MAX_CVS, RATE_BITS, ChainingHop, HopTree,
                     MessageHop, NodeTree, map_hop_tree_to_node_tree)

STRATEGIES = ("single", "ternary", "ternary-min-procs", "compacted",
              "compacted-relaxed")


def _own_capacity(blocks: int, n_cv: int) -> int:
    """Message bits of an inner node of `blocks` blocks: its message hop
    and '1', then one chaining hop of `n_cv` values ('1', the values, the
    33-bit coded count) unless `n_cv` is 0, then the marker '10', the
    suffix '11' and the pad '11'.  A final hop holds one bit more."""
    chain = 1 + CV_BITS * n_cv + 33 if n_cv else 0
    return RATE_BITS * blocks - 1 - chain - 6


def _kangaroo_caps(blocks: int, n_cv: int) -> tuple:
    """A node of `blocks` blocks with one kangaroo hop of `n_cv` values:
    its own capacity, then for each value that starts in block i (from
    1) a message-only leaf of i - 1 blocks.  Value m starts two frame
    bits past `_own_capacity(blocks, n_cv - m)`, which is 23 modulo 64,
    so in that capacity's last block, in a final node too."""
    return ((_own_capacity(blocks, n_cv),)
            + tuple(_own_capacity(_own_capacity(blocks, n_cv - m)
                                  // RATE_BITS, 0)
                    for m in range(n_cv)))


#: Inner-node message capacity of a one-block message-only node.
LEAF_CAPACITY = _own_capacity(1, 0)


def _fill(offset: int, budget: int, slots, subtree=None):
    """Greedy fill: each of `slots`, (kind, capacity) pairs, takes what is
    left of `budget` bits from `offset`, up to its capacity; all slots
    past the budget but the first are dropped.  Kinds 0 and 1 are message
    hops, kind m is `subtree(m, offset, bits)`.  Returns the lone child or
    a kangaroo hop over the children."""
    children = []
    used = 0
    for kind, cap in slots:
        if children and used == budget:
            break
        take = min(cap, budget - used)
        children.append(MessageHop(offset + used, take) if kind < 2
                        else subtree(kind, offset + used, take))
        used += take
    assert used == budget, "the children hold fewer bits than the budget"
    if len(children) == 1:
        return children[0]
    return ChainingHop(tuple(children), kangaroo_first=True)


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


#: The catalogue: one row per (root blocks, chaining values) pair, with
#: one processor per node; the root's last block ends the subtree.
MODELS = tuple(ModelEntry(i, sum(dist), len(dist), blocks, dist)
               for i, (blocks, dist) in enumerate(
                   (blocks, _kangaroo_caps(blocks, n_cv)) for blocks, n_cv in
                   ((2, 0), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (3, 4),
                    (4, 3), (4, 4), (4, 5), (4, 6))))

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
    return _fill(offset, length, _message_slots(model.distribution, as_final))


def _message_slots(caps: tuple, as_final: bool):
    """`_fill` slots of message hops; a final first one holds a bit more."""
    return [(0, caps[0] + as_final)] + [(0, cap) for cap in caps[1:]]


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
    if remainder <= _own_capacity(t_budget, 0):
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
    """Exact stall-free growth bound, in blocks, for leaf child `slot` (0
    or 1) of a compacted node of `parent_blocks` blocks, whatever the
    parent's role: the recipe's leaf for that value (`_kangaroo_caps`)
    spans the blocks before the one the value starts in, less one block.
    The idle-time rule overshoots this by one block when the value starts
    within the frame-bit offset of a block boundary."""
    return _own_capacity(parent_blocks,
                         2 * (parent_blocks - 1) - slot) // RATE_BITS - 1


def _compacted_children(blocks: int, caps: list, relaxed: bool,
                        is_final: bool) -> list:
    """Canonical child order of a compacted subtree whose root node spans
    `blocks` blocks, as (kind, message capacity) pairs: the node's own
    message hop (kind 0; its one chaining hop holds 2(blocks-1) values),
    the two leaf children (kind 1), then two subtrees per lower level
    (kind = their root's blocks).  Relaxed leaves grow by the idle-time
    allowance, at most by their slack.  The subtree holds the sum of the
    capacities."""
    leaves = [LEAF_CAPACITY] * 2
    grow = leaf_idle_allowance(blocks) if relaxed else 0
    if grow:
        leaves = [LEAF_CAPACITY + RATE_BITS
                  * min(grow, leaf_idle_slack(blocks, slot, False))
                  for slot in (0, 1)]
    return ([(0, _own_capacity(blocks, 2 * (blocks - 1)) + is_final)]
            + [(1, leaf) for leaf in leaves]
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
    return _compacted_caps(j + 1, relaxed)[-1] + 1  # a final hop's extra bit


def _build_compacted_subtree(blocks: int, offset: int, budget: int,
                             caps: list, relaxed: bool, is_final: bool):
    """`_fill` over the canonical child order of `_compacted_children`."""
    return _fill(offset, budget,
                 _compacted_children(blocks, caps, relaxed, is_final),
                 lambda m, at, bits: _build_compacted_subtree(
                     m, at, bits, caps, relaxed, False))


def _build_compacted(n: int, relaxed: bool) -> tuple:
    """The construction of the smallest height parameter j that holds n
    bits.  Returns (root hop, j)."""
    j = 1
    while compacted_capacity(j, relaxed) < n:
        j += 1
    return _build_compacted_subtree(j + 1, 0, n, _compacted_caps(j, relaxed),
                                    relaxed, True), j


# ---------------------------------------------------------------------------
# single-hop maximization recipe

def max_single_kangaroo(k: int, offset: int = 0,
                        as_final: bool = False) -> tuple:
    """Maximize message bits through one kangaroo hop in a node of k
    blocks.

    Chaining values pack the tail of the node, as many as start past its
    first block (at most MAX_CVS); each comes from the full message-only
    leaf `_kangaroo_caps` puts behind it.  Returns (root hop, total
    message bits)."""
    if k < 2:
        raise ValueError("the node must span at least 2 blocks")
    # most values with _own_capacity(k, n) >= RATE_BITS, CV_BITS per value
    n_cv = min(MAX_CVS, (_own_capacity(k, 1) - RATE_BITS) // CV_BITS + 1)
    caps = _kangaroo_caps(k, n_cv)
    total = sum(caps) + as_final
    return _fill(offset, total, _message_slots(caps, as_final)), total


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
    # a final message-only node: one block holds LEAF_CAPACITY + 1 bits,
    # and each further block RATE_BITS more
    lone = ((1 + max(0, _ceil_div(n - LEAF_CAPACITY - 1, RATE_BITS)), 1),
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
