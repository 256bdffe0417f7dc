"""JSON wire formats: plan documents, schedule documents, test vectors.

A sakura-plan/3 document holds the message length, the planner's report
and the hop tree (hops keyed by their tree index: the final hop has the
empty index, child i of a hop indexed alpha has index alpha + [i-1]).
Each `offset_bits` and `message_bits` is derived, a sum of hop lengths in
stream order, and loading rejects any other.  The node tree is not
stored: loading rebuilds it with `map_hop_tree_to_node_tree` and rejects
a report whose node count or message length differs from it.  It is the
only plan schema: /1 documents, which also listed the nodes, and /2
documents, which could pick a second hop-to-node mapping, are rejected.
Every field read must have the type the dump writes (`true` is not an
integer and `9.0` is not `9`).  Dumping is canonical, so a document
that loads dumps back to its own canonical JSON.
"""

from __future__ import annotations

import dataclasses
import json
import typing

from .errors import GrammarError, TreeHashError
from .planner import Plan, PlanReport
from .sakura import (ChainingHop, HopTree, MessageHop, iter_hops,
                     map_hop_tree_to_node_tree)
from .scheduler import Schedule

PLAN_SCHEMA = "sakura-plan/3"
SCHEDULE_SCHEMA = "sakura-schedule/1"


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _field(row: dict, key: str, *types):
    """`row[key]`, whose type must be exactly one of `types`: a bool is
    not an int and a float is neither."""
    value = row[key]
    if type(value) not in types:
        raise GrammarError("%s must be %s, not %r" % (
            key, " or ".join(t.__name__ for t in types), value))
    return value


# ---------------------------------------------------------------------------
# hops

def _hops_to_json(tree: HopTree) -> list:
    rows = []
    at = 0
    for index, hop in iter_hops(tree):
        if isinstance(hop, MessageHop):
            rows.append({"index": list(index), "kind": "message",
                         "offset_bits": at, "length_bits": hop.length})
            at += hop.length
        else:
            rows.append({"index": list(index), "kind": "chaining",
                         "kangaroo_first_child": hop.kangaroo_first,
                         "aligned": hop.aligned,
                         "child_count": len(hop.children)})
    return rows


def _hops_from_json(rows: list, message_bits: int) -> HopTree:
    by_index = {}
    for row in rows:
        index = _field(row, "index", list)
        if any(type(i) is not int for i in index):
            raise GrammarError("index must hold ints, not %r" % (index,))
        by_index[tuple(index)] = row
    if () not in by_index:
        raise GrammarError("plan document has no final hop")
    distinct = len(by_index) == len(rows)
    root = _hop_from_json(by_index, (), 0, {})
    if by_index or not distinct:
        raise GrammarError("plan document has unreachable hops")
    if root.message_bits != message_bits:
        raise GrammarError("message_bits %d is not %d, the sum of the hop "
                           "lengths" % (message_bits, root.message_bits))
    return HopTree(root)


def _hop_from_json(by_index: dict, index: tuple, at: int, hops: dict):
    """Pop the row at `index` of `by_index` and its subtree's rows; return
    its hop, whose message starts at bit `at`.  Equal subtrees are one
    object: `hops` maps each length, and each (children's identities,
    flags), to the hop built for it."""
    row = by_index.pop(index)
    if row["kind"] == "message":
        if _field(row, "offset_bits", int) != at:
            raise GrammarError("hop %r: offset_bits is not %d, the sum of "
                               "the lengths before it" % (list(index), at))
        length = _field(row, "length_bits", int)
        if length not in hops:
            hops[length] = MessageHop(length)
        return hops[length]
    if row["kind"] != "chaining":
        raise GrammarError("unknown hop kind %r" % row["kind"])
    children = []
    for i in range(_field(row, "child_count", int)):
        child_index = index + (i,)
        if child_index not in by_index:
            raise GrammarError("hop %r is missing child %d" % (index, i))
        children.append(_hop_from_json(by_index, child_index, at, hops))
        at += children[-1].message_bits
    key = (tuple(map(id, children)), _field(row, "kangaroo_first_child", bool),
           _field(row, "aligned", bool))
    if key not in hops:
        hops[key] = ChainingHop(tuple(children), *key[1:])
    return hops[key]


# ---------------------------------------------------------------------------
# plans

def dump_plan(plan: Plan) -> str:
    doc = {
        "schema": PLAN_SCHEMA,
        "message_bits": plan.hop_tree.message_bits,
        "report": dataclasses.asdict(plan.report),
        "hops": _hops_to_json(plan.hop_tree),
    }
    return _dump(doc)


def load_plan(text: str | bytes) -> Plan:
    """Parse a plan document and rebuild its node tree from the hop tree;
    any malformed, wrongly typed or inconsistent document raises
    `TreeHashError`."""
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict) or doc.get("schema") != PLAN_SCHEMA:
            raise GrammarError("not a %s document" % PLAN_SCHEMA)
        message_bits = _field(doc, "message_bits", int)
        hop_tree = _hops_from_json(doc["hops"], message_bits)
        node_tree = map_hop_tree_to_node_tree(hop_tree)
        row = doc["report"]
        for key, hint in typing.get_type_hints(PlanReport).items():
            _field(row, key, *(typing.get_args(hint) or (hint,)))
        report = PlanReport(**row)
        if (report.node_count != node_tree.node_count
                or report.message_bits != message_bits):
            raise GrammarError("report disagrees with the hop tree")
        return Plan(report.strategy, hop_tree, node_tree, report)
    except TreeHashError:
        raise
    except RecursionError:
        raise GrammarError("hop tree nests too deeply") from None
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise GrammarError("malformed plan document (%s: %s)"
                           % (type(exc).__name__, exc)) from None


# ---------------------------------------------------------------------------
# schedules

def dump_schedule(schedule: Schedule) -> str:
    doc = {
        "schema": SCHEDULE_SCHEMA,
        "depth": schedule.depth,
        "processors": schedule.processors,
        "max_concurrency": schedule.max_concurrency,
        "absorb_calls": schedule.absorb_calls,
        "squeeze_calls": schedule.squeeze_calls,
        "out_bits": schedule.out_bits,
        "rows": [{"node_id": nid, "block_times": list(t.block_end),
                  "finish": t.finish, "stalls": t.stalls}
                 for nid, t in enumerate(schedule.timings)],
    }
    return _dump(doc)


# ---------------------------------------------------------------------------
# test vectors

def load_vectors(text: str | bytes) -> list:
    """Vector file: list of {message_hex, message_bit_length, out_len_bits,
    digest_hex}, with hex strings, a bit length that fits the message
    bytes and a positive output length; anything else raises
    `GrammarError`."""
    try:
        rows = json.loads(text)
        if not isinstance(rows, list):
            raise GrammarError("vector file must hold a list")
        for row in rows:
            _field(row, "digest_hex", str)
            message = bytes.fromhex(_field(row, "message_hex", str))
            bits = _field(row, "message_bit_length", int)
            if not 0 <= bits <= 8 * len(message):
                raise GrammarError("message_bit_length %d is outside 0..%d"
                                   % (bits, 8 * len(message)))
            if _field(row, "out_len_bits", int) < 1:
                raise GrammarError("out_len_bits must be positive")
        return rows
    except TreeHashError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise GrammarError("malformed vector file (%s: %s)"
                           % (type(exc).__name__, exc)) from None
