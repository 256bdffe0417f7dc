"""JSON wire formats: plan documents, schedule documents, test vectors.

Plan documents carry both views of a plan: the hop tree (hops keyed by
their tree index: the final hop has the empty index, child i of a hop
indexed alpha has index alpha + [i-1]) and the node tree (ordered
segment lists; frame and pad bits rendered as 0/1 strings).  Dumping is
canonical, so load followed by dump is byte-identical.
"""

from __future__ import annotations

import json

from .errors import GrammarError, TreeHashError
from .planner import Plan, PlanReport
from .sakura import (AlignPad, ChainingHop, CVSlot, FrameBits, HopTree,
                     MessageBits, MessageHop, NodeLayout, NodeTree, iter_hops)
from .scheduler import Schedule

PLAN_SCHEMA = "sakura-plan/1"
SCHEDULE_SCHEMA = "sakura-schedule/1"


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# hops

def _hops_to_json(tree: HopTree) -> list:
    rows = []

    def walk(index, hop):
        if isinstance(hop, MessageHop):
            rows.append({"index": list(index), "kind": "message",
                         "offset_bits": hop.offset,
                         "length_bits": hop.length})
            return
        rows.append({"index": list(index), "kind": "chaining",
                     "kangaroo_first_child": hop.kangaroo_first,
                     "aligned": hop.aligned,
                     "child_count": len(hop.children)})
        for i, child in enumerate(hop.children):
            walk(index + (i,), child)

    walk((), tree.root)
    return rows


def _hops_from_json(rows: list, message_bits: int) -> HopTree:
    by_index = {tuple(r["index"]): r for r in rows}
    if () not in by_index:
        raise GrammarError("plan document has no final hop")

    def build(index):
        row = by_index[index]
        if row["kind"] == "message":
            return MessageHop(row["offset_bits"], row["length_bits"])
        if row["kind"] != "chaining":
            raise GrammarError("unknown hop kind %r" % row["kind"])
        children = []
        for i in range(row["child_count"]):
            child_index = index + (i,)
            if child_index not in by_index:
                raise GrammarError("hop %r is missing child %d" % (index, i))
            children.append(build(child_index))
        return ChainingHop(tuple(children),
                           kangaroo_first=row["kangaroo_first_child"],
                           aligned=row["aligned"])

    tree = HopTree(build(()), message_bits)
    if len(rows) != sum(1 for _ in iter_hops(tree)):
        raise GrammarError("plan document has unreachable hops")
    return tree


# ---------------------------------------------------------------------------
# nodes

def _segment_to_json(seg) -> dict:
    if isinstance(seg, MessageBits):
        return {"kind": "message", "offset_bits": seg.offset,
                "length_bits": seg.length}
    if isinstance(seg, CVSlot):
        return {"kind": "cv", "producer": seg.producer}
    if isinstance(seg, FrameBits):
        return {"kind": "frame", "bits": seg.bits}
    if isinstance(seg, AlignPad):
        return {"kind": "align_pad", "bits": seg.bits}
    raise TypeError("unknown segment %r" % (seg,))


def _segment_from_json(row: dict):
    kind = row["kind"]
    if kind == "message":
        return MessageBits(row["offset_bits"], row["length_bits"])
    if kind == "cv":
        return CVSlot(row["producer"])
    if kind == "frame":
        return FrameBits(row["bits"])
    if kind == "align_pad":
        bits = row["bits"]
        if not bits or bits[0] != "1" or bits[1:].strip("0"):
            raise GrammarError("alignment pad must match 1 0*")
        return AlignPad(len(bits) - 1)
    raise GrammarError("unknown segment kind %r" % kind)


def _nodes_to_json(tree: NodeTree) -> list:
    return [{"id": nid, "final": node.is_final, "bits": node.total_bits,
             "segments": [_segment_to_json(s) for s in node.segments]}
            for nid, node in enumerate(tree.nodes)]


def _nodes_from_json(rows: list, message_bits: int) -> NodeTree:
    nodes = []
    for nid, row in enumerate(rows):
        if row["id"] != nid:
            raise GrammarError("node ids must be consecutive from 0")
        layout = NodeLayout(tuple(_segment_from_json(s)
                                  for s in row["segments"]),
                            bool(row["final"]))
        if layout.total_bits != row["bits"]:
            raise GrammarError("node %d declares %d bits but holds %d"
                               % (nid, row["bits"], layout.total_bits))
        nodes.append(layout)
    if not nodes:
        raise GrammarError("plan document has no nodes")
    return NodeTree(tuple(nodes), message_bits)


# ---------------------------------------------------------------------------
# plans

def _report_to_json(report: PlanReport) -> dict:
    return {"strategy": report.strategy, "model_id": report.model_id,
            "message_bits": report.message_bits,
            "predicted_depth": report.predicted_depth,
            "predicted_processors": report.predicted_processors,
            "tree_height": report.tree_height,
            "node_count": report.node_count}


def _report_from_json(row: dict) -> PlanReport:
    return PlanReport(strategy=row["strategy"], model_id=row["model_id"],
                      message_bits=row["message_bits"],
                      predicted_depth=row["predicted_depth"],
                      predicted_processors=row["predicted_processors"],
                      tree_height=row["tree_height"],
                      node_count=row["node_count"])


def dump_plan(plan: Plan) -> str:
    doc = {
        "schema": PLAN_SCHEMA,
        "compaction": plan.compaction,
        "message_bits": plan.hop_tree.message_bits,
        "report": _report_to_json(plan.report),
        "hops": _hops_to_json(plan.hop_tree),
        "nodes": _nodes_to_json(plan.node_tree),
    }
    return _dump(doc)


def load_plan(text: str) -> Plan:
    """Parse a plan document; any malformed document raises
    `GrammarError`."""
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict) or doc.get("schema") != PLAN_SCHEMA:
            raise GrammarError("not a %s document" % PLAN_SCHEMA)
        message_bits = doc["message_bits"]
        hop_tree = _hops_from_json(doc["hops"], message_bits)
        node_tree = _nodes_from_json(doc["nodes"], message_bits)
        report = _report_from_json(doc["report"])
        return Plan(report.strategy, doc["compaction"], hop_tree, node_tree,
                    report)
    except TreeHashError:
        raise
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
        "rows": [{"node_id": t.node_id, "block_times": list(t.block_end),
                  "finish": t.finish, "stalls": t.stalls}
                 for t in schedule.timings],
    }
    return _dump(doc)


# ---------------------------------------------------------------------------
# test vectors

def load_vectors(text: str) -> list:
    """Vector file: list of {message_hex, message_bit_length, out_len_bits,
    digest_hex}."""
    rows = json.loads(text)
    if not isinstance(rows, list):
        raise ValueError("vector file must hold a list")
    for row in rows:
        for key in ("message_hex", "message_bit_length", "out_len_bits",
                    "digest_hex"):
            if key not in row:
                raise ValueError("vector entry is missing %r" % key)
    return rows
