"""The subtree catalogue and the subtree builders, pinned by value.

Every `MODELS` row must match the paper's subtree table
(`oracles.SUBTREE_TABLE`) and its child distributions, written out below.
One SHA-256 covers the hop rows, as a plan document writes them, of
`build_model_subtree(m, L, final)` for every model, both roles and every
slice length L up to the model's capacity, and of
`oracles.max_single_kangaroo(k, final)`, a recipe that no strategy plans,
with its total for k = 2..130 (the chaining-value count reaches MAX_CVS
at k = 122), so any change to a hop these builders lay out shows.  Each
message hop must start where the ones before it in stream order end.
"""

import hashlib
import json

from oracles import SUBTREE_TABLE, max_single_kangaroo
from parashake import treeio
from parashake.planner import MODELS, build_model_subtree
from parashake.sakura import HopTree

# (message bits of each child hop, the first absorbed into the root node)
DISTRIBUTIONS = (
    (2169,),
    (1623, 1081),
    (1111, 1081, 1081),
    (2711, 2169),
    (2199, 2169, 2169),
    (1687, 1081, 2169, 2169),
    (1175, 1081, 1081, 2169, 2169),
    (2775, 2169, 3257, 3257),
    (2263, 2169, 2169, 3257, 3257),
    (1751, 1081, 2169, 2169, 3257, 3257),
    (1239, 1081, 1081, 2169, 2169, 3257, 3257),
)

BUILDERS_SHA256 = (
    "455bd00eb3313f7d2e5f703fa7aef2c9d8d4e4734133561be2f770503fc7ef74")


def test_models_are_the_papers_table():
    assert len(MODELS) == len(SUBTREE_TABLE) == len(DISTRIBUTIONS)
    for model, row, dist in zip(MODELS, SUBTREE_TABLE, DISTRIBUTIONS):
        assert (model.id, model.message_bits, model.processors,
                model.time_units) == row
        assert model.distribution == dist


def _rows(hop, length: int) -> bytes:
    """The plan-document rows of the hop tree rooted at `hop` over
    `length` bits, after checking that its message hops read the message
    in stream order."""
    rows = treeio._hops_to_json(HopTree(hop))
    at = 0
    for row in rows:
        if row["kind"] == "message":
            assert row["offset_bits"] == at, row
            at += row["length_bits"]
    assert at == length
    return json.dumps(rows, sort_keys=True).encode()


def builders_digest() -> str:
    h = hashlib.sha256()
    for final in (False, True):
        for model in MODELS:
            for length in range(model.capacity(final) + 1):
                hop = build_model_subtree(model.id, length, final)
                h.update(_rows(hop, length))
        for k in range(2, 131):
            hop, total = max_single_kangaroo(k, final)
            h.update(_rows(hop, total) + b"%d" % total)
    return h.hexdigest()


def test_subtree_builders_digest():
    assert builders_digest() == BUILDERS_SHA256
