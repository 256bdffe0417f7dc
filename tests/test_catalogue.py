"""The subtree catalogue and the subtree builders, pinned by value.

Every `MODELS` row must match `selftest.SUBTREE_TABLE` and the paper's
child distributions written out below.  One SHA-256 covers the `repr` of
`build_model_subtree(m, 5, L, final)` for every model, both roles and
every slice length L up to the model's capacity, and of
`max_single_kangaroo(k, 3, final)` for k = 2..130 (the chaining-value
count reaches MAX_CVS at k = 122), so any change to a hop these builders
lay out shows.
"""

import hashlib

from parashake import selftest
from parashake.planner import MODELS, build_model_subtree, max_single_kangaroo

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
    "e3b90c0de892f6e9faac650b72c2acc714808436801d1edb9dd733b4958eeff7")


def test_models_are_the_papers_table():
    assert len(MODELS) == len(selftest.SUBTREE_TABLE) == len(DISTRIBUTIONS)
    for model, row, dist in zip(MODELS, selftest.SUBTREE_TABLE,
                                DISTRIBUTIONS):
        assert (model.id, model.message_bits, model.processors,
                model.time_units) == row
        assert model.distribution == dist


def builders_digest() -> str:
    h = hashlib.sha256()
    for final in (False, True):
        for model in MODELS:
            for length in range(model.capacity(final) + 1):
                hop = build_model_subtree(model.id, 5, length, final)
                h.update(repr(hop).encode())
        for k in range(2, 131):
            h.update(repr(max_single_kangaroo(k, 3, final)).encode())
    return h.hexdigest()


def test_subtree_builders_digest():
    assert builders_digest() == BUILDERS_SHA256
