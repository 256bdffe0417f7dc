"""Plan documents and predictions, pinned per strategy.

`data/plan_digests.json` holds one SHA-256 per strategy (and `auto`)
over `dump_plan(plan(s, n))` and `predict(s, n)` for every n below 3400
and for the 300 log-spaced sizes from 1 to 10**6 listed in the file.
`PYTHONPATH=src python tests/test_plan_digests.py` rewrites it; do that
only when a plan or a prediction is meant to change.
"""

import hashlib
import json
import pathlib

import pytest

from parashake import planner, treeio

PINNED = pathlib.Path(__file__).parent / "data" / "plan_digests.json"
SMALL = range(3400)


def digest(strategy: str, sizes) -> str:
    h = hashlib.sha256()
    for n in sizes:
        h.update(treeio.dump_plan(planner.plan(strategy, n)).encode())
        if strategy != "auto":       # predict takes the five names only
            h.update(repr(planner.predict(strategy, n)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("strategy", ("auto",) + planner.STRATEGIES)
def test_plan_digest(strategy):
    pinned = json.loads(PINNED.read_text())
    sizes = list(SMALL) + pinned["sizes"]
    assert digest(strategy, sizes) == pinned["sha256"][strategy]


def record() -> None:
    """Write the digests, with the sizes round(10**(6*i/299)), i < 300."""
    sizes = [round(10 ** (6 * i / 299)) for i in range(300)]
    everything = list(SMALL) + sizes
    sha = {s: digest(s, everything) for s in ("auto",) + planner.STRATEGIES}
    PINNED.write_text('{"sizes": %s,\n "sha256": %s}\n'
                      % (json.dumps(sizes), json.dumps(sha, indent=1)))


if __name__ == "__main__":
    record()
