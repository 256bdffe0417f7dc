"""Plan documents and predictions, pinned per strategy.

`data/plan_digests.json` holds one SHA-256 per strategy (and `auto`)
over `dump_plan(plan(s, n))` and `predict(s, n)` for every n below 3400
and for the 300 log-spaced sizes from 1 to 10**6 listed in the file.
`data/schedule_digests.json` holds one SHA-256 per strategy (and `auto`)
over `dump_schedule(simulate(plan(s, n).node_tree, 512))` at those 300
sizes, so it pins every node layout's block timings, not just hop trees.
`PYTHONPATH=src python tests/test_plan_digests.py` rewrites both; do that
only when a plan, a prediction or a node layout is meant to change.
"""

import hashlib
import json
import pathlib

import pytest

from parashake import planner, scheduler, treeio

PINNED = pathlib.Path(__file__).parent / "data" / "plan_digests.json"
SCHEDULES = PINNED.with_name("schedule_digests.json")
SMALL = range(3400)


def digest(strategy: str, sizes) -> str:
    h = hashlib.sha256()
    for n in sizes:
        h.update(treeio.dump_plan(planner.plan(strategy, n)).encode())
        if strategy != "auto":       # predict takes the five names only
            h.update(repr(planner.predict(strategy, n)).encode())
    return h.hexdigest()


def schedule_digest(strategy: str, sizes) -> str:
    h = hashlib.sha256()
    for n in sizes:
        tree = planner.plan(strategy, n).node_tree
        h.update(treeio.dump_schedule(scheduler.simulate(tree, 512)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("strategy", ("auto",) + planner.STRATEGIES)
def test_plan_digest(strategy):
    pinned = json.loads(PINNED.read_text())
    sizes = list(SMALL) + pinned["sizes"]
    assert digest(strategy, sizes) == pinned["sha256"][strategy]


@pytest.mark.parametrize("strategy", ("auto",) + planner.STRATEGIES)
def test_schedule_digest(strategy):
    sizes = json.loads(PINNED.read_text())["sizes"]
    pinned = json.loads(SCHEDULES.read_text())
    assert schedule_digest(strategy, sizes) == pinned[strategy]


def record() -> None:
    """Write the digests, with the sizes round(10**(6*i/299)), i < 300."""
    sizes = [round(10 ** (6 * i / 299)) for i in range(300)]
    everything = list(SMALL) + sizes
    strategies = ("auto",) + planner.STRATEGIES
    sha = {s: digest(s, everything) for s in strategies}
    PINNED.write_text('{"sizes": %s,\n "sha256": %s}\n'
                      % (json.dumps(sizes), json.dumps(sha, indent=1)))
    SCHEDULES.write_text(json.dumps(
        {s: schedule_digest(s, sizes) for s in strategies}, indent=1) + "\n")


if __name__ == "__main__":
    record()
