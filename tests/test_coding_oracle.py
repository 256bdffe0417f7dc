"""The coding oracle (`oracles.sakura_digest`) against every golden digest
and against the package.

The oracle builds each node's bits from the coding rules, by recursion on
the hop tree, and absorbs them with the package's sponge, which the FIPS
202 vectors anchor.  It reproduces the goldens that the package recorded,
`tree_digests.json` and the benchmark's digests, so they pin the coding
as published, not only as this package first wrote it; and every
planned tree hashes to the oracle's digest.  `test_hop_trees.py` checks
the oracle against both executors on its random and pinned trees.
"""

import hashlib
import importlib.util
import json
import pathlib
import random
import sys

import pytest

import parashake
from oracles import sakura_digest, sakura_final_node, sakura_node, to01
from parashake import planner
from parashake.bits import BitString
from parashake.evaluate import evaluate_sequential
from parashake.sakura import HopTree, MessageHop
from parashake.sponge import RATE_BITS, xof_output

ROOT = pathlib.Path(__file__).parents[1]


def _load_workloads():
    """perfbench/workloads.py, which names the benchmark's messages."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def _seeded(seed: int, n: int) -> BitString:
    return BitString(random.Random(seed).getrandbits(n), n)


@pytest.mark.parametrize("n", [0, 1, 7, 8, 1080, 1083, 2170, 2171, 5000])
def test_lone_final_message_hop_is_shake256(n):
    # M || '1' (the hop) || '1' (final): SHAKE256's M || 1111 and its pad
    message = _seeded(n, n)
    text = to01(message.value, n)
    bits, end = sakura_node(MessageHop(n), True, text)
    z = -(n + 6) % RATE_BITS
    assert (bits, end) == (text + "11" + "11" + "1" + "0" * z + "1", n)
    if n % 8 == 0:
        want = hashlib.shake_256(message.to_bytes()).hexdigest(64)
        tree = HopTree(MessageHop(n))
        assert sakura_digest(tree, message, 512).hex() == want


def test_oracle_reproduces_the_tree_digests():
    doc = json.loads((pathlib.Path(parashake.__file__).parent / "data"
                      / "tree_digests.json").read_text())
    assert len(doc["digests"]) == 40
    for row in doc["digests"]:
        n = row["message_bits"]
        final = sakura_final_node(planner.plan(row["strategy"], n).hop_tree,
                                  _seeded(doc["seed"], n))
        for bits in (256, 512, 4096):
            got = xof_output(final, bits)[0].hex()
            assert got == row["digest_hex"][:bits // 4], (row["strategy"],
                                                          n, bits)


def test_oracle_reproduces_the_benchmark_goldens():
    wl = _load_workloads()
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    chars = wl.GOLDEN_HEX_CHARS

    def digest(strategy: str, message: BitString) -> str:
        tree = planner.plan(strategy, len(message)).hop_tree
        return sakura_digest(tree, message, wl.OUT_BITS).hex()[:chars]

    # every small message of source 0, as `hash --hex ... --bits` reads it
    sizes = golden["small"]["sizes"]
    source = wl.source_bytes(0, (max(sizes) + 7) // 8)
    columns = golden["small"]["digests"]["0"]
    assert set(columns) == set(wl.CLI_STRATEGIES)
    for strategy, column in columns.items():
        for n, want in zip(sizes, column, strict=True):
            message = BitString.from_bytes(source[:(n + 7) // 8], n)
            assert digest(strategy, message) == want, (strategy, n)
    for nbytes in (2048, 8192):
        for g, row in golden["bulk"][str(nbytes)].items():
            message = BitString.from_bytes(wl.source_bytes(int(g), nbytes))
            assert set(row) == set(wl.TREE_STRATEGIES)
            for strategy, want in row.items():
                assert digest(strategy, message) == want, (nbytes, g,
                                                           strategy)


@pytest.mark.parametrize("strategy", planner.STRATEGIES)
def test_package_digests_are_the_oracles(strategy):
    for n in (0, 1, 2170, 2171, 3275, 29457, 10 ** 5):
        plan = planner.plan(strategy, n)
        message = _seeded(n + 1, n)
        got = evaluate_sequential(plan.node_tree, message, 512).bits
        assert got == sakura_digest(plan.hop_tree, message, 512), n
