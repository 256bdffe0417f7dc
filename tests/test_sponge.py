"""Inner function and standard SHAKE256: vectors, cost model, prefixes."""

import hashlib
import json
from importlib import resources

import pytest

from oracles import from01, rawshake_cost
from parashake import keccak, sakura, sponge
from parashake.bits import BitString
from parashake.errors import BlockAlignmentError, OutputLengthError
from parashake.planner import plan
from parashake.scheduler import simulate
from parashake.sponge import inner_f, shake256, xof_output

# Published example digests (empty message and the 1600-bit message of
# 0xA3 bytes), 512-bit prefixes.
SHAKE256_EMPTY = (
    "46b9dd2b0ba88d13233b3feb743eeb243fcd52ea62b81b82b50c27646ed5762f"
    "d75dc4ddd8c0f200cb05019d67b592f6fc821c49479ab48640292eacb3b7c4be")
SHAKE256_1600BIT = (
    "cd8a920ed141aa0407a22d59288652e9d9f1a7ee0c1e7c1ca699424da84a904d"
    "2d700caae7396ece96604440577da4f3aa22aeb8857f961c4cd8e06f0ae6610b")


def test_sponge_shape_is_one_definition():
    assert sponge.RATE_BITS + sponge.CV_BITS == keccak.STATE_BITS
    assert sakura.RATE_BITS is sponge.RATE_BITS
    assert sakura.CV_BITS is sponge.CV_BITS


def test_shake256_published_vectors():
    assert shake256(BitString(), 512).hex() == SHAKE256_EMPTY
    msg = BitString.from_bytes(bytes([0xA3] * 200))
    assert len(msg) == 1600
    assert shake256(msg, 512).hex() == SHAKE256_1600BIT


def test_shake256_against_hashlib(rng):
    for size in (0, 1, 17, 135, 136, 137, 272, 1000):
        data = rng.randbytes(size)
        want = hashlib.shake_256(data).digest(64)
        assert shake256(BitString.from_bytes(data), 512).to_bytes() == want


def test_shake256_prefix_property(rng):
    msg = BitString(rng.getrandbits(777), 777)
    long = shake256(msg, 512)
    assert shake256(msg, 128) == long.slice(0, 128)


def test_packaged_vector_file(rng):
    text = (resources.files("parashake") / "data" /
            "shake256_vectors.json").read_text()
    rows = json.loads(text)
    assert len(rows) >= 6
    for row in rows:
        msg = BitString.from_bytes(bytes.fromhex(row["message_hex"]),
                                   row["message_bit_length"])
        assert shake256(msg, row["out_len_bits"]).hex() == row["digest_hex"]


def test_inner_f_block_counting(rng):
    one, calls = inner_f(BitString(rng.getrandbits(1088), 1088))
    assert calls == 1
    assert len(one) == 512
    _, calls = inner_f(BitString(rng.getrandbits(2176), 2176))
    assert calls == 2


def test_inner_f_alignment_errors():
    with pytest.raises(BlockAlignmentError):
        inner_f(BitString(0, 1087))
    with pytest.raises(BlockAlignmentError):
        inner_f(BitString())


def test_empty_message_node_equals_shake256():
    # A lone final message hop frames the empty message as '11'; with the
    # suffix and pad this is exactly the stream standard SHAKE256 absorbs.
    node = from01("11" + "11" + "1" + "0" * 1082 + "1")
    assert len(node) == 1088
    cv, calls = inner_f(node)
    assert calls == 1
    assert cv == shake256(BitString(), 512)


def test_xof_squeeze_cost(rng):
    node = BitString(rng.getrandbits(1088), 1088)
    out, calls = xof_output(node, 512)
    assert calls == 1  # first extraction is free
    out2, calls2 = xof_output(node, 2176)
    assert calls2 == 2
    assert out2.slice(0, 512) == out


def test_xof_prefix_property(rng):
    node = BitString(rng.getrandbits(2176), 2176)
    long, _ = xof_output(node, 4096)
    for out_bits in (1, 17, 256, 512, 1088, 1089, 3000):
        short, _ = xof_output(node, out_bits)
        assert short == long.slice(0, out_bits)


def test_xof_errors():
    with pytest.raises(OutputLengthError):
        xof_output(BitString(0, 1088), 0)
    with pytest.raises(BlockAlignmentError):
        xof_output(BitString(0, 1000), 512)


@pytest.mark.parametrize("out_bits", [0, -1])
def test_bad_out_bits_fail_before_absorbing(monkeypatch, out_bits):
    def no_permutations(*args):
        raise AssertionError("permutation run before out_bits was checked")
    monkeypatch.setattr(keccak, "absorb_blocks", no_permutations)
    with pytest.raises(OutputLengthError):
        xof_output(BitString(0, 2176), out_bits)
    with pytest.raises(OutputLengthError):
        shake256(BitString(), out_bits)


def test_rawshake_cost_values():
    assert rawshake_cost(1081, 512) == 1
    assert rawshake_cost(0, 512) == 1
    assert rawshake_cost(2169, 512) == 2
    assert rawshake_cost(1084, 512) == 1
    assert rawshake_cost(1085, 512) == 2
    # each rate block of output after the first costs one squeeze call
    assert rawshake_cost(0, 1088) == 1
    assert rawshake_cost(0, 1087) == 1


def test_rawshake_squeeze_matches_simulation():
    # a one-node plan of the empty message absorbs one block, so the rest
    # of the cost is the squeeze calls that the scheduler charges
    tree = plan("single", 0).node_tree
    for d in (1, 512, 1087, 1088, 1089, 2176, 2177, 4096):
        assert rawshake_cost(0, d) - 1 == simulate(tree, d).squeeze_calls, d


def test_cost_matches_redefined_node_sizes():
    # a rate-full message-only inner node holds 1088k - 7 message bits;
    # pricing that message through the original cost formula gives k, so
    # folding the frame bits into the node does not change the cost
    for k in (1, 2, 3, 5, 9):
        assert rawshake_cost(1088 * k - 7, 512) == k
    for leaf_bits, blocks in ((1081, 1), (2169, 2), (3257, 3)):
        assert rawshake_cost(leaf_bits, 512) == blocks
