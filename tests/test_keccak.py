"""Permutation correctness: bit-level reference, block absorption,
bijectivity and determinism."""

import pytest

from oracles import (from01, keccak_f, keccak_f1600_bitwise,
                     state_from_bits, state_to_bits)
from parashake import keccak
from parashake.bits import BitString

# First lane of the permutation of the all-zero state, agreed by the
# kernel and the bit-level reference below.
ZERO_STATE_LANE0 = 0xF1258F7940E1DDE7


def test_zero_state_known_answer():
    lanes = keccak_f([0] * 25)
    assert lanes[0] == ZERO_STATE_LANE0


def test_matches_bitwise_reference_on_zero_state():
    got = keccak_f([0] * 25)
    ref_bits = keccak_f1600_bitwise([0] * 1600)
    ref = state_from_bits(from01("".join(map(str, ref_bits))))
    assert got == ref


def test_matches_bitwise_reference_on_random_states(rng):
    for _ in range(3):
        lanes = [rng.getrandbits(64) for _ in range(25)]
        got = keccak_f(lanes)
        bits = state_to_bits(lanes)
        ref_bits = keccak_f1600_bitwise([bits.value >> i & 1
                                         for i in range(1600)])
        ref = state_from_bits(from01("".join(map(str, ref_bits))))
        assert got == ref


def test_absorb_blocks_input_validation():
    for size in (0, 100, 300):
        with pytest.raises(ValueError):
            keccak.absorb_blocks(bytearray(size), b"\x00" * 136, 136)
    for nbytes in (136, 136 * 3):           # not whole rounds of 2 blocks
        with pytest.raises(ValueError):
            keccak.absorb_blocks(bytearray(400), b"\x00" * nbytes, 136)
    assert keccak.absorb_blocks(bytearray(400), b"\x00" * 272, 136) == 2
    with pytest.raises(ValueError):
        keccak.absorb_blocks(bytearray(200), b"\x00" * 135, 136)
    for rate in (0, -8, 13, 135, 201):
        with pytest.raises(ValueError):
            keccak.absorb_blocks(bytearray(200), b"", rate)
    assert keccak.absorb_blocks(bytearray(200), b"", 136) == 0


def test_absorb_blocks_match_per_block_reference(rng):
    for rate in (8, 72, 136, 168, 200):
        start = rng.randbytes(200)
        data = rng.randbytes(rate * 3)
        ref = bytearray(start)
        for off in range(0, len(data), rate):
            for i in range(rate):
                ref[i] ^= data[off + i]
            keccak.permute(ref)
        got = bytearray(start)
        assert keccak.absorb_blocks(got, data, rate) == 3
        assert got == ref, rate


@pytest.mark.parametrize("width", [1, 2, 3, 7, 64, 513])
def test_packed_kernel_matches_scalar(width, rng):
    states = [[rng.getrandbits(64) for _ in range(25)] for _ in range(width)]
    packed = [sum(state[j] << 64 * k for k, state in enumerate(states))
              for j in range(25)]
    keccak._f1600_packed(packed, width)
    for k, state in enumerate(states):
        keccak._f1600(state)
        assert [lane >> 64 * k & (2 ** 64 - 1) for lane in packed] == state


@pytest.mark.parametrize("rate", [8, 72, 136, 168, 200])
def test_batched_absorb_matches_single_states(rate, rng):
    for width in (2, 5):
        start = rng.randbytes(200 * width)
        data = rng.randbytes(rate * width * 3)
        got = bytearray(start)
        assert keccak.absorb_blocks(got, data, rate) == 3 * width
        for k in range(width):
            want = bytearray(start[200 * k:200 * (k + 1)])
            blocks = b"".join(data[(r * width + k) * rate:
                                   (r * width + k + 1) * rate]
                              for r in range(3))
            assert keccak.absorb_blocks(want, blocks, rate) == 3
            assert got[200 * k:200 * (k + 1)] == want, (rate, width, k)


def test_deterministic():
    lanes = list(range(25))
    assert keccak_f(lanes) == keccak_f(lanes)
    assert lanes == list(range(25))  # input untouched


def test_bijective_sample(rng):
    seen = set()
    for _ in range(1000):
        lanes = tuple(rng.getrandbits(64) for _ in range(25))
        out = tuple(keccak_f(list(lanes)))
        assert out not in seen
        seen.add(out)
    assert len(seen) == 1000


def test_distinct_inputs_distinct_outputs():
    a = keccak_f([0] * 25)
    b = keccak_f([1] + [0] * 24)
    assert a != b


def test_bits_state_roundtrip(rng):
    bits = BitString(rng.getrandbits(1600), 1600)
    assert state_to_bits(state_from_bits(bits)) == bits


def test_bit_domain_commutes(rng):
    # bits -> state -> f -> bits equals f applied via the bit mapping
    lanes = [rng.getrandbits(64) for _ in range(25)]
    bits = state_to_bits(lanes)
    out_a = state_to_bits(keccak_f(lanes))
    out_b = state_to_bits(keccak_f(state_from_bits(bits)))
    assert out_a == out_b


def test_state_width_enforced():
    with pytest.raises(ValueError):
        state_from_bits(BitString(0, 1599))
    with pytest.raises(ValueError):
        state_to_bits([1 << 64] + [0] * 24)
