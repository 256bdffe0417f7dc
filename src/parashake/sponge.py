"""Sponge layer: the block-aligned inner function and standard SHAKE256.

The inner function absorbs fully framed nodes whose length is an exact
multiple of the rate; it applies no padding of its own.  All suffix and
padding bits are already part of the node.  Every operation reports the
number of permutation calls it consumed, so schedulers and evaluators
can audit costs without shared counters.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import keccak
from .bits import BitString
from .errors import BlockAlignmentError, OutputLengthError


@dataclass(frozen=True)
class SpongeParams:
    rate_bits: int = 1088
    capacity_bits: int = 512
    cv_bits: int = 512

    def __post_init__(self):
        if self.rate_bits + self.capacity_bits != keccak.STATE_BITS:
            raise ValueError("rate + capacity must equal 1600")
        if self.rate_bits % 8:
            raise ValueError("rate must be a whole number of bytes")
        if self.cv_bits != self.capacity_bits:
            raise ValueError("chaining value length must equal the capacity")


DEFAULT_PARAMS = SpongeParams()


def _absorb(node_bits: BitString, params: SpongeParams) -> tuple[bytearray, int]:
    if len(node_bits) == 0 or len(node_bits) % params.rate_bits:
        raise BlockAlignmentError(
            "node is %d bits, not a positive multiple of %d"
            % (len(node_bits), params.rate_bits))
    state = bytearray(200)
    calls = keccak.absorb_blocks(state, node_bits.to_bytes(),
                                 params.rate_bits // 8)
    return state, calls


def inner_f(node_bits: BitString,
            params: SpongeParams = DEFAULT_PARAMS) -> tuple[BitString, int]:
    """Absorb a fully framed node; return (chaining value, permutation calls).

    The chaining value is the first `cv_bits` of the final state; the call
    count is exactly len(node_bits) / rate.
    """
    state, calls = _absorb(node_bits, params)
    cv = BitString(int.from_bytes(state, "little") & ((1 << params.cv_bits) - 1),
                   params.cv_bits)
    return cv, calls


def xof_output(node_bits: BitString, out_bits: int,
               params: SpongeParams = DEFAULT_PARAMS) -> tuple[BitString, int]:
    """Absorb a final node and squeeze `out_bits` of output.

    A node of k blocks costs k + ceil(out_bits/rate) - 1 calls (see
    `squeeze`).
    """
    state, calls = _absorb(node_bits, params)
    out, more = squeeze(state, out_bits, params)
    return out, calls + more


def squeeze(state: bytearray, out_bits: int,
            params: SpongeParams = DEFAULT_PARAMS) -> tuple[BitString, int]:
    """Squeeze `out_bits` from an absorbed state; (output, permutation calls).

    The first rate-sized extraction is free; each further extraction costs
    one permutation call.  The whole output buffer is allocated before the
    first call, so a length that cannot fit raises `MemoryError` at once.
    """
    if out_bits < 1:
        raise OutputLengthError("output length must be positive")
    rate_bytes = params.rate_bits // 8
    out = bytearray((out_bits + 7) // 8)
    calls = 0
    for off in range(0, len(out), rate_bytes):
        if off:
            keccak.permute(state)
            calls += 1
        take = min(rate_bytes, len(out) - off)
        out[off:off + take] = state[:take]
    value = int.from_bytes(out, "little") & ((1 << out_bits) - 1)
    return BitString(value, out_bits), calls


def shake256(message: BitString, out_bits: int,
             params: SpongeParams = DEFAULT_PARAMS) -> BitString:
    """Standard SHAKE256: suffix 1111 plus multi-rate padding 10*1.

    The suffix stacks the XOF's 11 on top of the intermediate function's
    11.  Used as the externally validated reference; tree construction
    never calls this.
    """
    if out_bits < 1:
        raise OutputLengthError("output length must be positive")
    r = params.rate_bits
    # message || 1111 || 1 0^z 1, filled to the next rate boundary
    n = len(message) + 4
    total = ((n + 2 + r - 1) // r) * r
    value = message.value
    value |= 0b1111 << len(message)      # domain separation suffix
    value |= 1 << n                      # first padding bit
    value |= 1 << (total - 1)            # last padding bit
    padded = BitString(value, total)
    out, _ = xof_output(padded, out_bits, params)
    return out


def rawshake_cost(message_bits: int, digest_bits: int,
                  params: SpongeParams = DEFAULT_PARAMS) -> int:
    """Permutation calls of unredefined RawSHAKE256 on an l-bit input.

    ceil((l+4)/r) + floor(d/r): the 4 covers the domain suffix and the
    minimal multi-rate padding; the first squeeze is free.
    """
    if message_bits < 0 or digest_bits < 1:
        raise ValueError("invalid cost query")
    r = params.rate_bits
    return (message_bits + 4 + r - 1) // r + digest_bits // r
