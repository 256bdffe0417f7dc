"""Sponge layer: SHAKE256's fixed sponge shape, the block-aligned inner
function and standard SHAKE256.

The inner function absorbs fully framed nodes whose length is an exact
multiple of the rate; it applies no padding of its own.  All suffix and
padding bits are already part of the node.  Every operation reports the
number of permutation calls it consumed, so schedulers and evaluators
can audit costs without shared counters.
"""

from __future__ import annotations

from . import keccak
from .bits import BitString
from .errors import BlockAlignmentError, OutputLengthError

# The one sponge shape: rate + capacity = 1088 + 512 = keccak.STATE_BITS,
# and a chaining value is the first CV_BITS of a state, as long as the
# capacity (as Sakura recommends).
RATE_BITS = 1088
CV_BITS = 512

_RATE_BYTES = RATE_BITS // 8


def _absorb(node_bits: BitString) -> tuple[bytearray, int]:
    if len(node_bits) == 0 or len(node_bits) % RATE_BITS:
        raise BlockAlignmentError(
            "node is %d bits, not a positive multiple of %d"
            % (len(node_bits), RATE_BITS))
    state = bytearray(200)
    calls = keccak.absorb_blocks(state, node_bits.to_bytes(), _RATE_BYTES)
    return state, calls


def check_out_bits(out_bits: int) -> None:
    """Raise `OutputLengthError` unless `out_bits` is positive."""
    if out_bits < 1:
        raise OutputLengthError("output length must be positive")


def inner_f(node_bits: BitString) -> tuple[BitString, int]:
    """Absorb a fully framed node; return (chaining value, permutation calls).

    The chaining value is the first `CV_BITS` of the final state; the
    call count is exactly len(node_bits) / rate.
    """
    state, calls = _absorb(node_bits)
    cv = BitString(int.from_bytes(state[:CV_BITS // 8], "little"), CV_BITS)
    return cv, calls


def xof_output(node_bits: BitString, out_bits: int) -> tuple[BitString, int]:
    """Absorb a final node and squeeze `out_bits` of output.

    A node of k blocks costs k + ceil(out_bits/rate) - 1 calls (see
    `squeeze`).  An `out_bits` below 1 is rejected before any
    permutation.
    """
    check_out_bits(out_bits)
    state, calls = _absorb(node_bits)
    out, more = squeeze(state, out_bits)
    return out, calls + more


def squeeze(state: bytearray, out_bits: int) -> tuple[BitString, int]:
    """Squeeze `out_bits` from an absorbed state; (output, permutation calls).

    The first rate-sized extraction is free; each further extraction costs
    one permutation call.  The whole output buffer is allocated before the
    first call, so a length that cannot fit raises `MemoryError` at once.
    Callers check that `out_bits` is positive.
    """
    out = bytearray((out_bits + 7) // 8)
    calls = 0
    for off in range(0, len(out), _RATE_BYTES):
        if off:
            keccak.permute(state)
            calls += 1
        take = min(_RATE_BYTES, len(out) - off)
        out[off:off + take] = state[:take]
    value = int.from_bytes(out, "little") & ((1 << out_bits) - 1)
    return BitString(value, out_bits), calls


def shake256(message: BitString, out_bits: int) -> BitString:
    """Standard SHAKE256: suffix 1111 plus multi-rate padding 10*1.

    The suffix stacks the XOF's 11 on top of the intermediate function's
    11.  Used as the externally validated reference; tree construction
    never calls this.
    """
    r = RATE_BITS
    # message || 1111 || 1 0^z 1, filled to the next rate boundary
    n = len(message) + 4
    total = ((n + 2 + r - 1) // r) * r
    value = message.value
    value |= 0b1111 << len(message)      # domain separation suffix
    value |= 1 << n                      # first padding bit
    value |= 1 << (total - 1)            # last padding bit
    padded = BitString(value, total)
    out, _ = xof_output(padded, out_bits)
    return out
