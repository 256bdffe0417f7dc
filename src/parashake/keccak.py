"""Keccak-f[1600], the unit of time for every cost in this package.

A pure-Python kernel.  The state is a 200-byte buffer holding 25 lanes
of 64 bits, little-endian, lane index x + 5*y.

The permutation is straight-line code over 25 local lane variables
``a0``..``a24`` (``a{x+5y}``), in the lane-local style of the Keccak
team's "readable-and-compact" code (XKCP) and Saarinen's tiny_sha3.  One
round of the 24-round loop is:

* theta: column parities ``c0``..``c4`` and their effects ``d0``..``d4``;
* theta's XOR, rho and pi as one step per lane,
  ``b{y+5((2x+3y)%5)} = rotl(a{x+5y} ^ d{x}, r)``, the 25 lines ordered
  by destination and each rotation offset ``r`` written as a constant;
* chi and iota back into the ``a`` lanes.

There are no lists and no index arithmetic inside the round, and every
intermediate is a non-negative int below 2**64: chi's
``b0 ^ (~b1 & b2)`` is written as ``b0 ^ b1 ^ (b1 | b2)``, the same
value without a negative operand.  Unrolling the round loop makes
CPython no faster, so it stays a loop.

`permute` unpacks the buffer once and packs it once; `absorb_blocks`
keeps the lanes as ints across all blocks and packs the state once at
the end.

`absorb_blocks` also takes B independent states at once, one launch.
The packed kernel `_f1600_packed` is the same round over 25 packed
lanes: packed lane j holds lane j of state k in bits [64k, 64k+64), so
XOR, AND and OR act on all B states at once and chi is unchanged.  A
rotation by r becomes ``(t & LO[64-r]) << r | (t >> (64-r)) & LO[r]``,
where ``LO[k]`` repeats the k low bits in every lane; the masks and the
round constants are widened to B lanes once per call.  Packing is a
transpose by `array` stride slices and `int.from_bytes`/`to_bytes`.
Per permutation a launch costs about 11-14 us from 256 states up, 26 us
at 24 and 200 us at 2, against about 300 us for the scalar kernel
(2-vCPU host, CPython 3.11), so it pays from two states; B = 1 keeps the
scalar kernel.  The executor caps launches at `evaluate.LAUNCH_CAP`
states.  Packed Python
ints, not numpy: importing numpy alone doubles a fresh process's peak
RSS (13.1 to 26.8 MiB), and the ints need no second code path.
"""

from __future__ import annotations

import struct
from array import array

BACKEND = "python"
STATE_BITS = 1600

_MASK = 0xFFFFFFFFFFFFFFFF

_RC = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
    0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
    0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
    0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
    0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
    0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
    0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)

_STATE = struct.Struct("<25Q")

# One bit at the bottom of every 64-bit lane of a packed int.
_ONE_LANE = (1).to_bytes(8, "little")
# k of every rotation mask ``(1 << k) - 1`` that the packed kernel uses.
_MASK_WIDTHS = (1, 2, 3, 6, 8, 9, 10, 14, 15, 18, 19, 20, 21, 23, 25, 27,
                28, 36, 37, 39, 41, 43, 44, 45, 46, 49, 50, 54, 55, 56, 58,
                61, 62, 63)


def _f1600(s: list) -> None:
    """Keccak-f[1600] in place on a list of 25 lanes."""
    (a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12,
     a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24) = s
    for rc in _RC:
        # theta
        c0 = a0 ^ a5 ^ a10 ^ a15 ^ a20
        c1 = a1 ^ a6 ^ a11 ^ a16 ^ a21
        c2 = a2 ^ a7 ^ a12 ^ a17 ^ a22
        c3 = a3 ^ a8 ^ a13 ^ a18 ^ a23
        c4 = a4 ^ a9 ^ a14 ^ a19 ^ a24
        d0 = c4 ^ ((c1 << 1 | c1 >> 63) & _MASK)
        d1 = c0 ^ ((c2 << 1 | c2 >> 63) & _MASK)
        d2 = c1 ^ ((c3 << 1 | c3 >> 63) & _MASK)
        d3 = c2 ^ ((c4 << 1 | c4 >> 63) & _MASK)
        d4 = c3 ^ ((c0 << 1 | c0 >> 63) & _MASK)
        # theta's XOR, rho and pi
        b0 = a0 ^ d0
        t = a6 ^ d1
        b1 = (t << 44 | t >> 20) & _MASK
        t = a12 ^ d2
        b2 = (t << 43 | t >> 21) & _MASK
        t = a18 ^ d3
        b3 = (t << 21 | t >> 43) & _MASK
        t = a24 ^ d4
        b4 = (t << 14 | t >> 50) & _MASK
        t = a3 ^ d3
        b5 = (t << 28 | t >> 36) & _MASK
        t = a9 ^ d4
        b6 = (t << 20 | t >> 44) & _MASK
        t = a10 ^ d0
        b7 = (t << 3 | t >> 61) & _MASK
        t = a16 ^ d1
        b8 = (t << 45 | t >> 19) & _MASK
        t = a22 ^ d2
        b9 = (t << 61 | t >> 3) & _MASK
        t = a1 ^ d1
        b10 = (t << 1 | t >> 63) & _MASK
        t = a7 ^ d2
        b11 = (t << 6 | t >> 58) & _MASK
        t = a13 ^ d3
        b12 = (t << 25 | t >> 39) & _MASK
        t = a19 ^ d4
        b13 = (t << 8 | t >> 56) & _MASK
        t = a20 ^ d0
        b14 = (t << 18 | t >> 46) & _MASK
        t = a4 ^ d4
        b15 = (t << 27 | t >> 37) & _MASK
        t = a5 ^ d0
        b16 = (t << 36 | t >> 28) & _MASK
        t = a11 ^ d1
        b17 = (t << 10 | t >> 54) & _MASK
        t = a17 ^ d2
        b18 = (t << 15 | t >> 49) & _MASK
        t = a23 ^ d3
        b19 = (t << 56 | t >> 8) & _MASK
        t = a2 ^ d2
        b20 = (t << 62 | t >> 2) & _MASK
        t = a8 ^ d3
        b21 = (t << 55 | t >> 9) & _MASK
        t = a14 ^ d4
        b22 = (t << 39 | t >> 25) & _MASK
        t = a15 ^ d0
        b23 = (t << 41 | t >> 23) & _MASK
        t = a21 ^ d1
        b24 = (t << 2 | t >> 62) & _MASK
        # chi and iota
        a0 = b0 ^ b1 ^ (b1 | b2) ^ rc
        a1 = b1 ^ b2 ^ (b2 | b3)
        a2 = b2 ^ b3 ^ (b3 | b4)
        a3 = b3 ^ b4 ^ (b4 | b0)
        a4 = b4 ^ b0 ^ (b0 | b1)
        a5 = b5 ^ b6 ^ (b6 | b7)
        a6 = b6 ^ b7 ^ (b7 | b8)
        a7 = b7 ^ b8 ^ (b8 | b9)
        a8 = b8 ^ b9 ^ (b9 | b5)
        a9 = b9 ^ b5 ^ (b5 | b6)
        a10 = b10 ^ b11 ^ (b11 | b12)
        a11 = b11 ^ b12 ^ (b12 | b13)
        a12 = b12 ^ b13 ^ (b13 | b14)
        a13 = b13 ^ b14 ^ (b14 | b10)
        a14 = b14 ^ b10 ^ (b10 | b11)
        a15 = b15 ^ b16 ^ (b16 | b17)
        a16 = b16 ^ b17 ^ (b17 | b18)
        a17 = b17 ^ b18 ^ (b18 | b19)
        a18 = b18 ^ b19 ^ (b19 | b15)
        a19 = b19 ^ b15 ^ (b15 | b16)
        a20 = b20 ^ b21 ^ (b21 | b22)
        a21 = b21 ^ b22 ^ (b22 | b23)
        a22 = b22 ^ b23 ^ (b23 | b24)
        a23 = b23 ^ b24 ^ (b24 | b20)
        a24 = b24 ^ b20 ^ (b20 | b21)
    s[:] = (a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12,
            a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24)


def _f1600_packed(s: list, width: int) -> None:
    """Keccak-f[1600] in place on 25 packed lanes of `width` states."""
    (a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12,
     a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24) = s
    ones = int.from_bytes(_ONE_LANE * width, "little")
    (m1, m2, m3, m6, m8, m9, m10, m14, m15, m18, m19, m20, m21, m23, m25,
     m27, m28, m36, m37, m39, m41, m43, m44, m45, m46, m49, m50, m54, m55,
     m56, m58, m61, m62, m63) = [ones * ((1 << k) - 1) for k in _MASK_WIDTHS]
    for rc in _RC:
        rc *= ones
        # theta
        c0 = a0 ^ a5 ^ a10 ^ a15 ^ a20
        c1 = a1 ^ a6 ^ a11 ^ a16 ^ a21
        c2 = a2 ^ a7 ^ a12 ^ a17 ^ a22
        c3 = a3 ^ a8 ^ a13 ^ a18 ^ a23
        c4 = a4 ^ a9 ^ a14 ^ a19 ^ a24
        d0 = c4 ^ ((c1 & m63) << 1 | (c1 >> 63) & m1)
        d1 = c0 ^ ((c2 & m63) << 1 | (c2 >> 63) & m1)
        d2 = c1 ^ ((c3 & m63) << 1 | (c3 >> 63) & m1)
        d3 = c2 ^ ((c4 & m63) << 1 | (c4 >> 63) & m1)
        d4 = c3 ^ ((c0 & m63) << 1 | (c0 >> 63) & m1)
        # theta's XOR, rho and pi
        b0 = a0 ^ d0
        t = a6 ^ d1
        b1 = (t & m20) << 44 | (t >> 20) & m44
        t = a12 ^ d2
        b2 = (t & m21) << 43 | (t >> 21) & m43
        t = a18 ^ d3
        b3 = (t & m43) << 21 | (t >> 43) & m21
        t = a24 ^ d4
        b4 = (t & m50) << 14 | (t >> 50) & m14
        t = a3 ^ d3
        b5 = (t & m36) << 28 | (t >> 36) & m28
        t = a9 ^ d4
        b6 = (t & m44) << 20 | (t >> 44) & m20
        t = a10 ^ d0
        b7 = (t & m61) << 3 | (t >> 61) & m3
        t = a16 ^ d1
        b8 = (t & m19) << 45 | (t >> 19) & m45
        t = a22 ^ d2
        b9 = (t & m3) << 61 | (t >> 3) & m61
        t = a1 ^ d1
        b10 = (t & m63) << 1 | (t >> 63) & m1
        t = a7 ^ d2
        b11 = (t & m58) << 6 | (t >> 58) & m6
        t = a13 ^ d3
        b12 = (t & m39) << 25 | (t >> 39) & m25
        t = a19 ^ d4
        b13 = (t & m56) << 8 | (t >> 56) & m8
        t = a20 ^ d0
        b14 = (t & m46) << 18 | (t >> 46) & m18
        t = a4 ^ d4
        b15 = (t & m37) << 27 | (t >> 37) & m27
        t = a5 ^ d0
        b16 = (t & m28) << 36 | (t >> 28) & m36
        t = a11 ^ d1
        b17 = (t & m54) << 10 | (t >> 54) & m10
        t = a17 ^ d2
        b18 = (t & m49) << 15 | (t >> 49) & m15
        t = a23 ^ d3
        b19 = (t & m8) << 56 | (t >> 8) & m56
        t = a2 ^ d2
        b20 = (t & m2) << 62 | (t >> 2) & m62
        t = a8 ^ d3
        b21 = (t & m9) << 55 | (t >> 9) & m55
        t = a14 ^ d4
        b22 = (t & m25) << 39 | (t >> 25) & m39
        t = a15 ^ d0
        b23 = (t & m23) << 41 | (t >> 23) & m41
        t = a21 ^ d1
        b24 = (t & m62) << 2 | (t >> 62) & m2
        # chi and iota
        a0 = b0 ^ b1 ^ (b1 | b2) ^ rc
        a1 = b1 ^ b2 ^ (b2 | b3)
        a2 = b2 ^ b3 ^ (b3 | b4)
        a3 = b3 ^ b4 ^ (b4 | b0)
        a4 = b4 ^ b0 ^ (b0 | b1)
        a5 = b5 ^ b6 ^ (b6 | b7)
        a6 = b6 ^ b7 ^ (b7 | b8)
        a7 = b7 ^ b8 ^ (b8 | b9)
        a8 = b8 ^ b9 ^ (b9 | b5)
        a9 = b9 ^ b5 ^ (b5 | b6)
        a10 = b10 ^ b11 ^ (b11 | b12)
        a11 = b11 ^ b12 ^ (b12 | b13)
        a12 = b12 ^ b13 ^ (b13 | b14)
        a13 = b13 ^ b14 ^ (b14 | b10)
        a14 = b14 ^ b10 ^ (b10 | b11)
        a15 = b15 ^ b16 ^ (b16 | b17)
        a16 = b16 ^ b17 ^ (b17 | b18)
        a17 = b17 ^ b18 ^ (b18 | b19)
        a18 = b18 ^ b19 ^ (b19 | b15)
        a19 = b19 ^ b15 ^ (b15 | b16)
        a20 = b20 ^ b21 ^ (b21 | b22)
        a21 = b21 ^ b22 ^ (b22 | b23)
        a22 = b22 ^ b23 ^ (b23 | b24)
        a23 = b23 ^ b24 ^ (b24 | b20)
        a24 = b24 ^ b20 ^ (b20 | b21)
    s[:] = (a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12,
            a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24)


def _gather(buf, width: int) -> list:
    """The packed lanes of `width` equal records of whole words in `buf`:
    packed lane j holds 64-bit word j of record k in bits [64k, 64k+64)."""
    words = array("Q", buf)
    stride = len(words) // width
    return [int.from_bytes(words[j::stride].tobytes(), "little")
            for j in range(stride)]


def _scatter(lanes: list, state: bytearray, width: int) -> None:
    """Write 25 packed lanes back to `width` 200-byte states."""
    words = array("Q", bytes(len(state)))
    for j, lane in enumerate(lanes):
        words[j::25] = array("Q", lane.to_bytes(8 * width, "little"))
    state[:] = words.tobytes()


def permute(state: bytearray) -> None:
    """Apply Keccak-f[1600] in place to a 200-byte state buffer."""
    lanes = list(_STATE.unpack(state))
    _f1600(lanes)
    _STATE.pack_into(state, 0, *lanes)


def absorb_blocks(state: bytearray, data: bytes, rate_bytes: int) -> int:
    """XOR rate-sized blocks into B states, permuting after each round.

    `state` holds B >= 1 states of 200 bytes back to back.  `data` holds
    whole rounds of B blocks of `rate_bytes` (8..200, whole 64-bit lanes,
    as every FIPS 202 rate is), block k of a round for state k.  Returns
    the permutations performed, B per round.  B = 1 runs the scalar
    kernel; wider calls run the packed one.
    """
    width, rem = divmod(len(state), 200)
    if rem or not width:
        raise ValueError("state must be a positive multiple of 200 bytes")
    if not 0 < rate_bytes <= 200 or rate_bytes % 8:
        raise ValueError("rate must be whole lanes of 8..200 bytes")
    step = rate_bytes * width
    rounds, rem = divmod(len(data), step)
    if rem:
        raise ValueError("data is not a whole number of rounds")
    if not rounds:
        return 0
    if width == 1:
        _absorb_scalar(state, data, rate_bytes)
        return rounds
    lanes = _gather(state, width)
    for off in range(0, len(data), step):
        for j, lane in enumerate(_gather(data[off:off + step], width)):
            lanes[j] ^= lane
        _f1600_packed(lanes, width)
    _scatter(lanes, state, width)
    return rounds * width


def _absorb_scalar(state: bytearray, data: bytes, rate_bytes: int) -> None:
    words = struct.Struct("<%dQ" % (rate_bytes // 8))
    lanes = list(_STATE.unpack(state))
    for off in range(0, len(data), rate_bytes):
        for i, w in enumerate(words.unpack_from(data, off)):
            lanes[i] ^= w
        _f1600(lanes)
    _STATE.pack_into(state, 0, *lanes)
