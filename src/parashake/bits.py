"""Arbitrary-length bit strings with a fixed bit-order convention.

Bit i of a string is bit i of an unbounded non-negative integer.  Byte
serialization is little-endian with bit 0 in the least significant
position of the first byte, which is the FIPS 202 convention for mapping
bit strings onto the Keccak state.  Values are immutable.
"""

from __future__ import annotations


class BitString:
    __slots__ = ("value", "length")

    def __init__(self, value: int = 0, length: int = 0):
        if length < 0:
            raise ValueError("negative bit length")
        if value < 0 or value >> length:
            raise ValueError("value does not fit in %d bits" % length)
        self.value = value
        self.length = length

    @classmethod
    def from_bytes(cls, data: bytes, length: int | None = None) -> "BitString":
        """Build from bytes; `length` may trim trailing bits of the last byte."""
        if length is None:
            length = 8 * len(data)
        if length > 8 * len(data):
            raise ValueError("length exceeds the supplied bytes")
        value = int.from_bytes(data, "little") & ((1 << length) - 1)
        return cls(value, length)

    def __len__(self) -> int:
        return self.length

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self.length == other.length and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.value, self.length))

    def slice(self, start: int, length: int) -> "BitString":
        if start < 0 or length < 0 or start + length > self.length:
            raise IndexError("slice out of range")
        return BitString((self.value >> start) & ((1 << length) - 1), length)

    def to_bytes(self) -> bytes:
        """Pack to bytes; unused high bits of the last byte are zero."""
        return self.value.to_bytes((self.length + 7) // 8, "little")

    def hex(self) -> str:
        return self.to_bytes().hex()

    def to01(self) -> str:
        return "".join("1" if (self.value >> i) & 1 else "0"
                       for i in range(self.length))

    def __repr__(self) -> str:
        if self.length <= 32:
            return "BitString(%r)" % self.to01()
        return "BitString(<%d bits>)" % self.length
