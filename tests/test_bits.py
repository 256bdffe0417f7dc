import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import from01
from parashake.bits import BitString


def test_empty():
    b = BitString()
    assert len(b) == 0
    assert b.to_bytes() == b""
    assert b.to01() == ""


def test_from01_roundtrip():
    b = from01("1101001")
    assert len(b) == 7
    assert b.to01() == "1101001"
    assert [b.value >> i & 1 for i in range(7)] == [1, 1, 0, 1, 0, 0, 1]


def test_byte_order_is_lsb_first():
    # bit 0 is the least significant bit of the first byte
    b = from01("10000000" + "01000000")
    assert b.to_bytes() == bytes([0x01, 0x02])
    assert BitString.from_bytes(bytes([0x01, 0x02])) == b


def test_trailing_bits_pad_with_zeros():
    b = from01("111")
    assert b.to_bytes() == bytes([0b00000111])
    assert b.hex() == "07"


def test_slice():
    b = from01("1100101")
    assert b.slice(2, 3).to01() == "001"
    assert b.slice(0, 0).to01() == ""
    with pytest.raises(IndexError):
        b.slice(5, 3)


def test_value_must_fit():
    with pytest.raises(ValueError):
        BitString(4, 2)
    with pytest.raises(ValueError):
        BitString(-1, 8)


def test_from_bytes_trim():
    b = BitString.from_bytes(bytes([0xFF]), 3)
    assert b.to01() == "111"
    with pytest.raises(ValueError):
        BitString.from_bytes(b"\x00", 9)


@given(st.binary(max_size=64))
def test_bytes_roundtrip(data):
    assert BitString.from_bytes(data).to_bytes() == data


@given(st.text(alphabet="01", max_size=200))
def test_01_roundtrip(text):
    assert from01(text).to01() == text
