"""Unit tests for repro.common.types: addresses, hashes, u256 arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.types import (
    MAX_U256,
    address,
    address_from_hex,
    address_from_int,
    address_to_int,
    hash32,
    hash32_from_hex,
    hex0x,
    to_u256,
    u256_add,
    u256_sub,
    u256_mul,
    u256_div,
    u256_mod,
    u256_exp,
    u256_to_signed,
    signed_to_u256,
    to_word_bytes,
    word_from_bytes,
)

u256s = st.integers(min_value=0, max_value=MAX_U256)


class TestAddress:
    def test_round_trip_int(self):
        a = address_from_int(0xDEADBEEF)
        assert address_to_int(a) == 0xDEADBEEF
        assert len(a) == 20

    def test_from_hex_with_prefix(self):
        a = address_from_hex("0x" + "ab" * 20)
        assert a == bytes.fromhex("ab" * 20)
        assert hex0x(a) == "0x" + "ab" * 20

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            address(b"\x00" * 19)
        with pytest.raises(ValueError):
            address(b"\x00" * 21)

    def test_negative_int_rejected(self):
        with pytest.raises(ValueError):
            address_from_int(-1)

    def test_usable_as_dict_key(self):
        a = address_from_int(7)
        b = address_from_int(7)
        assert {a: 1}[b] == 1


class TestHash32:
    def test_length_enforced(self):
        with pytest.raises(ValueError):
            hash32(b"\x01" * 31)
        h = hash32(b"\x01" * 32)
        assert hex0x(h).startswith("0x01")

    def test_from_hex(self):
        h = hash32_from_hex("0x" + "00" * 32)
        assert h == b"\x00" * 32


class TestU256Arithmetic:
    def test_add_wraps(self):
        assert u256_add(MAX_U256, 1) == 0
        assert u256_add(MAX_U256, 2) == 1

    def test_sub_wraps(self):
        assert u256_sub(0, 1) == MAX_U256

    def test_div_and_mod_by_zero_are_zero(self):
        assert u256_div(5, 0) == 0
        assert u256_mod(5, 0) == 0

    def test_exp_wraps(self):
        assert u256_exp(2, 256) == 0
        assert u256_exp(2, 255) == 1 << 255
        assert u256_exp(3, 4) == 81

    @given(u256s, u256s)
    def test_add_matches_python_mod(self, a, b):
        assert u256_add(a, b) == (a + b) % (1 << 256)

    @given(u256s, u256s)
    def test_mul_matches_python_mod(self, a, b):
        assert u256_mul(a, b) == (a * b) % (1 << 256)

    @given(st.integers(min_value=-(1 << 255), max_value=(1 << 255) - 1))
    def test_signed_round_trip(self, x):
        assert u256_to_signed(signed_to_u256(x)) == x

    @given(u256s)
    def test_word_bytes_round_trip(self, x):
        assert word_from_bytes(to_word_bytes(x)) == x
        assert len(to_word_bytes(x)) == 32

    def test_word_from_short_bytes_left_pads(self):
        assert word_from_bytes(b"\x01\x02") == 0x0102

    def test_word_from_long_bytes_rejected(self):
        with pytest.raises(ValueError):
            word_from_bytes(b"\x00" * 33)

    def test_to_u256_reduces(self):
        assert to_u256(-1) == MAX_U256
        assert to_u256(1 << 256) == 0
