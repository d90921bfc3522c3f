"""RLP encoder/decoder tests, including yellow-paper vectors and round trips."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.rlp import (
    RLPDecodeError,
    rlp_decode,
    rlp_decode_first,
    rlp_encode,
    rlp_list,
    rlp_string,
)
from repro.common.types import Address, Hash32


class TestKnownVectors:
    """Canonical examples from the Ethereum wiki / yellow paper."""

    def test_empty_string(self):
        assert rlp_encode(b"") == b"\x80"

    def test_single_low_byte(self):
        assert rlp_encode(b"\x00") == b"\x00"
        assert rlp_encode(b"\x7f") == b"\x7f"

    def test_single_high_byte(self):
        assert rlp_encode(b"\x80") == b"\x81\x80"

    def test_dog(self):
        assert rlp_encode(b"dog") == b"\x83dog"

    def test_cat_dog_list(self):
        assert rlp_encode([b"cat", b"dog"]) == b"\xc8\x83cat\x83dog"

    def test_empty_list(self):
        assert rlp_encode([]) == b"\xc0"

    def test_integer_zero_is_empty_string(self):
        assert rlp_encode(0) == b"\x80"

    def test_integer_fifteen(self):
        assert rlp_encode(15) == b"\x0f"

    def test_integer_1024(self):
        assert rlp_encode(1024) == b"\x82\x04\x00"

    def test_set_theoretic_nesting(self):
        # [ [], [[]], [ [], [[]] ] ]
        assert rlp_encode([[], [[]], [[], [[]]]]) == bytes.fromhex("c7c0c1c0c3c0c1c0")

    def test_long_string_uses_long_form(self):
        data = b"a" * 56
        enc = rlp_encode(data)
        assert enc[0] == 0xB8
        assert enc[1] == 56
        assert enc[2:] == data

    def test_str_encodes_as_utf8(self):
        assert rlp_encode("dog") == rlp_encode(b"dog")

    def test_negative_int_rejected(self):
        with pytest.raises(ValueError):
            rlp_encode(-1)

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            rlp_encode(True)

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            rlp_encode(3.14)


nested_items = st.recursive(
    st.binary(max_size=70),
    lambda children: st.lists(children, max_size=6),
    max_leaves=25,
)


class TestRoundTrip:
    @given(nested_items)
    def test_encode_decode_round_trip(self, item):
        assert rlp_decode(rlp_encode(item)) == item

    @given(st.integers(min_value=0, max_value=1 << 256))
    def test_int_round_trip_via_bytes(self, value):
        decoded = rlp_decode(rlp_encode(value))
        assert int.from_bytes(decoded, "big") == value


def reference_encode(item):
    """The encoder as it was before the exact-type fast paths: one
    ``isinstance`` ladder, every byte string copied, ints through bytes."""

    def length_prefix(length, offset):
        if length < 56:
            return bytes([offset + length])
        raw = length.to_bytes((length.bit_length() + 7) // 8, "big")
        return bytes([offset + 55 + len(raw)]) + raw

    if isinstance(item, (bytes, bytearray)):
        data = bytes(item)
        if len(data) == 1 and data[0] < 0x80:
            return data
        return length_prefix(len(data), 0x80) + data
    if isinstance(item, bool):
        raise TypeError("RLP does not define a boolean encoding")
    if isinstance(item, int):
        if item < 0:
            raise ValueError("RLP cannot encode negative integers")
        return reference_encode(item.to_bytes((item.bit_length() + 7) // 8, "big"))
    if isinstance(item, str):
        return reference_encode(item.encode("utf-8"))
    if isinstance(item, (list, tuple)):
        body = b"".join(reference_encode(sub) for sub in item)
        return length_prefix(len(body), 0xC0) + body
    raise TypeError(f"cannot RLP-encode {type(item).__name__}")


class _Bytes(bytes):
    """A ``bytes`` subclass with no length rule (``Address``/``Hash32`` have one)."""


class _Int(int):
    pass


mixed_items = st.recursive(
    st.one_of(
        st.binary(max_size=70),
        st.binary(max_size=70).map(bytearray),
        st.binary(max_size=3).map(_Bytes),
        st.integers(min_value=0, max_value=(1 << 256) - 1),
        st.text(max_size=8),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=6), st.lists(children, max_size=6).map(tuple)
    ),
    max_leaves=25,
)


class TestFastPathsEqualReference:
    @pytest.mark.parametrize(
        "item",
        [
            Address(b"\x11" * 20),
            Hash32(b"\x22" * 32),
            _Bytes(b"\x05"),
            _Bytes(b"\x80"),
            bytearray(b"\x05"),
            bytearray(b"dog"),
            bytearray(b"a" * 56),
            "dog",
            "",
            0,
            1,
            0x7F,
            0x80,
            0xFF,
            0x100,
            (1 << 256) - 1,
            _Int(0x7F),
            _Int(1024),
            b"a" * 55,
            b"a" * 56,
            [b"a" * 54],  # 55-byte list payload: short form
            [b"a" * 55],  # 56-byte list payload: long form
            (b"cat", b"dog"),
            [Address(b"\x11" * 20), (0, 0x80, [Hash32(b"\x22" * 32)]), "x", bytearray(b"\x7f")],
        ],
        ids=repr,
    )
    def test_literal_cases(self, item):
        encoded = rlp_encode(item)
        assert encoded == reference_encode(item)
        assert type(encoded) is bytes

    def test_tuple_and_list_encode_alike(self):
        assert rlp_encode((b"cat", (1, 2))) == rlp_encode([b"cat", [1, 2]])

    def test_list_length_boundary_forms(self):
        assert rlp_encode([b"a" * 54])[0] == 0xC0 + 55
        assert rlp_encode([b"a" * 55])[:2] == bytes([0xF8, 56])

    @given(mixed_items)
    def test_any_mix_of_types(self, item):
        assert rlp_encode(item) == reference_encode(item)

    @pytest.mark.parametrize("item", [True, False, [1, True], (b"x", [False])])
    def test_bool_still_rejected_at_any_depth(self, item):
        with pytest.raises(TypeError):
            rlp_encode(item)

    @pytest.mark.parametrize("item", [-1, -(1 << 70), [0, -1], _Int(-5)])
    def test_negative_still_rejected_at_any_depth(self, item):
        with pytest.raises(ValueError):
            rlp_encode(item)


class TestPrimitives:
    """``rlp_string`` / ``rlp_list``: what the trie and the block codec use to
    splice already-encoded pieces."""

    @given(st.binary(max_size=70))
    def test_string_is_the_bytes_rule(self, data):
        assert rlp_string(data) == rlp_encode(data)

    @given(st.lists(nested_items, max_size=6))
    def test_list_of_encoded_items_is_the_list_rule(self, items):
        assert rlp_list([rlp_encode(item) for item in items]) == rlp_encode(items)

    def test_list_accepts_any_iterable(self):
        assert rlp_list(iter([b"\x83cat", b"\x83dog"])) == rlp_encode([b"cat", b"dog"])


class TestStrictDecoding:
    def test_trailing_garbage_rejected(self):
        with pytest.raises(RLPDecodeError):
            rlp_decode(rlp_encode(b"dog") + b"\x00")

    def test_truncated_string_rejected(self):
        with pytest.raises(RLPDecodeError):
            rlp_decode(b"\x83do")

    def test_truncated_list_rejected(self):
        with pytest.raises(RLPDecodeError):
            rlp_decode(b"\xc8\x83cat")

    def test_non_canonical_single_byte_rejected(self):
        # 0x81 0x05 encodes byte 5, which must encode as plain 0x05
        with pytest.raises(RLPDecodeError):
            rlp_decode(b"\x81\x05")

    def test_long_form_for_short_payload_rejected(self):
        # long-string header declaring a 3-byte payload is non-canonical
        with pytest.raises(RLPDecodeError):
            rlp_decode(b"\xb8\x03dog")

    def test_length_with_leading_zero_rejected(self):
        payload = b"a" * 56
        bad = b"\xb9\x00\x38" + payload
        with pytest.raises(RLPDecodeError):
            rlp_decode(bad)

    def test_empty_input_rejected(self):
        with pytest.raises(RLPDecodeError):
            rlp_decode(b"")


class TestDecodeFirst:
    """``rlp_decode_first`` peeks at the head of a list in bytes that are
    otherwise unchecked: a value or ``RLPDecodeError``, whatever it is fed."""

    @given(st.lists(nested_items, min_size=1, max_size=5), st.binary(max_size=20))
    def test_first_item_of_a_list_whatever_follows_it(self, items, damage):
        encoded = rlp_encode(items)
        assert rlp_decode_first(encoded) == rlp_decode(encoded)[0] == items[0]
        # the tail is not looked at: cut it short or overwrite it
        head = len(encoded) - len(b"".join(rlp_encode(item) for item in items[1:]))
        assert rlp_decode_first(encoded[:head] + damage) == items[0]

    @given(st.binary(max_size=80))
    def test_arbitrary_bytes_give_a_value_or_the_typed_error(self, data):
        try:
            rlp_decode_first(data)
        except RLPDecodeError:
            pass

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"\x05",  # a single byte, not a list
            b"\x83dog",  # a string
            b"\xc0",  # a list with nothing in it
            b"\xf8",  # a long list cut off inside its length field
            b"\xc4\x83do",  # the first item runs past the end
            b"\xc3\xb8\x01\x00",  # the first item is non-canonical
            rlp_encode([[b"a" * 60, b"b"], b"c"])[:30],  # cut off inside a nested first item
        ],
    )
    def test_malformed_heads_are_rejected(self, data):
        with pytest.raises(RLPDecodeError):
            rlp_decode_first(data)


class TestHeaderRoundTripProperty:
    """Seeded random block headers survive the storage codec byte-for-byte.

    Pins the two conventions the block log relies on: zero-length byte
    fields (``extra=b""``, empty ``proposer_id``) ride as the canonical
    empty string, and integers (including 0) decode back exactly.
    """

    @staticmethod
    def _random_header(rng):
        from repro.chain.block import BlockHeader
        from repro.common.types import Address, Hash32

        return BlockHeader(
            parent_hash=Hash32(rng.randbytes(32)),
            number=rng.choice([0, 1, rng.randrange(1 << 32)]),
            state_root=Hash32(rng.randbytes(32)),
            transactions_root=Hash32(rng.randbytes(32)),
            receipts_root=Hash32(rng.randbytes(32)),
            gas_used=rng.choice([0, rng.randrange(1 << 40)]),
            gas_limit=rng.randrange(1, 1 << 40),
            coinbase=Address(rng.randbytes(20)),
            timestamp=rng.choice([0, rng.randrange(1 << 40)]),
            proposer_id=rng.choice(["", "n", "node-%d" % rng.randrange(100)]),
            extra=rng.choice([b"", rng.randbytes(rng.randrange(1, 33))]),
            logs_bloom=rng.choice([bytes(256), rng.randbytes(256)]),
        )

    @given(st.integers(min_value=0, max_value=1 << 32))
    def test_random_headers_round_trip(self, seed):
        import random

        from repro.store.codec import decode_header, encode_header

        header = self._random_header(random.Random(seed))
        decoded = decode_header(encode_header(header))
        assert decoded == header
        assert decoded.hash == header.hash
        # re-encoding is byte-identical (canonical form is a fixpoint)
        assert encode_header(decoded) == encode_header(header)

    def test_zero_length_extra_encodes_to_empty_string(self):
        from repro.chain.block import BlockHeader
        from repro.store.codec import decode_header, encode_header

        import random

        header = self._random_header(random.Random(7))
        bare = BlockHeader(
            **{
                **{f: getattr(header, f) for f in header.__dataclass_fields__},
                "extra": b"",
                "proposer_id": "",
            }
        )
        decoded = decode_header(encode_header(bare))
        assert decoded.extra == b""
        assert decoded.proposer_id == ""
        assert decoded == bare
