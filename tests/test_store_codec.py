"""Codec round trips: headers, transactions, receipts, blocks, digests.

The block log is appended without a self-check, so the codec identity
``decode_block(encode_block(b)) == b`` is held here, as a property over
built blocks and over sealed blocks of every workload
(:class:`TestRoundTripIdentity`)."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.block import Block, BlockHeader, Receipt
from repro.common.hashing import Hash32
from repro.common.types import Address
from repro.evm.interpreter import Log
from repro.store.codec import (
    chain_digest,
    decode_block,
    decode_header,
    decode_transaction,
    encode_block,
    encode_header,
    encode_transaction,
)
from repro.txpool.transaction import Transaction
from repro.workload.scenarios import scenario_names

pytestmark = pytest.mark.store


def _header(**overrides):
    base = dict(
        parent_hash=Hash32(b"\x01" * 32),
        number=7,
        state_root=Hash32(b"\x02" * 32),
        transactions_root=Hash32(b"\x03" * 32),
        receipts_root=Hash32(b"\x04" * 32),
        gas_used=12345,
        gas_limit=30_000_000,
        coinbase=Address(b"\x05" * 20),
        timestamp=1_700_000_000,
        proposer_id="node-1",
        extra=b"hello",
        logs_bloom=bytes(256),
    )
    base.update(overrides)
    return BlockHeader(**base)


class TestHeaderCodec:
    def test_round_trip_preserves_hash(self):
        header = _header()
        assert decode_header(encode_header(header)) == header

    def test_zero_length_extra_and_empty_proposer(self):
        header = _header(extra=b"", proposer_id="")
        decoded = decode_header(encode_header(header))
        assert decoded.extra == b""
        assert decoded.proposer_id == ""
        assert decoded.hash == header.hash

    def test_zero_valued_integers(self):
        header = _header(number=0, gas_used=0, timestamp=0)
        decoded = decode_header(encode_header(header))
        assert (decoded.number, decoded.gas_used, decoded.timestamp) == (0, 0, 0)

    def test_wrong_field_count_rejected(self):
        from repro.common.rlp import rlp_encode

        with pytest.raises(ValueError):
            decode_header(rlp_encode([b"\x01" * 32, 7]))


class TestTransactionCodec:
    def test_transfer_round_trip(self):
        tx = Transaction(
            sender=Address(b"\xaa" * 20),
            to=Address(b"\xbb" * 20),
            value=10**18,
            data=b"\x00\x01",
            gas_limit=21_000,
            gas_price=30,
            nonce=4,
            tag="payment",
        )
        decoded = decode_transaction(encode_transaction(tx))
        assert decoded == tx
        assert decoded.hash == tx.hash

    def test_create_round_trip_none_to(self):
        tx = Transaction(
            sender=Address(b"\xaa" * 20),
            to=None,
            value=0,
            data=b"\x60\x00",
            gas_limit=100_000,
            gas_price=1,
            nonce=0,
        )
        decoded = decode_transaction(encode_transaction(tx))
        assert decoded.to is None
        assert decoded.hash == tx.hash

    def test_empty_data_and_zero_value(self):
        tx = Transaction(
            sender=Address(b"\xaa" * 20),
            to=Address(b"\xbb" * 20),
            value=0,
            data=b"",
            gas_limit=21_000,
            gas_price=0,
            nonce=0,
        )
        decoded = decode_transaction(encode_transaction(tx))
        assert decoded.data == b""
        assert decoded.value == 0


class TestBlockCodec:
    def test_sealed_block_round_trip(self, build_chain):
        block, _ = build_chain(1)[0]
        decoded = decode_block(encode_block(block))
        assert decoded.header.hash == block.header.hash
        assert [t.hash for t in decoded.transactions] == [
            t.hash for t in block.transactions
        ]
        assert [r.encode() for r in decoded.receipts] == [
            r.encode() for r in block.receipts
        ]

    def test_profile_dropped_on_decode(self, build_chain):
        block, _ = build_chain(1)[0]
        assert block.profile is not None  # proposer blocks carry one
        assert decode_block(encode_block(block)).profile is None

    def test_receipt_section_is_the_concatenated_receipt_encodings(self, build_chain):
        """One wire layout: what the receipts root commits to is, byte for
        byte, what the block log stores."""
        from repro.common.rlp import rlp_list
        from repro.store.codec import decode_receipt, encode_receipt

        for block, _ in build_chain(2):
            assert any(r.logs for r in block.receipts), "want receipts with logs"
            body = b"".join(r.encode() for r in block.receipts)
            assert encode_block(block).endswith(rlp_list([body]))
            for receipt in block.receipts:
                assert encode_receipt(receipt) == receipt.encode()
                assert decode_receipt(receipt.encode()) == receipt

    def test_encode_is_deterministic(self, build_chain):
        block, _ = build_chain(1)[0]
        assert encode_block(block) == encode_block(block)


class TestDecodeBlockOnDamagedBytes:
    """ROADMAP 7(c), the block codec's slice: whatever bytes arrive,
    ``decode_block`` answers with a typed error (a ``ValueError`` —
    ``RLPDecodeError`` and ``UnicodeDecodeError`` are subclasses, the record
    constructors raise it for a zero gas limit) or with a valid value: a block
    the codec round-trips.  Never a stray ``TypeError`` / ``IndexError`` /
    ``OverflowError``, whichever way the records are built."""

    MUTATIONS = 4000

    def test_typed_error_or_valid_block(self, build_chain):
        import random

        block, _ = build_chain(1)[0]
        payload = encode_block(block)
        assert len(block.transactions) >= 20
        rng = random.Random(22)
        outcomes = {"decoded": 0, "rejected": 0}
        for _ in range(self.MUTATIONS):
            damaged = bytearray(payload)
            for _ in range(rng.choice((1, 1, 1, 2, 4))):
                at = rng.randrange(len(damaged))
                kind = rng.random()
                if kind < 0.6:
                    damaged[at] = rng.randrange(256)
                elif kind < 0.75:
                    damaged[at] ^= 1 << rng.randrange(8)
                elif kind < 0.85:
                    del damaged[at]
                elif kind < 0.95:
                    damaged.insert(at, rng.randrange(256))
                else:
                    del damaged[at:]
            try:
                decoded = decode_block(bytes(damaged))
            except ValueError:
                outcomes["rejected"] += 1
                continue
            outcomes["decoded"] += 1
            assert decode_block(encode_block(decoded)) == decoded
        # both branches are exercised: most damage lands in a payload field
        assert outcomes["decoded"] > 100 and outcomes["rejected"] > 100, outcomes


def _altered(value):
    """A different value of the same type and, for fixed-width types, length."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, tuple):
        return value + value[:1]
    return type(value)(bytes([value[0] ^ 1]) + value[1:])


def _dropped(value):
    """What a decoder that forgot the field would leave: the type's zero."""
    if isinstance(value, (Hash32, Address)):
        return type(value)(bytes(len(value)))
    return type(value)()


_HEADER_FIELDS = [f.name for f in dataclasses.fields(BlockHeader)]
_TX_FIELDS = [f.name for f in dataclasses.fields(Transaction) if f.compare]
_RECEIPT_FIELDS = ["tx_hash", "success", "gas_used", "cumulative_gas", "log_count", "logs"]
_LOG_FIELDS = ["address", "topics", "data"]


class TestVerifyRoundtripCoversEveryField:
    """The round-trip identity compares blocks by dataclass equality.  That
    has to reject whatever the header hash, the transaction hashes and the
    receipt encodings reject: a decoder that loses or changes any one field
    they cover fails ``decode_block(encode_block(b)) == b``."""

    @pytest.fixture()
    def sealed(self):
        """A block whose every field is non-zero — second transaction and
        second receipt, the latter with a log with topics — and the index
        of those two."""
        txs = tuple(
            Transaction(
                sender=Address(bytes([n]) * 20),
                to=Address(bytes([n + 1]) * 20),
                value=n + 5,
                data=b"\xa9\x05\x9c\xbb" + bytes([n]) * 8,
                gas_limit=60_000 + n,
                gas_price=7 + n,
                nonce=n,
                tag="payment",
            )
            for n in (1, 2)
        )
        receipts = tuple(
            Receipt(
                tx_hash=tx.hash,
                success=True,
                gas_used=21_000 + n,
                cumulative_gas=21_000 * (n + 1),
                log_count=1,
                logs=(Log(address=tx.to, topics=(3, 2**255 + n), data=b"\x01" * 40),),
            )
            for n, tx in enumerate(txs)
        )
        header = _header(logs_bloom=b"\x01" * 256)
        return Block(header, txs, receipts), 1, 1

    @staticmethod
    def _round_trips(block, mutate):
        """Does ``block`` survive the codec when the decoder's output is
        passed through ``mutate`` (a decoder with that defect)?"""
        assert decode_block(encode_block(block)) == block
        return mutate(decode_block(encode_block(block))) == block

    @pytest.mark.parametrize("change", [_altered, _dropped])
    @pytest.mark.parametrize("field", _HEADER_FIELDS)
    def test_header_field(self, sealed, field, change):
        block, _, _ = sealed

        def mutate(decoded):
            new = change(getattr(decoded.header, field))
            assert new != getattr(block.header, field)
            changed = dataclasses.replace(decoded.header, **{field: new})
            assert changed.hash != block.header.hash
            return dataclasses.replace(decoded, header=changed)

        assert not self._round_trips(block, mutate)

    @pytest.mark.parametrize(
        "field,change",
        [
            (field, change)
            for field in _TX_FIELDS
            for change in (_altered, _dropped)
            # a zero gas limit is not a constructible transaction
            if (field, change) != ("gas_limit", _dropped)
        ],
    )
    def test_transaction_field(self, sealed, field, change):
        block, index, _ = sealed

        def mutate(decoded):
            txs = list(decoded.transactions)
            new = change(getattr(txs[index], field))
            assert new != getattr(block.transactions[index], field)
            txs[index] = dataclasses.replace(txs[index], **{field: new})
            assert txs[index].hash != block.transactions[index].hash
            return dataclasses.replace(decoded, transactions=tuple(txs))

        assert not self._round_trips(block, mutate)

    def test_a_decoder_that_loses_the_recipient_is_caught(self, sealed):
        block, index, _ = sealed

        def mutate(decoded):
            txs = list(decoded.transactions)
            txs[index] = dataclasses.replace(txs[index], to=None)
            return dataclasses.replace(decoded, transactions=tuple(txs))

        assert not self._round_trips(block, mutate)

    def test_a_tag_only_difference_passes(self, sealed):
        """The tag is not in the transaction hash, and it is not in the
        dataclass comparison either."""
        block, index, _ = sealed

        def mutate(decoded):
            txs = [dataclasses.replace(tx, tag="") for tx in decoded.transactions]
            assert txs[index].tag != block.transactions[index].tag
            assert txs[index].hash == block.transactions[index].hash
            return dataclasses.replace(decoded, transactions=tuple(txs))

        assert self._round_trips(block, mutate)

    @pytest.mark.parametrize("change", [_altered, _dropped])
    @pytest.mark.parametrize(
        "kind,field",
        [("receipt", f) for f in _RECEIPT_FIELDS] + [("log", f) for f in _LOG_FIELDS],
    )
    def test_receipt_and_log_field(self, sealed, kind, field, change):
        block, _, index = sealed

        def mutate(decoded):
            receipts = list(decoded.receipts)
            target = receipts[index] if kind == "receipt" else receipts[index].logs[0]
            new = change(getattr(target, field))
            assert new != getattr(target, field)
            target = dataclasses.replace(target, **{field: new})
            if kind == "log":
                logs = (target,) + receipts[index].logs[1:]
                target = dataclasses.replace(receipts[index], logs=logs)
            assert target.encode() != block.receipts[index].encode()
            receipts[index] = target
            return dataclasses.replace(decoded, receipts=tuple(receipts))

        assert not self._round_trips(block, mutate)

    @pytest.mark.parametrize("section", ["transactions", "receipts"])
    def test_a_lost_or_extra_item_is_caught(self, sealed, section):
        block, _, _ = sealed
        for resize in (lambda items: items[:-1], lambda items: items + items[-1:]):
            assert not self._round_trips(
                block,
                lambda decoded: dataclasses.replace(
                    decoded, **{section: resize(getattr(decoded, section))}
                ),
            )


_WORD = st.integers(min_value=0, max_value=2**256 - 1)
_UINT = st.one_of(st.just(0), st.integers(min_value=0, max_value=2**64))
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
_ADDRESS = st.binary(min_size=20, max_size=20).map(Address)
_HASH = st.binary(min_size=32, max_size=32).map(Hash32)

_HEADERS = st.builds(
    BlockHeader,
    parent_hash=_HASH,
    number=_UINT,
    state_root=_HASH,
    transactions_root=_HASH,
    receipts_root=_HASH,
    gas_used=_UINT,
    gas_limit=_UINT,
    coinbase=_ADDRESS,
    timestamp=_UINT,
    proposer_id=_TEXT,
    extra=st.binary(max_size=32),
    logs_bloom=st.binary(min_size=256, max_size=256),
)
_TRANSACTIONS = st.builds(
    Transaction,
    sender=_ADDRESS,
    to=st.none() | _ADDRESS,
    value=_UINT,
    data=st.binary(max_size=64),
    gas_limit=st.integers(min_value=1, max_value=2**64),
    gas_price=_UINT,
    nonce=_UINT,
    tag=_TEXT,
)
_LOGS = st.builds(
    Log,
    address=_ADDRESS,
    topics=st.lists(_WORD, max_size=4).map(tuple),
    data=st.binary(max_size=64),
)
_RECEIPTS = st.builds(
    Receipt,
    tx_hash=_HASH,
    success=st.booleans(),
    gas_used=_UINT,
    cumulative_gas=_UINT,
    log_count=_UINT,
    logs=st.lists(_LOGS, max_size=3).map(tuple),
)
_BLOCKS = st.builds(
    Block,
    header=_HEADERS,
    transactions=st.lists(_TRANSACTIONS, max_size=4).map(tuple),
    receipts=st.lists(_RECEIPTS, max_size=4).map(tuple),
)


def _sealed_blocks(universe, stream, count=2):
    """The first ``count`` blocks a proposer seals from ``stream``."""
    from repro.chain.blockchain import Blockchain
    from repro.network.node import ProposerNode

    proposer = ProposerNode("codec-property")
    header, state = Blockchain(universe.genesis).genesis.header, universe.genesis
    blocks = []
    for _ in range(count):
        sealed = proposer.build_block(header, state, stream.generate_block_txs())
        blocks.append(sealed.block)
        header, state = sealed.block.header, sealed.post_state
    return blocks


def _assert_round_trips(block):
    decoded = decode_block(encode_block(block))
    assert decoded == dataclasses.replace(block, profile=None)
    assert decoded.hash == block.hash


class TestRoundTripIdentity:
    """``decode_block(encode_block(b)) == b`` — the codec identity the log
    relies on (profiles are not persisted, so they are left out)."""

    @settings(max_examples=200, deadline=None)
    @given(_BLOCKS)
    def test_built_blocks(self, block):
        _assert_round_trips(block)

    def test_edge_values(self):
        """Empty ``extra`` and ``proposer_id``, a creation (``to=None``), a
        log with full-width topics, zeros in every integer field."""
        tx = Transaction(Address(bytes(20)), None, 0, b"", 1, 0, 0)
        log = Log(Address(b"\xff" * 20), (0, 2**256 - 1, 2**255), b"")
        receipt = Receipt(tx.hash, False, 0, 0, 1, (log,))
        header = _header(number=0, gas_used=0, gas_limit=0, timestamp=0, extra=b"", proposer_id="")
        _assert_round_trips(Block(header, (tx,), (receipt,)))

    def test_mainnet_blocks(self, small_universe):
        from repro.workload.generator import BlockWorkloadGenerator
        from repro.workload.scenarios import mainnet_scenario

        config = dataclasses.replace(mainnet_scenario(seed=42), txs_per_block=40)
        blocks = _sealed_blocks(small_universe, BlockWorkloadGenerator(small_universe, config))
        assert any(r.logs for b in blocks for r in b.receipts)
        for block in blocks:
            _assert_round_trips(block)

    @pytest.mark.parametrize("name", scenario_names())
    def test_scenario_blocks(self, name):
        from repro.workload.scenarios import get_scenario

        stream = get_scenario(name, seed=42, txs_per_block=24, compact=True)
        blocks = _sealed_blocks(stream.universe, stream)
        assert all(b.transactions for b in blocks)
        for block in blocks:
            _assert_round_trips(block)


class TestChainDigest:
    def test_digest_detects_any_difference(self, build_chain):
        blocks = [b for b, _ in build_chain(3)]
        assert chain_digest(blocks) == chain_digest(blocks)
        assert chain_digest(blocks) != chain_digest(blocks[:-1])
        assert chain_digest(blocks) != chain_digest(list(reversed(blocks)))

    def test_skip_compares_suffixes(self, build_chain):
        blocks = [b for b, _ in build_chain(3)]
        assert chain_digest(blocks, skip=1) == chain_digest(blocks[1:])
