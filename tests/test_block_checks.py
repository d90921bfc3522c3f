"""One block check per role.

The proposer, the validator and recovery each compute a block's receipts
root once, and each judges the receipts a block ships the same way: by
re-deriving them (``build_receipts``) and handing them to
``Applier.verify_block``, which rejects shipped receipts that differ with
``RECEIPT_MISMATCH``.

Every other field of a block is authenticated too, by the header's roots
or by re-execution: a forged body that keeps the block hash is rejected
with a typed failure or is harmless.
"""

import dataclasses
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import block as block_mod
from repro.chain.block import Block
from repro.chain.blockchain import Blockchain
from repro.core.validator import ParallelValidator
from repro.faults.errors import FailureReason, ValidationFailure
from repro.network.node import ProposerNode, ValidatorNode
from repro.state.trie import index_root
from repro.store import DiskStore, ReplayDivergenceError, encode_header, recover
from repro.store.blocklog import write_log
from repro.store.codec import encode_block
from repro.store.manifest import Manifest


@pytest.fixture()
def index_roots(monkeypatch):
    """Every index root ``repro.chain.block`` computes from here on."""
    roots = []

    def recorded(values):
        roots.append(index_root(values))
        return roots[-1]

    monkeypatch.setattr(block_mod, "index_root", recorded)
    return roots


def _receipts_roots(roots, blocks):
    """How many receipts roots were computed for each of ``blocks``."""
    return [roots.count(block.header.receipts_root) for block in blocks]


def _with_tampered_log(block):
    """``block`` with one log's data changed in a shipped receipt; the
    header (and so the block hash) is left as it was."""
    receipts = list(block.receipts)
    index = next(i for i, receipt in enumerate(receipts) if receipt.logs)
    victim = receipts[index]
    log = dataclasses.replace(victim.logs[0], data=victim.logs[0].data + b"\x01")
    receipts[index] = dataclasses.replace(victim, logs=(log,) + victim.logs[1:])
    return dataclasses.replace(block, receipts=tuple(receipts))


def _disk_chain(data_dir, genesis_state, pairs):
    store = DiskStore(str(data_dir), fsync=False, snapshot_interval=0)
    chain = Blockchain(genesis_state, store=store)
    store.initialize(encode_header(chain.genesis.header), genesis_state)
    for pair in pairs:
        chain.add_block(*pair)
    store.close()


class TestOneReceiptsTriePerRole:
    def test_seal_block(self, small_universe, small_generator, genesis_chain, index_roots):
        proposer = ProposerNode("one-check")
        header, state = genesis_chain.genesis.header, small_universe.genesis
        for _ in range(2):
            del index_roots[:]
            sealed = proposer.build_block(header, state, small_generator.generate_block_txs())
            assert sealed.block.receipts
            assert _receipts_roots(index_roots, [sealed.block]) == [1]
            header, state = sealed.block.header, sealed.post_state

    def test_validate_block(self, small_universe, build_chain, index_roots):
        pairs = build_chain(2)
        parent_state = small_universe.genesis
        for block, post_state in pairs:
            del index_roots[:]
            assert ParallelValidator().validate_block(block, parent_state).accepted
            assert _receipts_roots(index_roots, [block]) == [1]
            parent_state = post_state

    def test_receive_blocks(self, small_universe, build_chain, index_roots):
        blocks = [block for block, _ in build_chain(2)]
        node = ValidatorNode("one-check", small_universe.genesis)
        del index_roots[:]
        assert len(node.receive_blocks(blocks).accepted) == 2
        assert _receipts_roots(index_roots, blocks) == [1, 1]

    def test_recover(self, tmp_path, small_universe, build_chain, index_roots):
        pairs = build_chain(3)
        _disk_chain(tmp_path / "node", small_universe.genesis, pairs)
        del index_roots[:]
        result = recover(str(tmp_path / "node"), small_universe.genesis, fsync=False)
        assert result.replayed == 3
        assert _receipts_roots(index_roots, [block for block, _ in pairs]) == [1, 1, 1]


class TestShippedReceipts:
    def test_a_tampered_receipt_is_a_receipt_mismatch(self, small_universe, build_chain):
        block, _ = build_chain(1)[0]
        tampered = _with_tampered_log(block)
        assert tampered.hash == block.hash
        result = ParallelValidator().validate_block(tampered, small_universe.genesis)
        assert not result.accepted
        assert result.failure.reason is FailureReason.RECEIPT_MISMATCH
        assert "shipped receipts" in result.reason

    def test_a_block_without_receipts_is_judged_on_its_header(self, small_universe, build_chain):
        block, _ = build_chain(1)[0]
        bare = dataclasses.replace(block, receipts=())
        assert ParallelValidator().validate_block(bare, small_universe.genesis).accepted

    def test_a_tampered_logged_receipt_diverges_on_replay(
        self, tmp_path, small_universe, build_chain
    ):
        """The log's CRC is recomputed over the tampered record, so only
        re-execution can tell."""
        pairs = build_chain(2)
        data_dir = tmp_path / "node"
        _disk_chain(data_dir, small_universe.genesis, pairs)
        log_path = str(data_dir / "blocks.log")
        forged = [pairs[0][0], _with_tampered_log(pairs[1][0])]
        write_log(log_path, map(encode_block, forged), fsync=False)
        manifest = Manifest.load(str(data_dir))
        manifest.log_bytes = os.path.getsize(log_path)
        manifest.write(str(data_dir), fsync=False)

        with pytest.raises(ReplayDivergenceError, match="shipped receipts") as excinfo:
            recover(str(data_dir), small_universe.genesis, fsync=False)
        assert excinfo.value.height == 2


def _drop_last_transaction(block):
    return dataclasses.replace(block, transactions=block.transactions[:-1])


def _alter_receipt_gas(block):
    receipts = list(block.receipts)
    receipts[0] = dataclasses.replace(receipts[0], gas_used=receipts[0].gas_used + 1)
    return dataclasses.replace(block, receipts=tuple(receipts))


def _drop_profile(block):
    return dataclasses.replace(block, profile=None)


def _alter_profile_write(block):
    entries = list(block.profile.entries)
    index = next(i for i, entry in enumerate(entries) if entry.rw.writes)
    rw = entries[index].rw
    (key, value), *rest = rw.writes
    forged = rw._replace(writes=((key, value + 1), *rest))
    entries[index] = dataclasses.replace(entries[index], rw=forged)
    profile = dataclasses.replace(block.profile, entries=tuple(entries))
    return dataclasses.replace(block, profile=profile)


#: How each field of a ``Block`` besides its header is forged without
#: changing the block hash.  A field missing here fails the test below:
#: a new field must show how a validator authenticates it.
FORGERIES = {
    "transactions": (_drop_last_transaction,),
    "receipts": (_alter_receipt_gas,),
    "profile": (_drop_profile, _alter_profile_write),
}

BODY_FIELDS = [field.name for field in dataclasses.fields(Block) if field.name != "header"]


@pytest.mark.robustness
class TestForgedBodies:
    def test_every_forgery_names_a_field(self):
        assert set(FORGERIES) <= set(BODY_FIELDS)

    @pytest.mark.parametrize("name", BODY_FIELDS)
    def test_a_durable_validator_refuses_or_ignores_a_forged_field(
        self, tmp_path, small_universe, build_chain, name
    ):
        """Delivered to a ``ValidatorNode`` over a ``DiskStore`` chain, a
        forged block ends accepted with the honest post-state root or
        rejected with a typed ``ValidationFailure``; nothing escapes."""
        if name not in FORGERIES:
            pytest.fail(f"Block.{name} declares no forgery: how is it authenticated?")
        block, post_state = build_chain(1)[0]
        for forge in FORGERIES[name]:
            forged = forge(block)
            assert forged.hash == block.hash
            data_dir = tmp_path / forge.__name__
            store = DiskStore(str(data_dir), fsync=False, snapshot_interval=0)
            chain = Blockchain(small_universe.genesis, store=store)
            store.initialize(encode_header(chain.genesis.header), small_universe.genesis)
            node = ValidatorNode("forged", small_universe.genesis, chain=chain)
            try:
                outcome = node.receive_blocks([forged])
            except Exception as exc:
                pytest.fail(f"{forge.__name__}: {type(exc).__name__} escaped: {exc}")
            finally:
                store.close()
            if outcome.accepted:
                assert chain.head_state.state_root() == post_state.state_root()
            else:
                assert isinstance(outcome.failures[0], ValidationFailure), forge.__name__
                assert chain.head.number == 0

    def test_forged_copies_leave_nothing_behind(self, small_universe, build_chain):
        """Forged copies of an honest block, each delivered one or more
        times in any order, are each refused with a typed failure; the
        honest block delivered after them is accepted as if they had
        never come.  A rejection is a verdict on one block, not a strike
        against the proposer its header names."""
        block, post_state = build_chain(1)[0]
        forges = [forge for field_forges in FORGERIES.values() for forge in field_forges]

        @settings(max_examples=12, deadline=None, derandomize=True)
        @given(
            st.lists(st.sampled_from(forges), max_size=4).flatmap(
                lambda repeats: st.permutations(forges + repeats)
            )
        )
        def deliver(order):
            with tempfile.TemporaryDirectory() as data_dir:
                store = DiskStore(data_dir, fsync=False, snapshot_interval=0)
                chain = Blockchain(small_universe.genesis, store=store)
                store.initialize(
                    encode_header(chain.genesis.header), small_universe.genesis
                )
                node = ValidatorNode("forged", small_universe.genesis, chain=chain)
                try:
                    for forge in order:
                        outcome = node.receive_blocks([forge(block)])
                        assert not outcome.accepted, forge.__name__
                        assert isinstance(outcome.failures[0], ValidationFailure)
                    honest = node.receive_blocks([block])
                finally:
                    store.close()
                assert honest.failures == [None], honest.failures
                assert chain.head.hash == block.hash
                assert chain.head_state.state_root() == post_state.state_root()

        deliver()

    def test_a_forged_copy_beside_its_block_gets_its_own_verdict(
        self, small_universe, build_chain
    ):
        """A forged copy keeps its original's hash, so the per-block
        verdicts of a batch holding both follow positions, not hashes."""
        block, _ = build_chain(1)[0]
        forged = _alter_profile_write(block)
        for batch in ([forged, block], [block, forged]):
            node = ValidatorNode("forged", small_universe.genesis)
            outcome = node.receive_blocks(batch)
            assert outcome.accepted == [block] and outcome.rejected == [forged]
            verdicts = [failure is None for failure in outcome.failures]
            assert verdicts == [b is block for b in batch]
            assert node.chain.head.hash == block.hash
