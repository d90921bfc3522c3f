"""One block check per role.

The proposer, the validator and recovery each compute a block's receipts
root once, and each judges the receipts a block ships the same way: by
re-deriving them (``build_receipts``) and handing them to
``Applier.verify_block``, which rejects shipped receipts that differ with
``RECEIPT_MISMATCH``.
"""

import dataclasses

import pytest

from repro.chain import block as block_mod
from repro.chain.blockchain import Blockchain
from repro.core.validator import ParallelValidator
from repro.faults.errors import FailureReason
from repro.network.node import ProposerNode, ValidatorNode
from repro.state.trie import index_root
from repro.store import DiskStore, ReplayDivergenceError, encode_header, recover
from repro.store.blocklog import BlockLog
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
        log = BlockLog(str(data_dir / "blocks.log"), fsync=False)
        log.rewrite([pairs[0][0], _with_tampered_log(pairs[1][0])])
        size = log.size
        log.close()
        manifest = Manifest.load(str(data_dir))
        manifest.log_bytes = size
        manifest.write(str(data_dir), fsync=False)

        with pytest.raises(ReplayDivergenceError, match="shipped receipts") as excinfo:
            recover(str(data_dir), small_universe.genesis, fsync=False)
        assert excinfo.value.height == 2
