"""Hot-path layer: equivalence tests, plus the one-derivation rule.

Every shortcut here is an *optimisation over a pure function* — so the core
of each test is equivalence against the plain computation: ``keccak_cached``
vs ``keccak``, ``update_many`` vs per-key set/delete, the batched
``StateDB.commit`` vs a from-scratch trie rebuild, the store's base reads
vs ``read_base_value``.  A block's plan artifacts are not cached at all:
``validate_block`` derives them once per validation, on every substrate.
"""

import contextlib
import dataclasses
import random

import pytest

from repro.common.hashing import keccak
from repro.common.types import address_from_int
from repro.core import artifacts as artifacts_module
from repro.core.artifacts import BlockArtifacts, artifacts_for, profile_footprints
from repro.core.pipeline import ValidatorPipeline
from repro.core.validator import ParallelValidator
from repro.distributed import DistributedConfig, ShardCoordinator
from repro.exec import SerialBackend, ThreadBackend
from repro.network.dissemination import ForkSimulator
from repro.network.node import ProposerNode
from repro.state.access import balance_key, nonce_key, storage_key
from repro.state.account import AccountData
from repro.state.cache import (
    bytes_to_nibbles,
    keccak_cached,
    keccak_path_cached,
)
from repro.state.statedb import StateDB, genesis_snapshot
from repro.state.trie import SecureMPT
from repro.state.versioned import MultiVersionStore, read_base_value


class TestKeccakMemo:
    def test_matches_uncached_keccak(self):
        rng = random.Random(2024)
        samples = [b"", b"\x00" * 20, b"\xff" * 32] + [
            rng.randbytes(rng.choice([20, 32])) for _ in range(64)
        ]
        for data in samples:
            assert keccak_cached(data) == keccak(data)
            # second call: served from the memo, still identical
            assert keccak_cached(data) == keccak(data)
            # the same entry holds the digest's nibble path
            assert keccak_path_cached(data) == bytes_to_nibbles(keccak(data))


class TestUpdateMany:
    def _addresses(self, rng, n):
        return [rng.randbytes(32) for _ in range(n)]

    def test_equivalent_to_sequential_sets_and_deletes(self):
        rng = random.Random(5)
        keys = self._addresses(rng, 24)
        base = SecureMPT()
        for key in keys:
            base = base.set(key, rng.randbytes(8))
        # mixed batch: overwrites, fresh inserts, and b"" deletes
        batch = []
        for key in rng.sample(keys, 10):
            batch.append((key, rng.randbytes(8)))
        for _ in range(5):
            batch.append((rng.randbytes(32), rng.randbytes(8)))
        for key in rng.sample(keys, 4):
            batch.append((key, b""))
        sequential = base
        for key, value in batch:
            sequential = sequential.delete(key) if value == b"" else sequential.set(key, value)
        assert base.update_many(batch).root_hash() == sequential.root_hash()

    def test_empty_batch_returns_self(self):
        trie = SecureMPT().set(b"\x01" * 32, b"v")
        assert trie.update_many([]) is trie

    def test_delete_of_absent_key_keeps_identity(self):
        trie = SecureMPT().set(b"\x01" * 32, b"v")
        same = trie.update_many([(b"\x02" * 32, b"")])
        assert same.root_hash() == trie.root_hash()


class TestCommitEquivalence:
    """The batched commit must produce the exact root a from-scratch
    rebuild of the final account map produces, across randomized workloads
    heavy on no-op rewrites (the case the batching optimises away)."""

    @pytest.mark.parametrize("seed", [0, 9, 123])
    def test_randomized_commit_matches_from_scratch_rebuild(self, seed):
        rng = random.Random(seed)
        addrs = [address_from_int(1000 + i) for i in range(8)]
        alloc = {}
        for a in addrs:
            storage = {s: rng.randint(1, 50) for s in rng.sample(range(64), 24)}
            alloc[a] = AccountData(
                nonce=rng.randint(0, 5),
                balance=rng.randint(1, 10**6),
                code=b"\x60\x00" if rng.random() < 0.5 else b"",
                storage=storage,
            )
        snapshot = genesis_snapshot(alloc)

        for _round in range(3):
            db = StateDB(snapshot)
            for a in addrs:
                base = snapshot.account(a)
                if rng.random() < 0.3:
                    db.set_balance(a, rng.randint(0, 10**6))
                for s in rng.sample(range(64), 16):
                    current = base.storage.get(s, 0) if base else 0
                    roll = rng.random()
                    if roll < 0.5:
                        db.set_storage(a, s, current)  # no-op rewrite
                    elif roll < 0.75:
                        db.set_storage(a, s, rng.randint(1, 50))
                    else:
                        db.set_storage(a, s, 0)  # delete
            snapshot = db.commit()

            rebuilt = genesis_snapshot(
                {a: acct for a, acct in snapshot.accounts.items()}
            )
            assert snapshot.state_root() == rebuilt.state_root()
            for a in addrs:
                assert snapshot.storage_root(a) == rebuilt.storage_root(a)

    def test_noop_only_commit_keeps_root(self):
        a = address_from_int(42)
        snapshot = genesis_snapshot(
            {a: AccountData(nonce=1, balance=100, code=b"", storage={7: 9})}
        )
        db = StateDB(snapshot)
        db.set_storage(a, 7, 9)
        db.set_balance(a, 100)
        db.set_storage(a, 8, 0)  # write zero to an already-absent slot
        committed = db.commit()
        assert committed.state_root() == snapshot.state_root()

    def test_eip158_empty_account_still_pruned(self):
        a = address_from_int(42)
        b = address_from_int(43)
        snapshot = genesis_snapshot(
            {a: AccountData(nonce=0, balance=5, code=b"", storage={})}
        )
        db = StateDB(snapshot)
        db.set_balance(a, 0)  # becomes empty -> pruned
        db.create_account(b)  # created empty -> never materialised
        committed = db.commit()
        assert a not in committed and b not in committed
        assert committed.state_root() == genesis_snapshot({}).state_root()


class TestBaseReadCache:
    """The store reads its base snapshot directly (the LRU that used to sit
    in front cost more than the dict lookup it saved): below every committed
    version, ``read_at`` *is* ``read_base_value``."""

    def test_cached_reads_match_read_base_value(self):
        rng = random.Random(3)
        addrs = [address_from_int(10 + i) for i in range(4)]
        alloc = {
            a: AccountData(
                nonce=i, balance=100 * (i + 1), code=b"", storage={1: i + 5}
            )
            for i, a in enumerate(addrs)
        }
        base = genesis_snapshot(alloc)
        store = MultiVersionStore(base)
        keys = []
        for a in addrs + [address_from_int(999)]:  # incl. an absent account
            keys += [balance_key(a), nonce_key(a), storage_key(a, 1), storage_key(a, 2)]
        rng.shuffle(keys)
        for key in keys * 3:
            assert store.read_at(key, 0) == read_base_value(base, key)
        # a committed write shadows the base from its version on, not before
        store.apply({keys[0]: 77}, 1)
        assert store.read_at(keys[0], 0) == read_base_value(base, keys[0])
        assert store.read_at(keys[0], 1) == 77


@pytest.fixture()
def sealed(small_universe, small_generator, genesis_chain):
    txs = small_generator.generate_block_txs()
    node = ProposerNode("alice")
    return node.build_block(
        genesis_chain.genesis.header, small_universe.genesis, txs
    )


class TestBlockArtifacts:
    def test_footprints_match_inline_derivation(self, sealed):
        profile = sealed.block.profile
        art = BlockArtifacts(profile, "account")
        assert art.footprints == tuple(
            e.rw.touched_addresses() for e in profile.entries
        )
        assert art.gas_estimates == tuple(e.gas_used for e in profile.entries)
        key_fps = profile_footprints(profile, "key")
        assert len(key_fps) == len(profile.entries)
        with pytest.raises(ValueError):
            profile_footprints(profile, "bogus")

    def test_profile_less_block_returns_none(self, sealed):
        stripped = dataclasses.replace(sealed.block, profile=None)
        assert artifacts_for(stripped, "account") is None
        short = dataclasses.replace(
            sealed.block,
            profile=dataclasses.replace(
                sealed.block.profile, entries=sealed.block.profile.entries[:-1]
            ),
        )
        assert artifacts_for(short, "account") is None
        assert artifacts_for(sealed.block, "account") is not None


@pytest.fixture()
def derivations(monkeypatch):
    """Count dependency-graph derivations: each is one ``BlockArtifacts``."""
    calls = []
    derive = artifacts_module.build_dependency_graph

    def spy(*args, **kwargs):
        calls.append(args)
        return derive(*args, **kwargs)

    monkeypatch.setattr(artifacts_module, "build_dependency_graph", spy)
    return calls


class TestValidatorWithArtifacts:
    """``validate_block`` derives a block's artifacts exactly once, and the
    component-execution gate and the preparation phase both read it."""

    @pytest.mark.parametrize("substrate", ["none", "serial", "thread", "followers"])
    def test_one_derivation_per_validation(
        self, sealed, small_universe, derivations, substrate
    ):
        distributor = None
        if substrate == "followers":
            distributor = ShardCoordinator(DistributedConfig(n_followers=2))
        backend = {"serial": SerialBackend, "thread": ThreadBackend}.get(substrate)
        with contextlib.ExitStack() as stack:
            validator = ParallelValidator(
                backend=None if backend is None else stack.enter_context(backend(2)),
                distributor=distributor,
            )
            derivations.clear()
            result = validator.validate_block(sealed.block, small_universe.genesis)
        assert result.accepted
        assert result.used_distributed == (substrate == "followers")
        assert len(derivations) == 1

    def test_one_derivation_per_pipeline_block(self, build_chain, small_universe, derivations):
        blocks = [block for block, _ in build_chain(3)]
        parent_states = {blocks[0].header.parent_hash: small_universe.genesis}
        derivations.clear()
        res = ValidatorPipeline().process_blocks(blocks, parent_states)
        assert res.all_accepted
        assert len(derivations) == len(blocks)

    def test_pipeline_results_unchanged_by_artifact_cache(
        self, small_universe, small_generator, genesis_chain
    ):
        txs = small_generator.generate_block_txs()
        forks = ForkSimulator(2, seed=8).propose_forks(
            genesis_chain.genesis.header, small_universe.genesis, txs
        )
        parent_states = {genesis_chain.genesis.header.hash: small_universe.genesis}
        a = ValidatorPipeline().process_blocks(forks.blocks, parent_states)
        b = ValidatorPipeline().process_blocks(forks.blocks, parent_states)
        assert a.makespan == b.makespan
        assert [t.commit_end for t in a.timings] == [t.commit_end for t in b.timings]
        assert [r.accepted for r in a.results] == [r.accepted for r in b.results]
