"""Hot-path cache layer: equivalence and bookkeeping tests (ISSUE 4).

Every cache here is an *optimisation over a pure function* — so the core of
each test is equivalence against the uncached computation: ``keccak_cached``
vs ``keccak``, ``update_many`` vs per-key set/delete, the batched
``StateDB.commit`` vs a from-scratch trie rebuild, the store's base reads
vs ``read_base_value``, and a validator with an :class:`ArtifactCache`
attached vs one without.  Bookkeeping (LRU order, eviction, fork-sibling
invalidation, metrics counters) is checked alongside.
"""

import dataclasses
import random

import pytest

from repro.common.hashing import keccak
from repro.common.types import Address
from repro.core.artifacts import ArtifactCache, BlockArtifacts, profile_footprints
from repro.core.pipeline import ValidatorPipeline
from repro.core.validator import ParallelValidator, ValidatorConfig
from repro.network.dissemination import ForkSimulator
from repro.network.node import ProposerNode
from repro.obs.metrics import MetricsRegistry
from repro.state.access import balance_key, nonce_key, storage_key
from repro.state.account import AccountData
from repro.state.cache import (
    bytes_to_nibbles,
    keccak_cache_stats,
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

    def test_stats_grow_and_report_size(self):
        before = keccak_cache_stats()
        preimage = random.Random(77).randbytes(32)
        keccak_cached(preimage)
        keccak_cached(preimage)
        after = keccak_cache_stats()
        assert after["hits"] >= before["hits"] + 1
        assert after["size"] >= 1


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
        addrs = [Address.from_int(1000 + i) for i in range(8)]
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
        a = Address.from_int(42)
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
        a = Address.from_int(42)
        b = Address.from_int(43)
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
        addrs = [Address.from_int(10 + i) for i in range(4)]
        alloc = {
            a: AccountData(
                nonce=i, balance=100 * (i + 1), code=b"", storage={1: i + 5}
            )
            for i, a in enumerate(addrs)
        }
        base = genesis_snapshot(alloc)
        store = MultiVersionStore(base)
        keys = []
        for a in addrs + [Address.from_int(999)]:  # incl. an absent account
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

    def test_plan_memoized_per_lane_count(self, sealed):
        art = BlockArtifacts(sealed.block.profile, "account")
        p4 = art.plan_for(4, "gas_lpt", 0)
        assert art.plan_for(4, "gas_lpt", 0) is p4  # memo hit: same object
        assert art.plan_for(8, "gas_lpt", 0) is not p4
        assert art.component_footprints() is art.component_footprints()

    def test_cache_hit_returns_same_artifacts(self, sealed):
        cache = ArtifactCache()
        first = cache.get(sealed.block, "account")
        second = cache.get(sealed.block, "account")
        assert first is second
        assert cache.hits == 1 and cache.misses == 1
        # a different granularity is a distinct entry
        assert cache.get(sealed.block, "key") is not first
        assert len(cache) == 2

    def test_profile_less_block_returns_none(self, sealed):
        stripped = dataclasses.replace(sealed.block, profile=None)
        cache = ArtifactCache()
        assert cache.get(stripped, "account") is None
        assert len(cache) == 0

    def test_invalidate_and_siblings(self, small_universe, small_generator, genesis_chain):
        txs = small_generator.generate_block_txs()
        forks = ForkSimulator(3, seed=8).propose_forks(
            genesis_chain.genesis.header, small_universe.genesis, txs
        )
        blocks = forks.blocks
        cache = ArtifactCache()
        for block in blocks:
            assert cache.get(block, "account") is not None
        winner = blocks[0]
        dropped = cache.invalidate_siblings(winner.header.number, winner.hash)
        assert dropped == len(blocks) - 1
        assert len(cache) == 1
        assert cache.invalidate(winner.hash) == 1
        assert len(cache) == 0
        assert cache.invalidations == len(blocks)

    def test_lru_eviction_bounded(self, small_universe, small_generator, genesis_chain):
        txs = small_generator.generate_block_txs()
        forks = ForkSimulator(3, seed=8).propose_forks(
            genesis_chain.genesis.header, small_universe.genesis, txs
        )
        cache = ArtifactCache(maxsize=2)
        for block in forks.blocks:
            cache.get(block, "account")
        assert len(cache) == 2
        assert cache.evictions == 1
        # the first block was evicted: asking again is a miss
        misses = cache.misses
        cache.get(forks.blocks[0], "account")
        assert cache.misses == misses + 1

    def test_eviction_forgets_the_height(self, sealed):
        """An evicted block's height entry goes with its last entry, so
        the height index stays bounded by ``maxsize``."""
        cache = ArtifactCache(maxsize=4)
        header = sealed.block.header
        for number in range(1, cache.maxsize + 6):
            block = dataclasses.replace(
                sealed.block, header=dataclasses.replace(header, number=number)
            )
            cache.get(block, "account")
        assert len(cache) == cache.maxsize
        assert len(cache._heights) <= cache.maxsize

    def test_metrics_counters_published(self, sealed):
        metrics = MetricsRegistry()
        cache = ArtifactCache(metrics=metrics)
        cache.get(sealed.block, "account")
        cache.get(sealed.block, "account")
        cache.invalidate(sealed.block.hash)
        snap = metrics.snapshot()
        assert snap["counters"]["artifacts.hits"] == 1
        assert snap["counters"]["artifacts.misses"] == 1
        assert snap["counters"]["artifacts.invalidations"] == 1


class TestValidatorWithArtifacts:
    def test_cached_validation_identical_to_uncached(self, sealed, small_universe):
        plain = ParallelValidator()
        cached = ParallelValidator(artifacts=ArtifactCache())
        r_plain = plain.validate_block(sealed.block, small_universe.genesis)
        r1 = cached.validate_block(sealed.block, small_universe.genesis)
        r2 = cached.validate_block(sealed.block, small_universe.genesis)  # cache hit
        assert cached.artifacts.hits == 1
        for res in (r1, r2):
            assert res.accepted
            assert res.makespan == r_plain.makespan
            assert res.phases == r_plain.phases
            assert res.post_state.state_root() == r_plain.post_state.state_root()

    def test_lane_sweep_reuses_graph(self, sealed, small_universe):
        cache = ArtifactCache()
        roots = set()
        for lanes in (1, 2, 8):
            validator = ParallelValidator(
                config=ValidatorConfig(lanes=lanes), artifacts=cache
            )
            res = validator.validate_block(sealed.block, small_universe.genesis)
            assert res.accepted
            roots.add(bytes(res.post_state.state_root()))
        assert len(roots) == 1
        assert cache.misses == 1 and cache.hits == 2  # one graph, three plans

    def test_pipeline_invalidates_losing_fork_siblings(
        self, small_universe, small_generator, genesis_chain
    ):
        txs = small_generator.generate_block_txs()
        forks = ForkSimulator(2, seed=8).propose_forks(
            genesis_chain.genesis.header, small_universe.genesis, txs
        )
        parent_states = {genesis_chain.genesis.header.hash: small_universe.genesis}
        pipe = ValidatorPipeline()
        res = pipe.process_blocks(forks.blocks, parent_states)
        assert res.all_accepted
        # exactly one sibling survives per height in the artifact cache
        assert len(pipe.artifacts) <= 1
        assert pipe.artifacts.invalidations + pipe.artifacts.evictions >= 1

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
