"""Hot-path caching & indexing microbenchmarks (ISSUE 4).

Three layers, three headline numbers — each a **deterministic op-count
ratio** of the pre-overhaul algorithm to the indexed/batched/cached one,
so the committed golden can gate regressions without wall-clock noise:

* ``txpool.scan_speedup`` — linear pool scans (`contains`/`has_ready`
  as shipped before the hash index) vs the O(1) index and live counter;
* ``commit.write_speedup`` — per-overlay-slot trie writes vs the batched
  net-delta commit that drops no-op rewrites and untouched accounts;
* ``artifacts.reuse_speedup`` — preparation-phase derivations (footprints
  → graph) per consumer vs once per block via :class:`ArtifactCache`.

Every legacy replica is checked for *equivalence* before its cost is
counted — a fast wrong path is not a data point.  (What the layers cost in
wall time is ``benchmarks/e2e``'s question, not this file's.)
"""

import random

from benchmarks.world import Outcome, World
from repro.analysis.report import format_table
from repro.common.rlp import rlp_int
from repro.common.types import address_from_int
from repro.core.artifacts import ArtifactCache
from repro.core.validator import ParallelValidator, ValidatorConfig
from repro.state.account import AccountData, encode_account
from repro.state.statedb import (
    StateDB,
    StateSnapshot,
    _slot_key,
    genesis_snapshot,
)
from repro.state.trie import EMPTY_ROOT, SecureMPT
from repro.txpool.pool import PRICE_BUMP_PERCENT, TxPool
from repro.txpool.transaction import Transaction

LANE_SWEEP = (1, 2, 4, 8, 16)

POOL_SENDERS = 150
POOL_NONCES = 4
POOL_LOOKUPS_PER_WAKE = 4

COMMIT_ACCOUNTS = 8
COMMIT_SLOTS = 80
COMMIT_ROUNDS = 3


# --------------------------------------------------------------------------- #
# txpool: linear scans vs hash index + live counter
# --------------------------------------------------------------------------- #


def _mk_tx(sender, nonce, price):
    return Transaction(
        sender=sender,
        to=address_from_int(7),
        value=0,
        data=b"",
        gas_limit=21000,
        gas_price=price,
        nonce=nonce,
    )


def _legacy_contains(pool, tx_hash):
    """The pre-index `contains`: walk in-flight, parked, then the heap.

    Returns (result, entries inspected) — the op count the old code paid.
    """
    ops = 0
    for t in pool._in_flight.values():
        ops += 1
        if t.hash == tx_hash:
            return True, ops
    for parked in pool._parked.values():
        for t in parked.values():
            ops += 1
            if t.hash == tx_hash:
                return True, ops
    for _, _, t in pool._ready:
        ops += 1
        if t.hash == tx_hash and t.hash not in pool._cancelled:
            return True, ops
    return False, ops


def _legacy_has_ready(pool):
    """The pre-counter `has_ready`: scan the heap past cancelled entries."""
    ops = 0
    for _, _, t in pool._ready:
        ops += 1
        if t.hash not in pool._cancelled:
            return True, ops
    return False, ops


def _build_pool(rng):
    pool = TxPool()
    txs = []
    for i in range(POOL_SENDERS):
        sender = address_from_int(10_000 + i)
        for nonce in range(POOL_NONCES):
            t = _mk_tx(sender, nonce, rng.randint(10, 500))
            pool.add(t)
            txs.append(t)
    # mild RBF churn: leaves lazily-cancelled entries in the heap, the
    # case the legacy has_ready scan pays for
    for i in range(0, POOL_SENDERS, 4):
        sender = address_from_int(10_000 + i)
        old_price = pool._ready_entry[sender].gas_price
        bump = old_price + old_price * PRICE_BUMP_PERCENT // 100
        replacement = _mk_tx(sender, 0, max(bump, old_price + 1))
        pool.add(replacement)
        txs.append(replacement)
    return pool, txs


def bench_txpool(rng):
    pool, txs = _build_pool(rng)
    absent = [_mk_tx(address_from_int(99_000 + i), 0, 1).hash for i in range(50)]
    lookups = []
    for _ in range(200):  # one "wake": a ready probe plus a few membership checks
        lookups.append(("ready", None))
        for _ in range(POOL_LOOKUPS_PER_WAKE):
            if rng.random() < 0.7:
                lookups.append(("contains", rng.choice(txs).hash))
            else:
                lookups.append(("contains", rng.choice(absent)))

    def run_legacy():
        ops = 0
        results = []
        for kind, h in lookups:
            if kind == "ready":
                res, cost = _legacy_has_ready(pool)
            else:
                res, cost = _legacy_contains(pool, h)
            ops += cost
            results.append(res)
        return results, ops

    def run_indexed():
        results = []
        for kind, h in lookups:
            if kind == "ready":
                results.append(pool.has_ready())
            else:
                results.append(pool.contains(h))
        return results, len(lookups)  # every call is one O(1) probe

    legacy_results, legacy_ops = run_legacy()
    indexed_results, indexed_ops = run_indexed()
    assert legacy_results == indexed_results  # equivalence before speed

    return {
        "pool_size": len(pool),
        "lookups": len(lookups),
        "ops_legacy": legacy_ops,
        "ops_indexed": indexed_ops,
        "scan_speedup": round(legacy_ops / indexed_ops, 2),
    }


# --------------------------------------------------------------------------- #
# state commit: per-slot trie writes vs batched net-delta commit
# --------------------------------------------------------------------------- #


def _legacy_commit(base: StateSnapshot, writes, balances):
    """The pre-batching commit: one trie op per overlay slot, no no-op skip,
    every touched account unconditionally re-encoded.

    Returns (snapshot, trie op count).  ``writes`` is {addr: {slot: value}}
    (final overlay values), ``balances`` is {addr: new balance}.
    """
    accounts = dict(base.accounts)
    account_trie = base._account_trie
    storage_tries = dict(base._storage_tries)
    ops = 0
    for address in sorted(set(writes) | set(balances), key=bytes):
        base_acct = base.account(address)
        base_storage = base_acct.storage if base_acct else {}
        merged = dict(base_storage)
        storage_trie = storage_tries.get(address, SecureMPT())
        for slot, value in sorted(writes.get(address, {}).items()):
            ops += 1
            if value:
                merged[slot] = value
                storage_trie = storage_trie.set(
                    _slot_key(slot), rlp_int(value)
                )
            else:
                merged.pop(slot, None)
                storage_trie = storage_trie.delete(_slot_key(slot))
        if storage_trie.is_empty():
            storage_tries.pop(address, None)
            storage_root = EMPTY_ROOT
        else:
            storage_tries[address] = storage_trie
            storage_root = storage_trie.root_hash()
        new_acct = AccountData(
            nonce=base_acct.nonce if base_acct else 0,
            balance=balances.get(address, base_acct.balance if base_acct else 0),
            code=base_acct.code if base_acct else b"",
            storage=merged,
        )
        accounts[address] = new_acct
        ops += 1
        account_trie = account_trie.set(
            bytes(address), encode_account(new_acct, storage_root)
        )
    return StateSnapshot(accounts, account_trie, storage_tries), ops


def _batched_ops(base: StateSnapshot, writes, balances):
    """Trie ops the batched commit pays: net-delta slots + changed accounts."""
    ops = 0
    for address in set(writes) | set(balances):
        base_acct = base.account(address)
        base_storage = base_acct.storage if base_acct else {}
        changed = sum(
            1
            for slot, value in writes.get(address, {}).items()
            if value != base_storage.get(slot, 0)
        )
        balance_changed = (
            address in balances
            and balances[address] != (base_acct.balance if base_acct else 0)
        )
        if changed or balance_changed:
            ops += changed + 1  # slot batch + one account re-encode
    return ops


def bench_commit(rng):
    addrs = [address_from_int(50_000 + i) for i in range(COMMIT_ACCOUNTS)]
    alloc = {
        a: AccountData(
            nonce=1,
            balance=10**6,
            code=b"\x60\x00",
            storage={s: rng.randint(1, 99) for s in range(COMMIT_SLOTS)},
        )
        for a in addrs
    }
    snapshot = genesis_snapshot(alloc)

    legacy_ops_total = 0
    batched_ops_total = 0
    for _round in range(COMMIT_ROUNDS):
        writes = {}
        balances = {}
        for a in addrs:
            base = snapshot.account(a)
            slot_writes = {}
            for s in range(COMMIT_SLOTS):
                current = base.storage.get(s, 0)
                if rng.random() < 0.75:
                    slot_writes[s] = current  # no-op rewrite (the common case)
                else:
                    slot_writes[s] = rng.randint(0, 99)
            writes[a] = slot_writes
            if rng.random() < 0.25:
                balances[a] = base.balance + rng.randint(1, 100)

        db = StateDB(snapshot)
        for a, slot_writes in writes.items():
            for s, v in slot_writes.items():
                db.set_storage(a, s, v)
        for a, bal in balances.items():
            db.set_balance(a, bal)

        batched = db.commit()
        legacy, legacy_ops = _legacy_commit(snapshot, writes, balances)
        assert batched.state_root() == legacy.state_root()  # equivalence
        legacy_ops_total += legacy_ops
        batched_ops_total += _batched_ops(snapshot, writes, balances)
        snapshot = batched

    return {
        "accounts": COMMIT_ACCOUNTS,
        "slots": COMMIT_SLOTS,
        "rounds": COMMIT_ROUNDS,
        "trie_ops_legacy": legacy_ops_total,
        "trie_ops_batched": batched_ops_total,
        "write_speedup": round(legacy_ops_total / batched_ops_total, 2),
    }


# --------------------------------------------------------------------------- #
# artifacts: preparation derivations per consumer vs once per block
# --------------------------------------------------------------------------- #


def bench_artifacts(entry):
    cache = ArtifactCache()

    cached_results = [
        ParallelValidator(
            config=ValidatorConfig(lanes=lanes), artifacts=cache
        ).validate_block(entry.block, entry.parent_state)
        for lanes in LANE_SWEEP
    ]
    plain_results = [
        ParallelValidator(config=ValidatorConfig(lanes=lanes)).validate_block(
            entry.block, entry.parent_state
        )
        for lanes in LANE_SWEEP
    ]

    for cached_res, plain_res in zip(cached_results, plain_results):
        assert cached_res.accepted and plain_res.accepted
        assert cached_res.makespan == plain_res.makespan
        assert (
            cached_res.post_state.state_root() == plain_res.post_state.state_root()
        )

    derivations = cache.hits + cache.misses  # what the uncached path computes
    return {
        "consumers": len(LANE_SWEEP),
        "graph_builds_cached": cache.misses,
        "reuse_speedup": round(derivations / cache.misses, 2),
    }


def run(world: World) -> Outcome:
    rng = random.Random(4242)
    headline = {
        "txpool": bench_txpool(rng),
        "commit": bench_commit(rng),
        "artifacts": bench_artifacts(world.chain(1)[0]),
    }
    report = format_table(
        [
            {"layer": "txpool scan", "speedup": headline["txpool"]["scan_speedup"]},
            {"layer": "state commit", "speedup": headline["commit"]["write_speedup"]},
            {"layer": "artifacts", "speedup": headline["artifacts"]["reuse_speedup"]},
        ],
        title="Hot-path layers — deterministic op-count speedups",
    )
    config = {
        "pool_senders": POOL_SENDERS,
        "pool_nonces": POOL_NONCES,
        "commit_accounts": COMMIT_ACCOUNTS,
        "commit_slots": COMMIT_SLOTS,
        "commit_rounds": COMMIT_ROUNDS,
        "lane_sweep": list(LANE_SWEEP),
        "seed": 4242,
    }
    return Outcome(headline, report, config)


def check(headline: dict) -> None:
    # acceptance bar (ISSUE 4): ≥2x op reduction on every layer
    assert headline["txpool"]["scan_speedup"] >= 2.0
    assert headline["commit"]["write_speedup"] >= 2.0
    assert headline["artifacts"]["reuse_speedup"] >= 2.0
