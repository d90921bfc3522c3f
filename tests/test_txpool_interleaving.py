"""Seeded randomized interleavings of the TxPool operation set.

Every operation is followed by ``TxPool.check_invariants()`` — the O(n)
re-derivation of the hash index, live-ready counter, ready-entry map and
compaction bound that specifies the pool's O(1) hot paths — plus checks
against an independent model of what should be queued.  Sequences mix
``add`` (fresh nonces and RBF at/below/above the bump threshold),
``pop_best``, ``push_back``, ``mark_packed``, ``drop`` and fork-style
``restore``, so index bookkeeping is exercised across every transition.
"""

import random

import pytest

from repro.common.types import address_from_int
from repro.txpool.pool import PRICE_BUMP_PERCENT, TxPool
from repro.txpool.transaction import Transaction

SENDERS = [address_from_int(100 + i) for i in range(6)]


def tx(sender, nonce, price, tag=""):
    return Transaction(
        sender=sender,
        to=address_from_int(7),
        value=0,
        data=b"",
        gas_limit=21000,
        gas_price=price,
        nonce=nonce,
        tag=tag,
    )


def bump_threshold(price):
    return price + price * PRICE_BUMP_PERCENT // 100


class PoolModel:
    """Independent bookkeeping of what must be queued or in flight."""

    def __init__(self):
        self.queued = {}  # (sender, nonce) -> tx  (parked | ready | in flight)
        self.in_flight = {}  # sender -> tx
        self.next_nonce = {s: 0 for s in SENDERS}  # next fresh nonce per sender
        self.packed = []  # committed txs, in commit order
        self.dropped = []  # invalidated txs (drop cascades)
        # mirror of the pool's per-sender ready-nonce record: set on first
        # add, advanced by mark_packed, *erased* by drop (pool semantics:
        # a dropped sender's history is forgotten)
        self.ready_nonce = {}

    def hashes(self):
        return {t.hash for t in self.queued.values()}

    def min_queued_nonce(self, sender):
        nonces = [n for (s, n) in self.queued if s == sender]
        return min(nonces) if nonces else None

    def note_add(self, t):
        self.queued[(t.sender, t.nonce)] = t
        if t.sender not in self.ready_nonce:
            self.ready_nonce[t.sender] = t.nonce

    def expected_restore(self, t):
        """Mirror TxPool.restore's decision from model state alone."""
        if t.hash in self.hashes():
            return False  # still queued or in flight (fork-sibling dup)
        floor = self.ready_nonce.get(t.sender)
        if floor is not None and t.nonce < floor:
            return False  # a committed block already consumed this nonce
        old = self.queued.get((t.sender, t.nonce))
        if old is not None:  # same nonce queued under a different hash: RBF
            if self.in_flight.get(t.sender) is old:
                return False
            threshold = bump_threshold(old.gas_price)
            return t.gas_price >= threshold and t.gas_price > old.gas_price
        return True


def check(pool, model):
    pool.check_invariants()
    assert len(pool) == len(model.queued)
    assert pool.in_flight_count() == len(model.in_flight)
    for t in model.queued.values():
        assert pool.contains(t.hash)
    for t in model.packed[-3:] + model.dropped[-3:]:
        if t.hash not in model.hashes():  # same tx may have been restored
            assert not pool.contains(t.hash)


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1337])
def test_random_interleaving_preserves_invariants(seed):
    rng = random.Random(seed)
    pool = TxPool()
    model = PoolModel()

    for step in range(300):
        op = rng.choice(
            ["add", "add", "add", "rbf", "pop", "push_back", "pack", "drop", "restore"]
        )
        if op == "add":
            sender = rng.choice(SENDERS)
            nonce = model.next_nonce[sender]
            t = tx(sender, nonce, rng.randint(1, 1000), tag=f"s{step}")
            pool.add(t)
            model.note_add(t)
            model.next_nonce[sender] = nonce + 1
        elif op == "rbf":
            candidates = [
                (s, n)
                for (s, n), old in model.queued.items()
                if model.in_flight.get(s) is not old
            ]
            if not candidates:
                continue
            sender, nonce = rng.choice(candidates)
            old = model.queued[(sender, nonce)]
            threshold = bump_threshold(old.gas_price)
            # exercise the boundary: below, exactly at, and above threshold
            price = rng.choice([threshold - 1, threshold, threshold + 5])
            t = tx(sender, nonce, price, tag=f"rbf{step}")
            if price >= threshold and price > old.gas_price:
                pool.add(t)
                model.queued[(sender, nonce)] = t
            else:
                with pytest.raises(ValueError, match="underpriced"):
                    pool.add(t)
        elif op == "pop":
            t = pool.pop_best()
            if t is None:
                # nothing ready: every queued tx is parked or in flight
                assert not pool.has_ready()
                continue
            assert model.in_flight.get(t.sender) is None
            assert t.nonce == model.min_queued_nonce(t.sender)
            assert model.queued[(t.sender, t.nonce)] is t
            model.in_flight[t.sender] = t
        elif op == "push_back":
            if not model.in_flight:
                continue
            sender = rng.choice(sorted(model.in_flight, key=bytes))
            t = model.in_flight.pop(sender)
            pool.push_back(t)
        elif op == "pack":
            if not model.in_flight:
                continue
            sender = rng.choice(sorted(model.in_flight, key=bytes))
            t = model.in_flight.pop(sender)
            pool.mark_packed(t)
            del model.queued[(sender, t.nonce)]
            model.packed.append(t)
            model.ready_nonce[sender] = t.nonce + 1
        elif op == "drop":
            if not model.in_flight:
                continue
            sender = rng.choice(sorted(model.in_flight, key=bytes))
            t = model.in_flight.pop(sender)
            pool.drop(t)
            for key in [k for k in model.queued if k[0] == sender]:
                model.dropped.append(model.queued.pop(key))
            model.ready_nonce.pop(sender, None)
        elif op == "restore":
            bucket = rng.random()
            if bucket < 0.4 and model.packed:
                t = rng.choice(model.packed)
            elif bucket < 0.7 and model.queued:
                # fork siblings carrying a queued tx: exactly-once
                t = rng.choice(sorted(model.queued.values(), key=lambda x: x.hash))
            elif model.dropped:
                t = model.dropped[-1]
            else:
                continue
            expected = model.expected_restore(t)
            assert pool.restore(t) == expected
            if expected:
                if model.dropped and model.dropped[-1] is t:
                    model.dropped.pop()
                model.note_add(t)
                mine = [n for (s, n) in model.queued if s == t.sender]
                if max(mine) == t.nonce:
                    # keep future fresh nonces contiguous with the restored
                    # one — otherwise later adds park behind a permanent
                    # gap (valid pool state, but the drain below expects
                    # every queued tx to eventually become ready)
                    model.next_nonce[t.sender] = t.nonce + 1
        check(pool, model)

    # drain: everything reachable must come out in per-sender nonce order
    for sender, t in list(model.in_flight.items()):
        pool.push_back(t)
        model.in_flight.pop(sender)
    check(pool, model)
    drained_floor = {}
    while True:
        t = pool.pop_best()
        if t is None:
            break
        assert t.nonce == model.min_queued_nonce(t.sender)
        pool.mark_packed(t)
        del model.queued[(t.sender, t.nonce)]
        drained_floor[t.sender] = t.nonce + 1
        check(pool, model)
    # anything left behind is gap-parked: a drop/restore interleaving left
    # a nonce hole below it, so it can never become ready (pool semantics —
    # geth holds such txs until timeout).  It must still be indexed, just
    # never reported ready.
    assert not pool.has_ready()
    assert len(pool) == len(model.queued)
    for (sender, nonce), t in model.queued.items():
        assert pool.contains(t.hash)
        assert nonce > drained_floor.get(sender, -1)
    pool.check_invariants()


@pytest.mark.parametrize("seed", [3, 11])
def test_rbf_churn_interleaving_compacts(seed):
    """Heavy replace-by-fee churn on a populated heap triggers compaction
    mid-interleaving without disturbing any invariant."""
    rng = random.Random(seed)
    pool = TxPool()
    for i, sender in enumerate(SENDERS):
        pool.add(tx(sender, 0, 10 + i))
    prices = {sender: 10 + i for i, sender in enumerate(SENDERS)}
    for _ in range(40):
        sender = rng.choice(SENDERS)
        prices[sender] = bump_threshold(prices[sender])
        if prices[sender] == 10 + SENDERS.index(sender):  # zero bump floor
            prices[sender] += 1
        pool.add(tx(sender, 0, prices[sender]))
        pool.check_invariants()
    assert pool.compactions > 0
    drained = []
    while pool.has_ready():
        t = pool.pop_best()
        drained.append(t)
        pool.mark_packed(t)
        pool.check_invariants()
    assert sorted(t.gas_price for t in drained) == sorted(prices.values())
    assert {t.sender for t in drained} == set(SENDERS)
