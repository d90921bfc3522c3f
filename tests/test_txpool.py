"""Transaction and pool tests: priority, nonce ordering, OCC abort flow."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.types import address_from_int
from repro.txpool.pool import TxPool
from repro.txpool.transaction import Transaction

A = address_from_int(1)
B = address_from_int(2)
C = address_from_int(3)


def tx(sender, nonce=0, price=10, tag=""):
    return Transaction(
        sender=sender,
        to=address_from_int(99),
        value=0,
        data=b"",
        gas_limit=21000,
        gas_price=price,
        nonce=nonce,
        tag=tag,
    )


class TestTransaction:
    def test_hash_stable_and_distinct(self):
        t1 = tx(A, 0, 10)
        t2 = tx(A, 0, 10)
        t3 = tx(A, 1, 10)
        assert t1.hash == t2.hash
        assert t1.hash != t3.hash

    def test_tag_not_in_hash_or_equality(self):
        assert tx(A, tag="x").hash == tx(A, tag="y").hash
        assert tx(A, tag="x") == tx(A, tag="y")

    def test_validation(self):
        with pytest.raises(ValueError):
            Transaction(A, B, -1, b"", 21000, 1, 0)
        with pytest.raises(ValueError):
            Transaction(A, B, 0, b"", 0, 1, 0)
        with pytest.raises(ValueError):
            Transaction(A, B, 0, b"", 21000, -1, 0)
        with pytest.raises(ValueError):
            Transaction(A, B, 0, b"", 21000, 1, -1)

    def test_is_create(self):
        assert Transaction(A, None, 0, b"\x00", 60000, 1, 0).is_create
        assert not tx(A).is_create


class TestPoolPriority:
    def test_highest_gas_price_first(self):
        pool = TxPool()
        pool.add(tx(A, price=10))
        pool.add(tx(B, price=50))
        pool.add(tx(C, price=30))
        assert pool.pop_best().gas_price == 50

    def test_fifo_among_equal_prices(self):
        pool = TxPool()
        first = tx(A, price=10)
        second = tx(B, price=10)
        pool.add(first)
        pool.add(second)
        assert pool.pop_best() is first

    def test_empty_pool_pops_none(self):
        assert TxPool().pop_best() is None

    def test_len_tracks_all_queued(self):
        pool = TxPool()
        pool.add(tx(A, 0))
        pool.add(tx(A, 1))
        pool.add(tx(B, 0))
        assert len(pool) == 3


class TestNonceOrdering:
    def test_later_nonce_parked_until_packed(self):
        pool = TxPool()
        pool.add(tx(A, 0, price=1))
        pool.add(tx(A, 1, price=100))  # higher price but later nonce
        t = pool.pop_best()
        assert t.nonce == 0
        assert pool.pop_best() is None  # nonce 1 not ready yet
        pool.mark_packed(t)
        assert pool.pop_best().nonce == 1

    def test_duplicate_nonce_same_price_rejected(self):
        pool = TxPool()
        pool.add(tx(A, 0, price=10))
        with pytest.raises(ValueError, match="underpriced"):
            pool.add(tx(A, 0, price=10))

    def test_underpriced_replacement_rejected(self):
        pool = TxPool()
        pool.add(tx(A, 0, price=100))
        with pytest.raises(ValueError, match="underpriced"):
            pool.add(tx(A, 0, price=105))  # < 10% bump

    def test_nonce_below_ready_rejected(self):
        pool = TxPool()
        pool.add(tx(A, 5))
        t = pool.pop_best()
        pool.mark_packed(t)
        with pytest.raises(ValueError):
            pool.add(tx(A, 4))

    def test_out_of_order_arrival_same_batch(self):
        pool = TxPool()
        pool.add(tx(A, 1))
        # nonce 1 arrived first: it is parked, nothing ready... adding
        # nonce 0 later is below the recorded ready nonce? No: nonce 1 was
        # never promoted because ready nonce was initialised to 1.
        assert pool.pop_best().nonce == 1


class TestOCCFlow:
    def test_push_back_requeues(self):
        pool = TxPool()
        t = tx(A, price=10)
        pool.add(t)
        popped = pool.pop_best()
        pool.push_back(popped)
        assert len(pool) == 1
        assert pool.pop_best() is t

    def test_push_back_requires_in_flight(self):
        pool = TxPool()
        t = tx(A)
        pool.add(t)
        with pytest.raises(ValueError):
            pool.push_back(t)  # never popped

    def test_mark_packed_decrements(self):
        pool = TxPool()
        pool.add(tx(A))
        t = pool.pop_best()
        pool.mark_packed(t)
        assert len(pool) == 0

    def test_sender_serialised_while_in_flight(self):
        pool = TxPool()
        pool.add(tx(A, 0))
        pool.add(tx(A, 1))
        t0 = pool.pop_best()
        # nonce 1 must not surface while nonce 0 is in flight
        assert pool.pop_best() is None
        pool.push_back(t0)
        assert pool.pop_best() is t0

    def test_drop_discards_successors(self):
        pool = TxPool()
        pool.add(tx(A, 0))
        pool.add(tx(A, 1))
        pool.add(tx(A, 2))
        t = pool.pop_best()
        pool.drop(t)
        assert len(pool) == 0
        assert pool.pop_best() is None

    def test_replace_by_fee_promoted(self):
        pool = TxPool()
        original = tx(A, 0, price=10)
        pool.add(original)
        replacement = tx(A, 0, price=20, tag="rbf")
        pool.add(replacement)
        assert len(pool) == 1
        popped = pool.pop_best()
        assert popped is replacement
        pool.mark_packed(popped)
        assert len(pool) == 0

    def test_replace_by_fee_parked(self):
        pool = TxPool()
        pool.add(tx(A, 0, price=10))
        pool.add(tx(A, 1, price=10))  # parked behind nonce 0
        pool.add(tx(A, 1, price=50))  # replaces the parked one
        t0 = pool.pop_best()
        pool.mark_packed(t0)
        assert pool.pop_best().gas_price == 50

    def test_in_flight_cannot_be_replaced(self):
        pool = TxPool()
        pool.add(tx(A, 0, price=10))
        pool.pop_best()  # now executing
        with pytest.raises(ValueError, match="executing"):
            pool.add(tx(A, 0, price=100))

    def test_replacement_does_not_leak_cancelled_entries(self):
        pool = TxPool()
        pool.add(tx(A, 0, price=10))
        pool.add(tx(A, 0, price=20))
        pool.add(tx(A, 0, price=40))
        assert len(pool) == 1
        pool.check_invariants()
        t = pool.pop_best()
        assert t.gas_price == 40
        pool.mark_packed(t)
        assert pool.pop_best() is None
        pool.check_invariants()

    def test_has_ready_ignores_cancelled(self):
        pool = TxPool()
        pool.add(tx(A, 0, price=10))
        pool.add(tx(A, 0, price=20))
        assert pool.has_ready()
        pool.check_invariants()
        pool.pop_best()
        assert not pool.has_ready()
        pool.check_invariants()

    def test_has_ready(self):
        pool = TxPool()
        assert not pool.has_ready()
        pool.add(tx(A))
        assert pool.has_ready()
        pool.pop_best()
        assert not pool.has_ready()

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(1, 100)),
            min_size=1,
            max_size=30,
        )
    )
    def test_drain_preserves_sender_nonce_order(self, spec):
        """Popping + packing everything yields per-sender nonces in order."""
        pool = TxPool()
        nonces = {}
        for sender_i, price in spec:
            sender = address_from_int(sender_i + 10)
            nonce = nonces.get(sender, 0)
            nonces[sender] = nonce + 1
            pool.add(tx(sender, nonce, price))
        seen = {}
        while True:
            t = pool.pop_best()
            if t is None:
                break
            assert t.nonce == seen.get(t.sender, 0)
            seen[t.sender] = t.nonce + 1
            pool.mark_packed(t)
        assert seen == nonces


class TestRestore:
    """Exactly-once return of rejected-block transactions (fork cleanup)."""

    def test_restore_reenters_pool(self):
        pool = TxPool()
        t = tx(A, 0)
        assert pool.restore(t)
        assert pool.contains(t.hash)
        assert len(pool) == 1

    def test_restore_is_idempotent(self):
        pool = TxPool()
        t = tx(A, 0)
        assert pool.restore(t)
        assert not pool.restore(t)  # already queued
        assert len(pool) == 1

    def test_restore_across_fork_siblings_once(self):
        """Two rejected siblings carry the same tx: it re-enters once."""
        pool = TxPool()
        shared = tx(A, 0, price=15)
        sibling_a = [shared, tx(B, 0)]
        sibling_b = [shared, tx(C, 0)]
        restored = sum(pool.restore(t) for t in sibling_a + sibling_b)
        assert restored == 3  # shared counted once
        assert len(pool) == 3

    def test_restore_skips_already_packed_nonce(self):
        """A tx whose nonce a committed block consumed must stay out."""
        pool = TxPool()
        t0 = tx(A, 0)
        pool.add(t0)
        popped = pool.pop_best()
        pool.mark_packed(popped)  # nonce 0 committed
        assert not pool.restore(t0)
        assert not pool.restore(tx(A, 0, price=99))  # same nonce, any price
        assert len(pool) == 0

    def test_restore_skips_in_flight(self):
        pool = TxPool()
        t0 = tx(A, 0)
        pool.add(t0)
        pool.pop_best()  # t0 now in flight
        assert not pool.restore(t0)
        assert pool.in_flight_count() == 1

    def test_restore_later_nonce_parks(self):
        """Restoring nonce 1 while 0 is committed promotes it to ready."""
        pool = TxPool()
        pool.add(tx(A, 0))
        popped = pool.pop_best()
        pool.mark_packed(popped)
        assert pool.restore(tx(A, 1))
        ready = pool.pop_best()
        assert ready is not None and ready.nonce == 1

    def test_contains_covers_parked_and_ready(self):
        pool = TxPool()
        t0, t1 = tx(A, 0), tx(A, 1)
        pool.add(t0)
        pool.add(t1)  # t1 parked behind t0
        assert pool.contains(t0.hash) and pool.contains(t1.hash)
        assert not pool.contains(tx(B, 0).hash)


class TestReplaceByFeeBoundary:
    """Regression for the RBF off-by-one: the documented threshold is
    ``old + old*10//100`` *inclusive* (geth semantics).  The pre-fix
    ``_check_bump`` used ``<= threshold`` and rejected a bid priced exactly
    at +10%."""

    def test_exact_bump_threshold_accepted_promoted(self):
        pool = TxPool()
        pool.add(tx(A, 0, price=100))
        replacement = tx(A, 0, price=110)  # exactly old + old*10//100
        pool.add(replacement)  # raised ValueError before the fix
        assert pool.pop_best() is replacement

    def test_exact_bump_threshold_accepted_parked(self):
        pool = TxPool()
        pool.add(tx(A, 0, price=10))
        pool.add(tx(A, 1, price=100))  # parked behind nonce 0
        pool.add(tx(A, 1, price=110))  # raised ValueError before the fix
        t0 = pool.pop_best()
        pool.mark_packed(t0)
        assert pool.pop_best().gas_price == 110

    def test_one_below_threshold_rejected(self):
        pool = TxPool()
        pool.add(tx(A, 0, price=100))
        with pytest.raises(ValueError, match="underpriced"):
            pool.add(tx(A, 0, price=109))

    def test_zero_bump_still_requires_strict_increase(self):
        # tiny prices: the integer bump rounds to zero, so the threshold
        # equals the old price — equality must still be rejected
        pool = TxPool()
        pool.add(tx(A, 0, price=5))
        with pytest.raises(ValueError, match="underpriced"):
            pool.add(tx(A, 0, price=5))
        pool.add(tx(A, 0, price=6))  # >= threshold (5) and > old
        assert pool.pop_best().gas_price == 6


class TestIndexAndCompaction:
    """The hot-path index layer: O(1) contains/has_ready, lazy-cancelled
    compaction, and the re-derived invariants that specify them."""

    def test_cancelled_hash_never_reported(self):
        pool = TxPool()
        old = tx(A, 0, price=10)
        pool.add(old)
        pool.add(tx(A, 0, price=20))
        assert not pool.contains(old.hash)
        pool.check_invariants()
        # a cancelled entry must not block a fork-cleanup restore either
        assert not pool.restore(old)  # stale: live replacement queued

    def test_compaction_triggers_under_rbf_churn(self):
        pool = TxPool()
        # distinct senders keep the heap populated while sender A churns
        for i in range(8):
            pool.add(tx(address_from_int(50 + i), 0, price=1))
        price = 100
        pool.add(tx(A, 0, price=price))
        for _ in range(12):
            price += price * 10 // 100  # always exactly at threshold
            pool.add(tx(A, 0, price=price))
            pool.check_invariants()
        assert pool.compactions > 0
        # post-compaction: everything still pops in price order, once
        popped = []
        while True:
            t = pool.pop_best()
            if t is None:
                break
            popped.append(t)
            pool.mark_packed(t)
        assert len(popped) == 9
        assert popped[0].sender == A and popped[0].gas_price == price

    def test_compaction_counter_metric(self):
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        pool = TxPool(metrics=metrics)
        pool.add(tx(A, 0, price=100))
        for price in (110, 121, 134):
            pool.add(tx(A, 0, price=price))
        snap = metrics.snapshot()
        assert snap["counters"]["txpool.replacements"] == 3
        assert snap["counters"]["txpool.compactions"] == pool.compactions > 0

    def test_live_counter_tracks_heap(self):
        pool = TxPool()
        pool.add(tx(A, 0, price=10))
        pool.add(tx(B, 0, price=20))
        assert pool.has_ready()
        a = pool.pop_best()
        assert pool.has_ready()  # B still live
        b = pool.pop_best()
        assert not pool.has_ready()
        pool.push_back(a)
        assert pool.has_ready()
        pool.check_invariants()
        pool.mark_packed(b)
        pool.check_invariants()
