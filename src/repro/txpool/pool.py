"""The pending transaction pool.

Selection follows geth's miner: the highest gas price among *ready*
transactions wins (Algorithm 1 pops from a heap).  A transaction is ready
when it is the lowest queued nonce for its sender — later nonces stay
parked until the earlier one is packed, which preserves the per-sender
ordering the EVM's nonce check enforces.

The pool supports the OCC-WSI abort path: ``push_back`` returns an aborted
transaction to the ready set without disturbing its parked successors.

Hot-path index layer
--------------------

The proposer's wake loop calls :meth:`has_ready` on every free lane and
fork cleanup calls :meth:`contains`/:meth:`restore` per transaction, so
both must be cheap on long-lived pools.  The pool therefore maintains,
alongside the heap:

* ``_index`` — hash → transaction for everything queued or in flight,
  making :meth:`contains` (and the :meth:`restore` duplicate check) O(1);
* ``_live_ready`` — a count of non-cancelled heap entries, making
  :meth:`has_ready` O(1) instead of a heap scan per proposer wake;
* ``_ready_entry`` — sender → its live heap entry, making replace-by-fee
  of a promoted transaction O(log n) (one heap push) instead of O(n);
* lazy-cancelled **compaction** — replaced-by-fee heap entries are
  invalidated lazily, and once they outnumber half the heap the pool
  rebuilds it in one pass so cancelled garbage never dominates.

Every index structure is derivable from the heap + parked + in-flight
maps; :meth:`check_invariants` re-derives and asserts that equivalence
(the randomized interleaving tests call it after every operation).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.common.types import Address, Hash32
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.txpool.transaction import Transaction

__all__ = ["TxPool"]


#: a replacement must bid at least this many percent over the original
#: (geth's default price-bump threshold)
PRICE_BUMP_PERCENT = 10


class TxPool:
    """Gas-price priority pool with per-sender nonce ordering.

    Replace-by-fee: re-adding a queued nonce with a gas price **at or
    above** ``old + old * PRICE_BUMP_PERCENT // 100`` (geth semantics: the
    bump threshold itself is an acceptable bid) replaces the original —
    both parked and already-promoted transactions; in-flight ones —
    currently executing in a proposer — cannot be replaced.

    ``metrics`` is an optional :class:`repro.obs.metrics.MetricsRegistry`;
    when present the pool counts heap compactions and RBF replacements.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        # ready transactions: max-heap on gas price (min-heap on negation)
        self._ready: List[Tuple[int, int, Transaction]] = []
        self._counter = itertools.count()
        # parked: sender -> {nonce: tx} not yet ready
        self._parked: Dict[Address, Dict[int, Transaction]] = {}
        # the nonce each sender's next ready tx must carry
        self._ready_nonce: Dict[Address, int] = {}
        # ready txs currently popped but not yet packed (in flight)
        self._in_flight: Dict[Address, Transaction] = {}
        # senders whose ready-nonce tx is in the heap or in flight
        self._pending_ready: Set[Address] = set()
        # lazily-invalidated heap entries (replaced by fee)
        self._cancelled: Set[Hash32] = set()
        self._size = 0
        # ---- hot-path index layer (see module docstring) -------------- #
        # hash -> tx for everything queued (parked, ready, in flight)
        self._index: Dict[Hash32, Transaction] = {}
        # count of heap entries not in _cancelled
        self._live_ready = 0
        # sender -> its live (non-cancelled, non-in-flight) heap entry
        self._ready_entry: Dict[Address, Transaction] = {}
        #: heap rebuilds triggered by cancelled-entry pressure
        self.compactions = 0
        self.metrics = metrics or NULL_METRICS

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    # ------------------------------------------------------------------ #

    def add(self, tx: Transaction) -> None:
        """Insert a transaction.

        Duplicates of a queued nonce are rejected unless they meet the
        :data:`PRICE_BUMP_PERCENT` threshold (replace-by-fee).
        """
        sender = tx.sender
        parked = self._parked.setdefault(sender, {})
        if tx.nonce in parked:
            self._replace_parked(parked, tx)
            return
        if sender in self._ready_nonce:
            ready = self._ready_nonce[sender]
            if tx.nonce < ready:
                # the sender's earlier nonce already left the parked map (it
                # is ready, in flight or packed); a lower nonce cannot run
                raise ValueError(
                    f"nonce {tx.nonce} below ready nonce "
                    f"{ready} for {sender.hex()[:8]}"
                )
            if tx.nonce == ready and sender in self._pending_ready:
                self._replace_promoted(tx)
                return
        parked[tx.nonce] = tx
        self._index[tx.hash] = tx
        self._size += 1
        if sender not in self._ready_nonce:
            self._ready_nonce[sender] = min(parked)
        self._promote(sender)

    def _check_bump(self, old: Transaction, new: Transaction) -> None:
        """Reject a replacement bidding below the price-bump threshold.

        geth semantics: a bid *at* ``old + old * PRICE_BUMP_PERCENT // 100``
        is sufficient (at-or-above, not strictly above), but the price must
        still strictly exceed the original (relevant when the integer bump
        rounds to zero for tiny prices).
        """
        threshold = old.gas_price + old.gas_price * PRICE_BUMP_PERCENT // 100
        if new.gas_price < threshold or new.gas_price <= old.gas_price:
            raise ValueError(
                f"replacement for nonce {new.nonce} underpriced: "
                f"{new.gas_price} < bump threshold {threshold}"
            )

    def _replace_parked(self, parked: Dict[int, Transaction], tx: Transaction) -> None:
        old = parked[tx.nonce]
        self._check_bump(old, tx)
        del self._index[old.hash]
        parked[tx.nonce] = tx
        self._index[tx.hash] = tx
        self.metrics.counter("txpool.replacements").inc()

    def _replace_promoted(self, tx: Transaction) -> None:
        sender = tx.sender
        in_flight = self._in_flight.get(sender)
        if in_flight is not None:
            raise ValueError(
                f"nonce {tx.nonce} for {sender.hex()[:8]} is executing and "
                "cannot be replaced"
            )
        # the sender's live heap entry, O(1) via the ready-entry index
        old = self._ready_entry.get(sender)
        if old is None:  # pragma: no cover - defensive
            raise ValueError("promoted transaction not found")
        self._check_bump(old, tx)
        self._cancelled.add(old.hash)
        self._live_ready -= 1
        del self._index[old.hash]
        heapq.heappush(self._ready, (-tx.gas_price, next(self._counter), tx))
        self._live_ready += 1
        self._ready_entry[sender] = tx
        self._index[tx.hash] = tx
        self.metrics.counter("txpool.replacements").inc()
        self._maybe_compact()

    def add_many(self, txs: Iterable[Transaction]) -> None:
        for tx in txs:
            self.add(tx)

    def _promote(self, sender: Address) -> None:
        """Move the sender's ready-nonce tx into the heap if present."""
        if sender in self._in_flight:
            return
        parked = self._parked.get(sender)
        if not parked:
            return
        nonce = self._ready_nonce.get(sender)
        if nonce is None:
            return
        tx = parked.get(nonce)
        if tx is not None:
            heapq.heappush(
                self._ready, (-tx.gas_price, next(self._counter), tx)
            )
            self._live_ready += 1
            self._ready_entry[sender] = tx
            del parked[nonce]
            self._pending_ready.add(sender)

    def _maybe_compact(self) -> None:
        """Rebuild the heap once cancelled entries exceed half of it.

        Lazy invalidation is O(1) per replacement but leaves tombstones in
        the heap; on long-lived pools with heavy RBF churn they would
        otherwise linger until incidentally popped, inflating every heap
        operation.  One O(n) rebuild amortised over n/2 cancellations keeps
        the heap at least half live.
        """
        if not self._cancelled or len(self._cancelled) * 2 <= len(self._ready):
            return
        cancelled = self._cancelled
        self._ready = [e for e in self._ready if e[2].hash not in cancelled]
        heapq.heapify(self._ready)
        self._cancelled = set()
        self.compactions += 1
        self.metrics.counter("txpool.compactions").inc()

    # ------------------------------------------------------------------ #

    def pop_best(self) -> Optional[Transaction]:
        """Pop the ready transaction with the highest gas price.

        The transaction becomes *in flight*: its sender's later nonces stay
        parked until ``mark_packed`` or ``drop`` is called; ``push_back``
        restores it to the ready set.
        """
        while self._ready:
            _, _, tx = heapq.heappop(self._ready)
            if tx.hash in self._cancelled:
                self._cancelled.discard(tx.hash)
                continue
            sender = tx.sender
            if self._in_flight.get(sender) is not None:  # pragma: no cover
                # stale duplicate (defensive; should not occur)
                self._live_ready -= 1
                if self._ready_entry.get(sender) is tx:
                    del self._ready_entry[sender]
                self._index.pop(tx.hash, None)
                continue
            self._live_ready -= 1
            if self._ready_entry.get(sender) is tx:
                del self._ready_entry[sender]
            self._in_flight[sender] = tx
            # popping shrinks the heap, so the cancelled ratio can cross
            # the compaction bound here as well as on replace-by-fee
            self._maybe_compact()
            return tx
        return None

    def push_back(self, tx: Transaction) -> None:
        """Return an in-flight (aborted) transaction to the ready heap."""
        sender = tx.sender
        if self._in_flight.get(sender) is not tx:
            raise ValueError("push_back of a transaction that is not in flight")
        del self._in_flight[sender]
        heapq.heappush(self._ready, (-tx.gas_price, next(self._counter), tx))
        self._live_ready += 1
        self._ready_entry[sender] = tx

    def mark_packed(self, tx: Transaction) -> None:
        """The in-flight transaction was committed; release the next nonce."""
        sender = tx.sender
        if self._in_flight.get(sender) is not tx:
            raise ValueError("mark_packed of a transaction that is not in flight")
        del self._in_flight[sender]
        self._pending_ready.discard(sender)
        self._size -= 1
        self._index.pop(tx.hash, None)
        self._ready_nonce[sender] = tx.nonce + 1
        self._promote(sender)

    def drop(self, tx: Transaction) -> None:
        """Discard an in-flight transaction (invalid: bad nonce, unaffordable).

        Every parked successor from the same sender is discarded too — with
        a nonce gap they can never become valid.
        """
        sender = tx.sender
        if self._in_flight.get(sender) is not tx:
            raise ValueError("drop of a transaction that is not in flight")
        del self._in_flight[sender]
        self._pending_ready.discard(sender)
        self._size -= 1
        self._index.pop(tx.hash, None)
        parked = self._parked.pop(sender, {})
        for successor in parked.values():
            self._index.pop(successor.hash, None)
        self._size -= len(parked)
        self._ready_nonce.pop(sender, None)

    # ------------------------------------------------------------------ #

    def contains(self, tx_hash: Hash32) -> bool:
        """Whether a transaction with this hash is queued or in flight.

        O(1): served from the hash index, which never carries cancelled
        (replaced-by-fee) entries.
        """
        return tx_hash in self._index

    def restore(self, tx: Transaction) -> bool:
        """Return a transaction from a rejected block to the pool.

        Exactly-once semantics: a transaction already queued or in flight
        (e.g. the same tx carried by two fork siblings), already packed
        (its sender's nonce moved past it), or unable to re-enter (stale
        nonce, underpriced duplicate) is skipped.  Returns whether the
        transaction was actually re-added.
        """
        if self.contains(tx.hash):
            return False
        ready = self._ready_nonce.get(tx.sender)
        if ready is not None and tx.nonce < ready:
            return False  # a block carrying this nonce already committed
        try:
            self.add(tx)
        except ValueError:
            return False
        return True

    def in_flight_count(self) -> int:
        return len(self._in_flight)

    def has_ready(self) -> bool:
        """True when ``pop_best`` would return a transaction right now.

        O(1): the live-entry counter tracks heap pushes, pops and lazy
        cancellations exactly (the proposer calls this per lane wake, so a
        heap scan here made block packing O(pool²)).
        """
        return self._live_ready > 0

    # ------------------------------------------------------------------ #

    def check_invariants(self) -> None:
        """Re-derive every index structure and assert it matches (tests).

        O(n) by design — this is the specification the O(1) hot paths are
        checked against, not something production code should call.
        """
        live = [t for _, _, t in self._ready if t.hash not in self._cancelled]
        assert self._live_ready == len(live), (
            f"live counter {self._live_ready} != {len(live)} live heap entries"
        )
        assert self.has_ready() == bool(live)
        expected_index = {t.hash: t for t in live}
        expected_index.update((t.hash, t) for t in self._in_flight.values())
        for parked in self._parked.values():
            expected_index.update((t.hash, t) for t in parked.values())
        assert self._index == expected_index, "hash index out of sync"
        for cancelled_hash in self._cancelled:
            assert cancelled_hash not in self._index, (
                "cancelled entry visible through the index"
            )
        assert len(self._cancelled) * 2 <= max(len(self._ready), 1) or not live, (
            "cancelled entries exceed half the heap without compaction"
        )
        assert self._size == len(expected_index)
        for sender, entry in self._ready_entry.items():
            assert entry in live and entry.sender == sender
        live_senders = {t.sender for t in live}
        assert set(self._ready_entry) == live_senders
