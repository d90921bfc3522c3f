"""Pluggable real-parallelism execution backends.

The discrete-event simulator (:mod:`repro.simcore`) *models* lanes; the
backends here run worker tasks on actual cores.  All three share one tiny
contract so the proposing session (:mod:`repro.core.session`) and the
validator driver (:mod:`repro.exec.validating`) are backend-agnostic:

* :meth:`ExecutionBackend.open` installs an immutable *shared* object that
  every task of the session may read (EVM config, base snapshot, context).
* :meth:`ExecutionBackend.map` runs ``fn(shared, payload)`` for each
  payload and returns the results **in payload order** — the drivers turn
  that ordering guarantee into deterministic, backend-independent commit
  decisions (conflict resolution always happens in the parent, in batch
  order, regardless of which worker finished first).

``SerialBackend`` is the reference implementation (plain loop),
``ThreadBackend`` shares the parent's snapshot read-only across a
``ThreadPoolExecutor`` (sound because OCC-WSI workers only *read* shared
state and buffer their writes locally; the GIL limits speedup for the
pure-Python EVM), and ``ProcessBackend`` keeps **resident workers**:
processes forked once that *hold* the world states they execute against —
a state crosses once (free at fork time, then as an account delta against
a state they already hold) and every ``open`` names it by state root.

The sim-clock path is "just another backend": ``get_backend("sim")``
returns ``None`` and callers fall back to the event-loop simulation.
"""

from __future__ import annotations

import copyreg
import functools
import gc
import io
import multiprocessing
import os
import pickle
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from typing import TYPE_CHECKING, Any, Callable, Counter, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common.types import Address
from repro.state.account import AccountData
from repro.state.statedb import StateSnapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.connection import Connection
    from multiprocessing.process import BaseProcess

    from repro.obs.metrics import MetricsRegistry

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "BackendError",
    "get_backend",
    "default_workers",
    "BACKEND_CHOICES",
]

#: CLI / config vocabulary; ``"sim"`` selects the simulated-clock path.
BACKEND_CHOICES: Tuple[str, ...] = ("sim", "serial", "thread", "process")

#: Longest wait for one worker's answer (or exit) before it counts as wedged.
WORKER_WAIT_S = 120.0
#: World states a worker keeps, oldest dropped first (the parent mirrors the rule).
RESIDENT_ROOTS = 4

TaskFn = Callable[[Any, Any], Any]
AccountMap = Mapping[Address, AccountData]


class BackendError(RuntimeError):
    """A worker was lost or wedged, or refused a world state or a round it cannot
    prove it holds.  Its backend has discarded the workers; the next ``open`` re-forks."""


def default_workers() -> int:
    """Worker count when the caller does not choose one."""
    return max(1, os.cpu_count() or 1)


class ExecutionBackend:
    """Common shape of the three real-parallelism backends.

    A backend is reusable across blocks and across roles (a proposer and a
    validator may share one).  ``open(shared)`` is idempotent while the
    shared object's identity is unchanged; a *new* shared object reaches
    the same workers, and no ``map`` after it sees the old one.
    """

    name: str = "?"
    #: Whether workers can dereference parent-process objects directly: the
    #: proposing session hands those a round's overlay by reference, the
    #: others per-round deltas.
    shares_memory: bool = True

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = max(1, int(workers if workers is not None else default_workers()))
        self._shared: Any = None
        #: What crossed the process boundary so far (nothing on the in-memory backends):
        #: ``messages``, ``bytes_out`` / ``bytes_in`` pickled, ``pickle_us`` diffing and
        #: pickling / ``wait_us`` on workers / ``unpickle_us`` of answers, world states made
        #: resident (``sync_fork`` | ``sync_delta`` | ``sync_full``), ``workers_forked``.
        self.stats: Counter[str] = Counter()

    # -- lifecycle ------------------------------------------------------- #

    def open(self, shared: Any) -> None:
        """Install the session's shared object (identity-checked, cheap)."""
        self._shared = shared

    def close(self) -> None:
        """Release worker resources (pools); safe to call repeatedly."""
        self._shared = None

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} workers={self.workers}>"

    # -- work ------------------------------------------------------------ #

    def map(self, fn: TaskFn, payloads: Sequence[Any]) -> List[Any]:
        """Run ``fn(shared, payload)`` per payload; results in payload order."""
        raise NotImplementedError

    def publish(self, metrics: "MetricsRegistry", since: Counter[str]) -> None:
        """Add what :attr:`stats` gained over ``since``, an earlier copy, as ``exec.*`` counters."""
        for name, gained in (self.stats - since).items():
            metrics.counter("exec." + name).inc(gained)


class SerialBackend(ExecutionBackend):
    """Reference semantics: the parent runs every task itself, in order."""

    name = "serial"
    shares_memory = True

    def __init__(self, workers: Optional[int] = None) -> None:
        # a serial backend has exactly one (the calling) worker; the
        # argument is accepted so sweeps can treat backends uniformly
        super().__init__(1)

    def map(self, fn: TaskFn, payloads: Sequence[Any]) -> List[Any]:
        shared = self._shared
        return [fn(shared, payload) for payload in payloads]


class ThreadBackend(ExecutionBackend):
    """``ThreadPoolExecutor`` over the parent's memory.

    Workers read the shared base snapshot directly (immutable during a
    ``map``) and buffer writes in task-local views, so no locking is
    needed.  The GIL serialises pure-Python bytecode, so this backend
    mostly helps when execution releases the GIL (I/O, C extensions); it
    exists as the cheap-to-adopt middle step and as a concurrency-safety
    testbed for the shared-snapshot discipline.  A ``map`` is bounded like a
    process worker's answer: past ``WORKER_WAIT_S`` it is a :class:`BackendError`.
    """

    name = "thread"
    shares_memory = True

    def __init__(self, workers: Optional[int] = None) -> None:
        super().__init__(workers)
        self._pool: Optional[ThreadPoolExecutor] = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-exec"
            )
        return self._pool

    def map(self, fn: TaskFn, payloads: Sequence[Any]) -> List[Any]:
        pool = self._ensure_pool()
        shared = self._shared
        try:
            return list(pool.map(functools.partial(fn, shared), payloads, timeout=WORKER_WAIT_S))
        except FuturesTimeout:
            # a thread cannot be killed: drop the pool (queued tasks cancelled, the
            # wedged one left behind) so the next map builds a fresh one
            self._pool = None
            pool.shutdown(wait=False, cancel_futures=True)
            raise BackendError(f"a thread task gave no answer within {WORKER_WAIT_S:g} s") from None

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        super().close()


#: ``(changed, deleted)``: a changed account travels whole if the old map lacks
#: it, else as ``(nonce, balance, code or None if unchanged, {slot: value or 0})``.
StateDelta = Tuple[Dict[Address, Any], Tuple[Address, ...]]


def diff_accounts(old: AccountMap, new: AccountMap) -> StateDelta:
    """What turns account map ``old`` into ``new``.  Snapshots share the
    ``AccountData`` (and the storage map) of whatever a block did not touch,
    so identity finds the dirty set; only that is compared."""
    changed: Dict[Address, Any] = {}
    for address, acct in new.items():
        before = old.get(address)
        if before is None:
            changed[address] = acct
        elif before is not acct:
            slots: Dict[int, int] = {}
            if acct.storage is not before.storage:
                slots = {s: v for s, v in acct.storage.items() if before.storage.get(s) != v}
                slots.update(dict.fromkeys(before.storage.keys() - acct.storage.keys(), 0))
            code = None if acct.code == before.code else acct.code
            changed[address] = (acct.nonce, acct.balance, code, slots)
    return changed, tuple(old.keys() - new.keys())


def apply_delta(old: AccountMap, delta: StateDelta) -> Dict[Address, AccountData]:
    """The account map ``delta`` was computed towards (``old`` untouched)."""
    changed, deleted = delta
    accounts = dict(old)
    for address in deleted:
        del accounts[address]
    for address, patch in changed.items():
        if not isinstance(patch, AccountData):
            before = accounts[address]
            nonce, balance, code, slots = patch
            storage = before.storage
            if slots:
                storage = {**storage, **slots}
                for slot in [slot for slot, value in slots.items() if not value]:
                    del storage[slot]  # zero values are never stored
            patch = AccountData(nonce, balance, before.code if code is None else code, storage)
        accounts[address] = patch
    return accounts


#: Worker side: the account maps this process holds, by state root.  Only
#: :func:`_worker_main` fills it; in the parent it stays empty.
_RESIDENT: Dict[bytes, AccountMap] = {}


def _remember(table: Dict[bytes, AccountMap], root: bytes, accounts: AccountMap) -> None:
    table[root] = accounts
    while len(table) > RESIDENT_ROOTS:
        del table[next(iter(table))]


class ResidentState:
    """What a :class:`StateSnapshot` sent to a worker loads as: the account map
    held for that state root — or a typed refusal, never some other state."""

    def __init__(self, root: bytes) -> None:
        if root not in _RESIDENT:
            raise BackendError(f"state {root.hex()[:12]} is not resident in pid {os.getpid()}")
        self.accounts = _RESIDENT[root]
        self.account = self.accounts.get


def _worker_main(conn: "Connection", resident: Dict[bytes, AccountMap]) -> None:
    """A resident worker: answer each message with ``(True, value)`` or
    ``(False, exception)`` until an empty one (or a closed pipe) ends it."""
    _RESIDENT.update(resident)  # inherited: what the parent mirrored at the fork
    gc.freeze()  # collecting the inherited heap would dirty, and so copy, its pages
    shared: Any = None
    while True:
        try:
            blob = conn.recv_bytes()
        except (EOFError, OSError):
            return
        if not blob:
            return
        try:
            kind, *body = pickle.loads(blob)
            value: Any = None
            if kind == "map":
                fn, payloads = body
                value = [fn(shared, payload) for payload in payloads]
            else:  # "open": make its states resident, then resolve the references to them
                syncs, pickled = body
                for root, base, delta in syncs:
                    old = {} if base is None else ResidentState(base).accounts
                    _remember(_RESIDENT, root, apply_delta(old, delta))
                shared = pickle.loads(pickled)
            answer = (True, value)
        except Exception as exc:  # the boundary: whatever a task raises goes home
            exc.__notes__ = [f"in worker pid {os.getpid()}:\n{traceback.format_exc()}"]
            answer = (False, exc)
        # an unpicklable answer ends this worker: the parent reads a lost worker
        conn.send_bytes(pickle.dumps(answer, pickle.HIGHEST_PROTOCOL))


class ProcessBackend(ExecutionBackend):
    """Resident forked workers that hold the world state.

    Forked at the first ``open`` (never earlier: they inherit the CPU
    affinity of that moment), they serve every later ``open``, whoever calls
    it, until ``close`` joins them.  ``open`` pickles ``shared`` with each
    :class:`StateSnapshot` replaced by its state root, after making that
    root resident: free at fork time, then as :func:`diff_accounts` against
    the state made resident last.  ``map`` sends every worker one message:
    payload *i* goes to worker *i mod workers*.  Every wait for an answer is
    bounded; a lost, wedged or refusing worker raises :class:`BackendError`
    and the workers are discarded, so the next ``open`` re-forks and re-syncs.
    """

    name = "process"
    shares_memory = False

    def __init__(self, workers: Optional[int] = None) -> None:
        super().__init__(workers)
        self._workers: List[Tuple["BaseProcess", "Connection"]] = []
        #: mirror of what the workers hold: state root -> account map
        self._resident: Dict[bytes, AccountMap] = {}

    def open(self, shared: Any) -> None:
        if self._workers and self._shared is shared:
            return
        start = time.perf_counter_ns()
        seen: Dict[bytes, AccountMap] = {}

        def by_root(snapshot: StateSnapshot) -> Tuple[Any, Tuple[bytes]]:
            root = bytes(snapshot.state_root())
            seen[root] = snapshot.accounts
            return ResidentState, (root,)

        buffer = io.BytesIO()
        pickler = pickle.Pickler(buffer, pickle.HIGHEST_PROTOCOL)
        # one Python call per *snapshot*; ``persistent_id`` costs one per object
        pickler.dispatch_table = {**copyreg.dispatch_table, StateSnapshot: by_root}
        pickler.dump(shared)
        syncs: List[Tuple[bytes, Optional[bytes], StateDelta]] = []
        for root, accounts in seen.items():
            if root not in self._resident:
                kind = "sync_fork"  # the workers forked below inherit it: nothing to send
                if self._workers:
                    base = next(reversed(self._resident), None)
                    old = {} if base is None else self._resident[base]
                    syncs.append((root, base, diff_accounts(old, accounts)))
                    kind = "sync_full" if base is None else "sync_delta"
                self.stats[kind] += 1
                _remember(self._resident, root, accounts)
        blob = pickle.dumps(("open", syncs, buffer.getvalue()), pickle.HIGHEST_PROTOCOL)
        self.stats["pickle_us"] += (time.perf_counter_ns() - start) // 1000
        if not self._workers:
            self._fork()
        self._exchange([blob] * self.workers)
        self._shared = shared

    def _fork(self) -> None:
        ctx = multiprocessing.get_context("fork")
        for _ in range(self.workers):
            # closed here before the next fork: a dead worker's pipe reads as closed
            parent_end, child_end = ctx.Pipe()
            process = ctx.Process(target=_worker_main, args=(child_end, self._resident), daemon=True)
            process.start()
            child_end.close()
            self._workers.append((process, parent_end))
        self.stats["workers_forked"] += self.workers

    def map(self, fn: TaskFn, payloads: Sequence[Any]) -> List[Any]:
        n = len(self._workers)
        if not n:
            raise RuntimeError("ProcessBackend.map called before open()")
        start = time.perf_counter_ns()
        blobs = [pickle.dumps(("map", fn, payloads[w::n]), pickle.HIGHEST_PROTOCOL) for w in range(n)]
        self.stats["pickle_us"] += (time.perf_counter_ns() - start) // 1000
        results: List[Any] = [None] * len(payloads)
        for w, share in enumerate(self._exchange(blobs)):
            results[w::n] = share
        return results

    def _exchange(self, blobs: Sequence[bytes]) -> List[Any]:
        """Send worker *i* ``blobs[i]``, then collect every answer (the first
        failed one is raised once all are in, so no pipe is left out of step)."""
        answers: List[Tuple[bool, Any]] = []
        index = 0
        try:
            for index, blob in enumerate(blobs):
                self._workers[index][1].send_bytes(blob)
                self.stats["bytes_out"] += len(blob)
            for index, (_, conn) in enumerate(self._workers):
                start = time.perf_counter_ns()
                if not conn.poll(WORKER_WAIT_S):
                    raise TimeoutError(f"no answer within {WORKER_WAIT_S:g} s")
                data = conn.recv_bytes()
                received = time.perf_counter_ns()
                answers.append(pickle.loads(data))
                self.stats["wait_us"] += (received - start) // 1000
                self.stats["unpickle_us"] += (time.perf_counter_ns() - received) // 1000
                self.stats["bytes_in"] += len(data)
        except BaseException as exc:
            pid = self._workers[index][0].pid
            self._discard()
            if isinstance(exc, (EOFError, OSError)):
                raise BackendError(f"worker {index} (pid {pid}) lost: {exc!r}") from exc
            raise
        self.stats["messages"] += len(blobs)
        failure = next((value for ok, value in answers if not ok), None)
        if isinstance(failure, BackendError):
            self._discard()
        if failure is not None:
            raise failure
        return [value for _, value in answers]

    def _discard(self, wait: float = 0.0) -> None:
        """Reap the workers (killed unless gone within ``wait`` s); forget what they held."""
        for process, conn in self._workers:
            process.join(wait)  # joined: RUSAGE_CHILDREN only counts the reaped
            process.kill()
            process.join()
            conn.close()
        self._workers = []
        self._resident.clear()

    def close(self) -> None:
        for _, conn in self._workers:
            try:
                conn.send_bytes(b"")
            except OSError:
                pass  # already gone: reaped below all the same
        self._discard(WORKER_WAIT_S)
        super().close()


_BACKENDS = {
    "serial": SerialBackend,
    "thread": ThreadBackend,
    "process": ProcessBackend,
}


def get_backend(
    name: Optional[str], workers: Optional[int] = None
) -> Optional[ExecutionBackend]:
    """Factory: backend by name; ``None``/``"sim"`` selects the simulator."""
    if name is None or name == "sim":
        return None
    try:
        cls = _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; choose one of {', '.join(BACKEND_CHOICES)}"
        ) from None
    return cls(workers)
