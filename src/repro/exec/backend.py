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
pure-Python EVM), and ``ProcessBackend`` ships pickled state to a
``ProcessPoolExecutor`` — the shared object travels once per worker via
the pool initializer, per-task payloads carry only small slices.

The sim-clock path is "just another backend": ``get_backend("sim")``
returns ``None`` and callers fall back to the event-loop simulation.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, List, Optional, Sequence, Tuple

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "get_backend",
    "default_workers",
    "BACKEND_CHOICES",
]

#: CLI / config vocabulary; ``"sim"`` selects the simulated-clock path.
BACKEND_CHOICES: Tuple[str, ...] = ("sim", "serial", "thread", "process")

TaskFn = Callable[[Any, Any], Any]


def default_workers() -> int:
    """Worker count when the caller does not choose one."""
    return max(1, os.cpu_count() or 1)


class ExecutionBackend:
    """Common shape of the three real-parallelism backends.

    A backend is reusable across blocks.  ``open(shared)`` is idempotent
    while the shared object's identity is unchanged; installing a *new*
    shared object re-provisions workers (for ``ProcessBackend`` that means
    a new pool, because the old workers hold the old pickled state).
    """

    name: str = "?"
    #: Whether workers can dereference parent-process objects directly.
    #: Drivers use this to decide between passing references (cheap) and
    #: building pickle-able state slices (the process boundary).
    shares_memory: bool = True

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = max(1, int(workers if workers is not None else default_workers()))
        self._shared: Any = None

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
    testbed for the shared-snapshot discipline.
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
        return list(pool.map(functools.partial(fn, shared), payloads))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        super().close()


class ProcessBackend(ExecutionBackend):
    """``ProcessPoolExecutor`` with pickled per-worker state.

    The shared object is shipped **once per worker** through the pool
    initializer (see :func:`repro.exec.tasks.install_shared`); task
    payloads must be small and pickle-able.  The EVM itself is *not*
    pickle-able (its dispatch table holds local closures) — workers
    rebuild it locally from the pickled :class:`~repro.evm.interpreter.
    EVMConfig` and cache it per process.

    Installing a different shared object tears the pool down: the old
    workers hold the old state, and re-initialising live workers is not
    something ``concurrent.futures`` supports.
    """

    name = "process"
    shares_memory = False

    def __init__(self, workers: Optional[int] = None) -> None:
        super().__init__(workers)
        self._pool: Optional[ProcessPoolExecutor] = None

    def open(self, shared: Any) -> None:
        if self._pool is not None and self._shared is shared:
            return
        self.close()
        # imported here (not at module top) to keep backend.py importable
        # without dragging the whole execution stack in
        from repro.exec.tasks import install_shared

        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=install_shared,
            initargs=(shared,),
        )
        self._shared = shared

    def map(self, fn: TaskFn, payloads: Sequence[Any]) -> List[Any]:
        if self._pool is None:
            raise RuntimeError("ProcessBackend.map called before open()")
        from repro.exec.tasks import call_with_shared

        return list(self._pool.map(functools.partial(call_with_shared, fn), payloads))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
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
