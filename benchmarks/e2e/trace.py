"""Benchmark-side tracing: spans around the calls into each layer.

Spans are recorded from the benchmark's own files only (spans inside the
program are a later change): ``(name, start, end, parent, height)`` kept
in memory and written out once, at exit.  Two proxies put a boundary
where the program offers a seam instead of a call site — the
``StorageBackend`` handed to ``Blockchain.attach_store`` and the
``ExecutionBackend`` handed to both nodes.
"""

from __future__ import annotations

import json
import pickle
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Sequence

from repro.exec.backend import ExecutionBackend

#: Spans that time the instrument, not the program; their duration is
#: subtracted wherever traced time is compared with untraced time.
INSTRUMENT_SPANS = frozenset({"trace.kernel", "trace.payload_count"})


class SpanRecorder:
    """An in-memory span list with a parent stack (one thread, no locks)."""

    def __init__(self) -> None:
        #: ``[name, start_s, end_s, parent_index_or_None, height]``
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []
        self.height = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.height])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def by_block(self) -> Dict[int, Dict[str, float]]:
        """Per height, seconds by span name, net of instrument time.

        ``row[name]`` is the summed duration of the spans of that name minus
        any :data:`INSTRUMENT_SPANS` beneath them; ``row["self:" + name]``
        further subtracts what their direct children cover.  Instrument
        spans themselves are reported at their full duration.
        """
        count = len(self.spans)
        instrument = [0.0] * count  # instrument time at or beneath each span
        child_net = [0.0] * count
        # children are appended after their parents, so walk backwards
        for index in range(count - 1, -1, -1):
            name, start, end, parent, _ = self.spans[index]
            if name in INSTRUMENT_SPANS:
                instrument[index] = end - start
            if parent is not None:
                instrument[parent] += instrument[index]
                if name not in INSTRUMENT_SPANS:
                    child_net[parent] += (end - start) - instrument[index]
        blocks: Dict[int, Dict[str, float]] = {}
        for index, (name, start, end, _, height) in enumerate(self.spans):
            row = blocks.setdefault(height, {})
            if name in INSTRUMENT_SPANS:
                row[name] = row.get(name, 0.0) + (end - start)
                continue
            net = (end - start) - instrument[index]
            row[name] = row.get(name, 0.0) + net
            key = "self:" + name
            row[key] = row.get(key, 0.0) + net - child_net[index]
        return blocks


class TracedStore:
    """``StorageBackend`` proxy: one ``store.commit`` span per block."""

    def __init__(self, inner: Any, recorder: SpanRecorder) -> None:
        self._inner = inner
        self._recorder = recorder

    def on_block(self, block: Any, post_state: Any, *, head: bool) -> None:
        with self._recorder.span("store.commit"):
            self._inner.on_block(block, post_state, head=head)

    def flush(self) -> None:
        self._inner.flush()

    def seal(self) -> None:
        self._inner.seal()

    def close(self) -> None:
        self._inner.close()


class TracedBackend(ExecutionBackend):
    """``ExecutionBackend`` proxy counting what crosses ``map``.

    Pickling the payloads a second time just to size them is the
    instrument's cost, so it sits in its own ``trace.payload_count`` span.
    """

    def __init__(self, inner: ExecutionBackend, recorder: SpanRecorder) -> None:
        super().__init__(inner.workers)
        self.name = inner.name
        self.shares_memory = inner.shares_memory
        self._inner = inner
        self._recorder = recorder
        self.map_calls = 0
        self.tasks = 0
        self.payload_bytes = 0

    def open(self, shared: Any) -> None:
        self._inner.open(shared)

    def close(self) -> None:
        self._inner.close()

    def map(self, fn: Any, payloads: Sequence[Any]) -> List[Any]:
        self.map_calls += 1
        self.tasks += len(payloads)
        with self._recorder.span("trace.payload_count"):
            self.payload_bytes += sum(
                len(pickle.dumps(p, pickle.HIGHEST_PROTOCOL)) for p in payloads
            )
        with self._recorder.span("exec.map"):
            return self._inner.map(fn, payloads)


def write_trace(path: str, recorder: SpanRecorder, *, origin: float, meta: Dict[str, Any]) -> None:
    """Write ``trace-<workload>.json`` (times in seconds since ``origin``)."""
    document = {
        "schema": 1,
        "fields": ["name", "start_s", "end_s", "parent", "height"],
        "meta": meta,
        "spans": [
            [name, start - origin, end - origin, parent, height]
            for name, start, end, parent, height in recorder.spans
        ],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
