"""``python -m repro serve`` — the long-running durable node driver.

:class:`NodeService` runs the full proposer→validator round trip on the
simulated block clock (header timestamps advance by ``block_interval``
per height), persisting every accepted block through a
:class:`~repro.store.backend.DiskStore`.  It is deliberately a *single
deterministic trajectory*: the universe, the workload generator and the
proposal path are all seeded, so

* an uninterrupted run to height ``H``, and
* any sequence of kill → restart → resume runs reaching height ``H``

produce byte-identical chains (the kill-and-resume tests assert this via
:func:`repro.store.codec.chain_digest` / the head hash, which transitively
commits to every header, transaction and receipt before it).

Resume correctness hinges on two things this module owns:

1. **Config pinning** — the serve parameters (seed, txs per block, block
   interval, …) are written into the manifest on first start; resuming
   with different values is refused with
   :class:`~repro.store.errors.ConfigMismatchError` rather than allowed
   to fork the trajectory silently.
2. **Generator fast-forward** — the workload generator is stateful (its
   RNG stream and the universe's nonce map advance per block), so on
   resume the service regenerates the transactions of every
   already-durable height and checks them against the recovered blocks
   before producing new ones.

Signals: SIGINT and SIGTERM both stop the loop at the next block
boundary, then seal the manifest (clean shutdown).  The CLI maps SIGINT
to exit code 130 and SIGTERM/target-reached to 0.
"""

from __future__ import annotations

import dataclasses
import os
import resource
import signal
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.network.node import ProposerNode, ValidatorNode
from repro.obs.live import LiveTelemetry
from repro.obs.metrics import MetricsRegistry
from repro.store import open_store
from repro.store.backend import DiskStore
from repro.store.errors import ConfigMismatchError, StoreError
from repro.store.recovery import RecoveryResult
from repro.workload.generator import BlockWorkloadGenerator
from repro.workload.scenarios import get_scenario, mainnet_scenario
from repro.workload.universe import build_universe

__all__ = ["ServeConfig", "ServeReport", "NodeService"]

#: Name of the JSONL event log written inside the data dir (``--events``).
EVENTS_LOG_NAME = "events.jsonl"


@dataclass(frozen=True)
class ServeConfig:
    """Everything that pins a serve trajectory (stored in the manifest)."""

    data_dir: str
    seed: int = 42
    txs_per_block: int = 132
    #: named scenario stream for the workload (None = mainnet mix); pinned
    #: in the manifest — a data dir produced under one scenario refuses to
    #: resume under another
    scenario: Optional[str] = None
    #: stop after the chain reaches this height (0 = run until signalled)
    max_height: int = 0
    #: simulated seconds between blocks (header-timestamp step)
    block_interval: int = 12
    snapshot_interval: int = 64
    compact: bool = True
    fsync: bool = True
    #: every N blocks print height, blocks/s over those N and peak RSS
    #: (0 = quiet)
    report_every: int = 0
    # -- live telemetry (none of these pin the trajectory) -------------- #
    #: write a structured JSONL event log next to the block log
    events: bool = False
    #: loopback HTTP status endpoint (None = off, 0 = ephemeral port)
    status_port: Optional[int] = None
    #: sample SLO windows on the wall clock instead of the sim clock
    wall_clock_slo: bool = False
    #: /healthz flips unhealthy after stall_factor × stall_interval_s of
    #: wall-clock silence (no block sealed)
    stall_interval_s: float = 5.0
    stall_factor: float = 4.0

    def pinned(self) -> Dict[str, Any]:
        """The subset a resume must match exactly."""
        pinned = {
            "seed": self.seed,
            "txsPerBlock": self.txs_per_block,
            "blockInterval": self.block_interval,
            "snapshotInterval": self.snapshot_interval,
        }
        # only pinned when set: manifests written before scenarios existed
        # carry no key, and None == absent keeps them resumable
        if self.scenario is not None:
            pinned["scenario"] = self.scenario
        return pinned


@dataclass
class ServeReport:
    """What one serve session did.

    ``height`` is the whole chain's; ``aborts`` and ``fallbacks`` cover
    the ``produced`` blocks of this session only, not recovered ones.
    """

    height: int
    head_hash: str
    state_root: str
    produced: int
    resumed_from: int
    sealed: bool
    stop_signal: Optional[int] = None
    healed: List[str] = field(default_factory=list)
    #: proposer aborts and validator serial fallbacks of this session
    aborts: int = 0
    fallbacks: int = 0
    # -- live telemetry ------------------------------------------------- #
    unhealthy_intervals: int = 0
    events_written: int = 0
    status_url: Optional[str] = None

    @property
    def exit_code(self) -> int:
        # the conventional 128+signum for SIGINT; clean otherwise
        return 130 if self.stop_signal == signal.SIGINT else 0

    def summary(self) -> str:
        how = (
            f"signal {signal.Signals(self.stop_signal).name}"
            if self.stop_signal
            else "target height"
        )
        return (
            f"serve: height={self.height} produced={self.produced} "
            f"aborts={self.aborts} fallbacks={self.fallbacks} "
            f"resumed_from={self.resumed_from} head={self.head_hash[:12]}… "
            f"sealed={self.sealed} stopped_by={how} "
            f"unhealthy_intervals={self.unhealthy_intervals}"
        )


class NodeService:
    """Owns the serve loop: recover → fast-forward → produce → seal."""

    def __init__(
        self,
        config: ServeConfig,
        *,
        backend: Any = None,
        metrics: Any = None,
        crash: Any = None,
    ) -> None:
        self.config = config
        self.backend = backend
        # the status endpoint serves the registry and telemetry keeps its
        # serve.* counters there, so any live-telemetry feature needs one
        # even if the caller didn't pass one
        if metrics is None and (config.events or config.status_port is not None):
            metrics = MetricsRegistry()
        self.metrics = metrics
        self.crash = crash
        self._stop_signal: Optional[int] = None
        self.store: Optional[DiskStore] = None
        self.recovery: Optional[RecoveryResult] = None
        #: recovery summary captured before the loop advances the chain
        self.recovery_summary: str = ""
        self.telemetry: Optional[LiveTelemetry] = None

    def _build_telemetry(self) -> Optional[LiveTelemetry]:
        cfg = self.config
        if not cfg.events and cfg.status_port is None:
            return None
        assert self.metrics is not None
        return LiveTelemetry(
            self.metrics,
            events_path=(
                os.path.join(cfg.data_dir, EVENTS_LOG_NAME) if cfg.events else None
            ),
            http_port=cfg.status_port,
            wall_clock=cfg.wall_clock_slo,
            stall_interval_s=cfg.stall_interval_s,
            stall_factor=cfg.stall_factor,
        )

    # ------------------------------------------------------------------ #
    # signals
    # ------------------------------------------------------------------ #

    def _on_signal(self, signum: int, frame: Any) -> None:
        self._stop_signal = signum

    def install_signal_handlers(self) -> None:
        self._previous_handlers = {
            signal.SIGINT: signal.signal(signal.SIGINT, self._on_signal),
            signal.SIGTERM: signal.signal(signal.SIGTERM, self._on_signal),
        }

    def restore_signal_handlers(self) -> None:
        for signum, handler in getattr(self, "_previous_handlers", {}).items():
            signal.signal(signum, handler)
        self._previous_handlers = {}

    @property
    def stopping(self) -> bool:
        return self._stop_signal is not None

    # ------------------------------------------------------------------ #
    # resume plumbing
    # ------------------------------------------------------------------ #

    @staticmethod
    def _check_pinned(stored: Dict[str, Any], wanted: Dict[str, Any]) -> None:
        if not stored:
            # pre-existing dir written by a non-serve caller: nothing pinned
            return
        diffs = [
            f"{key}: stored {stored.get(key)!r} != requested {value!r}"
            for key, value in wanted.items()
            if stored.get(key) != value
        ]
        if diffs:
            raise ConfigMismatchError(
                "data dir was produced with different serve parameters — "
                + "; ".join(diffs)
            )

    def _fast_forward(
        self, generator: BlockWorkloadGenerator, chain: Any, height: int
    ) -> None:
        """Advance the generator's RNG/nonce state past durable blocks.

        For every height still resident in memory the regenerated
        transactions are compared against the recovered block — a
        mismatch means the workload trajectory diverged (wrong seed or a
        tampered log that still re-executes) and resuming would fork.
        """
        for number in range(1, height + 1):
            txs = generator.generate_block_txs()
            if number <= chain.base_height:
                # at/below the snapshot horizon: the checkpoint block is a
                # body-less header, there is nothing to compare against
                continue
            block_hash = chain.canonical_hash_at(number)
            block = chain.block(block_hash) if block_hash is not None else None
            if block is None:
                continue
            # the proposer reorders (OCC commit order) and may drop txs,
            # so membership — not sequence equality — is the invariant
            generated = {tx.hash for tx in txs}
            strangers = [
                tx for tx in block.transactions if tx.hash not in generated
            ]
            if strangers:
                raise ConfigMismatchError(
                    f"recovered block at height {number} carries "
                    f"{len(strangers)} transactions the regenerated workload "
                    "never produced — refusing to fork the trajectory"
                )

    # ------------------------------------------------------------------ #
    # the loop
    # ------------------------------------------------------------------ #

    def run(self, *, handle_signals: bool = True) -> ServeReport:
        cfg = self.config
        if handle_signals:
            self.install_signal_handlers()

        if cfg.scenario:
            stream = get_scenario(
                cfg.scenario, seed=cfg.seed, txs_per_block=cfg.txs_per_block
            )
            universe, generator = stream.universe, stream
        else:
            universe = build_universe()
            workload = dataclasses.replace(
                mainnet_scenario(seed=cfg.seed), txs_per_block=cfg.txs_per_block
            )
            generator = BlockWorkloadGenerator(universe, workload)

        telemetry = self.telemetry = self._build_telemetry()
        chain, store, recovery = open_store(
            cfg.data_dir,
            universe.genesis,
            snapshot_interval=cfg.snapshot_interval,
            compact=cfg.compact,
            fsync=cfg.fsync,
            serve=cfg.pinned(),
            metrics=self.metrics,
            emitter=telemetry.emitter if telemetry is not None else None,
            crash=self.crash,
        )
        self.store = store
        self.recovery = recovery
        self.recovery_summary = recovery.summary()
        self._check_pinned(recovery.manifest.serve, cfg.pinned())
        resumed_from = chain.height()
        self._fast_forward(generator, chain, resumed_from)

        status_url: Optional[str] = None
        if telemetry is not None:
            head_ts = float(chain.head.header.timestamp)
            telemetry.seed_totals(resumed_from)
            telemetry.serve_started(
                head_ts, height=resumed_from, resumed=not recovery.fresh
            )
            telemetry.recovery_finished(
                head_ts,
                height=resumed_from,
                replayed=recovery.replayed,
                healed=len(recovery.healed),
            )
            bound = telemetry.start_server()
            if bound is not None:
                status_url = f"http://{bound[0]}:{bound[1]}"
                print(
                    f"serve: status endpoint listening on {status_url}",
                    file=sys.stderr,
                    flush=True,
                )
            telemetry.refresh(
                height=resumed_from,
                head=chain.head.hash.hex(),
                produced=0,
                resumed_from=resumed_from,
            )

        proposer = ProposerNode(
            "serve-proposer", metrics=self.metrics, backend=self.backend
        )
        validator = ValidatorNode(
            "serve-validator",
            universe.genesis,
            chain=chain,
            metrics=self.metrics,
            backend=self.backend,
        )

        produced = aborts = fallbacks = 0
        sealed_ok = False
        reported = time.perf_counter()
        try:
            while not self.stopping:
                if cfg.max_height and chain.height() >= cfg.max_height:
                    break
                head = chain.head
                parent_state = chain.state_at(head.hash)
                assert parent_state is not None
                txs = generator.generate_block_txs()
                block_started = time.perf_counter()
                sealed = proposer.build_block(
                    head.header,
                    parent_state,
                    txs,
                    timestamp=head.header.timestamp + cfg.block_interval,
                )
                outcome = validator.receive_blocks([sealed.block])
                if not outcome.accepted:
                    failure = next((f for f in outcome.failures if f), None)
                    raise StoreError(
                        f"own proposal at height {head.number + 1} rejected: "
                        f"{failure.reason.value if failure else 'unknown'}"
                    )
                produced += 1
                proposed = sealed.proposal.stats
                validated = outcome.pipeline
                aborts += proposed.aborts
                fallbacks += validated.stats.serial_fallbacks
                if telemetry is not None:
                    new_head = chain.head
                    telemetry.block_sealed(
                        height=new_head.number,
                        sim_ts=float(new_head.header.timestamp),
                        txs=len(sealed.block),
                        gas_used=sealed.proposal.gas_used,
                        executions=proposed.tasks,
                        aborts=proposed.aborts,
                        retries=validated.stats.exec_retries,
                        fallbacks=validated.stats.serial_fallbacks,
                        worker_faults=validated.stats.worker_faults,
                        # simulated: the proposer's then the pipeline's makespan
                        seal_latency_us=proposed.makespan + validated.makespan,
                        wall_latency_us=(time.perf_counter() - block_started)
                        * 1e6,
                        store_write_us=store.last_commit_us,
                    )
                    telemetry.refresh(
                        height=new_head.number,
                        head=new_head.hash.hex(),
                        produced=produced,
                        resumed_from=resumed_from,
                    )
                if cfg.report_every and produced % cfg.report_every == 0:
                    now = time.perf_counter()
                    rate = cfg.report_every / max(now - reported, 1e-9)
                    reported = now
                    # ru_maxrss is KiB on Linux
                    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                    print(
                        f"serve: height={chain.height()} produced={produced} "
                        f"({rate:.1f} blocks/s over the last {cfg.report_every}, "
                        f"peak rss {peak_mb:.1f} MB)",
                        file=sys.stderr,
                        flush=True,
                    )
            store.seal()
            sealed_ok = True
        finally:
            if telemetry is not None:
                telemetry.serve_stopped(
                    float(chain.head.header.timestamp),
                    height=chain.height(),
                    produced=produced,
                    sealed=sealed_ok,
                )
                telemetry.close()
            validator.pipeline.close()
            store.close()
            if handle_signals:
                self.restore_signal_handlers()

        head = chain.head
        report = ServeReport(
            height=head.number,
            head_hash=head.hash.hex(),
            state_root=head.header.state_root.hex(),
            produced=produced,
            resumed_from=resumed_from,
            sealed=sealed_ok,
            stop_signal=self._stop_signal,
            healed=list(recovery.healed),
            aborts=aborts,
            fallbacks=fallbacks,
            status_url=status_url,
        )
        if telemetry is not None:
            report.unhealthy_intervals = telemetry.watchdog.unhealthy_intervals
            report.events_written = getattr(telemetry.emitter, "seq", 0)
        return report
