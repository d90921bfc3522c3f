"""One-call facade over the distributed validation stack.

Benchmarks, tests and the CLI want "a validator with N followers" without
wiring the coordinator, follower pool and
:class:`~repro.core.validator.ParallelValidator` by hand.
:class:`DistributedValidator` is that bundle: construct it like a local
validator plus ``n_followers``, call :meth:`validate`, read
``coordinator.last_record`` for the distributed timeline.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.chain.block import Block
from repro.core.validator import (
    ParallelValidator,
    ValidationResult,
    ValidatorConfig,
)
from repro.distributed.coordinator import DistributedConfig, ShardCoordinator
from repro.evm.interpreter import EVM, ExecutionContext
from repro.faults.injector import FaultInjector
from repro.obs.metrics import MetricsRegistry
from repro.simcore.costmodel import CostModel
from repro.state.statedb import StateSnapshot

__all__ = ["DistributedValidator"]


class DistributedValidator:
    """A master validator with a pool of follower nodes attached.

    ``injector`` feeds *follower* faults (crash/stall/byzantine) into the
    pool; local worker-fault injection keeps its existing semantics — the
    validator keeps such blocks off the pool and the local paths handle them.
    """

    def __init__(
        self,
        n_followers: int = 4,
        *,
        evm: Optional[EVM] = None,
        config: Optional[ValidatorConfig] = None,
        cost_model: Optional[CostModel] = None,
        dist_config: Optional[DistributedConfig] = None,
        injector: Optional[FaultInjector] = None,
        tracer: Any = None,
        metrics: Optional[MetricsRegistry] = None,
        master_id: str = "master",
    ) -> None:
        if dist_config is None:
            dist_config = DistributedConfig(n_followers=n_followers)
        elif dist_config.n_followers != n_followers:
            raise ValueError(
                f"n_followers={n_followers} disagrees with "
                f"dist_config.n_followers={dist_config.n_followers}"
            )
        self.coordinator = ShardCoordinator(
            dist_config,
            master_id=master_id,
            injector=injector,
            tracer=tracer,
            metrics=metrics,
        )
        self.validator = ParallelValidator(
            evm=evm,
            config=config,
            cost_model=cost_model,
            injector=injector,
            tracer=tracer,
            metrics=metrics,
            distributor=self.coordinator,
        )

    def validate(
        self,
        block: Block,
        parent_state: StateSnapshot,
        ctx: Optional[ExecutionContext] = None,
    ) -> ValidationResult:
        """Validate one block, sharded across the follower pool."""
        return self.validator.validate_block(block, parent_state, ctx)

    @property
    def last_record(self) -> Any:
        """The most recent distributed-validation record (or ``None``)."""
        return self.coordinator.last_record
