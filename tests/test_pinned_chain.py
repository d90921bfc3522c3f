"""The sealed chain, pinned: head hash, state root and event log of a serve.

A 12-block in-process ``NodeService`` run is fully determined by its
seed, its scenario and its backend family, so its head hash, its state
root and the bytes of its ``events.jsonl`` are literals.  A change that
means to move nothing (a refactor, a deleted setting) must leave all three
as they are; one that moves them must say why and re-pin them here.

The signature checks beside it pin what the roles no longer accept: the
interpreter and the simulated clock's calibration are one fixed object
each, built by the role, not a parameter; and no local fault (a crashed
lane, a lost follower, a slow block, a committed sibling) refuses an
honest block, so no switch selects such a refusal.
"""

import dataclasses
import hashlib
import inspect

import pytest

from repro.check.differential import diff_block, diff_proposal
from repro.core.baselines import SerialExecutor, TwoPhaseOCCExecutor
from repro.core.blockstm import BlockSTMProposer
from repro.core.occ_wsi import OCCWSIProposer
from repro.core.pipeline import ValidatorPipeline
from repro.core.session import ProposerEngine
from repro.core.strategies import TwoPhaseProposer, build_proposer
from repro.core.validator import ParallelValidator, ValidatorConfig
from repro.distributed import coordinator
from repro.distributed.coordinator import ShardCoordinator
from repro.exec import ThreadBackend
from repro.faults.errors import FailureReason
from repro.network.dissemination import ForkSimulator
from repro.network.node import ProposerNode, ValidatorNode
from repro.network.shardrpc import FollowerNode
from repro.store.service import NodeService, ServeConfig

# (scenario, backend) -> (head hash, state root, sha256 of events.jsonl)
PINNED = {
    ("mainnet", "sim"): (
        "e66105f437dbf7484ae030665466a1699c33abdd3cc4fd5f1ac6d66a525577eb",
        "1c81f0d6c6ac153bd3458dec15592b839d8a729cfe39abd6c6dba90c0078b970",
        "d8d72d65d723e93751e1a605873572547f6d0568c9c2615eceefaea61a9ea66a",
    ),
    ("nft-mint-rush", "sim"): (
        "ba07ed049976c8d030edc5aaaab7d3c70c7c2a401b1e55ffa686e31e111c6db4",
        "2fc3d3ea64aca7443a322f274ec36b53543c159d584a6e65bf651eecd39166e4",
        "bbe9a4a04e1bfe7d9b087b7b69ef67d743cce913124a605f764fda9c79e8ce94",
    ),
    ("counter-shared", "sim"): (
        "8c2f70c14487f314e68f065606fab8b9bd2d80a6b9c67d728f3a7b6aa359e8b6",
        "c958926c22b36660889e739c7a61a237fc701344cc8b9f982efeffc50ad09933",
        "3dd72f452c8ddad31a0467d0427a4199db15cfbde20ecfcf77752d4ca97738b2",
    ),
    ("mainnet", "thread"): (
        "1fce8dfeecde45dfb8833193209bd4560e48091bf96255674bdd74b6d71cb319",
        "3f70e809db41af4a22765f92084f1b1fb8d03a4da59c51151415d7fe5ac16178",
        "8cc0c4dfe57de6b6e516b5cda4c93a2206eeb5b76e8b21a3059a970ea79d4d91",
    ),
}


def _serve(data_dir, scenario, backend_name):
    cfg = ServeConfig(
        data_dir=str(data_dir),
        scenario=None if scenario == "mainnet" else scenario,
        txs_per_block=40,
        max_height=12,
        snapshot_interval=4,
        fsync=False,
        events=True,
    )
    if backend_name == "thread":
        with ThreadBackend(2) as backend:
            report = NodeService(cfg, backend=backend).run(handle_signals=False)
    else:
        report = NodeService(cfg).run(handle_signals=False)
    events = (data_dir / "events.jsonl").read_bytes()
    return report, hashlib.sha256(events).hexdigest()


@pytest.mark.parametrize(
    "scenario, backend_name", list(PINNED), ids=["-".join(key) for key in PINNED]
)
def test_sealed_chain_is_pinned(tmp_path, scenario, backend_name):
    report, events_sha = _serve(tmp_path / "node", scenario, backend_name)
    assert report.height == 12 and report.produced == 12
    assert (report.head_hash, report.state_root, events_sha) == PINNED[
        (scenario, backend_name)
    ]


ROLES = [
    ProposerEngine,
    OCCWSIProposer,
    TwoPhaseProposer,
    BlockSTMProposer,
    build_proposer,
    ProposerNode,
    ValidatorNode,
    ParallelValidator,
    ValidatorPipeline,
    SerialExecutor,
    TwoPhaseOCCExecutor,
    ForkSimulator,
    diff_block,
    diff_proposal,
    FollowerNode,
    ShardCoordinator,
]


@pytest.mark.parametrize("role", ROLES, ids=lambda role: role.__name__)
def test_roles_take_no_interpreter_or_calibration(role):
    params = set(inspect.signature(role).parameters)
    assert not params & {"evm", "cost_model", "evm_config"}


def test_no_local_fault_refuses_an_honest_block():
    fields = [field.name for field in dataclasses.fields(ValidatorConfig)]
    assert fields == [
        "lanes", "policy", "seed", "verify_profile", "preexecute_fallback",
        "params", "prefetch", "granularity",
    ]
    assert list(inspect.signature(ValidatorPipeline).parameters) == [
        "config", "injector", "tracer", "metrics", "backend", "distributor",
    ]
    assert list(inspect.signature(ShardCoordinator).parameters) == [
        "n_followers", "master_id", "tracer", "metrics",
    ]
    assert coordinator.__all__ == ["ShardAttempt", "DistributedRecord", "ShardCoordinator"]
    # each reason left is a fault of the block, of its parent or of its proposer
    assert len(FailureReason) == 8
