"""Mainnet-calibrated synthetic workloads.

The paper evaluates on real Ethereum blocks (100k blocks from height 10M,
averaging 132 transactions per block, §5.1) whose parallelism is limited
by hotspot contracts — DeFi pools, NFT mints and token distributions whose
storage and counters serialise large transaction subsets (§5.5: the
largest dependency subgraph averages 27.5% of a block).

Offline, this package generates blocks with the same *conflict structure*:

* :mod:`repro.workload.contracts` -- real bytecode for the hotspot
  contract families (ERC-20 token, constant-product AMM, NFT mint with a
  shared counter, airdrop distributor), written in the repo's assembler;
* :mod:`repro.workload.universe` -- genesis construction: funded EOAs and
  pre-deployed contracts with populated storage;
* :mod:`repro.workload.generator` -- per-block transaction sampling with
  Zipf-skewed account popularity and a tunable ``hotspot_intensity`` knob
  that reproduces (and sweeps) the paper's subgraph-ratio distribution;
* :mod:`repro.workload.scenarios` -- named parameterisations (the default
  mainnet-like mix, payment-heavy early-era blocks, the hotspot sweep
  used by the Fig. 8 benchmark) plus the scenario *stream* engine:
  conflict-taming counter variants, burst-arrival models, MEV bundle
  chains, a streaming long-tail generator and a day-in-the-life replay,
  all behind one registry (``get_scenario``).
"""

from repro.workload.contracts import (
    erc20_code,
    amm_code,
    nft_code,
    airdrop_code,
    erc20_transfer_calldata,
    erc20_mint_calldata,
    erc20_balance_slot,
    amm_swap_calldata,
    nft_mint_calldata,
    airdrop_claim_calldata,
)
from repro.workload.universe import Universe, UniverseConfig, build_universe
from repro.workload.generator import (
    WorkloadConfig,
    BlockWorkloadGenerator,
)
from repro.workload.scenarios import (
    SCENARIOS,
    mainnet_scenario,
    payment_heavy_scenario,
    hotspot_scenario,
    era_profile,
    ScenarioStream,
    ScenarioSpec,
    SCENARIO_REGISTRY,
    get_scenario,
    scenario_names,
    tx_fingerprint,
)

__all__ = [
    "erc20_code",
    "amm_code",
    "nft_code",
    "airdrop_code",
    "erc20_transfer_calldata",
    "erc20_mint_calldata",
    "erc20_balance_slot",
    "amm_swap_calldata",
    "nft_mint_calldata",
    "airdrop_claim_calldata",
    "Universe",
    "UniverseConfig",
    "build_universe",
    "WorkloadConfig",
    "BlockWorkloadGenerator",
    "SCENARIOS",
    "mainnet_scenario",
    "payment_heavy_scenario",
    "hotspot_scenario",
    "era_profile",
    "ScenarioStream",
    "ScenarioSpec",
    "SCENARIO_REGISTRY",
    "get_scenario",
    "scenario_names",
    "tx_fingerprint",
]
