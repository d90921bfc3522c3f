"""Microseconds per execution of ``EVM.apply_transaction``, per role surface.

    python scripts/bench_envelope.py [--base DIR] [--rounds 15] [--n 400] [--seed 42]
                                     [--shape transfer|erc20|nft ...]

Times one transaction execution on the two state surfaces a node executes
on, each the way its caller drives it:

* ``proposer`` — ``repro.exec.tasks.speculate`` against a
  ``MultiVersionStore`` (an ``OCCStateView`` per execution, the proposer's
  in-parent path);
* ``validator`` — a ``RecordingState`` per execution over one ``StateDB``
  per round, the loop of ``ParallelValidator._execute_reference``.

Three transaction shapes, built with ``repro.workload.contracts`` and the
workload generator's gas limits: a plain value transfer to a fresh account
(``longtail-payments`` is made of them), an ERC-20 transfer and an NFT mint.
Every execution has its own funded sender at nonce 0; the order of senders
and recipients is shuffled by ``--seed``.  A round runs ``--n`` executions
of each (shape, surface) cell; the collector is paused inside a cell and
run before it, so the figure is the execution's own cost.  One round is run
first and thrown away (it analyses and compiles the contracts' code).

With ``--base DIR`` (a checkout of another commit) the same cells run on
that tree too, in this process: each tree is imported under its own module
objects and put in ``sys.modules`` while its cells run.  The trees take
turns cell by cell, the side that goes first alternating by round.  Per
cell it prints both sides' medians and quartiles, the ratio of the medians
(change / base) and the rounds the change was faster in.  The run pins
itself to one CPU; keep the machine otherwise idle.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import os
import random
import statistics
import sys
import time
from types import ModuleType
from typing import Any, Callable, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SHAPES = ("transfer", "erc20", "nft")
SURFACES = ("proposer", "validator")
#: what a cell needs from a tree, imported up front
MODULES = (
    "repro.common.types",
    "repro.evm.interpreter",
    "repro.exec.tasks",
    "repro.state.access",
    "repro.state.account",
    "repro.state.statedb",
    "repro.state.versioned",
    "repro.txpool.transaction",
    "repro.workload.contracts",
)


def _own(name: str) -> bool:
    return name == "repro" or name.startswith("repro.")


def load_tree(src: str) -> Dict[str, ModuleType]:
    """Import the ``repro`` package under ``src`` afresh; its module table."""
    for name in [name for name in sys.modules if _own(name)]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        for name in MODULES:
            importlib.import_module(name)
    finally:
        sys.path.remove(src)
    return {name: module for name, module in sys.modules.items() if _own(name)}


def activate(modules: Dict[str, ModuleType]) -> None:
    """Make ``modules`` the ``repro`` that imports inside the tree resolve to."""
    for name in [name for name in sys.modules if _own(name)]:
        del sys.modules[name]
    sys.modules.update(modules)


class Cells:
    """One tree's world and transactions, and its timed cells."""

    def __init__(self, modules: Dict[str, ModuleType], n: int, seed: int) -> None:
        types = modules["repro.common.types"]
        contracts = modules["repro.workload.contracts"]
        AccountData = modules["repro.state.account"].AccountData
        Transaction = modules["repro.txpool.transaction"].Transaction
        interpreter = modules["repro.evm.interpreter"]
        self.tasks = modules["repro.exec.tasks"]
        self.StateDB = modules["repro.state.statedb"].StateDB
        self.RecordingState = modules["repro.state.access"].RecordingState
        self.MultiVersionStore = modules["repro.state.versioned"].MultiVersionStore
        self.evm = interpreter.EVM()
        self.ctx = interpreter.ExecutionContext(block_number=1, timestamp=1_700_000_000)

        rng = random.Random(seed)
        senders = [types.address_from_int(0x10_0000 + i) for i in range(n)]
        recipients = [types.address_from_int(0x90_0000 + i) for i in range(n)]
        rng.shuffle(senders)
        rng.shuffle(recipients)
        token, collection = types.address_from_int(0xE20), types.address_from_int(0xA17)
        alloc = {sender: AccountData(balance=10**24) for sender in senders}
        alloc[token] = AccountData(
            code=contracts.erc20_code(),
            storage={contracts.erc20_balance_slot(sender): 10**6 for sender in senders},
        )
        alloc[collection] = AccountData(code=contracts.nft_code())
        self.genesis = modules["repro.state.statedb"].genesis_snapshot(alloc)

        def txs(to: Callable[[int], Any], value: int, data: Callable[[int], bytes], gas: int) -> List[Any]:
            return [
                Transaction(sender=senders[i], to=to(i), value=value, data=data(i),
                            gas_limit=gas, gas_price=50, nonce=0)
                for i in range(n)
            ]

        self.txs = {
            "transfer": txs(recipients.__getitem__, 10**15, lambda i: b"", 60_000),
            "erc20": txs(lambda i: token, 0,
                         lambda i: contracts.erc20_transfer_calldata(recipients[i], 5), 400_000),
            "nft": txs(lambda i: collection, 0, lambda i: contracts.nft_mint_calldata(), 400_000),
        }

    def run(self, shape: str, surface: str) -> float:
        """One cell: µs per execution."""
        txs, evm, ctx = self.txs[shape], self.evm, self.ctx
        gc.collect()
        gc.disable()
        try:
            if surface == "proposer":
                speculate, store = self.tasks.speculate, self.MultiVersionStore(self.genesis)
                start = time.perf_counter()
                for tx in txs:
                    out = speculate(evm, store, tx, ctx, 0)
                elapsed = time.perf_counter() - start
                assert out.invalid is None and out.result.success
            else:
                recording, db = self.RecordingState, self.StateDB(self.genesis)
                results, rwsets = [], []
                start = time.perf_counter()
                for tx in txs:
                    rec = recording(db)
                    results.append(evm.apply_transaction(rec, tx, ctx))
                    rwsets.append(rec.rw)
                elapsed = time.perf_counter() - start
                assert all(result.success for result in results)
        finally:
            gc.enable()
        return elapsed / len(txs) * 1e6


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="a checkout of the commit to compare against")
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--n", type=int, default=400, help="executions per cell")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--shape", action="append", choices=SHAPES, help="repeatable; default: all")
    args = parser.parse_args()
    shapes = args.shape or list(SHAPES)
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    sides: Dict[str, Tuple[Dict[str, ModuleType], Cells]] = {}
    trees = {"change": ROOT} if args.base is None else {"base": os.path.abspath(args.base), "change": ROOT}
    for side, tree in trees.items():
        modules = load_tree(os.path.join(tree, "src"))
        sides[side] = (modules, Cells(modules, args.n, args.seed))
    times: Dict[Tuple[str, str, str], List[float]] = {}
    for round_ in range(args.rounds + 1):
        order = list(sides) if round_ % 2 == 0 else list(sides)[::-1]
        for shape in shapes:
            for surface in SURFACES:
                for side in order:
                    modules, cells = sides[side]
                    activate(modules)
                    us = cells.run(shape, surface)
                    if round_:  # round 0 warms the code caches
                        times.setdefault((side, shape, surface), []).append(us)
        print(f"# round {round_}/{args.rounds}", file=sys.stderr, flush=True)

    print(f"µs per execution, {args.rounds} rounds of {args.n}, seed {args.seed}")
    if args.base is None:
        print(f"{'shape':<9} {'surface':<10} {'q1 / median / q3':>24}")
        for shape in shapes:
            for surface in SURFACES:
                q = quartiles(times[("change", shape, surface)])
                print(f"{shape:<9} {surface:<10} {' / '.join(f'{v:.2f}' for v in q):>24}")
        return 0
    print(f"{'shape':<9} {'surface':<10} {'base q1/median/q3':>24} {'change q1/median/q3':>24}"
          f" {'ratio':>6} {'wins':>6}")
    for shape in shapes:
        for surface in SURFACES:
            base, change = times[("base", shape, surface)], times[("change", shape, surface)]
            wins = sum(c < b for b, c in zip(base, change))
            qb, qc = quartiles(base), quartiles(change)
            print(f"{shape:<9} {surface:<10} {' / '.join(f'{v:.2f}' for v in qb):>24}"
                  f" {' / '.join(f'{v:.2f}' for v in qc):>24} {qc[1] / qb[1]:>6.2f}"
                  f" {wins:>3}/{len(base)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
