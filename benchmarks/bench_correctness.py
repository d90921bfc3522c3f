"""§5.2 Correctness validation.

The paper replays 10M mainnet blocks and checks that every MPT root
matches the block header.  Here the chain is generated (see DESIGN.md's
substitution table), and the check is three-way: serial execution, the
OCC-WSI proposer's materialised state, and BlockPilot's parallel validator
must all produce the header root for every block in the chain.
"""

from benchmarks.world import Outcome, World
from repro.core.baselines import SerialExecutor, TwoPhaseOCCExecutor
from repro.core.validator import ParallelValidator, ValidatorConfig
from repro.obs.export import format_table


def run(world: World, blocks: int) -> Outcome:
    validator = ParallelValidator(config=ValidatorConfig(lanes=16))
    serial = SerialExecutor()
    occ = TwoPhaseOCCExecutor(lanes=16)

    rows = []
    for entry in world.chain(blocks):
        header_root = entry.block.header.state_root
        res = validator.validate_block(entry.block, entry.parent_state)
        assert res.accepted, res.reason
        sres = serial.execute_block(entry.block, entry.parent_state)
        ores = occ.execute_block(entry.block, entry.parent_state)
        rows.append(
            {
                "height": entry.block.number,
                "txs": len(entry.block),
                "root": header_root.hex()[:16] + "…",
                "serial==header": sres.post_state.state_root() == header_root,
                "parallel==header": res.post_state.state_root() == header_root,
                "occ==header": ores.post_state.state_root() == header_root,
            }
        )

    report = format_table(
        rows, title=f"§5.2 correctness: state roots across execution modes ({len(rows)} blocks)"
    )
    return Outcome({"rows": rows}, report)


def check(headline: dict) -> None:
    for row in headline["rows"]:
        assert row["serial==header"] and row["parallel==header"] and row["occ==header"], row
