#!/usr/bin/env python3
"""Persistent node: block log + snapshots + crash recovery (`repro.store`).

Everything else in this repo lives in memory; this example gives the
chain a disk life.  It walks the full durability story:

1. grow a chain through the normal proposer→validator path with a
   `DiskStore` attached — every accepted block is committed to an
   append-only checksummed log, the in-place write of one of the
   manifest's two slots being the commit point;
2. reopen the data dir and watch recovery re-execute and root-verify
   the log into a byte-identical chain;
3. simulate a hard crash mid-append (a torn half-record past the
   manifest) and watch recovery *heal* it;
4. flip a byte inside the sealed region and watch recovery *refuse* —
   corruption is a typed error, never a silent absorb.

Run:  python examples/persistent_node.py
"""

import struct
import tempfile
from pathlib import Path

from repro import BlockWorkloadGenerator, ProposerNode, ValidatorNode, build_universe
from repro.faults.storage import flip_log_byte
from repro.store import BlockLogCorruptError, Manifest, StaleManifestError, open_store, recover


def grow(chain, universe, generator, blocks):
    proposer = ProposerNode("alice")
    validator = ValidatorNode("bob", universe.genesis, chain=chain)
    for _ in range(blocks):
        head = chain.head
        txs = generator.generate_block_txs()
        sealed = proposer.build_block(head.header, chain.state_at(head.hash), txs)
        assert validator.receive_blocks([sealed.block]).accepted


def main() -> None:
    universe = build_universe()
    data_dir = Path(tempfile.mkdtemp(prefix="repro-node-")) / "node"

    # -- 1. a durable run ------------------------------------------------ #
    chain, store, recovery = open_store(
        str(data_dir), universe.genesis, snapshot_interval=4, fsync=False
    )
    print(f"fresh data dir: {recovery.summary()}")
    grow(chain, universe, BlockWorkloadGenerator(universe), 6)
    store.seal()
    store.close()
    head_hash = bytes(chain.head.hash).hex()
    print(f"grew 6 blocks, sealed; head {head_hash[:16]}…")
    manifest = Manifest.load(str(data_dir))
    files = sorted(p.name for p in data_dir.iterdir())
    print(f"on disk: {files}  (clean={manifest.clean})\n")

    # -- 2. recovery is a byte-identical rebuild ------------------------- #
    result = recover(str(data_dir), universe.genesis, fsync=False)
    print(f"reopened: {result.summary()}")
    assert bytes(result.chain.head.hash).hex() == head_hash
    print("recovered head matches the sealed head — byte-identical rebuild\n")
    result.log.close()

    # -- 3. a torn append past the manifest is healed -------------------- #
    # simulate dying mid-write: half a record lands after the last commit
    log_file = data_dir / Manifest.load(str(data_dir)).log_file
    with open(log_file, "ab") as fh:
        fh.write(struct.pack("<II", 4096, 0) + b"interrupted mid-flush")
    result = recover(str(data_dir), universe.genesis, fsync=False)
    print(f"after a simulated torn append: {result.summary()}")
    assert result.healed, "the torn tail should have been healed"
    assert bytes(result.chain.head.hash).hex() == head_hash
    print(f"healed: {result.healed[0]}\n")
    result.log.close()

    # -- 4. sealed-region damage is refused, loudly ---------------------- #
    offset = flip_log_byte(str(data_dir), seed=7)
    try:
        recover(str(data_dir), universe.genesis, fsync=False)
    except (BlockLogCorruptError, StaleManifestError) as exc:
        print(f"flipped one byte at log offset {offset}; recovery refused:")
        print(f"  {type(exc).__name__}: {exc}")
    else:
        raise AssertionError("corruption must never pass silently")


if __name__ == "__main__":
    main()
