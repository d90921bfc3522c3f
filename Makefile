# BlockPilot reproduction — common workflows

PYTHON ?= python

.PHONY: install test test-all test-fast test-faults test-store test-blockstm test-distributed test-scenarios test-exec serve-demo telemetry-smoke check check-fuzz check-fuzz-blockstm lint typecheck coverage bench bench-json bench-hotpath bench-strategies bench-distributed bench-scenarios bench-compare bench-e2e-quick bench-e2e-compare profile-e2e trace-demo examples clean

install:
	pip install -e . --no-build-isolation 2>/dev/null || $(PYTHON) setup.py develop

# default developer loop: the fast tier (slow soaks run in test-all / CI)
test:
	$(PYTHON) -m pytest tests/ -m "not slow"

test-all:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow" -x

# everything tagged @pytest.mark.faults, wherever it lives
test-faults:
	$(PYTHON) -m pytest tests benchmarks -m faults -q

# durable-storage engine: block log, snapshots, recovery, kill-and-resume
test-store:
	$(PYTHON) -m pytest tests benchmarks -m store -q

# Block-STM strategy tier: engine unit tests, cross-strategy equivalence,
# and the three-way ablation bench (everything tagged @pytest.mark.blockstm)
test-blockstm:
	$(PYTHON) -m pytest tests benchmarks -m blockstm -q

# distributed sharded validation: partition properties, bit-identity,
# follower fault matrix, and the scaling bench (@pytest.mark.distributed)
test-distributed:
	$(PYTHON) -m pytest tests benchmarks -m distributed -q

# scenario diversity engine: stream unit tests, hypothesis invariants,
# the scenario × strategy × backend conformance matrix, and the
# per-scenario bench (everything tagged @pytest.mark.scenarios)
test-scenarios:
	$(PYTHON) -m pytest tests benchmarks -m scenarios -q

# real-core backends: the backend contract, resident process workers (churn,
# lost workers, what crosses the boundary) and the cross-backend identity
# matrix (everything tagged @pytest.mark.exec)
test-exec:
	$(PYTHON) -m pytest tests benchmarks -m exec -q

# run a persistent node for 20 blocks against ./serve-demo-data, then resume
# it (second run recovers from disk and produces nothing new)
serve-demo:
	$(PYTHON) -m repro --txs-per-block 40 serve --data-dir serve-demo-data \
		--blocks 20 --snapshot-interval 8 --report-every 5
	$(PYTHON) -m repro --txs-per-block 40 serve --data-dir serve-demo-data \
		--blocks 20 --snapshot-interval 8

# live-telemetry smoke: serve with events + status endpoint, scrape it
# over loopback (metrics/status/healthz), SIGTERM, verify a clean seal
telemetry-smoke:
	$(PYTHON) scripts/telemetry_smoke.py

# conformance suite (repro.check): serializability + differential oracles
# over freshly proposed blocks — exits non-zero on any violation
check:
	$(PYTHON) -m repro --txs-per-block 40 --blocks-per-point 3 check

# schedule-fuzzer sweep: permuted thread-backend interleavings through the
# full conformance chain; failing seeds land in fuzz_failures.json
check-fuzz:
	$(PYTHON) -m repro fuzz --schedules 200 --budget 120 --out fuzz_failures.json

# same sweep through the Block-STM scheduler's yield points (wave width +
# execution order permutations); failing seeds carry strategy="block-stm"
check-fuzz-blockstm:
	$(PYTHON) -m repro --strategy block-stm fuzz --schedules 200 --budget 120 \
		--out fuzz_failures_blockstm.json

lint:
	ruff check src tests benchmarks examples
	$(PYTHON) -m compileall -q src tests benchmarks examples

typecheck:
	mypy

coverage:
	$(PYTHON) -m pytest tests/ --cov=repro --cov-report=term --cov-report=xml \
		--cov-fail-under=75 -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# machine-readable baselines: runs the JSON-emitting benchmarks and leaves
# BENCH_<name>.json files in benchmarks/results (or $$REPRO_RESULTS_DIR)
bench-json:
	$(PYTHON) -m pytest benchmarks/bench_fig6_proposer.py \
		benchmarks/bench_fig7a_scalability.py \
		benchmarks/bench_fig9_multiblock.py \
		benchmarks/bench_obs_overhead.py \
		benchmarks/bench_wallclock_backends.py \
		benchmarks/bench_hotpath.py \
		benchmarks/bench_store.py -q

# hot-path cache/index microbenches only (ISSUE 4): deterministic op-count
# speedups for the txpool index, batched commit, and artifact reuse
bench-hotpath:
	$(PYTHON) -m pytest benchmarks/bench_hotpath.py -q

# three-way proposer strategy ablation (occ-wsi | two-phase | block-stm);
# regenerates the committed BENCH_strategies.json golden bit-for-bit (the
# sim clock is deterministic) — CI's strategy-ablation job gates on it
bench-strategies:
	$(PYTHON) benchmarks/bench_ablation_strategies.py --quick

bench-distributed:
	$(PYTHON) benchmarks/bench_distributed.py --quick

# per-scenario speedup/abort-rate table (sim clock => bit-reproducible);
# regenerates the committed BENCH_scenarios.json golden and exits non-zero
# if the partitioned-counter variant stops beating the shared-counter one
bench-scenarios:
	$(PYTHON) benchmarks/bench_scenarios.py --quick

# regression gate: emit fresh sim-deterministic baselines into a scratch dir
# (REPRO_BENCH_BLOCKS=4 matches how the committed goldens were generated)
# and diff them against the committed goldens in benchmarks/results/
bench-compare:
	REPRO_RESULTS_DIR=benchmarks/results/.fresh REPRO_BENCH_BLOCKS=4 \
		$(PYTHON) -m pytest benchmarks/bench_fig6_proposer.py \
		benchmarks/bench_fig7a_scalability.py \
		benchmarks/bench_fig9_multiblock.py \
		benchmarks/bench_obs_overhead.py \
		benchmarks/bench_hotpath.py -q
	$(PYTHON) benchmarks/bench_scenarios.py --quick \
		--results-dir benchmarks/results/.fresh
	$(PYTHON) -m repro.obs.baseline \
		--old-dir benchmarks/results --new-dir benchmarks/results/.fresh \
		--names fig6_proposer fig7a_scalability fig9_multiblock hotpath obs_live \
		scenarios

# node-lifecycle wall-clock benchmark (benchmarks/e2e/README.md): a 2-block
# pass of every workload with every check on, ~20 s
bench-e2e-quick:
	$(PYTHON) -m benchmarks.e2e run --quick

# judge result file B against A (both written by `python -m benchmarks.e2e
# run --out FILE`): make bench-e2e-compare A=parent.json B=change.json
bench-e2e-compare:
	$(PYTHON) -m benchmarks.e2e compare $(A) $(B)

# where a block's CPU time goes: an ITIMER_PROF sampler over one e2e block
# loop, inclusive and self share per function (cProfile mis-ranks this code
# base's layers), calibration-kernel samples dropped: make profile-e2e
# W=mint-rush, or as a call tree: make profile-e2e W=mainnet ARGS="--tree --min 2"
profile-e2e:
	$(PYTHON) scripts/profile_e2e.py --workload $(or $(W),mainnet) $(ARGS)

trace-demo:
	$(PYTHON) -m repro --txs-per-block 60 trace --mode round --rounds 2 \
		--out trace.json
	$(PYTHON) examples/tracing_demo.py

examples:
	@for ex in examples/*.py; do \
		echo "=== $$ex ==="; \
		$(PYTHON) $$ex || exit 1; \
	done

clean:
	rm -rf build dist *.egg-info src/*.egg-info benchmarks/results/.fresh \
		benchmarks/results/.fresh-strategies \
		benchmarks/results/.fresh-distributed \
		benchmarks/results/.fresh-scenarios \
		.coverage coverage.xml .mypy_cache .ruff_cache serve-demo-data
	find benchmarks/results -type f ! -name 'BENCH_*.json' -delete 2>/dev/null || true
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null || true
