# BlockPilot reproduction — common workflows

PYTHON ?= python

.PHONY: install test test-all test-fast serve-demo telemetry-smoke check check-fuzz check-fuzz-blockstm lint coverage bench bench-compare bench-e2e-quick bench-e2e-compare ab-e2e profile-e2e census trace-demo examples clean

install:
	pip install -e . --no-build-isolation 2>/dev/null || $(PYTHON) setup.py develop

# default developer loop: the fast tier (slow soaks run in test-all / CI).
# `make test M=faults` runs one marker tier instead: every test and every
# experiment tagged @pytest.mark.<M> (the markers are listed in pyproject.toml)
test:
	$(PYTHON) -m pytest $(if $(M),tests benchmarks -m $(M) -q,tests/ -m "not slow")

test-all:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow" -x

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

# the AST checks always run (no untyped def in the typed island, no unused
# import in src/); ruff and mypy run wherever they are installed — CI has both
lint:
	$(PYTHON) scripts/lint_island.py
	$(PYTHON) -m compileall -q src tests benchmarks examples scripts
	@if $(PYTHON) -c "import ruff" 2>/dev/null; \
		then $(PYTHON) -m ruff check src tests benchmarks examples scripts; \
		else echo "ruff not installed: skipped"; fi
	@if $(PYTHON) -c "import mypy" 2>/dev/null; \
		then $(PYTHON) -m mypy; else echo "mypy not installed: skipped"; fi

coverage:
	$(PYTHON) -m pytest tests/ --cov=repro --cov-report=term --cov-report=xml \
		--cov-fail-under=75 -q

# every experiment in benchmarks/manifest.py (`python -m benchmarks list`):
# prints each table, judges each shape assertion, and rewrites the goldens in
# benchmarks/results — byte for byte, unless a number really moved
bench:
	$(PYTHON) -m benchmarks

# the regression gate, the same command CI runs: the sim-clock suite, every
# golden compared against the committed file (git diff shows what moved)
bench-compare:
	$(PYTHON) -m benchmarks --suite sim --compare

# node-lifecycle wall-clock benchmark (benchmarks/e2e/README.md): a 2-block
# pass of every workload with every check on, ~20 s
bench-e2e-quick:
	$(PYTHON) -m benchmarks.e2e run --quick

# judge result file B against A (both written by `python -m benchmarks.e2e
# run --out FILE`): make bench-e2e-compare A=parent.json B=change.json
bench-e2e-compare:
	$(PYTHON) -m benchmarks.e2e compare $(A) $(B)

# the A/B behind a wall-clock claim: ten alternating runs of a checkout of the
# parent commit (BASE) and of this tree, a fresh interpreter each, verdict per
# end-to-end metric: make ab-e2e BASE=../parent W=longtail-payments
ab-e2e:
	$(PYTHON) scripts/ab_e2e.py $(BASE) $(if $(W),--workload $(W)) $(ARGS)

# where a block's CPU time goes: an ITIMER_PROF sampler over one e2e block
# loop, inclusive and self share per function (cProfile mis-ranks this code
# base's layers), calibration-kernel samples dropped, the collector's three
# generations timed on rows of their own: make profile-e2e
# W=mint-rush, or as a call tree: make profile-e2e W=mainnet ARGS="--tree --min 2"
profile-e2e:
	$(PYTHON) scripts/profile_e2e.py --workload $(or $(W),mainnet) $(ARGS)

# who reaches what in src/repro: with no ARGS, the public names, fields and
# keyword parameters only tests reach (leads, not verdicts); ARGS=--knobs,
# the *Config / *Params fields nothing outside tests sets; with names,
# each one's references split by tree: make census ARGS="uncle_count"
census:
	$(PYTHON) scripts/census.py $(ARGS)

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
	rm -rf build dist *.egg-info src/*.egg-info \
		.coverage coverage.xml .mypy_cache .ruff_cache serve-demo-data
	find benchmarks/results -type f ! -name 'BENCH_*.json' -delete 2>/dev/null || true
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null || true
