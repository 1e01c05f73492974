# Convenience targets for the DCMT reproduction.

.PHONY: install test bench-all report quickstart lint lint-clean verify verify-robustness verify-callbacks verify-ingest verify-lifecycle verify-fleet verify-plan verify-stream verify-parallel verify-month verify-bench

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

# Static checks (ruff, configured in pyproject.toml).  Skips cleanly
# when ruff is not installed so `make verify` works in minimal
# environments; a real lint failure still fails the target.  The F401
# unused-import rule also runs without ruff, in the tier-1 suite
# (tests/test_unused_imports.py).
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src/ tests/ examples/ benchmarks/; \
	else \
		echo "ruff not installed; skipping lint"; \
	fi

# The CI gate: lint, the robustness, callbacks, ingest, lifecycle,
# fleet, plan, stream, parallel and month lanes, the benchmark's self-tests, then
# the full tier-1 suite from a clean checkout -- every PR runs all of it.
verify: lint verify-robustness verify-callbacks verify-ingest verify-lifecycle verify-fleet verify-plan verify-stream verify-parallel verify-month verify-bench
	PYTHONPATH=src python -m pytest -x -q tests/

# Every test tagged `robustness`: degenerate-batch hardening plus the
# reliability subsystem (checkpoint/resume, guards, chaos serving).
# Works from a clean checkout (no install needed).
verify-robustness:
	PYTHONPATH=src pytest -m robustness tests/

# Every test tagged `ingest`: the dirty-data quarantine pipeline
# (classification, repair policies, error budget, report provenance).
verify-ingest:
	PYTHONPATH=src pytest -m ingest tests/

# Every test tagged `callbacks`: the training-engine hook protocol
# (ordering, vetoes, guard LR decay, checkpoint metadata).
verify-callbacks:
	PYTHONPATH=src pytest -m callbacks tests/

# Every test tagged `lifecycle`: the model registry, promotion gate,
# canary rollout, and the seeded end-to-end chaos drill.
verify-lifecycle:
	PYTHONPATH=src pytest -m lifecycle tests/

# Every test tagged `fleet`: replicated-serving routing and hedging,
# fleet health quorum, and the seeded replica-loss chaos drills.
verify-fleet:
	PYTHONPATH=src pytest -m fleet tests/

# Every test tagged `plan`: compiled execution-plan parity (bit-exact
# vs eager across models and checkpoints), the shape-signature
# fallback policy, and the forward-only replay behind `predict`
# (bit-exact predictions, binding, compile-on-repeat, zero module
# calls per steady served page).
verify-plan:
	PYTHONPATH=src pytest -m plan tests/

# Every test tagged `stream`: the out-of-core data path (chunked CSV
# source parsed once and spilled, one chunk resident, streaming-vs-
# in-memory parity, mid-epoch resume, streamed metrics, delayed-feedback
# correction).
verify-stream:
	PYTHONPATH=src pytest -m stream tests/

# Every test tagged `parallel`: the supervised data-parallel worker
# pool (bit-exact pool-vs-serial parity, deadline/heartbeat
# supervision, graceful shard degradation, trainer chaos drills).
verify-parallel:
	PYTHONPATH=src pytest -m parallel tests/

# Every test tagged `month`: the deterministic production-month
# simulation (seeded drift schedules, transcript bit-identity,
# confounder-shift detection, managed-vs-strawmen oracle regret).
verify-month:
	PYTHONPATH=src pytest -m month tests/

# Self-tests of the system benchmark (benchmarks/perf; measure with
# `python3 -m benchmarks.perf measure`).  The tier-1 testpaths do not
# collect them.
verify-bench:
	PYTHONPATH=src python3 -m pytest benchmarks/perf -q

# The paper-table/figure benches (pytest-benchmark, one timed run each).
bench-all:
	pytest benchmarks/ --benchmark-only

report:
	dcmt-experiments report --out report/ --scale 0.5 --seeds 0 1

quickstart:
	python examples/quickstart.py

# Regenerate the committed result transcripts.
outputs:
	pytest tests/ 2>&1 | tee test_output.txt
	pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt
