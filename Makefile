# Test tiers (see pyproject.toml [tool.pytest.ini_options]):
#   test        - tier-1: fast suite; `slow` and `bench` marked tests excluded
#                 by addopts.
#   test-all    - everything in tests/, including the exhaustive `slow`
#                 equivalence/property sweeps (`-m ""` clears the addopts
#                 marker filter) and the observability coverage floor.
#   test-faults - just the fault-injection matrix (`faults` marker):
#                 store corruption detection, shard retry/quarantine,
#                 degraded-run accounting. Also part of tier-1.
#   coverage    - one pytest run over every test carrying one of the
#                 COV_MARKERS (obs, store, faults, kernels, streaming, serve,
#                 dist, netsim, io — slow-marked ones included) under pytest-cov,
#                 with a fail-under floor on the COV_SOURCES packages.
#                 Gated: when pytest-cov is not installed the tests still
#                 run, without the floor, instead of erroring (the container
#                 may not ship coverage tooling).
#   bench       - the full figure/ablation benchmark harness (benchmarks/;
#                 not `python3 -m bench`, which is the two targets below).
#   test-bench  - the end-to-end benchmark's own tests (bench/tests: metric
#                 table = BENCHMARK.json, generator determinism, output
#                 checks, compare rule). Not tier-1 (~75 s); part of
#                 test-all.
#   bench-smoke - every `python3 -m bench` workload once on ~1k-session
#                 inputs (~15 s): proves the harness still drives the
#                 program end to end; its numbers mean nothing.
#   test-kernels - just the batch-kernel suite (`kernels` marker): the
#                 build_dataset-vs-row-oracle differential matrix and the
#                 per-kernel Hypothesis properties. Also part of tier-1.
#   test-streaming - just the streaming suite (`streaming` marker): the
#                 ingest watermark/replay-equivalence tests and the
#                 seal-time route decisions (streamed = batch §6). Also
#                 part of tier-1.
#   test-examples - run every examples/*.py and fail on a non-zero exit.
#                 Not tier-1 (examples/README.md budgets ~1-2 min each);
#                 part of test-all.
#   test-serve  - just the query-serving suite (`serve` marker): endpoint
#                 contracts vs the batch path, the LRU cache property,
#                 concurrent-client + live-append semantics, and served
#                 fault attribution. Also part of tier-1.
#   test-dist   - just the dispatch suite (`dist` marker): the wire
#                 protocol, the worker daemon, dispatch-vs-serial
#                 equivalence (golden trace), worker-death
#                 reassignment, and the executor-conformance contract
#                 across the three backends (inline, process pool,
#                 dispatch). Also part of tier-1.
#   bench-dist  - dispatch over two local daemons vs the process pool on
#                 the same workload; writes benchmarks/results/BENCH_dist.json.
#   test-io     - just the JSONL decoder suite (`io` marker): the one line
#                 loop under both assemblers (samples and column batches),
#                 the column-vs-object differential, line-attributed record
#                 errors, the io.rows_read ledger and the byte-mutation
#                 decoder fuzz. Also part of tier-1.
#   test-store  - just the columnar-store suite (`store` marker): codecs,
#                 the partition frame and its decoder fuzz, writer, append
#                 sessions, reader, compaction and store-backed analysis
#                 equivalence. Also part of tier-1.
#   test-netsim - just the simulator suite (`netsim` marker): the packet
#                 simulator (engine, link, TCP), the CC-conformance contract
#                 across all registered congestion controls, the validation
#                 sweep, and the scenario bugfix regressions. Also part of
#                 tier-1.
#   bench-cc-matrix - the CC/protocol scenario-matrix ablation (validation
#                 sweep per CC + mobile HDratio/MinRTT distributions);
#                 writes benchmarks/results/ablation_cc_matrix.txt.
#   src-lines   - print the line total of src/**/*.py: the number ROADMAP
#                 aim 2 tracks (expected sign per PR this round: negative)
#                 and every CHANGES.md entry reports before/after.
#   doc-lines   - print the line counts of DESIGN.md, README.md,
#                 CONTRIBUTING.md and docs/*.md, and their total: the prose
#                 ROADMAP item 9 tracks beside src-lines.
#   bench-ab    - PARENT=<rev> WORKLOAD=<name>[,<name>...] [PAIRS=N] [SEED=N]:
#                 alternate `python3 -m bench` runs (12 s, --trace 0)
#                 between one `git archive` of PARENT and the working tree,
#                 workload by workload; prints each pair, then per workload
#                 the per-metric medians/quartiles, pairs won and the
#                 gain/regression/unresolved verdict (tools/bench_ab.py,
#                 which holds the defaults: 10 pairs from seed 1).
#   mutate      - MODULE=<path>[,<path>...] TESTS=<path>[,<path>...] [REV=<rev>]:
#                 swap each comparison operator of MODULE one at a time
#                 (< <=, > >=, == !=) in a `git archive` copy and run TESTS
#                 against each mutant; prints the survivors as path:line
#                 (tools/mutate.py). Not tier-1.

PYTHON ?= python
PYTEST  = PYTHONPATH=src $(PYTHON) -m pytest

# Every subsystem under the floor carries a marker (pyproject.toml), so the
# marker, not a list of its files, selects its tests.
COV_MARKERS = obs or store or faults or kernels or streaming or serve or dist \
              or netsim or io
COV_FLOOR = 85
COV_SOURCES = --cov=repro.obs --cov=repro.store --cov=repro.faultinject \
              --cov=repro.kernels --cov=repro.pipeline.ingest \
              --cov=repro.pipeline.streaming \
              --cov=repro.serve --cov=repro.dist --cov=repro.netsim.congestion \
              --cov=repro.pipeline.io --cov=repro.fsutil

.PHONY: test test-all test-faults test-kernels test-streaming test-serve \
	test-dist test-netsim test-io test-store test-bench test-examples coverage bench \
	bench-smoke bench-dist bench-cc-matrix src-lines doc-lines bench-ab mutate

test:
	$(PYTEST) -x -q

test-all: coverage test-faults test-kernels test-streaming test-serve \
		test-dist test-netsim test-io test-store test-bench test-examples
	$(PYTEST) -q -m ""

test-faults:
	$(PYTEST) -q -m faults

test-kernels:
	$(PYTEST) -q -m kernels

test-streaming:
	$(PYTEST) -q -m streaming

test-serve:
	$(PYTEST) -q -m serve

test-dist:
	$(PYTEST) -q -m dist

test-netsim:
	$(PYTEST) -q -m netsim

test-io:
	$(PYTEST) -q -m io

test-store:
	$(PYTEST) -q -m store

test-bench:
	$(PYTHON) -m pytest bench/tests -q

test-examples:
	@set -e; for example in examples/*.py; do \
		echo "== $$example"; \
		PYTHONPATH=src $(PYTHON) $$example > /dev/null; \
	done

bench-smoke:
	$(PYTHON) -m bench all --smoke

coverage:
	@cov=""; \
	if $(PYTHON) -c "import pytest_cov" 2>/dev/null; then \
		cov="$(COV_SOURCES) --cov-report=term-missing \
		     --cov-fail-under=$(COV_FLOOR)"; \
	else \
		echo "pytest-cov not installed; running the $(COV_MARKERS) tests" \
		     "without the $(COV_FLOOR)% floor"; \
	fi; \
	$(PYTEST) -q -m "$(COV_MARKERS)" $$cov

bench:
	PYTHONPATH=src:. $(PYTHON) -m pytest -q -m "" benchmarks/

bench-dist:
	PYTHONPATH=src:. $(PYTHON) -m pytest -q -m bench benchmarks/test_bench_dist.py

bench-cc-matrix:
	PYTHONPATH=src:. $(PYTHON) -m pytest -q -m "" benchmarks/test_ablation_cc_matrix.py

src-lines:
	@find src -name '*.py' | xargs cat | wc -l

doc-lines:
	@wc -l DESIGN.md README.md CONTRIBUTING.md docs/*.md

bench-ab:
	@test -n "$(PARENT)" -a -n "$(WORKLOAD)" || \
		{ echo "usage: make bench-ab PARENT=<rev> WORKLOAD=<name>[,<name>...] [PAIRS=N] [SEED=N]"; exit 2; }
	$(PYTHON) tools/bench_ab.py $(PARENT) $(WORKLOAD) \
		$(if $(PAIRS),--pairs $(PAIRS)) $(if $(SEED),--seed $(SEED))

mutate:
	@test -n "$(MODULE)" -a -n "$(TESTS)" || \
		{ echo "usage: make mutate MODULE=<path>[,<path>...] TESTS=<path>[,<path>...] [REV=<rev>]"; exit 2; }
	$(PYTHON) tools/mutate.py $(MODULE) --tests $(TESTS) $(if $(REV),--rev $(REV))
