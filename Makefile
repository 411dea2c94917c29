# Convenience entry points; see README.md.
PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test fuzz test-service bench bench-check bench-pairs bench-micro crossover golden docs doctest

## tier-1 test suite (the CI gate); its hypothesis profile is
## derandomized (tests/conftest.py), so every run draws the same examples
test:
	$(PYTHON) -m pytest -x -q

## random exploration: the two property files under the `fuzz` profile —
## fresh seeds, 20x the example budget, failures saved under the tracked
## tests/fuzz-examples/ and replayed first next time (~1 min).  Until
## ROADMAP item 2a lands it is *expected* to fail on
## test_partitions_sound_for_sampled_deployment: compute_partitions is
## unsound under security_2nd and this finds the instance
fuzz:
	$(PYTHON) -m pytest -q --hypothesis-profile=fuzz \
		tests/test_properties.py tests/test_engine_properties.py

## service plane: HTTP API, resilience chaos, store backends,
## concurrency stress (the CI `service` job adds coverage >= 85% on
## repro.service + the store)
test-service:
	$(PYTHON) -m pytest -q --durations=15 tests/test_service.py \
		tests/test_service_chaos.py \
		tests/test_store_backends.py tests/test_store_concurrency.py

## the docs gate: doctests for the documented public API + internal
## markdown link check (also run inside tier-1 via tests/test_docs.py)
docs: doctest
	$(PYTHON) tools/check_links.py

## the module list must equal tests/test_docs.py DOCTEST_MODULES
## (test_doctest_target_lists_the_tested_modules checks it)
doctest:
	$(PYTHON) -m pytest --doctest-modules -q \
		src/repro/core/__init__.py \
		src/repro/core/attacks.py \
		src/repro/core/context.py \
		src/repro/core/jobs.py \
		src/repro/core/metrics.py \
		src/repro/experiments/faults.py \
		src/repro/experiments/scenarios.py \
		src/repro/experiments/store.py

## the layered benchmark (perfbench/README.md): four workloads over
## the real entry points, end-to-end metrics then per-layer metrics;
## exits nonzero on any digest, refimpl spot-check or service-reply
## mismatch
bench:
	$(PYTHON) perfbench/bench.py

## CI smoke of the same: every workload at tiny scale through the same
## correctness gates, a fraction of a second each.  It checks no
## timing — shared runners cannot hold timing floors; the timing check
## is `perfbench/bench.py --compare a.json b.json` on two `--out`
## files taken on one machine
bench-check:
	$(PYTHON) perfbench/bench.py --smoke

## alternated runs of one workload on two checkouts, each running its
## own perfbench, every value printed, then a verdict per BENCHMARK.json
## metric: gain / within bound / unresolved / worse (tools/alternate_bench.py):
##   make bench-pairs PARENT=../parent [WORKLOAD=rollout_large] [PAIRS=10]
WORKLOAD ?= rollout_large
PAIRS ?= 10
bench-pairs:
	$(PYTHON) tools/alternate_bench.py $(PARENT) . --workload $(WORKLOAD) --pairs $(PAIRS)

## the measurements behind the numpy kernel's batching
## (tools/kernel_crossover.py; ~1 min): NP_ROWS_BUDGET of
## repro.core.context — the kernel's ms per row at K rows a call — then
## the race behind every destination group being rows: ms per
## pair-step of one group of A attackers as rows and as a fresh
## DestinationSweep a chain step.  Asserts no timing; exits nonzero
## only if the rows' (or the two ways') results differ
crossover:
	$(PYTHON) tools/kernel_crossover.py --rows
	$(PYTHON) tools/kernel_crossover.py --groups

## full pytest-benchmark microbenchmark harness
bench-micro:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

## regenerate the golden metric fixtures (inspect the diff!)
golden:
	$(PYTHON) tests/test_golden_metrics.py --regen
