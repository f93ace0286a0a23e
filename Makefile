# Convenience entry points (CI runs the same commands).
PY ?= python
export PYTHONPATH := src

.PHONY: test lint demos bench-gate bench-baseline sweep-smoke \
	search-smoke auto-config perfbench-selftest

test:
	$(PY) -m pytest -x -q

lint:
	ruff check src tests benchmarks examples

demos:
	$(PY) examples/serving_demo.py
	$(PY) examples/parallel_serving_demo.py
	$(PY) examples/paged_serving_demo.py
	$(PY) examples/cluster_serving_demo.py
	$(PY) examples/autoscaling_serving_demo.py
	$(PY) examples/auto_config_demo.py

# Compare fixed-seed serving benchmarks against BENCH_serving.json.
bench-gate:
	$(PY) benchmarks/gate.py --check

# Intentional perf change? Regenerate the baseline and commit it.
# Serial by construction: gate.py refuses --jobs > 1 here so baseline
# wall clocks always come from uncontended runs.
bench-baseline:
	$(PY) benchmarks/gate.py --update-baseline

# The host benchmark's own tests (tiny workloads, output check,
# runner vs BENCHMARK.json); see perfbench/README.md.
perfbench-selftest:
	$(PY) -m pytest perfbench/selftest.py -q

# Two-worker end-to-end smoke of the multiprocess sweep executor.
sweep-smoke:
	$(PY) -m repro.serve.sweep --jobs 2 --requests 120

# CI-sized auto-configuration search (halving, 2 workers): the whole
# session — every rung, the full-fidelity stage, and the hand-picked
# re-score — runs through one persistent SweepExecutor, so this also
# smokes pool reuse, the worker trace cache, and the outcome memo
# end-to-end with real workers.
search-smoke:
	$(PY) -m repro.analysis.experiments auto_config --smoke

# Back-compat alias for the registry smoke above.
auto-config: search-smoke
