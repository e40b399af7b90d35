# Convenience targets for the GTS reproduction.
#
#   make test         tier-1 test suite (the gate every PR must keep green)
#   make bench-smoke  fast benchmark smoke run (reduced scale, quick figures)
#   make perfbench-smoke  two-second serving-benchmark runs of all three
#                     workloads: out-of-core sharded kNN, hot-key mixed and
#                     update churn (exits non-zero on a wrong answer)
#   make bench        full benchmark harness (all paper figures/tables)
#   make profile      cProfile a standard serve-sim workload (top-20 by cumtime)
#   make profile-updates  cProfile an update-heavy serve-sim workload with
#                     non-blocking maintenance enabled (top-20 by cumtime)
#   make profile-build  cProfile repeated tiered 2-shard builds of 20,000
#                     tloc points (top-20 by tottime)
#   make profile-serve WORKLOAD=<name>  cProfile one serving-benchmark
#                     workload's request serving, index builds excluded
#                     (top-25 by tottime; default hotkey-vector-mixed)
#   make profile-shards  host us per sharded kNN query at batch 1 and 16,
#                     1-8 shards, resident and tiered (median and quartiles)
#   make lint         byte-compile every source tree, reject unused
#                     module-level imports in src/ (tools/check_imports.py)
#                     and private src/ definitions nothing refers to
#                     (tools/check_dead_private.py); no linter is vendored
#   make example      run the quickstart end to end
#   make examples     run every example script (the CI smoke job)
#
# bench/bench-smoke write machine-readable result manifests (BENCH_full.json /
# BENCH_smoke.json: config snapshot + per-experiment rows) next to this file,
# so the perf trajectory is trackable across PRs; see benchmarks/README.md.

PYTHON      ?= python
PYTHONPATH  := src$(if $(PYTHONPATH),:$(PYTHONPATH))
export PYTHONPATH

.PHONY: test bench-smoke perfbench-smoke bench profile profile-updates profile-build profile-serve profile-shards lint example examples

test:
	$(PYTHON) -m pytest -x -q

# The smoke run keeps the default (calibrated) scale and picks the fast
# files; the benchmark shape assertions are not tuned for very small scales.
bench-smoke:
	REPRO_BENCH_MANIFEST=BENCH_smoke.json $(PYTHON) -m pytest -q \
		benchmarks/bench_ablations.py \
		benchmarks/bench_approx.py \
		benchmarks/bench_fig8_gpu_memory.py \
		benchmarks/bench_fig10_identical.py \
		benchmarks/bench_service_throughput.py \
		benchmarks/bench_sharding.py \
		benchmarks/bench_memory_tiering.py \
		benchmarks/bench_host_wallclock.py \
		benchmarks/bench_update_path.py

# The serving benchmark checks every answer after timing and exits 1 on a
# wrong one, so a tiered block-layout bug that breaks exactness fails here,
# and so does a query coalescing or deduplication bug (the hot-key workload
# interleaves range and kNN queries and repeats them within a batch), and so
# does a bug in merging tree answers with cache-table answers (the churn
# workload is the only one whose cache table is ever non-empty).
perfbench-smoke:
	$(PYTHON) perfbench/run.py --workload outofcore-sharded-knn --seconds 2
	$(PYTHON) perfbench/run.py --workload hotkey-vector-mixed --seconds 2
	$(PYTHON) perfbench/run.py --workload churn-tloc-updates --seconds 2

# bench_*.py does not match pytest's default test-file pattern, so the files
# must be named explicitly (a bare `pytest benchmarks` collects nothing).
bench:
	REPRO_BENCH_MANIFEST=BENCH_full.json $(PYTHON) -m pytest -q benchmarks/bench_*.py

# Profile the host wall-clock of a standard serve-sim workload so perf PRs
# start from data rather than guesses; prints the top-20 functions by
# cumulative time and leaves the raw stats in profile.out.
profile:
	$(PYTHON) -m cProfile -o profile.out -m repro.cli serve-sim \
		--dataset vector --cardinality 6000 --clients 8 --rate 200000 \
		--duration 4e-3 --max-batch 128
	$(PYTHON) -c "import pstats; pstats.Stats('profile.out').sort_stats('cumulative').print_stats(20)"

# Profile the update path: an insert-heavy stream over a small cache with
# non-blocking generation-swap maintenance, so rebuild slices show up in the
# profile instead of monolithic stop-the-world builds.
profile-updates:
	$(PYTHON) -m cProfile -o profile_updates.out -m repro.cli serve-sim \
		--dataset tloc --cardinality 8000 --clients 8 --rate 200000 \
		--duration 4e-3 --max-batch 128 --update-heavy --cache-kb 0.5 \
		--maintenance
	$(PYTHON) -c "import pstats; pstats.Stats('profile_updates.out').sort_stats('cumulative').print_stats(20)"

# Profile index construction: repeated tiered 2-shard builds of 20,000 tloc
# points (the out-of-core serving workload's set-up), so partitioning,
# level kernels and build-time paging show up by self time; leaves the raw
# stats in profile_build.out.
profile-build:
	$(PYTHON) -m cProfile -o profile_build.out benchmarks/profile_build.py
	$(PYTHON) -c "import pstats; pstats.Stats('profile_build.out').sort_stats('tottime').print_stats(20)"

# Profile request serving on one serving-benchmark workload (perfbench/
# workloads.py, read-only): every stream's index is built outside the
# profile, then GTSService.serve runs under cProfile; prints the top 25
# functions by self time and leaves the raw stats in profile_serve.out.
WORKLOAD ?= hotkey-vector-mixed
profile-serve:
	$(PYTHON) benchmarks/profile_serve.py $(WORKLOAD)

# Host cost of a sharded kNN query as the shard count grows: ShardedGTS over
# 40,000 tloc points at 1, 2, 4 and 8 shards, resident and tiered, timed at
# batch 1 and batch 16; prints the median and quartiles of host us per query
# (reports, asserts nothing).
profile-shards:
	$(PYTHON) benchmarks/profile_shards.py

lint:
	$(PYTHON) -m compileall -q src tests benchmarks examples perfbench tools
	$(PYTHON) tools/check_imports.py src
	$(PYTHON) tools/check_dead_private.py src --refs tests benchmarks perfbench examples tools
	$(PYTHON) -c "import repro; print('import ok:', repro.__version__)"

example:
	$(PYTHON) examples/quickstart.py

examples:
	@set -e; for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHON) $$script; \
	done
