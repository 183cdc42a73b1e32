# Convenience targets; `make check` is the pre-commit gate.

.PHONY: all check test bench bench-json bench-smoke e2e-pairs obs-demo clean

all:
	dune build

check:
	dune build && dune runtest

test:
	dune runtest

bench:
	dune exec bench/main.exe

bench-json:
	dune exec bench/main.exe -- --json

# Fast perf/correctness gate for the fused cofactor path: bit-identical to
# two subset queries, the median of paired fused/baseline sweep ratios must
# not exceed 1.0, and the artifact diff (1.5x gate on the exact p50/p99 of
# the timed sweep spans) must not flag the fused side against the
# two-query baseline.  Artifacts land under
# _obs/smoke/{baseline,fused} for upload or manual `optprob obs diff`.
bench-smoke:
	dune exec bench/smoke.exe -- _obs/smoke

# Alternating end-to-end pairs of this checkout against a parent revision
# built in a temporary git worktree: N pairs of `main.exe --workload W
# --seconds T` at seeds S+i, run_s median, quartiles and pairs won per
# side, then heap_peak_mb at REPS reps, and one summary row per workload
# and side (run_s, setup_s, heap_peak_mb).  W=all runs every workload of
# BENCHMARK.json against the one parent build.  PARENT=HEAD compares
# uncommitted changes, PARENT=HEAD~1 the last commit.
W ?= optimize-cop
PARENT ?= HEAD
N ?= 10
T ?= 6
S ?= 1
REPS ?= 200
e2e-pairs:
	python3 bench/e2e_pairs.py --workload $(W) --parent $(PARENT) --pairs $(N) \
	  --seconds $(T) --seed $(S) --heap-reps $(REPS)

# End-to-end artifact demo: two identical optimize runs under --obs-dir,
# then `obs diff` between them.  Thresholds are deliberately loose (10x) —
# the demo proves the plumbing (manifest, metrics, span quantiles, diff),
# not machine speed, so CI timer noise cannot flake it.
obs-demo:
	dune exec bin/main.exe -- optimize s1 --engine cond:8 --sweeps 2 \
	  --obs-dir _obs/demo/a
	dune exec bin/main.exe -- optimize s1 --engine cond:8 --sweeps 2 \
	  --obs-dir _obs/demo/b
	@test -s _obs/demo/a/manifest.json
	@test ! -e _obs/demo/a/metrics.prom
	@test ! -e _obs/demo/a/events.jsonl
	@grep -q '"optprob-metrics/4"' _obs/demo/a/metrics.json
	@! grep -q '"histograms"' _obs/demo/a/metrics.json
	@! grep -q '"gauges"' _obs/demo/a/metrics.json
	dune exec bin/main.exe -- obs diff _obs/demo/a _obs/demo/b \
	  --max-span-ratio 10 --max-quantile-ratio 10 --max-counter-ratio 10
	@echo "obs-demo: _obs/demo/{a,b} ok"

clean:
	dune clean
