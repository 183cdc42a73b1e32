# Convenience targets; `make check` is the pre-commit gate.

.PHONY: all check test bench bench-json bench-smoke obs-demo obs-history-demo clean

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
# not exceed 1.0, and the artifact diff (1.5x quantile gate) must not flag
# the fused side against the two-query baseline.  Artifacts land under
# _obs/smoke/{baseline,fused} for upload or manual `optprob obs diff`.
# The finished run is also ingested into the run registry (second arg) and
# gated against the promoted baseline record there — the first run ever
# bootstrap-promotes itself.
bench-smoke:
	dune exec bench/smoke.exe -- _obs/smoke _obs/registry

# End-to-end artifact demo: two identical optimize runs under --obs-dir,
# then `obs diff` between them.  Thresholds are deliberately loose (10x) —
# the demo proves the plumbing (manifest, metrics, histograms, diff), not
# machine speed, so CI timer noise cannot flake it.
obs-demo:
	dune exec bin/main.exe -- optimize s1 --engine cond:8 --sweeps 2 \
	  --obs-dir _obs/demo/a
	dune exec bin/main.exe -- optimize s1 --engine cond:8 --sweeps 2 \
	  --obs-dir _obs/demo/b
	@test -s _obs/demo/a/manifest.json
	@test ! -e _obs/demo/a/metrics.prom
	@test ! -e _obs/demo/a/events.jsonl
	@grep -q '"optprob-metrics/2"' _obs/demo/a/metrics.json
	dune exec bin/main.exe -- obs diff _obs/demo/a _obs/demo/b \
	  --max-span-ratio 10 --max-quantile-ratio 10 --max-counter-ratio 10
	@echo "obs-demo: _obs/demo/{a,b} ok"

# Longitudinal-history demo and acceptance gate for the run registry:
# three identical pipeline runs auto-ingest into a fresh registry, which
# must then list exactly 3 records, render a 3-point pipeline.total_us
# trend with a sparkline, and baseline-diff the newest run against the
# promoted first one through the registry.  Thresholds are deliberately
# loose (10x) — the demo proves the plumbing, not machine speed.
obs-history-demo:
	rm -rf _obs/history-demo
	for i in 1 2 3; do \
	  dune exec bin/main.exe -- run s1 --engine cond:8 --sweeps 2 -q \
	    --obs-dir _obs/history-demo/run$$i \
	    --obs-registry _obs/history-demo/registry || exit 1; \
	done
	@n=$$(dune exec bin/main.exe -- obs list --ids \
	  --obs-registry _obs/history-demo/registry | wc -l); \
	  test "$$n" -eq 3 || { echo "obs-history-demo FAIL: expected 3 records, got $$n"; exit 1; }
	dune exec bin/main.exe -- obs trend pipeline.total_us \
	  --obs-registry _obs/history-demo/registry | tee /tmp/optprob-history-trend.out
	@grep -q '3 point(s)' /tmp/optprob-history-trend.out || \
	  { echo "obs-history-demo FAIL: trend is not a 3-point series"; exit 1; }
	@grep -q 'spark:' /tmp/optprob-history-trend.out || \
	  { echo "obs-history-demo FAIL: no sparkline"; exit 1; }
	first=$$(dune exec bin/main.exe -- obs list --ids \
	  --obs-registry _obs/history-demo/registry | head -n 1); \
	  dune exec bin/main.exe -- obs baseline promote $$first \
	    --obs-registry _obs/history-demo/registry
	dune exec bin/main.exe -- obs diff --baseline \
	  --obs-registry _obs/history-demo/registry \
	  --max-span-ratio 10 --max-quantile-ratio 10 --max-counter-ratio 10
	@echo "obs-history-demo: 3 ingested runs, 3-point trend, baseline diff ok"

clean:
	dune clean
