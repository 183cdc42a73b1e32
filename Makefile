# Convenience targets; `make check` is the pre-commit gate.

.PHONY: all check test bench bench-json bench-smoke obs-demo obs-live-demo obs-history-demo objective-demo clean

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
# two subset queries, and the artifact diff (1.5x quantile gate) must not
# flag the fused side against the two-query baseline.  Artifacts land under
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
	@test -s _obs/demo/a/metrics.prom
	@grep -q '"optprob-metrics/2"' _obs/demo/a/metrics.json
	dune exec bin/main.exe -- obs diff _obs/demo/a _obs/demo/b \
	  --max-span-ratio 10 --max-quantile-ratio 10 --max-counter-ratio 10
	@echo "obs-demo: _obs/demo/{a,b} ok"

# Live-telemetry demo: one run with the background sampler, per-domain
# scheduler tracks (OPTPROB_JOBS_OVERCOMMIT lifts the core clamp so real
# worker domains exist even on 1-core CI) and the HTTP endpoint, scraped
# mid-run with curl.  OPTPROB_OBS_LINGER_MS keeps /metrics answering
# briefly after the run ends so the scrapes cannot race a fast finish.
obs-live-demo:
	rm -rf _obs/live
	mkdir -p _obs/live
	OPTPROB_JOBS_OVERCOMMIT=1 OPTPROB_OBS_LINGER_MS=6000 \
	  dune exec bin/main.exe -- run c6288ish --patterns 20000 --jobs 4 \
	  --obs-sample-ms 25 --obs-dir _obs/live --obs-listen 8377 \
	  2> _obs/live/run.err & \
	pid=$$!; \
	up=0; for i in $$(seq 1 100); do \
	  if curl -fsS http://127.0.0.1:8377/healthz 2>/dev/null | grep -q ok; then up=1; break; fi; \
	  sleep 0.2; \
	done; \
	test $$up -eq 1 || { echo "obs-live-demo FAIL: /healthz never came up"; cat _obs/live/run.err; exit 1; }; \
	curl -fsS http://127.0.0.1:8377/metrics > _obs/live/metrics.live.prom || exit 1; \
	grep -q '^optprob_' _obs/live/metrics.live.prom || { echo "obs-live-demo FAIL: /metrics empty"; exit 1; }; \
	curl -fsS http://127.0.0.1:8377/snapshot | grep -q 'optprob-metrics/2' || { echo "obs-live-demo FAIL: /snapshot"; exit 1; }; \
	wait $$pid || { echo "obs-live-demo FAIL: run exited nonzero"; cat _obs/live/run.err; exit 1; }
	@test -s _obs/live/timeline.json
	@grep -q '"optprob-timeline/1"' _obs/live/timeline.json
	@grep -q '"samples"' _obs/live/timeline.json
	@grep -q 'pool.d1' _obs/live/trace.json || { echo "obs-live-demo FAIL: no per-domain tracks"; exit 1; }
	dune exec bin/main.exe -- obs diff _obs/live _obs/live -q
	@echo "obs-live-demo: live /metrics + /healthz + /snapshot, timeline and per-domain tracks ok"

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

# Objective cache-separation gate: the same circuit and work dir under
# --objective single, then ndetect:2.  The n-detect run must reuse the
# circuit/fault/analysis stages but re-run everything the objective keys
# (normalized onward); a repeat ndetect:2 run is then a full cache hit —
# distinct objectives occupy distinct store keys with no cross-hits in
# either direction.
objective-demo:
	rm -rf _obs/objective-demo
	dune exec bin/main.exe -- run s1 --engine cond:8 --sweeps 2 -q \
	  --objective single --work-dir _obs/objective-demo/work \
	  --obs-dir _obs/objective-demo/single
	dune exec bin/main.exe -- run s1 --engine cond:8 --sweeps 2 -q \
	  --objective ndetect:2 --work-dir _obs/objective-demo/work \
	  --obs-dir _obs/objective-demo/nd
	@for s in loaded opt_netlist faults analysis; do \
	  grep -q "\"pipeline.stage.$$s.cache_hit\": 1" _obs/objective-demo/nd/metrics.json || \
	    { echo "objective-demo FAIL: stage $$s not shared across objectives"; exit 1; }; \
	done
	@for s in normalized optimized validated report; do \
	  grep -q "\"pipeline.stage.$$s.run\": 1" _obs/objective-demo/nd/metrics.json || \
	    { echo "objective-demo FAIL: stage $$s cross-hit between objectives"; exit 1; }; \
	done
	dune exec bin/main.exe -- run s1 --engine cond:8 --sweeps 2 -q \
	  --objective ndetect:2 --work-dir _obs/objective-demo/work \
	  --obs-dir _obs/objective-demo/nd2
	@for s in loaded opt_netlist faults analysis normalized optimized validated report; do \
	  grep -q "\"pipeline.stage.$$s.cache_hit\": 1" _obs/objective-demo/nd2/metrics.json || \
	    { echo "objective-demo FAIL: repeat n-detect run not fully cached"; exit 1; }; \
	done
	@grep -q '"objective": "ndetect:2"' _obs/objective-demo/nd/manifest.json || \
	  { echo "objective-demo FAIL: manifest missing the objective"; exit 1; }
	@grep -q '"objective.ndetect_2.runs"' _obs/objective-demo/nd/metrics.json || \
	  { echo "objective-demo FAIL: per-objective run counter missing"; exit 1; }
	@echo "objective-demo: objectives share upstream stages, separate downstream keys"

clean:
	dune clean
