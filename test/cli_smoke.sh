#!/bin/sh
# CLI smoke test: drives the optprob binary end to end.
#
#   1. `run --objective single` twice against one --work-dir, each writing an
#      --obs-dir artifact of exactly four documents; `obs diff A B -q` on the
#      two directories exits 0, and a side that is not an artifact
#      directory exits 124 with a message naming it;
#   2. `run --objective ndetect:2` against the same work dir shares the four
#      upstream stages and re-runs the four downstream ones; a repeat is a
#      full cache hit; the manifest and the per-objective counter record it;
#   3. `atpg` on a .bench file succeeds, and `simulate` prints its pinned
#      coverage and undetected fault, at the default settings and at
#      --jobs 3 --block-words 8;
#   4. removed flags (`--trace FILE`, the live-telemetry pair
#      `--obs-{listen,sample-ms} N` and `--obs-registry DIR`), the removed
#      `tables` and `selftest` subcommands and the removed `obs list` and
#      `obs trend` are usage errors;
#   5. an out-of-range --confidence, --patterns, --grid, --dyadic,
#      --sweeps or cond:K engine exits 124 with a message;
#   6. a malformed .bench file (undeclared signal, cycle, duplicate, wrong
#      arity, no OUTPUT) exits 124 with a FILE:LINE: message.
#
# Usage: cli_smoke.sh OPTPROB C17_BENCH   (run by `dune runtest`)
set -eu

optprob=$1
c17=$2
dir=cli-smoke.out
rm -rf "$dir"
mkdir "$dir"

fail() {
  echo "cli_smoke FAIL: $*" >&2
  exit 1
}

run() {
  "$optprob" run wide_and-8 --sweeps 1 -q --work-dir "$dir/work" "$@" >/dev/null 2>&1
}

run --objective single --obs-dir "$dir/a"
run --objective single --obs-dir "$dir/b"
[ "$(ls "$dir/a")" = "$(printf 'convergence.json\nmanifest.json\nmetrics.json\ntrace.json')" ] ||
  fail "run --obs-dir wrote other than the four documents: $(ls "$dir/a" | tr '\n' ' ')"
"$optprob" obs diff "$dir/a" "$dir/b" -q
rc=0
"$optprob" obs diff nosuch "$dir/b" 2>"$dir/nosuch.err" || rc=$?
if [ "$rc" -ne 124 ] || ! grep -q "nosuch: missing or unreadable metrics.json" "$dir/nosuch.err"; then
  cat "$dir/nosuch.err" >&2
  fail "obs diff on an unknown side did not fail cleanly (exit $rc)"
fi

# Objectives key the stages from normalized onward: distinct objectives
# share the upstream stages and never cross-hit downstream.
run --objective ndetect:2 --obs-dir "$dir/nd"
for s in loaded opt_netlist faults analysis; do
  grep -q "\"pipeline.stage.$s.cache_hit\": 1" "$dir/nd/metrics.json" ||
    fail "stage $s not shared across objectives"
done
for s in normalized optimized validated report; do
  grep -q "\"pipeline.stage.$s.run\": 1" "$dir/nd/metrics.json" ||
    fail "stage $s cross-hit between objectives"
done
run --objective ndetect:2 --obs-dir "$dir/nd2"
for s in loaded opt_netlist faults analysis normalized optimized validated report; do
  grep -q "\"pipeline.stage.$s.cache_hit\": 1" "$dir/nd2/metrics.json" ||
    fail "repeat ndetect:2 run not fully cached (stage $s)"
done
grep -q '"objective": "ndetect:2"' "$dir/nd/manifest.json" ||
  fail "manifest missing the objective"
grep -q '"objective.ndetect_2.runs"' "$dir/nd/metrics.json" ||
  fail "per-objective run counter missing"

"$optprob" atpg "$c17" >/dev/null

expected_sim=$(printf 'patterns: 2000  faults: 280  coverage: 99.64%%\nundetected:\n  n19->n22[0] s-a-1')
for flags in "" "--jobs 3 --block-words 8"; do
  # shellcheck disable=SC2086
  got=$("$optprob" simulate c6288ish:4 -n 2000 $flags)
  [ "$got" = "$expected_sim" ] || fail "simulate c6288ish:4 -n 2000 $flags printed: $got"
done

rejected() {
  rc=0
  "$optprob" optimize wide_and-8 "$1" "$2" >/dev/null 2>"$dir/flag.err" || rc=$?
  if [ "$rc" -ne 124 ] || ! grep -q "unknown option '$1'" "$dir/flag.err"; then
    cat "$dir/flag.err" >&2
    fail "$1 was not rejected as a usage error (exit $rc)"
  fi
}
rejected --trace "$dir/x.json"
for flag in listen:0 sample-ms:5 registry:"$dir/reg"; do
  rejected "--obs-${flag%%:*}" "${flag#*:}"
done
for sub in tables selftest "obs list" "obs trend"; do
  rc=0
  # shellcheck disable=SC2086 # "obs list" splits into a command and subcommand
  "$optprob" $sub >/dev/null 2>&1 || rc=$?
  [ "$rc" -eq 124 ] || fail "the removed $sub subcommand exited $rc, not 124"
done

for arg in --confidence=1.5 --confidence=0 --confidence=nan --patterns=-5 --grid=2.0 \
  --dyadic=0 --sweeps=-1; do
  rc=0
  "$optprob" analyze "$c17" -e cop "$arg" >/dev/null 2>"$dir/range.err" || rc=$?
  if [ "$rc" -ne 124 ] || ! grep -q "must be" "$dir/range.err"; then
    cat "$dir/range.err" >&2
    fail "$arg was not rejected with exit 124 and a message (exit $rc)"
  fi
done

# The conditioned engine expands 2^K assignments; K above 16 is a usage error.
rc=0
"$optprob" analyze "$c17" -e cond:17 >/dev/null 2>"$dir/range.err" || rc=$?
if [ "$rc" -ne 124 ] || ! grep -q "K must be in \[1, 16\]" "$dir/range.err"; then
  cat "$dir/range.err" >&2
  fail "-e cond:17 was not rejected with exit 124 and a message (exit $rc)"
fi

# The exact engine packs node ids into 23 bits; a node limit above 2^23 is a
# usage error.
rc=0
"$optprob" analyze "$c17" -e bdd:8388609 >/dev/null 2>"$dir/range.err" || rc=$?
if [ "$rc" -ne 124 ] || ! grep -q "nodes must be in \[1, 8388608\]" "$dir/range.err"; then
  cat "$dir/range.err" >&2
  fail "-e bdd:8388609 was not rejected with exit 124 and a message (exit $rc)"
fi

# Each file's defect is on line 3; the last one declares no OUTPUT.
for bad in 'OUTPUT(b)\nb = AND(a, c)' 'OUTPUT(b)\nb = AND(b, a)' 'OUTPUT(b)\nINPUT(a)' \
  'OUTPUT(b)\nb = NOT(a, a)' 'b = NOT(a)\nc = NOT(b)'; do
  f="$dir/bad.bench"
  printf 'INPUT(a)\n%b\n' "$bad" >"$f"
  rc=0
  "$optprob" generate "$f" >/dev/null 2>"$dir/bad.err" || rc=$?
  if [ "$rc" -ne 124 ] || ! grep -q "$f:3: " "$dir/bad.err"; then
    cat "$dir/bad.err" >&2
    fail "malformed .bench line '$bad' did not exit 124 with $f:3: (exit $rc)"
  fi
done

rm -rf "$dir"
