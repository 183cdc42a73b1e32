#!/bin/sh
# CLI smoke test: drives the optprob binary end to end.
#
#   1. `run` twice against one --work-dir, each writing an --obs-dir artifact;
#   2. `obs diff A B -q` on the two artifact directories exits 0;
#   3. `atpg` on a .bench file succeeds;
#   4. a removed flag (`optimize --trace FILE`) is a usage error.
#
# Usage: cli_smoke.sh OPTPROB C17_BENCH   (run by `dune runtest`)
set -eu

optprob=$1
c17=$2
dir=cli-smoke.out
rm -rf "$dir"
mkdir "$dir"

"$optprob" run wide_and-8 --sweeps 1 -q --work-dir "$dir/work" --obs-dir "$dir/a" >/dev/null 2>&1
"$optprob" run wide_and-8 --sweeps 1 -q --work-dir "$dir/work" --obs-dir "$dir/b" >/dev/null 2>&1
"$optprob" obs diff "$dir/a" "$dir/b" -q

"$optprob" atpg "$c17" >/dev/null

rc=0
"$optprob" optimize wide_and-8 --trace "$dir/x.json" >/dev/null 2>"$dir/trace.err" || rc=$?
if [ "$rc" -ne 124 ] || ! grep -q "unknown option '--trace'" "$dir/trace.err"; then
  echo "cli_smoke FAIL: --trace was not rejected as a usage error (exit $rc)" >&2
  cat "$dir/trace.err" >&2
  exit 1
fi

rm -rf "$dir"
