#!/usr/bin/env python3
"""Alternating end-to-end pairs: a parent revision against this checkout.

Run from the root of an optprob checkout:

    python3 bench/e2e_pairs.py --workload optimize-cop --parent HEAD --pairs 10 --seconds 6
    python3 bench/e2e_pairs.py --workload all --parent HEAD --pairs 10 --seconds 6

Builds bench/e2e/main.exe here and in the parent revision, which is
checked out with `git worktree add --detach` into a temporary directory
and removed at the end (--parent-dir names an existing checkout instead).
Pair i runs `main.exe --workload W --seconds T --seed S+i` on both sides,
one after the other, the side that goes first alternating from pair to
pair, so a slow phase of a shared host falls on both sides alike.  It
prints each side's median and quartiles of run_s and how many pairs the
change won (lower run_s).

Then one run per side at a fixed --reps reads heap_peak_mb: in a timed
run a faster side makes more reps and so sees more heap peaks, so the
heap is only comparable at equal work.

--workload all runs every workload BENCHMARK.json declares, in its
order, against the one parent build.  Every invocation ends with one row
per workload and side: the medians of run_s and setup_s over the pairs
and heap_peak_mb at --heap-reps, so every gated metric shows at once.

`make e2e-pairs` wraps this script.  Exit code 0 when every run
succeeded, 1 when one failed or reported failed reps, 2 on a usage error.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

MAIN = os.path.join("_build", "default", "bench", "e2e", "main.exe")


def build(root):
    subprocess.run(
        ["dune", "build", "--root", root, "--display", "quiet", "./bench/e2e/main.exe"],
        check=True,
        stdout=sys.stderr,
    )
    return os.path.join(root, MAIN)


def run(exe, workload, extra):
    """One main.exe run; returns its metrics, or None when it failed."""
    argv = [exe, "--workload", workload, "--probes", "1", "--strict"] + extra
    p = subprocess.run(argv, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        return None
    result = json.loads(lines[-1])
    if not result.get("correct", False) or result.get("failed", 1) != 0:
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def benchmark_workloads():
    with open("BENCHMARK.json") as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def compare(exes, workload, args):
    """The pairs and the heap run of one workload, printed as they come;
    returns (summary row per side, pairs won, pairs, every run succeeded)."""
    ok = True
    run_s = {"parent": [], "change": []}
    setup_s = {"parent": [], "change": []}
    won = 0
    for i in range(args.pairs):
        seed = args.seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        got = {}
        for side in order:
            m = run(exes[side], workload,
                    ["--seconds", f"{args.seconds:g}", "--seed", str(seed)])
            if m is None:
                print(f"{workload} pair {i}: the {side} run failed", file=sys.stderr)
                ok = False
            else:
                got[side] = m
        if len(got) == 2:
            for side in got:
                run_s[side].append(got[side]["run_s"])
                setup_s[side].append(got[side]["setup_s"])
            won += got["change"]["run_s"] < got["parent"]["run_s"]
            print(f"pair {i} seed {seed}: parent {got['parent']['run_s']:.5f}  "
                  f"change {got['change']['run_s']:.5f}", flush=True)
    n = len(run_s["parent"])
    print(f"{workload} run_s, {n} pairs of {args.seconds:g} s, seeds "
          f"{args.seed}..{args.seed + args.pairs - 1}")
    if n >= 2:
        stats = {side: quartiles(xs) for side, xs in run_s.items()}
        for side in ("parent", "change"):
            q1, med, q3 = stats[side]
            print(f"  {side:6}  median {med:.5f}  q1 {q1:.5f}  q3 {q3:.5f}  "
                  f"iqr {q3 - q1:.5f}")
        gap = stats["change"][1] - stats["parent"][1]
        iqr = stats["parent"][2] - stats["parent"][0]
        print(f"  change won {won}/{n} pairs; median gap {gap:+.5f} "
              f"({100 * gap / stats['parent'][1]:+.1f}%), parent iqr {iqr:.5f}")
    heap = {}
    for side in ("parent", "change"):
        m = run(exes[side], workload, ["--reps", str(args.heap_reps), "--seed", str(args.seed)])
        if m is None:
            print(f"{workload}: the {side} heap run failed", file=sys.stderr)
            ok = False
        else:
            heap[side] = m["heap_peak_mb"]
    if len(heap) == 2:
        print(f"heap_peak_mb at --reps {args.heap_reps}: parent {heap['parent']:.3f}  "
              f"change {heap['change']:.3f}", flush=True)
    row = {side: (median(run_s[side]), median(setup_s[side]), heap.get(side, float("nan")))
           for side in ("parent", "change")}
    return row, won, n, ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="a workload of bench/e2e, or all for every BENCHMARK.json workload")
    ap.add_argument("--parent", default="HEAD", help="git revision to compare against (HEAD)")
    ap.add_argument("--parent-dir", help="an existing checkout of the parent instead")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=6.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--heap-reps", type=int, default=200, help="fixed reps of the heap run")
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    if not (os.path.isfile("dune-project") and os.path.isdir("lib/pipeline")):
        ap.error("run from the root of an optprob checkout")
    workloads = benchmark_workloads() if args.workload == "all" else [args.workload]

    worktree = None
    if args.parent_dir:
        parent_root = args.parent_dir
    else:
        worktree = tempfile.mkdtemp(prefix="optprob-parent-")
        os.rmdir(worktree)
        subprocess.run(
            ["git", "worktree", "add", "--detach", "--quiet", worktree, args.parent],
            check=True,
        )
        parent_root = worktree
    ok = True
    rows = []
    try:
        exes = {"parent": build(parent_root), "change": build(".")}
        for w in workloads:
            row, won, n, w_ok = compare(exes, w, args)
            rows.append((w, row, won, n))
            ok = ok and w_ok
        print(f"medians over the pairs; heap_peak_mb at --reps {args.heap_reps}")
        print(f"{'workload':16} {'side':6} {'run_s':>9} {'setup_s':>9} {'heap_peak_mb':>12}  won")
        for w, row, won, n in rows:
            for side in ("parent", "change"):
                r, s, h = row[side]
                tail = f"  {won}/{n}" if side == "change" else ""
                print(f"{w:16} {side:6} {r:9.5f} {s:9.5f} {h:12.3f}{tail}")
    finally:
        if worktree:
            subprocess.run(["git", "worktree", "remove", "--force", worktree], check=False)
            shutil.rmtree(worktree, ignore_errors=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
