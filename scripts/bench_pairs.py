#!/usr/bin/env python3
"""Alternating parent/change pairs of the unchanged benchmark, into one file.

    python3 scripts/bench_pairs.py --parent REV [--change REV]
        [--workloads cm,isogeny,orbits] [--seed 1] [--trace isogeny]
        [--out BENCH.json] [--note TEXT]

Each side is the committed tree of its revision, extracted with
`git archive` into its own directory, so neither sees uncommitted files or
the other's `perfbench/out/`.  Each of PAIRS pairs runs every workload
once on each side, `perfbench/run.py --workload W --seed S --trace 0`,
for the run length the benchmark sets itself; the parent runs first in
even pairs and the change first in odd ones.  Then
each side runs `--trace 1` once per workload named by --trace, and its
per-layer counts are kept.

The output holds every pair's end-to-end metrics, and per workload and
metric the medians and quartiles of both sides, the parent's quartile
distance, the relative change of the median, the pairs the change won
(lower is better for every metric), and whether the gap between the
medians exceeds the parent's quartile distance.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = ("setup_s", "wall_s", "op_p50_ms", "peak_rss_mb")
PAIRS = 10


def _git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def _checkout(rev, dest):
    """The committed files of rev, extracted under dest."""
    os.makedirs(dest)
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                             check=True, stdout=subprocess.PIPE).stdout
    with tempfile.TemporaryFile() as handle:
        handle.write(archive)
        handle.seek(0)
        with tarfile.open(fileobj=handle) as tar:
            tar.extractall(dest)
    return dest


def _run(tree, workload, seed, trace):
    """The JSON object on the last line of run.py's stdout."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench_pairs: {workload} in {tree} exited "
                 f"{proc.returncode}")
    return json.loads(lines[-1])


def _summary(pairs):
    out = {}
    for metric in METRICS:
        parent = [p["parent"][metric] for p in pairs]
        change = [p["change"][metric] for p in pairs]
        pq1, pmed, pq3 = statistics.quantiles(parent, n=4)
        cq1, cmed, cq3 = statistics.quantiles(change, n=4)
        out[metric] = {
            "parent_median": round(pmed, 6), "parent_q1": round(pq1, 6),
            "parent_q3": round(pq3, 6),
            "change_median": round(cmed, 6), "change_q1": round(cq1, 6),
            "change_q3": round(cq3, 6),
            "parent_iqr": round(pq3 - pq1, 6),
            "median_change_rel": round(cmed / pmed - 1, 4),
            "pairs_won_by_change": sum(c < p for p, c in zip(parent, change)),
            "pairs_tied": sum(c == p for p, c in zip(parent, change)),
            "pairs": len(pairs),
            "gap_exceeds_parent_iqr": pmed - cmed > pq3 - pq1,
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--workloads", default="cm,isogeny,orbits")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", default="isogeny",
                        help="workloads to trace once per side ('' for none)")
    parser.add_argument("--out", default="BENCH.json")
    parser.add_argument("--note", default="")
    args = parser.parse_args(argv)
    workloads = [w for w in args.workloads.split(",") if w]
    traced = [w for w in args.trace.split(",") if w]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bounds = {m["name"]: m["bound"]
                  for m in json.load(handle)["end_to_end"]}
    revs = {"parent": _git("rev-parse", "--short", args.parent),
            "change": _git("rev-parse", "--short", args.change)}
    result = {
        "change": args.note, "parent": revs["parent"],
        "change_rev": revs["change"],
        "method": (f"python3 perfbench/run.py --workload W --seed "
                   f"{args.seed} --trace 0, unchanged, from the committed "
                   f"files of each revision (git archive), {PAIRS} pairs, "
                   f"the side that runs first alternating by pair; workloads "
                   f"{', '.join(workloads)} in that order within a pair"),
        "metric_direction": "lower is better for every metric",
        "bounds": bounds,
        "workloads": {},
        "traced": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as work:
        trees = {side: _checkout(rev, os.path.join(work, side))
                 for side, rev in revs.items()}
        pairs = {w: [] for w in workloads}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for w in workloads:
                row = {"pair": i, "first": order[0]}
                for side in order:
                    res = _run(trees[side], w, args.seed, 0)
                    row[side] = {k: v["value"]
                                 for k, v in res["metrics"].items()}
                    row[side].update(attempted=res["attempted"],
                                     failed=res["failed"])
                pairs[w].append(row)
                print(f"pair {i} {w}: " + ", ".join(
                    f"{side} wall_s {row[side]['wall_s']:.4f}"
                    for side in order), flush=True)
        for w in workloads:
            result["workloads"][w] = {"pairs": pairs[w],
                                      "summary": _summary(pairs[w])}
        for w in traced:
            result["traced"][w] = {
                "command": f"python3 perfbench/run.py --workload {w} "
                           f"--seed {args.seed} --trace 1",
                **{side: {k: v["value"] for k, v in _run(
                    trees[side], w, args.seed, 1)["metrics"].items()}
                   for side in revs}}
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=1)
        handle.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
