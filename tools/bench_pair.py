"""Paired benchmark runs of a parent revision and the working tree.

    python3 tools/bench_pair.py --parent HEAD --pr 18 --pairs 10 --seed 6029 \
        --claim council-replay:op_ms.p50 --description "what the change does"

For every workload in BENCHMARK.json, it runs `perfbench/run.py --trace 0`
on a copy of the parent revision and on the working tree, for
BENCHMARK.json's `run_seconds` a run, N pairs in alternating order: even-numbered pairs (from 0) run the parent first, odd
ones the change first.  Before the pairs, one short discarded run per side
and workload fills `.perfbench_cache`.

The parent copy is the revision's committed files, extracted with `git
archive` into a temporary directory that is removed when the runs end, so
the parent side runs exactly what the revision holds and the repository's
`.git` is left as it was.

It writes `BENCH_<pr>.json` at the root of the working tree: per workload
and end-to-end metric, each side's runs and quartiles, the number of pairs
the change won and the change of the median, plus the claim's verdict when
--claim names one.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
WARMUP_S = 3.0  # the discarded run per side and workload
MIN_PAIRS = 10  # a claim needs at least this many pairs


def quartiles(runs: list[float]) -> dict:
    """q1, median and q3 by statistics.quantiles(method='inclusive'), and the runs."""
    if len(runs) > 1:
        q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    else:
        q1 = median = q3 = runs[0]
    return {"q1": round(q1, 6), "median": round(median, 6), "q3": round(q3, 6),
            "runs": [round(x, 6) for x in runs]}


def summarize(unit: str, better: str, parent: list[float], change: list[float]) -> dict:
    """One metric over paired runs: parent[k] and change[k] ran as pair k.

    A pair counts for the change when its value is strictly better in the
    metric's direction.  `median_change_pct` is the change of the median
    against the parent's, in percent to one decimal; None when the parent's
    median is 0 and the change's is not.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError(f"need equally many runs per side, got {len(parent)} and {len(change)}")
    if better not in ("lower", "higher"):
        raise ValueError(f"unknown direction {better!r}")
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    before, after = statistics.median(parent), statistics.median(change)
    if before:
        pct = round(100 * (after - before) / before, 1)
    else:
        pct = 0.0 if after == before else None
    return {"unit": unit, "parent": quartiles(parent), "change": quartiles(change),
            "change_better_in_pairs": wins, "median_change_pct": pct}


def claim_verdict(report: dict, metric: str, better: str) -> str:
    """Met when at least MIN_PAIRS pairs ran, both sides passed their
    correctness gates, the change failed no more operations than the parent,
    and on `metric` the change wins at least 9 in 10 of the pairs with a
    median that beats the parent's by more than the parent's quartile spread."""
    summary = report["metrics"][metric]
    pairs = len(summary["parent"]["runs"])
    wins = summary["change_better_in_pairs"]
    before, after = summary["parent"]["median"], summary["change"]["median"]
    gap = (before - after) if better == "lower" else (after - before)
    spread = summary["parent"]["q3"] - summary["parent"]["q1"]
    faults = []
    if pairs < MIN_PAIRS:
        faults.append(f"fewer than {MIN_PAIRS} pairs")
    failed = report["failed"]
    if failed["change"] > failed["parent"]:
        faults.append(f"the change failed {failed['change']} operations, "
                      f"the parent {failed['parent']}")
    for side in SIDES:
        if not report["correct"][side]:
            faults.append(f"a {side} run failed its correctness gate")
    met = not faults and wins >= math.ceil(0.9 * pairs) and gap > spread
    pct = summary["median_change_pct"]
    unit = summary["unit"]
    return (f"{'met' if met else 'not met'}: the change wins {wins} of {pairs} pairs; "
            f"median {before:.3f} -> {after:.3f} {unit} "
            f"({'n/a' if pct is None else f'{pct:+.1f} %'}), a gap of "
            f"{gap:.3f} {unit} against a parent quartile spread of {spread:.3f} {unit}"
            + "".join(f"; {fault}" for fault in faults))


def parse_run(stdout: str) -> dict:
    """The JSON object `perfbench/run.py` prints as its last line."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the benchmark printed nothing")
    report = json.loads(lines[-1])
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {name: m["value"] for name, m in report["metrics"].items()}}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode not in (0, 1):  # 1: a correctness gate failed, still reported
        raise RuntimeError(f"{workload} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return parse_run(proc.stdout)


def extract(rev: str, into: Path) -> str:
    """Write the committed files of `rev` under `into`; returns its full hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    archive = into.parent / "parent.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, stdout=fh, check=True)
    with tarfile.open(archive) as tar:
        # The "data" filter (Python 3.11.4+) refuses links and paths that leave `into`.
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    archive.unlink()
    return sha


def workload_report(runs: dict[str, list[dict]], declared: list[dict]) -> dict:
    """Summaries of every declared end-to-end metric over one workload's pairs."""
    metrics = {m["name"]: summarize(m["unit"], m["better"],
                                    [r["metrics"][m["name"]] for r in runs["parent"]],
                                    [r["metrics"][m["name"]] for r in runs["change"]])
               for m in declared}
    return {"pairs": len(runs["parent"]), "metrics": metrics,
            "failed": {s: sum(r["failed"] for r in runs[s]) for s in SIDES},
            "attempted": {s: sum(r["attempted"] for r in runs[s]) for s in SIDES},
            "correct": {s: all(r["correct"] for r in runs[s]) for s in SIDES}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="the revision to compare against")
    parser.add_argument("--pr", required=True, help="names the output, BENCH_<pr>.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=6029)
    parser.add_argument("--claim", help="WORKLOAD:METRIC whose verdict the output states")
    parser.add_argument("--description", default="")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    workloads = [w["name"] for w in declared["workloads"]]
    metrics = declared["end_to_end"]
    claim = None
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        by_name = {m["name"]: m for m in metrics}
        if workload not in workloads or metric not in by_name:
            parser.error(f"--claim {args.claim}: unknown workload or metric")
        claim = (workload, metric, by_name[metric]["better"])

    work = Path(tempfile.mkdtemp(prefix="bench_pair_"))
    try:
        parent_tree = work / "parent"
        sha = extract(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        report = {}
        for workload in workloads:
            for side in SIDES:
                run_once(trees[side], workload, args.seed, WARMUP_S)
            runs: dict[str, list[dict]] = {side: [] for side in SIDES}
            for k in range(args.pairs):
                for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                    runs[side].append(run_once(trees[side], workload, args.seed, seconds))
                    print(f"{workload} pair {k} {side}: op_ms.p50 "
                          f"{runs[side][-1]['metrics'].get('op_ms.p50', float('nan')):.3f}",
                          flush=True)
            report[workload] = workload_report(runs, metrics)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out = {
        "description": args.description,
        "hardware": f"{os.cpu_count()}-core {platform.machine()}, "
                    f"{platform.python_implementation()} {platform.python_version()}",
        "parent": sha,
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed} "
                   f"--seconds {seconds:g} --trace 0",
        "seed": args.seed,
        "pair_order": "alternating: even-numbered pairs (from 0) run the parent first, odd "
                      "ones the change first; the parent runs from its committed files "
                      "(git archive), the change from the working tree, after one discarded "
                      f"{WARMUP_S:g} s run per side and workload to fill "
                      ".perfbench_cache",
        "quartiles": "statistics.quantiles(method='inclusive'); q1, median, q3 over the runs",
    }
    if claim:
        workload, metric, better = claim
        out["claim"] = {"workload": workload, "metric": metric,
                        "result": claim_verdict(report[workload], metric, better)}
        print(out["claim"]["result"])
    out["workloads"] = report
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
