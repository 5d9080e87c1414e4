"""Paired benchmark runs of a parent commit against a change.

Builds two trees, the parent from `git archive <parent>` and the change from
the files git tracks as they stand on disk (or from `git archive <change>`
when --change names a commit), neither with a __pycache__.  For each
workload in BENCHMARK.json and seeds 1 and 2 it runs `perfbench/run.py`
once in each tree per pair, alternating which side runs first (the parent
in even pairs), and writes one row per workload and seed with each
end-to-end metric's medians, the parent's interquartile distance, the pairs
the change won and the change's relative loss against the BENCHMARK.json
bound.  It then runs each workload once traced per side at seed 1 and lists
every count metric that differs.

A claim (--claim WORKLOAD:METRIC) is met at a seed when the change wins at
least 90% of the pairs (9 of 10) and its median beats the parent's by more
than the parent's interquartile distance.  Under the null, 9 or more wins in
10 pairs has probability 11/1024 per row and metric (one-sided binomial), so
a run of a tree against itself (an A/A run) should meet no claim.

Usage, from the root of the repository:

    python3 tools/pair_bench.py --parent HEAD~1 --out BENCH_N.json \\
        --claim words_free:verdicts_per_s

Standard library only; the trees live in a temporary directory under
--workdir and are removed at exit.
"""

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
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
SEEDS = (1, 2)
WIN_SHARE = 0.9
QUARTILES = {"n": 4, "method": "inclusive"}


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def archive_tree(commit: str, dest: Path) -> str:
    """Extract `commit` into dest; returns the full commit id."""
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=BytesIO(git("archive", commit))) as tar:
        tar.extractall(dest)
    return git("rev-parse", commit).decode().strip()


def tracked_tree(dest: Path) -> str:
    """Copy the files git tracks, as they stand on disk, into dest."""
    for name in git("ls-files", "-z").decode().split("\0"):
        src = ROOT / name
        if name and src.is_file() and "__pycache__" not in src.parts:
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)
    return "the tracked files of the working tree"


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, env=env, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree.name} {workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def iqr(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, **QUARTILES)
    return q3 - q1


def compare(parent: list, change: list, better: str) -> dict:
    """Medians, the parent's IQR, the change's wins and its relative loss
    (negative is a gain) for one metric over paired values."""
    sign = 1 if better == "higher" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    return {"parent_median": round(p_med, 6), "change_median": round(c_med, 6),
            "parent_iqr": round(iqr(parent), 6),
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "change_worse_by": round(sign * (p_med - c_med) / p_med, 4)}


def claim_met(m: dict, better: str) -> bool:
    sign = 1 if better == "higher" else -1
    gain = sign * (m["change_median"] - m["parent_median"])
    return m["change_wins"] >= math.ceil(WIN_SHARE * PAIRS) and gain > m["parent_iqr"]


def paired_row(trees: dict, workload: str, seed: int, seconds: float, end_to_end: list) -> dict:
    values = {side: {m["name"]: [] for m in end_to_end} for side in trees}
    failed = attempted = 0
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(trees[side], workload, seed, seconds, 0)
            failed += result["failed"]
            attempted += result["attempted"]
            for name, metric in result["metrics"].items():
                values[side][name].append(metric["value"])
        print(f"  {workload} seed {seed} pair {i + 1}/{PAIRS}", file=sys.stderr)
    metrics = {}
    for m in end_to_end:
        row = compare(values["parent"][m["name"]], values["change"][m["name"]], m["better"])
        metrics[m["name"]] = {**row, "within_bound": row["change_worse_by"] <= m["bound"]}
    return {"workload": workload, "seed": seed, "pairs": PAIRS, "failed": failed,
            "attempted": attempted, "all_correct": failed == 0, "metrics": metrics}


def trace_counts(trees: dict, workloads: list, seed: int) -> dict:
    """Every traced count metric whose value differs between the sides, as
    [parent, change]."""
    differing = {}
    for workload in workloads:
        counts = {}
        for side, tree in trees.items():
            metrics = run_once(tree, workload, seed, 4, 1)["metrics"]
            counts[side] = {k: v["value"] for k, v in metrics.items()
                            if v["unit"] in ("count", "ratio") and k != "trace.overhead_ratio"}
        differing[workload] = {k: [counts["parent"].get(k), counts["change"].get(k)]
                               for k in sorted(counts["parent"].keys() | counts["change"].keys())
                               if counts["parent"].get(k) != counts["change"].get(k)}
    return differing


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD", help="parent commit (default HEAD)")
    ap.add_argument("--change", help="change commit; default: the tracked files on disk")
    ap.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    ap.add_argument("--workdir", help="where the two trees are built (default: system temp)")
    ap.add_argument("--out", required=True, help="the BENCH json to write")
    args = ap.parse_args(argv)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    claims = [c.partition(":")[::2] for c in args.claim]
    for workload, metric in claims:
        if workload not in names or metric not in better:
            ap.error(f"--claim {workload}:{metric}: no such workload or end-to-end metric")
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        parent_commit = archive_tree(args.parent, trees["parent"])
        change = (archive_tree(args.change, trees["change"]) if args.change
                  else tracked_tree(trees["change"]))
        rows = [paired_row(trees, w, s, spec["run_seconds"], spec["end_to_end"])
                for s in SEEDS for w in names]
        traced = trace_counts(trees, names, SEEDS[0])
    claimed = []
    for workload, metric in claims:
        for row in rows:
            if row["workload"] == workload:
                m = row["metrics"][metric]
                claimed.append({"workload": workload, "seed": row["seed"], "metric": metric,
                                **m, "pairs": PAIRS, "met": claim_met(m, better[metric])})
    out = {
        "change": change,
        "parent_commit": parent_commit,
        "host": f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs, Python "
                f"{platform.python_version()}, PYTHONDONTWRITEBYTECODE=1; times are "
                f"perfbench's calibrated seconds",
        "method": f"perfbench/run.py --workload W --seed S --seconds {spec['run_seconds']:g} "
                  f"--trace 0, {PAIRS} pairs per row, one parent and one change run per pair, each "
                  f"from its own tree without a __pycache__, the parent first in even pairs; "
                  f"quartiles are statistics.quantiles(n=4, method='inclusive'); change_worse_by "
                  f"is the relative loss of the median in the metric's bad direction (negative "
                  f"is better) and within_bound compares it with the BENCHMARK.json bound; a "
                  f"claim is met when the change wins at least {WIN_SHARE:.0%} of the pairs and "
                  f"its median gain exceeds the parent's IQR (9 or more wins of 10 has "
                  f"probability 11/1024 per row under the null). Written by tools/pair_bench.py.",
        "claimed": claimed,
        "claims_met_by_rule": sorted(
            f"{row['workload']}:{row['seed']}:{name}" for row in rows
            for name, m in row["metrics"].items() if claim_met(m, better[name])),
        "rows": rows,
        f"traced_seed{SEEDS[0]}": {
            "method": f"perfbench/run.py --workload W --seed {SEEDS[0]} --seconds 4 --trace 1 "
                      f"in each tree; every count metric whose value differs, [parent, change]",
            "differing_counts": traced},
    }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    for row in rows:
        line = ", ".join(f"{k} {m['change_worse_by']:+.4f} ({m['change_wins']}/{row['pairs']})"
                         for k, m in row["metrics"].items())
        print(f"{row['workload']} seed {row['seed']}: failed {row['failed']}; {line}")
    for c in claimed:
        print(f"claim {c['workload']}:{c['metric']} seed {c['seed']}: "
              f"{'met' if c['met'] else 'not met'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
