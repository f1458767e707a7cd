"""Paired benchmark of a change against a parent revision.

    python3 tools/bench_pair.py PARENT_REV --seeds 501 502 ... \
        [--workloads NAME ...] [--out FILE]

Run from the root of a git checkout; the change is its working tree.  Both
sides are exported into a scratch directory: the parent with ``git archive
PARENT_REV``, the change as the working tree's files that git tracks or
would add (``git ls-files --cached --others --exclude-standard``).  For each
workload and seed the script runs the benchmark's own ``perfbench/run.py
--trace 0`` once on each side for ``BENCHMARK.json``'s ``run_seconds``, one
at a time, and alternates which side goes first from seed to seed, so a
drift in host speed does not favour either side.  It reads the metrics from
each run's last output line (one JSON object) and the check values from the
run's ``report.json``.

The result, written as JSON to ``--out`` (standard output by default),
names the parent's commit and the change's base commit (``HEAD``), with
whether the working tree differed from it, and holds per workload and
end-to-end metric (from ``BENCHMARK.json``) the parent's and the change's
values, medians and quartiles, the number of pairs the change won, and
whether the change's median beats the parent's by more than the parent's
interquartile range; per workload it also says whether every run was
correct and whether both sides reported the same check values for every
seed.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def git(root, *args):
    return subprocess.run(["git", *args], cwd=root, check=True,
                          capture_output=True).stdout


def export_commit(rev, dest, root):
    """The files of commit ``rev`` under ``dest``."""
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=git(root, "archive", rev),
                   check=True)


def export_working_tree(dest, root):
    """The working tree's files that git tracks or would add under ``dest``."""
    dest.mkdir(parents=True)
    files = git(root, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, files.decode().split("\0")):
        src = root / name
        if src.is_file():  # a tracked file deleted in the working tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_side(side, workload, seed, seconds):
    """One ``perfbench/run.py --trace 0`` run in the checkout ``side``:
    (last-line JSON, check values from its report)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=side, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{side.name} {workload} seed {seed}: no output\n{proc.stderr}")
    result = json.loads(lines[-1])
    report = side / "perfbench" / "work" / workload / f"seed{seed}-trace0" / "report.json"
    checks = json.loads(report.read_text())["checks"] if report.exists() else None
    return result, checks


def spread(values):
    """Median and quartiles (statistics.quantiles, exclusive method)."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(parent, change, better):
    """The paired comparison of one metric's per-seed values; a pair that
    misses the value on either side (a failed run) is left out."""
    pairs = [(p, c) for p, c in zip(parent, change) if p is not None and c is not None]
    if not pairs:
        return {"better": better, "pairs": 0}
    parent, change = (list(side) for side in zip(*pairs))
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
    p, c = spread(parent), spread(change)
    return {
        "better": better,
        "parent": dict(p, values=parent),
        "change": dict(c, values=change),
        "pairs": len(parent),
        "pairs_won": won,
        "median_rel_change": (c["median"] - p["median"]) / p["median"],
        "gain_beyond_parent_iqr": sign * (p["median"] - c["median"]) > p["q3"] - p["q1"],
    }


def main(argv=None):
    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the parent revision")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]
    parent_commit, change_commit = (
        git(root, "rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
        for rev in (args.parent, "HEAD"))
    dirty = bool(git(root, "status", "--porcelain", "--untracked-files=normal"))

    scratch = Path(tempfile.mkdtemp(prefix="bench_pair_"))
    try:
        sides = {"parent": scratch / "parent", "change": scratch / "change"}
        export_commit(parent_commit, sides["parent"], root)
        export_working_tree(sides["change"], root)
        runs = {w: {side: [] for side in sides} for w in args.workloads}
        for workload in args.workloads:
            for k, seed in enumerate(args.seeds):
                order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
                for side in order:
                    result, checks = run_side(sides[side], workload, seed, seconds)
                    runs[workload][side].append({"seed": seed, "result": result,
                                                 "checks": checks})
                    metrics = {name: round(m["value"], 4)
                               for name, m in result["metrics"].items()}
                    print(f"{workload} seed {seed} {side}: correct={result['correct']} "
                          f"{metrics}", file=sys.stderr)
    finally:
        shutil.rmtree(scratch)

    report = {"parent": parent_commit, "change": change_commit,
              "change_dirty": dirty, "seeds": args.seeds, "seconds": seconds,
              "workloads": {}}
    for workload, by_side in runs.items():
        entry = {
            "all_correct": all(r["result"]["correct"] for side in by_side.values()
                               for r in side),
            "checks_agree": all(p["checks"] is not None and p["checks"] == c["checks"]
                                for p, c in zip(by_side["parent"], by_side["change"])),
            "metrics": {},
        }
        for metric in bench["end_to_end"]:
            name = metric["name"]
            parent, change = ([r["result"]["metrics"].get(name, {}).get("value")
                               for r in by_side[side]] for side in ("parent", "change"))
            entry["metrics"][name] = compare(parent, change, metric["better"])
        report["workloads"][workload] = entry
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
