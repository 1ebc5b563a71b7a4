"""A/B the end-to-end benchmark: a parent revision against the working tree.

    python3 tools/bench_ab.py PARENT WORKLOAD[,WORKLOAD...] [--pairs 10] [--seed 1]
    make bench-ab PARENT=<rev> WORKLOAD=<name>[,<name>...] [PAIRS=10] [SEED=<first>]

``git archive``s PARENT into a temporary directory once, then for each
workload in turn runs
``python3 -m bench --workload WORKLOAD --seed S --seconds 12 --trace 0``
once in that tree and once in the working tree per pair — pair ``i`` uses
seed ``SEED + i`` on both sides, and which side runs first alternates from
pair to pair. Only each run's last line of standard output (the result
line: ``correct``, ``attempted``, ``failed``, ``metrics``) is read, so
nothing under ``bench/`` has to change for this tool.

Prints one line per pair and, after each workload's pairs, that
workload's table: for every end-to-end metric in ``BENCHMARK.json``, each
side's median and quartiles, the pairs the change won (ties count for
neither side), and the verdict of the rule in the choosing-metrics method
— a gain needs at least nine tenths of the pairs won *and* medians further
apart than the parent's interquartile range; a change median worse than
the parent's by more than the metric's bound is a regression; and a
metric whose parent runs spread wider than its bound (interquartile range
over median) is unresolved unless every change run beats every parent
run. Every run on both sides is 12 s long, so every
recorded A/B is comparable. Exits 1 when a run fails or reports failed
operations.
"""

from __future__ import annotations

import argparse
import io
import json
import pathlib
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SECONDS = 12


def archive(rev: str, into: pathlib.Path) -> None:
    """Extract ``git archive rev`` (committed files only) into ``into``."""
    data = subprocess.run(
        ["git", "archive", "--format=tar", rev],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(into, filter="data")


def run_bench(tree: pathlib.Path, workload: str, seed: int) -> dict:
    """One benchmark run in ``tree``; returns its result line."""
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"bench run in {tree} (seed {seed}) exited {proc.returncode}:\n"
            + proc.stderr[-2000:]
        )
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def better(a: float, b: float, direction: str) -> bool:
    """Is ``a`` strictly better than ``b``?"""
    return a > b if direction == "higher" else a < b


def verdict(parent, change, won: int, spec) -> str:
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    direction, bound = spec["better"], spec["bound"]
    if won >= 0.9 * len(parent) and better(cm, pm, direction) and abs(cm - pm) > p3 - p1:
        return "gain"
    worse = (pm - cm) if direction == "higher" else (cm - pm)
    if pm and worse / abs(pm) > bound:
        return f"REGRESSION (worse by {worse / abs(pm):.1%}, bound {bound:.0%})"
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    if spread > bound and not all(
        better(c, p, direction) for c in change for p in parent
    ):
        return f"unresolved (parent spread {spread:.1%} > bound {bound:.0%})"
    return "no gain claimed"


def run_pairs(trees, workload: str, pairs: int, first_seed: int, specs) -> dict:
    """``pairs`` alternating runs of ``workload`` on both trees; prints a
    line per pair and returns each side's result lines."""
    runs = {"parent": [], "change": []}
    for index in range(pairs):
        seed = first_seed + index
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            pair[side] = line = run_bench(trees[side], workload, seed)
            runs[side].append(line)
        cells = " ".join(
            f"{name}={pair['parent']['metrics'][name]['value']:.6g}"
            f"/{pair['change']['metrics'][name]['value']:.6g}"
            for name in specs
            if name in pair["parent"]["metrics"]
            and name in pair["change"]["metrics"]
        )
        print(
            f"{workload} pair {index + 1}/{pairs} seed={seed} first={order[0]} "
            f"(parent/change) failed={pair['parent']['failed']}"
            f"/{pair['change']['failed']} {cells}",
            flush=True,
        )
    return runs


def print_table(workload: str, parent_rev: str, runs: dict, specs: dict) -> None:
    pairs = len(runs["parent"])
    print(f"\n{workload}: {parent_rev} (parent) vs working tree (change), "
          f"{pairs} pairs, {SECONDS} s")
    print(f"{'metric':<24} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'won':>6}  verdict")
    for name, spec in specs.items():
        parent = [run["metrics"][name]["value"] for run in runs["parent"]
                  if name in run["metrics"]]
        change = [run["metrics"][name]["value"] for run in runs["change"]
                  if name in run["metrics"]]
        if not parent or len(parent) != len(change):
            continue
        won = sum(better(c, p, spec["better"]) for p, c in zip(parent, change))
        sides = [
            "{1:.6g} [{0:.6g}, {2:.6g}]".format(*quartiles(values))
            for values in (parent, change)
        ]
        print(f"{name:<24} {sides[0]:>34} {sides[1]:>34} "
              f"{won:>3}/{len(parent):<2}  {verdict(parent, change, won, spec)}",
              flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git revision to compare against")
    parser.add_argument("workloads", help="workload name, or a comma-separated list")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    workloads = [name.strip() for name in args.workloads.split(",") if name.strip()]
    if not workloads:
        parser.error("no workload named")

    specs = {
        spec["name"]: spec
        for spec in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    failed = False
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as tmp:
        trees = {"parent": pathlib.Path(tmp), "change": ROOT}
        archive(args.parent, trees["parent"])
        for workload in workloads:
            runs = run_pairs(trees, workload, args.pairs, args.seed, specs)
            failed |= any(
                not line["correct"] or line["failed"] > 0
                for side in runs.values()
                for line in side
            )
            print_table(workload, args.parent, runs, specs)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
