"""``python3 -m bench``: the one driver.

The form the harness calls::

    python3 -m bench --workload NAME --seed N --seconds S --trace 0|1

prints every metric by name with its unit and, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. For people::

    python3 -m bench run NAME [--seed N] [--seconds S] [--trace] [--smoke]
    python3 -m bench all [--seed N] [--runs K] [--trace] [--smoke] [--out F]
    python3 -m bench compare A.json B.json
    python3 -m bench manifest [--write]
"""

from __future__ import annotations

import argparse
import json
import sys

from bench import ROOT

if not (ROOT / "src" / "repro").is_dir():
    sys.exit("bench: nothing to measure: src/repro is not in this checkout")

from bench import run as runner  # noqa: E402 (needs the check above)
from bench.compare import compare  # noqa: E402
from bench.metrics import (  # noqa: E402
    RUN_SECONDS,
    WORKLOAD_NAMES,
    benchmark_json,
)


def _run_one(name, seed, seconds, trace, smoke) -> dict:
    if seconds is None:
        seconds = runner.SMOKE_SECONDS if smoke else RUN_SECONDS
    record = runner.run_workload(name, seed, seconds, trace=trace, smoke=smoke)
    print(runner.describe(record))
    return record


def _cmd_all(args) -> int:
    runs = []
    traced = []
    for offset in range(args.runs):
        for name in WORKLOAD_NAMES:
            runs.append(
                _run_one(name, args.seed + offset, args.seconds, False, args.smoke)
            )
            if args.trace and offset == 0:
                traced.append(
                    _run_one(name, args.seed, args.seconds, True, args.smoke)
                )
    out = args.out or str(runner.OUT / "results.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(
            {"host": runner.host_facts(), "runs": runs, "traced": traced},
            handle, indent=1, sort_keys=True,
        )
        handle.write("\n")
    print(f"wrote {out}")
    return 1 if any(r["line"]["failed"] for r in runs + traced) else 0


def _cmd_manifest(args) -> int:
    text = json.dumps(benchmark_json(), indent=2) + "\n"
    if args.write:
        (ROOT / "BENCHMARK.json").write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    commands = parser.add_subparsers(dest="command")

    one = commands.add_parser("run", help="one workload")
    one.add_argument("name", choices=WORKLOAD_NAMES)
    every = commands.add_parser("all", help="the six workloads, in order")
    every.add_argument("--runs", type=int, default=1,
                       help="runs per workload, seeds SEED..SEED+RUNS-1")
    every.add_argument("--out", help="result-set file (default bench/out/results.json)")
    for sub in (one, every):
        sub.add_argument("--seed", type=int, default=1)
        sub.add_argument("--seconds", type=float, default=None)
        sub.add_argument("--trace", action="store_true",
                         help="add the traced pass (per-layer metrics)")
        sub.add_argument("--smoke", action="store_true",
                         help="~1k-session inputs, 1 s timed phases")
    diff = commands.add_parser("compare", help="apply the bounds to two result sets")
    diff.add_argument("a")
    diff.add_argument("b")
    manifest = commands.add_parser("manifest", help="print or write BENCHMARK.json")
    manifest.add_argument("--write", action="store_true")

    args = parser.parse_args(argv)
    if args.command == "run":
        record = _run_one(args.name, args.seed, args.seconds, args.trace, args.smoke)
        return 1 if record["line"]["failed"] else 0
    if args.command == "all":
        return _cmd_all(args)
    if args.command == "compare":
        text, regressed = compare(args.a, args.b)
        print(text)
        return 1 if regressed else 0
    if args.command == "manifest":
        return _cmd_manifest(args)
    if args.workload is None:
        parser.error("give --workload NAME or a command")
    record = _run_one(args.workload, args.seed, args.seconds, bool(args.trace), False)
    print(json.dumps(record["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
