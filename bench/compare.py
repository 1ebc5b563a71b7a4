"""``python -m bench compare A.json B.json``: did B get worse than A?

A and B are result sets written by ``python -m bench all``: several runs
of every workload. Per workload and end-to-end metric this prints both
medians, the relative difference with its base, the bound, and a verdict:

- ``ok``         B's median is no worse than A's by more than the bound;
- ``regressed``  it is worse by more than the bound;
- ``unresolved`` the run-to-run spread (interquartile range over median,
  on either side) is wider than the bound and the two sides' runs overlap,
  so the medians cannot be told apart.

A higher ``failed_fraction`` on any workload is a regression whatever the
timings say.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Tuple

from bench.metrics import BETTER, BOUNDS, END_TO_END_NAMES, UNITS, WORKLOAD_NAMES


def load(path) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [value per run]}}`` plus ``failed_fraction``."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    table: Dict[str, Dict[str, List[float]]] = {}
    for record in payload["runs"]:
        row = table.setdefault(record["workload"], {})
        for name, item in record["line"]["metrics"].items():
            row.setdefault(name, []).append(item["value"])
        row.setdefault("failed_fraction", []).append(record["failed_fraction"])
    return table


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(name: str, a: List[float], b: List[float]) -> Tuple[float, str]:
    """``(share by which B is worse than A, verdict)``."""
    sign = 1.0 if BETTER[name] == "lower" else -1.0
    base = statistics.median(a)
    worse_by = sign * (statistics.median(b) - base) / abs(base)
    bound = BOUNDS[name]
    all_better = max(sign * v for v in b) < min(sign * v for v in a)
    all_worse = min(sign * v for v in b) > max(sign * v for v in a)
    if all_better:
        return worse_by, "ok"
    if max(spread(a), spread(b)) > bound and not all_worse:
        return worse_by, "unresolved"
    return worse_by, "regressed" if worse_by > bound else "ok"


def compare(path_a, path_b) -> Tuple[str, bool]:
    """The table as text, and whether anything regressed."""
    a, b = load(path_a), load(path_b)
    lines = [
        f"A = {path_a}",
        f"B = {path_b}",
        f"{'workload':<16} {'metric':<24} {'median A':>12} {'median B':>12} "
        f"{'unit':<10} {'B worse by':>11} {'bound':>6} "
        f"{'spread A':>9} {'spread B':>9}  verdict",
    ]
    regressed = False
    for workload in WORKLOAD_NAMES:
        if workload not in a or workload not in b:
            continue
        for name in END_TO_END_NAMES:
            worse_by, word = verdict(name, a[workload][name], b[workload][name])
            regressed |= word == "regressed"
            lines.append(
                f"{workload:<16} {name:<24} "
                f"{statistics.median(a[workload][name]):>12.6g} "
                f"{statistics.median(b[workload][name]):>12.6g} "
                f"{UNITS[name]:<10} {worse_by:>+10.1%} {BOUNDS[name]:>6.1%} "
                f"{spread(a[workload][name]):>9.1%} "
                f"{spread(b[workload][name]):>9.1%}  {word}"
            )
        failed_a = max(a[workload]["failed_fraction"])
        failed_b = max(b[workload]["failed_fraction"])
        word = "regressed" if failed_b > failed_a else "ok"
        regressed |= word == "regressed"
        lines.append(
            f"{workload:<16} {'failed_fraction':<24} {failed_a:>12.6g} "
            f"{failed_b:>12.6g} {'fraction':<10} {'':>11} {'0':>6} "
            f"{'':>9} {'':>9}  {word}"
        )
    lines.append(
        "(B worse by: share of A's median, signed so that positive is worse)"
    )
    return "\n".join(lines), regressed
