"""Run one workload: set-up here, timed phase in a fresh child.

Set-up is done three times and ``setup_s`` is the median, so that work a
later change moves into set-up shows without one slow disk flush deciding
the number. The last set-up's files are the ones the child measures.
"""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import zlib
from typing import Dict, List

import numpy

from repro.pipeline import write_samples

from bench import layers, workloads
from bench.calibrate import Drift
from bench.metrics import (
    END_TO_END_NAMES,
    PER_LAYER_NAMES,
    RUN_SECONDS,
    UNITS,
    workload as workload_spec,
)

ROOT = workloads.ROOT
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 3
SMOKE_SECONDS = 0.5


def host_facts() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "zlib": zlib.ZLIB_RUNTIME_VERSION,
        "platform": platform.platform(),
        "git_commit": commit,
    }


def run_workload(
    name: str, seed: int, seconds: float = RUN_SECONDS, trace: bool = False,
    smoke: bool = False,
) -> dict:
    """Set up, measure in a child, tear down. Returns the full record;
    ``record["line"]`` is the object the driver reads."""
    workload_spec(name)  # unknown names fail before any work
    plan = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    root = OUT / "work" / f"{name}-{seed}-{os.getpid()}"
    repeats = 1 if trace else SETUP_REPEATS
    setup_seconds: List[float] = []
    setup_raw: List[float] = []
    work, facts = root / "s0", {}
    try:
        with Drift() as drift:
            for index in range(repeats):
                work, facts = root / f"s{index}", {}
                work.mkdir(parents=True)
                raw, normalised, samples = drift.time(
                    lambda: workloads.SETUPS[name](work, plan, facts)
                )
                setup_raw.append(raw)
                setup_seconds.append(normalised)
                if index < repeats - 1:
                    del samples
                    workloads.teardown(work, facts)
        if trace:
            probe, probe_windows = layers.probe_slice(samples, facts["windows"])
            write_samples(work / "probe.jsonl", probe)
            plan["probe_windows"] = probe_windows
            plan["trace_path"] = str(OUT / f"{name}.trace.json")
        del samples
        plan.update({k: v for k, v in facts.items() if not k.startswith("_")})
        (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
        subprocess.run(
            [sys.executable, "-m", "bench.child", str(work)],
            cwd=ROOT, env=workloads.program_env(), check=True,
        )
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
        if "_server" in facts and not trace:
            result["metrics"]["peak_rss_mb"] = workloads.peak_rss_mb(
                facts["_server"].pid
            )
    finally:
        workloads.teardown(work, facts)
        shutil.rmtree(root, ignore_errors=True)

    metrics: Dict[str, float] = result["metrics"]
    if trace:
        names = PER_LAYER_NAMES
        failures = [k for k, v in metrics.items() if not math.isfinite(v)]
        attempted, failed = len(metrics), len(failures)
    else:
        metrics["setup_s"] = statistics.median(setup_seconds)
        names = END_TO_END_NAMES
        attempted, failed = result["attempted"], result["failed"]
        failures = result["failures"]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "trace": trace,
        "host": host_facts(),
        "input": {
            "sessions": facts["sessions"], "windows": facts["windows"],
            "digests": facts["digests"],
        },
        "setup_s": setup_seconds,
        "setup_raw_s": setup_raw,
        "detail": result.get("detail", {}),
        "failures": failures,
        "failed_fraction": failed / attempted,
        "line": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                key: {"value": metrics[key], "unit": UNITS[key]} for key in names
            },
        },
    }
    suffix = ".trace-run.json" if trace else ".json"
    (OUT / f"{name}{suffix}").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return record


def describe(record: dict) -> str:
    """Every metric by name with its unit, for a person."""
    line = record["line"]
    lines = [
        f"{record['workload']} seed={record['seed']} "
        f"sessions={record['input']['sessions']} "
        f"windows={record['input']['windows']} "
        f"cpus={record['host']['cpu_count']}"
    ]
    for name, digest in sorted(record["input"]["digests"].items()):
        lines.append(f"  input {name} sha256 {digest}")
    for key, item in line["metrics"].items():
        lines.append(f"  {key:<40} {item['value']:>14.6g} {item['unit']}")
    for key, value in sorted(record["detail"].items()):
        lines.append(f"  ({key}: {json.dumps(value)})")
    lines.append(
        f"  failed_fraction {record['failed_fraction']:.6g} "
        f"({line['failed']} of {line['attempted']})"
    )
    lines.extend(f"  FAILED {failure}" for failure in record["failures"])
    return "\n".join(lines)
