"""The fresh interpreter a workload's timed phase runs in.

``python -m bench.child <work dir>`` reads ``plan.json`` from the work
directory, runs the timed phase (or, with ``plan["trace"]``, the traced
pass) and writes ``result.json`` beside it. It imports the program and the
benchmark's timing code but never generates inputs, so its peak RSS is the
program's.
"""

from __future__ import annotations

import json
import pathlib
import sys


def main(argv) -> int:
    work = pathlib.Path(argv[1])
    plan = json.loads((work / "plan.json").read_text(encoding="utf-8"))
    if plan["trace"]:
        from bench.layers import traced_pass

        result = {"metrics": traced_pass(work, plan, plan["trace_path"])}
    else:
        from bench.workloads import TIMED, Checks

        checks = Checks()
        values, detail = TIMED[plan["workload"]](work, plan, checks)
        result = {
            "metrics": values,
            "detail": detail,
            "attempted": checks.attempted,
            "failed": checks.failed,
            "failures": checks.failures,
        }
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
