"""Self-test of the benchmark harness, kept out of the tier-1 suite.

usage: python3 bench/smoke.py

Runs every workload (those in ``BENCHMARK.json`` and ``spectrum_dense``) for
about a second, untraced and traced, and asserts that each run succeeds with
no failed operation and reports every declared metric, finite and with its
declared unit.  It asserts no timing value.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in WORKLOADS:
        for trace, metrics in declared.items():
            run = f"{workload} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                problems.append(f"{run}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{run}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{run}: {result['failed']} of {result['attempted']} failed")
            for m in metrics:
                got = result["metrics"].get(m["name"])
                if got is None:
                    problems.append(f"{run}: {m['name']} missing")
                elif not (isinstance(got["value"], (int, float))
                          and math.isfinite(got["value"])):
                    problems.append(f"{run}: {m['name']} = {got['value']!r}")
                elif got["unit"] != m["unit"]:
                    problems.append(f"{run}: {m['name']} unit {got['unit']!r} != {m['unit']!r}")
            extra = set(result["metrics"]) - {m["name"] for m in metrics}
            if extra:
                problems.append(f"{run}: undeclared metrics {sorted(extra)}")
            print(f"{run}: {result['attempted']} operations, "
                  f"{len(result['metrics'])} metrics", flush=True)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
