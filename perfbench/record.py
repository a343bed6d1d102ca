"""Run every workload untraced and traced, print every metric with its unit,
and optionally save the runs as one point of the BENCH trajectory.

    python3 perfbench/record.py [--seed N] [--seconds S] [--out perfbench/trajectory/BENCH_<label>.json]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return {"result": json.loads(lines[-1]), **json.loads(lines[-2])}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, help="write the runs to this JSON file")
    args = parser.parse_args(argv)

    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            record = run_once(workload, args.seed, args.seconds, trace)
            runs.append(record)
            result, detail = record["result"], record["detail"]
            print(f"== {workload}  trace={trace}  samples={detail['samples']}  correct={result['correct']}")
            for name, metric in result["metrics"].items():
                print(f"   {name:<28} {metric['value']:>16.6g} {metric['unit']}")
            print(f"   {'error_rate':<28} {detail['error_rate']:>16.6g} ({result['failed']}/{result['attempted']})")
    if args.out:
        args.out.write_text(json.dumps({"seed": args.seed, "seconds": args.seconds, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
