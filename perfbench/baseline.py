"""Record the benchmark baseline of the current commit.

For each workload this runs one timed run and two traced runs on the
same seed, fails if the two traced runs disagree on any per-layer count
(calls, found, yielded and the ratios built from them), and writes
perfbench/baseline/<workload>.json.  Run from the repository root:

    python3 perfbench/baseline.py [--seed 1] [--seconds 25]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402

EXACT_UNITS = ("count", "ratio")


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: benchmark exited with {proc.returncode}")
    summary = json.loads(lines[-2])[workload]
    return {"summary": summary, "result": json.loads(lines[-1])}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    args = ap.parse_args()
    out_dir = HERE / "baseline"
    out_dir.mkdir(exist_ok=True)
    for workload in layers.WORKLOADS:
        timed = bench(workload, args.seed, args.seconds, 0)
        traced = [bench(workload, args.seed, args.seconds, 1) for _ in range(2)]
        exact = [m.name for m in layers.METRICS if m.unit in EXACT_UNITS]
        a, b = (t["result"]["metrics"] for t in traced)
        differ = [name for name in exact if a[name]["value"] != b[name]["value"]]
        if differ:
            raise SystemExit(f"{workload}: traced counts differ between runs: {', '.join(differ)}")
        record = {"timed": timed, "traced": traced, "exact_metrics_identical": exact}
        path = out_dir / f"{workload}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(f"{workload}: {len(exact)} exact per-layer metrics identical; wrote {path.relative_to(Path.cwd())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
