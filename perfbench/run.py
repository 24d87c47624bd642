"""The a2webs benchmark: `verify`, `network` and `certify` workloads.

Run from the repository root:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Every timed run is a fresh interpreter (perfbench/child.py), because the
library's caches are module-level and only grow; a CLI user pays the
same.  One closed-loop client runs one operation at a time, with
A2WEBS_WORKERS=1.  The number of timed children per run is fixed by
--seconds and each workload's nominal child length on the reference
machine (2 cores, Python 3.11), so the same seed always checks the same
inputs.  Child k runs with PYTHONHASHSEED=k+1 whatever the seed: the
iteration order of string sets moves the time of one verify child by up
to a third, so every run samples the same hash seeds and only --seed
moves the inputs.

The host's speed drifts by a quarter between consecutive children, so
every timed child runs with perfbench/calibrate.py, which times a fixed
chunk of pure-Python work every 0.1 s and takes that time out of the
child's.  Every reported time is the child's own time multiplied by the
speed measured during it: seconds at the reference machine's speed.
The summary line before the result holds the unscaled times and the
speeds.

With --trace 0 the last line of standard output is one JSON object with
every end-to-end metric; with --trace 1, every per-layer metric from one
traced child, plus the tracing overhead measured against one untraced
child on the same inputs.  The exit code is 0 only if every correctness
gate passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# seconds one child takes, set-up included, on the reference machine; a
# run of --seconds starts round(seconds / nominal) children, at least
# MIN_CHILDREN
NOMINAL_CHILD_S = {layers.VERIFY: 6.5, layers.NETWORK: 9.5, layers.CERTIFY: 55.0}
# verify compares the stripped reports of children 0 and 1, so it needs two
MIN_CHILDREN = {layers.VERIFY: 2, layers.NETWORK: 2, layers.CERTIFY: 1}
# extra children that only set up, for a steadier setup_s where set-up
# is short; network set-up (about 4 s of input validation) is steady
# without them
SETUP_ONLY_CHILDREN = {layers.VERIFY: 5, layers.NETWORK: 0, layers.CERTIFY: 5}
CHILD_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    pass


def child_count(workload: str, seconds: int) -> int:
    return max(MIN_CHILDREN[workload], round(seconds / NOMINAL_CHILD_S[workload]))


def spawn(workload: str, seed: int, index: int, *, setup_only=False, spans=None, calibrate=False) -> dict:
    """Start one child, wait for it, return its result line and its
    set-up time measured from just before the interpreter started."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["A2WEBS_WORKERS"] = "1"
    env["PYTHONHASHSEED"] = str(index + 1)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--index", str(index)]
    if setup_only:
        cmd.append("--setup-only")
    if calibrate:
        cmd.append("--calibrate")
    if spans is not None:
        cmd += ["--trace", str(spans)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} child {index} ran past {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{workload} child {index} exited with {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["setup_done"] - started
    return result


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def check_ops(children) -> tuple[int, int]:
    ops = [op for c in children for op in c["ops"]]
    return len(ops), sum(1 for passed, _, _ in ops if not passed)


def run_timed(workload: str, seed: int, seconds: int) -> dict:
    setup_children = [spawn(workload, seed, 100 + k, setup_only=True, calibrate=True)
                      for k in range(SETUP_ONLY_CHILDREN[workload])]
    children = [spawn(workload, seed, k, calibrate=True) for k in range(child_count(workload, seconds))]
    attempted, failed = check_ops(children)
    if workload == layers.VERIFY and children[0]["digest"] != children[1]["digest"]:
        # children 0 and 1 ran one verify seed under different hash
        # seeds: their reports without timings must be identical
        print("verify: reports differ between two children with one seed", file=sys.stderr)
        failed += 1
    # every time is in seconds at the reference machine's speed: the
    # child's own time multiplied by the speed its calibration measured
    if workload == layers.NETWORK:
        # each network's time scaled by the speed measured around it; the
        # percentiles of one child's 60 networks, median over children
        scaled = [[s * speed for _, s, speed in c["ops"]] for c in children]
        p50 = statistics.median(percentile(lat, 0.5) for lat in scaled)
        p90 = statistics.median(percentile(lat, 0.9) for lat in scaled)
    else:
        # a verify suite check is not an operation of one kind, so the
        # latency is that of the whole command; certify has one operation
        latencies = [c["speed"] * c["wall_s"] for c in children]
        p50, p90 = percentile(latencies, 0.5), percentile(latencies, 0.9)
    metrics = {
        "wall_s": (statistics.median(c["speed"] * c["wall_s"] for c in children), "s"),
        "setup_s": (statistics.median(c["speed"] * c["setup_s"] for c in setup_children + children), "s"),
        "peak_rss_mib": (statistics.median(c["peak_rss_mib"] for c in children), "MiB"),
        "op_p50_s": (p50, "s"),
        "op_p90_s": (p90, "s"),
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "children": len(children),
        "measured_wall_s": [c["wall_s"] for c in children],
        "measured_setup_s": [c["setup_s"] for c in setup_children + children],
        "speed": [c["speed"] for c in setup_children + children],
        "inputs": [c["inputs"] for c in children],
    }


def run_traced(workload: str, seed: int) -> dict:
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-{seed}.json"
    plain = spawn(workload, seed, 0)
    traced = spawn(workload, seed, 0, spans=spans)
    attempted, failed = check_ops([plain, traced])
    counters = traced["counters"]
    if traced["digest"] != plain["digest"]:
        print(f"{workload}: traced outputs differ from untraced outputs", file=sys.stderr)
        failed += 1
    missing = [w.name for w in layers.WRAPS if workload in w.runs_on and not counters.get(w.name + ".calls")]
    if missing:
        print(f"{workload}: wrapped names recorded no calls: {', '.join(missing)}", file=sys.stderr)
        failed += len(missing)
    metrics = layers.layer_metrics(counters, traced["suite_seconds"], traced["wall_s"] - plain["wall_s"])
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "traced_wall_s": traced["wall_s"],
        "untraced_wall_s": plain["wall_s"],
        "spans_file": str(spans.relative_to(ROOT)),
        "spans": traced["spans"],
    }


def git_commit() -> str:
    """The commit of a git checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def run_facts(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "a2webs_workers": 1,
        "hash_seed_of_child_k": "k + 1",
    }


def check_benchmark_file() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    table = [(m.name, m.unit, m.better) for m in layers.METRICS]
    if listed != table:
        raise BenchError("BENCHMARK.json per_layer does not match perfbench/layers.py METRICS")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="a2webs benchmark")
    ap.add_argument("--workload", choices=layers.WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "a2webs" / "cli.py").is_file():
        print(f"error: no a2webs sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    try:
        check_benchmark_file()
        names = layers.WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            result = run_traced(name, args.seed) if args.trace else run_timed(name, args.seed, args.seconds)
            results[name] = result
            summary = {k: v for k, v in result.items() if k != "metrics"}
            summary["fail_frac"] = result["failed"] / result["attempted"]
            summary["facts"] = run_facts(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps({name: summary}))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps({k: final[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
