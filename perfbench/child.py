"""One timed run of one workload, in a fresh interpreter.

The library's caches are module-level and only grow, so run.py starts
this script once per timed run.  It loads `a2webs.cli` (which imports
every module), builds the seeded inputs, notes the monotonic time at
which set-up ended, runs the workload's operations one at a time,
checks every result, and prints one JSON line with the timings, the
peak memory and a digest of the checked outputs.

With --calibrate the child also measures the machine's speed while it
runs (perfbench/calibrate.py) and reports it beside its times.

Usage (from the repository root, with src on PYTHONPATH):
    python3 perfbench/child.py --workload verify --seed 3 --index 0
        [--setup-only] [--calibrate] [--trace SPANS_FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import sys
import time
import traceback

import a2webs.cli as cli
from a2webs import minors, networks

import layers
import make_networks
from calibrate import Calibrator

CERTIFY_N = 5
CERTIFY_WEBS = 103
CERTIFY_MAX_COEFFICIENT = 3
VERIFY_N = 5
# calibration chunks a set-up-only child runs to measure the machine's speed
SETUP_ONLY_CHUNKS = 20


def verify_seed(seed: int, index: int) -> int:
    """Children 0 and 1 share a verify seed, so their reports can be
    compared; every later child draws a seed of its own."""
    return seed * 1000 + max(0, index - 1)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()


def _strip_seconds(report: dict) -> dict:
    return {**report, "checks": [{k: v for k, v in c.items() if k != "seconds"} for c in report["checks"]]}


# -- inputs ----------------------------------------------------------------


def build_inputs(workload: str, seed: int, index: int):
    if workload == layers.VERIFY:
        return ["verify", "--suite", "all", "--n", str(VERIFY_N), "--seed", str(verify_seed(seed, index))]
    if workload == layers.NETWORK:
        # the structures are fixed (see make_networks.py): their cost is
        # heavy-tailed, 5 ms to 3 s each, so a fresh draw of 60 networks
        # per seed moves the total by more than half; the seed redraws
        # every non-unit edge weight instead, and the networks are
        # checked in file order, so that which network fills the shared
        # caches first does not move with the seed
        rng = random.Random(seed * 1000 + index)
        nets = []
        for line in make_networks.PATH.read_text().splitlines():
            obj = json.loads(line)
            for e in obj["edges"]:
                if e["weight"] != "1":
                    e["weight"] = f"{rng.randint(1, 4)}/{rng.randint(1, 3)}"
            nets.append(networks.PlanarNetwork.from_json_obj(obj))
        return nets
    return None


def describe_inputs(workload: str, inputs) -> dict:
    if workload == layers.VERIFY:
        return {"argv": inputs}
    if workload == layers.NETWORK:
        return {"networks": len(inputs), "strands": make_networks.STRANDS, "depth": make_networks.DEPTH,
                "structure_seed": make_networks.STRUCTURE_SEED}
    return {"rank_check_n": CERTIFY_N}


# -- workloads: each returns (ops, outputs, suite seconds); ops is a list
# of (passed, seconds, speed around the operation or None), outputs is
# what must not change between runs.  The network and certify seconds
# leave out calibration chunks; the verify ones are the report's own


def run_verify(argv, tracer, calibrator):
    if tracer is not None:
        run_named = cli._run_named

        def tagged(task):
            tracer.begin_op(task[0])
            return run_named(task)

        cli._run_named = tagged
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    report = json.loads(buf.getvalue())
    ops = [(code == 0 and c["passed"] is True, c["seconds"], None) for c in report["checks"]]
    if len(ops) != len(layers.SUITES):
        ops.append((False, 0.0, None))
    suite_seconds = {c["name"]: c["seconds"] for c in report["checks"]}
    return ops, _strip_seconds(report), suite_seconds


def run_network(nets, tracer, calibrator):
    clock = _clock(calibrator)
    ops, outputs = [], []
    for k, net in enumerate(nets):
        if tracer is not None:
            tracer.begin_op(k)
        t0 = clock()
        try:
            cor = networks.corollary_check(net)
            lin = networks.lindstrom_check(net)
            passed = cor["passed"] is True and lin["passed"] is True
            outputs.append([cor, lin])
        except Exception:
            traceback.print_exc()
            passed = False
            outputs.append(None)
        t1 = clock()
        # a burst on the host can slow one network alone, so each
        # network's time is scaled by the speed measured around it
        ops.append((passed, t1 - t0, calibrator.speed(t0, t1) if calibrator is not None else None))
    return ops, outputs, {}


def run_certify(_, tracer, calibrator):
    clock = _clock(calibrator)
    if tracer is not None:
        tracer.begin_op(0)
    t0 = clock()
    report = minors.rank_check(CERTIFY_N)
    passed = (
        report["passed"] is True
        and report["rank"] == report["webs"] == CERTIFY_WEBS
        and report["max_coefficient"] == CERTIFY_MAX_COEFFICIENT
    )
    return [(passed, clock() - t0, None)], report, {}


def _clock(calibrator):
    return time.perf_counter if calibrator is None else calibrator.work_clock


RUNNERS = {layers.VERIFY: run_verify, layers.NETWORK: run_network, layers.CERTIFY: run_certify}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=layers.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--index", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", metavar="SPANS_FILE")
    ap.add_argument("--calibrate", action="store_true", help="measure the machine's speed during the run")
    args = ap.parse_args()

    inputs = build_inputs(args.workload, args.seed, args.index)
    setup_done = time.monotonic()
    if args.setup_only:
        speed = None
        if args.calibrate:
            calibrator = Calibrator()
            calibrator.sample(SETUP_ONLY_CHUNKS)
            speed = calibrator.speed()
        print(json.dumps({"setup_done": setup_done, "speed": speed}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(layers.WRAPS)

    calibrator = Calibrator() if args.calibrate else None
    if calibrator is not None:
        calibrator.start()
    clock = _clock(calibrator)
    t0 = clock()
    try:
        ops, outputs, suite_seconds = RUNNERS[args.workload](inputs, tracer, calibrator)
    except Exception:
        traceback.print_exc()
        ops, outputs, suite_seconds = [(False, 0.0, None)], None, {}
    wall = clock() - t0
    if calibrator is not None:
        calibrator.stop()

    result = {
        "setup_done": setup_done,
        "wall_s": wall,
        "speed": calibrator.speed() if calibrator is not None else None,
        "calibration_chunks": len(calibrator.chunks) if calibrator is not None else 0,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": ops,
        "digest": _digest(outputs),
        "suite_seconds": suite_seconds,
        "inputs": describe_inputs(args.workload, inputs),
    }
    if tracer is not None:
        result["counters"] = tracer.results()
        result["spans"] = len(tracer.spans)
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "op"], "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
