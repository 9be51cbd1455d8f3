"""Cold-process benchmark of deltalens.

    python3 perfbench/run.py --workload naturality --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each round is one fresh Python process
(`workload.py`), so every cache starts cold; rounds run one at a time and
repeat until `--seconds` is used up (at least one).  A few extra processes
only do the set-up, so that `setup_s` is a median.  Every round checks
every operation; the command exits 1 if any check fails.

With `--trace 0` it prints the end-to-end metrics: raw ones and, for the
gate, times scaled by each round's calibration factor (README.md says
why); with `--trace 1` it runs one untraced and one traced round on the
same inputs and prints the per-layer metrics of the traced one, with the
tracing overhead.  The last line of stdout is the JSON result; the lines
before it are the same numbers for a human, the environment, and any
failures.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracing import layer_metric_names  # noqa: E402
from workload import WORKLOADS  # noqa: E402

SETUP_PROBES = 8
DEADLINE_S = 170  # every run must end within 180 s
TAIL_BEYOND = 10  # the tail percentile keeps at least this many ops beyond it
# Time of workload.calibration() on the machine the bounds were set on (a
# 2-core Xeon sandbox, Python 3.11); calibrated times are raw times scaled
# by nominal / measured, i.e. read as if the machine ran at that speed.
CALIBRATION_NOMINAL_MS = 2.0


class RunError(Exception):
    """A round could not produce a result."""


def spawn(workload: str, seed: int, deadline: float, *extra: str) -> dict:
    """Run workload.py in a fresh process and return its JSON record."""
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise RunError("out of time before the round started")
    t0 = time.perf_counter()
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--t0", repr(t0), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunError(f"round did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RunError(f"round exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, int]:
    """Value at the highest whole percentile with at least TAIL_BEYOND
    samples beyond it (nearest rank), and that percentile."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100
    p = math.floor(100 * (n - TAIL_BEYOND) / n)
    rank = max(1, min(n - TAIL_BEYOND, math.ceil(p * n / 100)))
    return xs[rank - 1], p


def row(name: str, value: float, unit: str, note: str) -> str:
    return f"{name:<44} {value:14.6f} {unit:<6} {note}"


def environment(args, rounds: int, setups: int) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            commit = "unknown (git unavailable)"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    mem_gib = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "memory": f"{mem_gib:.1f} GiB",
        "python": platform.python_version(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "cache": "cold: fresh process per run",
        "rounds": rounds,
        "setup_samples": setups,
    }


def end_to_end(args, deadline) -> tuple[dict, list[dict], list[str], list[str]]:
    probes = [
        spawn(args.workload, args.seed * 1000, deadline, "--setup-only", *args.smoke_flag)
        for _ in range(1 if args.smoke else SETUP_PROBES)
    ]
    rounds: list[dict] = []
    start = time.perf_counter()
    while True:
        rounds.append(spawn(args.workload, args.seed * 1000 + len(rounds), deadline,
                            *args.smoke_flag))
        elapsed = time.perf_counter() - start
        if args.smoke or elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break
    latencies = [x for r in rounds for x in r["latencies_ms"]]
    if not latencies:
        raise RunError("no operation completed")
    # Each round's speed: nominal / measured time of the calibration loop.
    for r in rounds:
        r["speed"] = CALIBRATION_NOMINAL_MS / statistics.median(r["calibration_ms"])
    cal_latencies = [x * r["speed"] for r in rounds for x in r["latencies_ms"]]
    tail_ms, tail_p = tail(latencies)
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    setups = [r["setup_s"] for r in probes + rounds]
    wall = sum(r["wall_s"] for r in rounds)
    cal_wall = sum(r["wall_s"] * r["speed"] for r in rounds)
    metrics = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "wall_cal_s": (statistics.median(r["wall_s"] * r["speed"] for r in rounds), "s",
                       f"median of {len(rounds)} rounds, calibrated"),
        "ops_per_cal_s": (attempted / cal_wall, "1/s", f"{attempted} ops, calibrated"),
        "op_p50_cal_ms": (statistics.median(cal_latencies), "ms",
                          f"{len(latencies)} ops, calibrated"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB",
                        "ru_maxrss, median over rounds"),
    }
    # Printed, not in BENCHMARK.json: raw times drift with the shared
    # machine's speed, the tail is the latency of about one op, and
    # fail_ratio is 0 when all is well.
    known = sum(r["known_defect_failures"] for r in rounds)
    cal_ms = statistics.median(x for r in rounds for x in r["calibration_ms"])
    notes = [
        row("wall_s", statistics.median(r["wall_s"] for r in rounds), "s",
            f"median of {len(rounds)} rounds"),
        row("ops_per_s", attempted / wall, "1/s", f"{attempted} ops"),
        row("op_p50_ms", statistics.median(latencies), "ms", f"{len(latencies)} ops"),
        row("op_tail_ms", tail_ms, "ms", f"p{tail_p} of {len(latencies)} ops"),
        row("fail_ratio", failed / attempted, "ratio",
            f"{failed} of {attempted} ops failed, {known} of them known defects"),
        row("calibration_ms", cal_ms, "ms",
            f"median; nominal {CALIBRATION_NOMINAL_MS} ms"),
    ]
    failures = [f for r in rounds for f in r["failures"]]
    result = {"attempted": attempted, "failed": failed, "metrics": metrics,
              "rounds": len(rounds), "setups": len(setups)}
    return result, probes + rounds, failures, notes


def traced(args, deadline) -> tuple[dict, list[dict], list[str], list[str]]:
    seed = args.seed * 1000
    plain = spawn(args.workload, seed, deadline, *args.smoke_flag)
    trace_file = ROOT / ".perfbench" / f"trace-{args.workload}-{args.seed}.json"
    trace_file.parent.mkdir(exist_ok=True)
    rec = spawn(args.workload, seed, deadline, "--trace-out", str(trace_file), *args.smoke_flag)
    layers = rec["layers"]
    units = dict(layer_metric_names())
    metrics = {name: (layers[name], unit, "") for name, unit in units.items()}
    overhead = rec["wall_s"] - plain["wall_s"]
    metrics["trace.overhead_s"] = (overhead, "s", "traced wall_s - untraced wall_s")
    metrics["trace.overhead_ratio"] = (overhead / plain["wall_s"], "ratio", "")
    self_times = {k: v[0] for k, v in metrics.items() if k.endswith(".self_s") and k.count(".") == 2}
    total_self = sum(self_times.values())
    top = sorted(self_times.items(), key=lambda kv: kv[1], reverse=True)[:10]
    notes = [f"trace written to {trace_file.relative_to(ROOT)}",
             f"max |sum of span self times - op duration| = {rec['self_sum_max_error_s']:.2e} s",
             "largest self times:"]
    notes += [f"  {k:<44} {v:9.3f} s  {v / total_self:6.1%}" for k, v in top]
    attempted = rec["attempted"] + plain["attempted"]
    failed = rec["failed"] + plain["failed"]
    failures = plain["failures"] + rec["failures"]
    result = {"attempted": attempted, "failed": failed, "metrics": metrics,
              "rounds": 2, "setups": 2}
    return result, [plain, rec], failures, notes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Cold-process benchmark of deltalens.")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one small round, for the benchmark's own tests")
    args = p.parse_args(argv)
    args.smoke_flag = ("--smoke",) if args.smoke else ()
    if not (ROOT / "src" / "deltalens" / "__init__.py").is_file():
        print(f"error: no deltalens sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    try:
        result, records, failures, notes = (traced if args.trace else end_to_end)(args, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    problems = [msg for r in records for msg in r["gate"]]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {result['rounds']}  ops {result['attempted']}")
    for name, (value, unit, note) in result["metrics"].items():
        print(row(name, value, unit, note))
    for line in notes:
        print(line)
    for f, n in sorted(collections.Counter(failures).items()):
        print(f"failed op ({n}x): {f}")
    for problem in problems:
        print(f"correctness check failed: {problem}", file=sys.stderr)
    print("environment " + json.dumps(environment(args, result["rounds"], result["setups"])))
    print(json.dumps({
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in result["metrics"].items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
