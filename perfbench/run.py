"""Repository benchmark: simulator host cost and simulated results.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pool-point-select --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 10
    python3 perfbench/run.py --write-spec        # regenerate BENCHMARK.json

``--trace 0`` builds the setup ``SETUP_REPEATS`` times (median is
``setup_s``), then runs timed rounds on the last build until ``--seconds``
have passed, checks the data the rounds left behind and prints the
end-to-end metrics. ``--trace 1`` runs one untraced and one traced round,
each on a fresh build, requires their simulated results and counters to
be identical, and prints the per-layer metrics. ``--workload all`` runs
every workload in its own process, both ways, and prints the CXL-over-RDMA
gain beside the paper's. The last stdout line is always one JSON object;
the exit code is 1 when a check failed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from bench import Bench, Round  # noqa: E402
from calibrate import KERNELS_PER_REF_S, kernel_seconds  # noqa: E402
from layertrace import LayerTracer  # noqa: E402
from perlayer import layer_metrics, pipe_stats  # noqa: E402
from spec import (  # noqa: E402
    END_TO_END,
    FAILED_FRAC,
    GROUPS,
    LAYER_MAP,
    PAPER_CXL_OVER_RDMA_PCT_AT_100,
    PER_LAYER,
    SETUP_REPEATS,
    WORKLOADS,
    WORKLOADS_BY_NAME,
    write_benchmark_json,
)

OUT_DIR = ROOT / ".perfbench-out"
# Least host time the calibration kernel runs after a host round, as a
# share of the round's own time.
KERNEL_SHARE = 0.25
_UNITS = {m.name: m.unit for m in (*END_TO_END, FAILED_FRAC, *PER_LAYER)}


def _line(name: str, value: float, note: str = "") -> str:
    return f"  {name:<46} {value:>14.6g} {_UNITS.get(name, ''):<8} {note}"


def _result(correct: bool, attempted: int, failed: int, metrics: dict[str, float]) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": _UNITS[name]} for name, value in metrics.items()
        },
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- timed run (end-to-end metrics) -------------------------------------------------------


def run_timed(bench: Bench, seconds: float) -> tuple[dict, list[str]]:
    setup_times = []
    setup = None
    for _ in range(SETUP_REPEATS):
        setup = None  # free the previous build before the next one
        t0 = time.perf_counter()
        setup = bench.build()
        setup_times.append(time.perf_counter() - t0)

    # Round 1 gives the sim metrics. Host rounds give the host speed: after
    # each, the calibration kernel runs for at least KERNEL_SHARE of the
    # round's time, and a round's speed in reference seconds is its
    # transactions per host second scaled by the kernel's mean time on
    # either side of it.
    first = bench.run_round(setup, 1)
    rounds: list[Round] = [first]
    kernels = [kernel_seconds(0.0)]
    window_start = time.perf_counter()
    while first.error is None:
        rnd = bench.run_round(setup, len(rounds) + 1, measure_txns=bench.workload.host_txns,
                              warmup_txns=0)
        rounds.append(rnd)
        kernels.append(kernel_seconds(KERNEL_SHARE * rnd.host_s))
        if rnd.error is not None or time.perf_counter() - window_start >= seconds:
            break
    window_s = time.perf_counter() - window_start
    host_rounds = rounds[1:]
    per_ref_s = [
        r.host_txn_per_s * (kernels[i] + kernels[i + 1]) / 2 * KERNELS_PER_REF_S
        for i, r in enumerate(host_rounds)
    ]

    problems = [f"round {r.index}: {r.error}" for r in rounds if r.error is not None]
    check_problems = bench.check(setup)
    problems += check_problems
    attempted = sum(r.expected_txns for r in rounds)
    failed = attempted if check_problems else sum(r.failed for r in rounds)

    executed_queries = first.executed_txns * bench.workload.queries_per_txn
    counters = first.result.counters if first.result is not None else {}
    moved = counters.get("cxl_bytes", 0.0) + counters.get("rdma_bytes", 0.0)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "host_txn_per_ref_s": statistics.median(per_ref_s) if per_ref_s else 0.0,
        "host_peak_rss_mb": _peak_rss_mb(),
        "sim_kqps": first.result.qps / 1e3 if first.result is not None else 0.0,
        "sim_txn_p50_us": first.p50_ns / 1e3,
        "sim_txn_top1pct_mean_us": first.top1pct_mean_ns / 1e3,
        "sim_interconnect_bytes_per_query": moved / executed_queries if executed_queries else 0.0,
    }
    raw = [r.host_txn_per_s for r in host_rounds]
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} builds "
        + " ".join(f"{t:.3f}" for t in setup_times),
        "host_txn_per_ref_s": f"median of {len(host_rounds)} rounds, "
        f"{sum(r.executed_txns for r in host_rounds)} txns in {window_s:.2f} s",
        "host_peak_rss_mb": "ru_maxrss",
        "sim_kqps": f"round 1: {first.completed} measured txns",
        "sim_txn_p50_us": f"{first.samples} samples",
        "sim_txn_top1pct_mean_us": f"{first.samples} samples, {first.samples // 100} beyond "
        f"the p99 of {first.p99_ns / 1e3:.1f} us",
        "sim_interconnect_bytes_per_query": f"{moved:.0f} B over {executed_queries} queries",
    }
    print(f"perfbench {bench.workload.name} seed={bench.seed} trace=0")
    for name, value in metrics.items():
        print(_line(name, value, notes[name]))
    print(_line(FAILED_FRAC.name, failed / attempted, f"{failed} of {attempted} txns failed"))
    if raw:
        print(f"  (unscaled: median {statistics.median(raw):.6g} txn per host second; "
              f"kernel median {statistics.median(kernels) * 1e3:.2f} ms)")
    return _result(not problems, attempted, failed, metrics), problems


# -- traced run (per-layer metrics) -------------------------------------------------------


def run_traced(bench: Bench) -> tuple[dict, list[str]]:
    setup = bench.build()
    untraced = bench.run_round(setup, 1)
    setup = None
    tracer = LayerTracer(LAYER_MAP, GROUPS)
    with tracer:
        setup = bench.build()
        traced = bench.run_round(setup, 1, tracer=tracer)
        pipes = pipe_stats(bench, setup, tracer)

    problems = [f"{name} round: {r.error}" for name, r in (("untraced", untraced),
                                                          ("traced", traced)) if r.error]
    for key in sorted(set(untraced.fingerprint) | set(traced.fingerprint)):
        a, b = untraced.fingerprint.get(key), traced.fingerprint.get(key)
        if a != b:
            problems.append(f"tracing changed {key}: {a} untraced, {b} traced")
    if tracer.txns != traced.executed_txns:
        problems.append(f"traced {tracer.txns} transactions, expected {traced.executed_txns}")
    check_problems = bench.check(setup)
    problems += check_problems

    metrics, bases = layer_metrics(bench, traced, untraced, tracer, pipes)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{bench.workload.name}-seed{bench.seed}.spans.json.gz"
    tracer.write_spans(
        str(spans_path),
        {"workload": bench.workload.name, "seed": bench.seed, "txns": tracer.txns},
    )

    print(f"perfbench {bench.workload.name} seed={bench.seed} trace=1")
    print(f"  {len(tracer.spans)} spans -> {spans_path.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(_line(name, value, bases.get(name, "")))
    attempted = traced.expected_txns
    failed = attempted if check_problems else traced.failed
    return _result(not problems, attempted, failed, metrics), problems


# -- all workloads ------------------------------------------------------------------------


def _child(workload: str, seed: int, seconds: float, trace: int) -> Optional[dict]:
    """Run one workload in a fresh process; echo its report, return its result."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False, timeout=900,
    )
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def run_all(seed: int, seconds: float) -> tuple[dict, list[str]]:
    problems: list[str] = []
    attempted = failed = 0
    metrics: dict[str, Any] = {}
    kqps: dict[str, float] = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = _child(workload.name, seed, seconds, trace)
            if result is None:
                problems.append(f"{workload.name} trace={trace}: no result")
                continue
            if not result["correct"]:
                problems.append(f"{workload.name} trace={trace}: incorrect")
            attempted += result["attempted"]
            failed += result["failed"]
            for name, entry in result["metrics"].items():
                metrics[f"{workload.name}.{name}"] = entry
            if trace == 0:
                kqps[workload.name] = result["metrics"]["sim_kqps"]["value"]
    cxl, rdma = kqps.get("share-point-update"), kqps.get("rdma-share-point-update")
    if cxl and rdma:
        gain = (cxl / rdma - 1.0) * 100.0
        print(
            f"CXL over RDMA at 100% shared (sim_kqps): {gain:+.1f}% "
            f"({cxl:.2f} vs {rdma:.2f} kqps); paper Fig. 11: "
            f"+{PAPER_CXL_OVER_RDMA_PCT_AT_100:.0f}%"
        )
        metrics["cxl_over_rdma_gain_pct"] = {"value": gain, "unit": "%"}
    return (
        {"correct": not problems, "attempted": max(attempted, 1), "failed": failed,
         "metrics": metrics},
        problems,
    )


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS_BY_NAME, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the repository root and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        write_benchmark_json(ROOT / "BENCHMARK.json")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        result, problems = run_all(args.seed, args.seconds)
    else:
        bench = Bench(WORKLOADS_BY_NAME[args.workload], args.seed)
        if args.trace:
            result, problems = run_traced(bench)
        else:
            result, problems = run_timed(bench, args.seconds)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
