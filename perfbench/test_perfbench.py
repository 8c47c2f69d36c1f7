"""Tests of the benchmark itself (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench -q

They use the real workloads with few measured transactions per worker,
so each builds full setups; the whole file takes about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from bench import SHARED_TABLE, Bench, top1pct_mean_ns  # noqa: E402
from layertrace import LayerTracer, resolve  # noqa: E402
from perlayer import layer_metrics, pipe_stats  # noqa: E402
from repro.sim.stats import LatencyRecorder  # noqa: E402
from run import run_timed  # noqa: E402
from spec import (  # noqa: E402
    END_TO_END,
    EXERCISED,
    GROUPS,
    LAYER_MAP,
    PER_LAYER,
    WORKLOADS,
    WORKLOADS_BY_NAME,
    benchmark_json,
)

SMALL = 2  # measured transactions per worker


def _small(name: str) -> Bench:
    workload = dataclasses.replace(WORKLOADS_BY_NAME[name], measure_txns=SMALL)
    return Bench(workload, seed=7)


def _sim(bench: Bench, seed: int) -> dict[str, float]:
    bench = Bench(bench.workload, seed)
    rnd = bench.run_round(bench.build(), 1)
    assert rnd.error is None, rnd.error
    return rnd.fingerprint


def test_benchmark_json_is_generated_from_the_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == benchmark_json()


@pytest.mark.parametrize("entry", LAYER_MAP, ids=lambda e: e.target)
def test_layer_map_function_exists(entry):
    resolve(entry.target)  # raises LookupError when renamed or removed


def test_groups_and_exercised_layers_refer_to_the_map():
    targets = {entry.target for entry in LAYER_MAP}
    assert len(targets) == len(LAYER_MAP)
    for members in GROUPS.values():
        assert set(members) <= targets
    assert set(EXERCISED) == {entry.layer for entry in LAYER_MAP}
    names = {w.name for w in WORKLOADS}
    for workloads in EXERCISED.values():
        assert workloads <= names


def test_timed_run_reports_every_end_to_end_metric():
    result, problems = run_timed(_small("pool-point-select"), seconds=0.0)
    assert problems == []
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m.name for m in END_TO_END]
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_top1pct_mean_moves_with_the_share_on_a_step():
    def recorder(slow: int) -> LatencyRecorder:
        rec = LatencyRecorder()
        for i in range(1000):
            rec.add(50.0 if i >= 1000 - slow else 40.0)
        return rec

    # 8, 10 and 12 slow samples of 1,000: the p99 jumps from the lower
    # step to the upper one; the slowest-1% mean moves by a fifth of it.
    p99s = [recorder(slow).percentile_ns(99) for slow in (8, 10, 12)]
    means = [top1pct_mean_ns(recorder(slow)) for slow in (8, 10, 12)]
    assert p99s[0] == 40.0 and p99s[2] == 50.0
    assert 40.0 < means[0] < means[1] < means[2] <= 50.0
    assert means[2] - means[0] < 0.5 * (p99s[2] - p99s[0])
    uniform = LatencyRecorder()
    for value in range(1000):
        uniform.add(float(value))
    assert top1pct_mean_ns(uniform) == pytest.approx((989.01 + 999.0) / 2)


def test_seed_changes_the_sharing_op_stream():
    bench = _small("share-point-update")
    setup = bench.build()
    streams = []
    for seed in (7, 11):
        driver = Bench(bench.workload, seed).driver(setup, 1, SMALL)
        worker_rng = driver.rng.fork(1)
        streams.append([driver.txn_ops_fn(worker_rng, 0, 100.0) for _ in range(4)])
    assert streams[0] != streams[1]


def test_one_seed_repeats_every_sim_metric_and_two_seeds_differ():
    bench = _small("share-point-update")
    first, again, other = _sim(bench, 7), _sim(bench, 7), _sim(bench, 11)
    assert first == again
    assert first["result.qps"] != other["result.qps"]


@pytest.mark.parametrize("name", [w.name for w in WORKLOADS])
def test_traced_run_is_neutral_accounted_and_reaches_its_layers(name):
    bench = _small(name)
    untraced = bench.run_round(bench.build(), 1)
    tracer = LayerTracer(LAYER_MAP, GROUPS)
    with tracer:
        setup = bench.build()
        traced = bench.run_round(setup, 1, tracer=tracer)
        pipes = pipe_stats(bench, setup, tracer)
    assert untraced.error is None and traced.error is None
    assert traced.fingerprint == untraced.fingerprint
    assert tracer.txns == traced.executed_txns > 0

    # Self times partition the driver run; the rest is the benchmark's
    # own code around the call, a sliver of the traced wall time.
    covered = sum(tracer.layer_self_ns().values())
    wall = traced.host_s * 1e9
    assert 0 < covered <= wall
    assert wall - covered < 0.01 * wall

    silent = [
        layer
        for layer, workloads in EXERCISED.items()
        if name in workloads and tracer.layer_starts(layer) == 0
    ]
    assert not silent, f"{name}: no calls recorded into {silent}"
    metrics, _ = layer_metrics(bench, traced, untraced, tracer, pipes)
    assert list(metrics) == [m.name for m in PER_LAYER]
    assert bench.check(setup) == []


def test_output_checks_catch_a_changed_row():
    bench = _small("pool-read-write")
    setup = bench.build()
    engine = setup.instances[0].engine
    mtr = engine.mtr()
    engine.tables["sbtest1"].update_field(mtr, 5, "pad", b"x" * 60)
    mtr.commit()
    assert any("key 5 has a changed pad" in p for p in bench.check(setup))


def test_output_checks_catch_a_stale_read():
    bench = _small("share-point-update")
    setup = bench.build()
    writer = setup.nodes[0]
    key = bench.sample_keys()[0]
    for node in setup.nodes:  # every node caches the row
        row = setup.sim.run_process(node.point_select(SHARED_TABLE, key))
    # Protocol mutation: release the write lock without flushing the
    # modified lines, so other nodes keep reading the old bytes.
    writer.engine.buffer_pool._mutate_skip_flush = True
    setup.sim.run_process(writer.point_update(SHARED_TABLE, key, "k", (row["k"] + 1) % 4096))
    writer.engine.buffer_pool._mutate_skip_flush = False
    assert any(f"key {key} differs" in p for p in bench.check(setup))
