"""Build, warm, run and check one workload through ``repro``'s public API.

A *run* of the driver is one closed-loop measurement: every simulated
worker runs its warm-up transactions, then ``measure_txns`` measured
ones, each sent only after the previous one completed. Run 0 on a fresh
setup is the warm-up run (one transaction per worker, part of set-up);
runs 1, 2, ... are timed rounds.
Every run gets its own seeded key streams, so a seed fixes everything
the simulation does and only host time varies.
"""

from __future__ import annotations

import random
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.bench.harness import (
    build_pooling_setup,
    build_sharing_setup,
    counter_snapshot,
    reset_meters,
)
from repro.sim.rng import WorkloadRng
from repro.workloads.driver import PoolingDriver, RunResult, SharingDriver
from repro.workloads.sysbench import SysbenchWorkload

from spec import (
    POOL_INSTANCES,
    ROUND_WARMUP_TXNS,
    SHARE_NODES,
    SHARE_PCT,
    SHARE_ZIPF_THETA,
    Workload,
)

__all__ = ["Round", "Bench", "SHARED_TABLE"]

SHARED_TABLE = "sbtest_shared"
_POOL_TABLE = "sbtest1"
_HOT_RANKS = 32
_RANDOM_SAMPLE = 32
# WorkloadRng.zipf scatters rank r to key 1 + (r * this) % rows.
_ZIPF_SCATTER = 2_654_435_761


def top1pct_mean_ns(latency: Any) -> float:
    """Mean latency of the slowest 1% of transactions: the mean of the
    recorder's interpolated percentiles over [99, 100] (trapezoid rule).

    Lock queues quantise the sharing workloads' latencies into steps, and
    the p99 sits on the edge of one: from seed to seed it jumps between
    about 40 and 51 ms on the RDMA baseline. The mean beyond it moves
    with the share of transactions on each step instead of jumping.
    """
    steps = 200
    points = [latency.percentile_ns(99.0 + i / steps) for i in range(steps + 1)]
    return (sum(points) - (points[0] + points[-1]) / 2) / steps


@dataclass
class Round:
    """One driver run: host cost, simulated result and a state fingerprint."""

    index: int
    expected_txns: int  # measured transactions the run should complete
    host_s: float = 0.0
    executed_txns: int = 0  # warm-up plus measured, what host time covers
    result: Optional[RunResult] = None
    p50_ns: float = 0.0
    p99_ns: float = 0.0
    top1pct_mean_ns: float = 0.0
    samples: int = 0
    error: Optional[str] = None
    fingerprint: dict[str, float] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return self.result.txns if self.result is not None and self.error is None else 0

    @property
    def failed(self) -> int:
        return self.expected_txns - self.completed

    @property
    def host_txn_per_s(self) -> float:
        return self.executed_txns / self.host_s if self.host_s > 0 else 0.0


class Bench:
    """One workload at one seed."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.sharing = workload.system != "pool-cxl"
        if self.sharing:
            self.sysbench = SysbenchWorkload(
                rows=workload.rows,
                n_nodes=SHARE_NODES,
                key_dist="zipf",
                zipf_theta=SHARE_ZIPF_THETA,
            )
        else:
            self.sysbench = SysbenchWorkload(rows=workload.rows)

    @property
    def total_workers(self) -> int:
        groups = SHARE_NODES if self.sharing else POOL_INSTANCES
        return groups * self.workload.workers

    # -- set-up ----------------------------------------------------------------------

    def build(self) -> Any:
        """Build, load and pre-warm a setup, then run the warm-up run."""
        if self.sharing:
            system = "cxl" if self.workload.system == "share-cxl" else "rdma"
            setup = build_sharing_setup(system, SHARE_NODES, self.sysbench, seed=self.seed)
        else:
            setup = build_pooling_setup("cxl", POOL_INSTANCES, self.sysbench, seed=self.seed)
        warm = self.run_round(setup, 0, measure_txns=0, warmup_txns=1)
        if warm.error is not None:
            raise RuntimeError(f"warm-up run failed: {warm.error}")
        return setup

    # -- one driver run --------------------------------------------------------------

    def driver(
        self, setup: Any, index: int, measure_txns: int, warmup_txns: int = ROUND_WARMUP_TXNS
    ) -> Any:
        rng = WorkloadRng(self.seed).fork(1 + index)
        if self.sharing:
            return SharingDriver(
                setup.sim,
                setup.nodes,
                setup.hosts,
                self.sysbench.sharing_txn_fn(self.workload.mix),
                shared_pct=SHARE_PCT,
                rng=rng,
                workers_per_node=self.workload.workers,
                warmup_txns=warmup_txns,
                measure_txns=measure_txns,
            )
        for slot, ictx in enumerate(setup.instances):
            ictx.rng = rng.fork(1 + slot)
        return PoolingDriver(
            setup.sim,
            setup.instances,
            self.sysbench.txn_fn(self.workload.mix),
            workers_per_instance=self.workload.workers,
            warmup_txns=warmup_txns,
            measure_txns=measure_txns,
        )

    def run_round(
        self,
        setup: Any,
        index: int,
        measure_txns: Optional[int] = None,
        warmup_txns: int = ROUND_WARMUP_TXNS,
        tracer: Any = None,
    ) -> Round:
        """Run the driver once; ``tracer`` (if given) records only this run."""
        if measure_txns is None:
            measure_txns = self.workload.measure_txns
        contexts = setup.nodes if self.sharing else setup.instances
        reset_meters(contexts)
        before = self.state(setup)
        driver = self.driver(setup, index, measure_txns, warmup_txns)
        rnd = Round(index, expected_txns=self.total_workers * measure_txns)
        if tracer is not None:
            tracer.start()
        t0 = time.perf_counter()
        try:
            rnd.result = driver.run()
        except Exception as exc:  # a raising transaction fails the whole run
            traceback.print_exc()
            rnd.error = f"{type(exc).__name__}: {exc}"
        finally:
            rnd.host_s = time.perf_counter() - t0
            if tracer is not None:
                tracer.stop()
        if rnd.error is None:
            if rnd.result.txns != rnd.expected_txns:
                rnd.error = (
                    f"{rnd.result.txns} of {rnd.expected_txns} measured transactions finished"
                )
            elif rnd.result.queries != rnd.expected_txns * self.workload.queries_per_txn:
                rnd.error = f"{rnd.result.queries} queries, expected a fixed mix"
        if rnd.error is None:
            rnd.executed_txns = self.total_workers * (warmup_txns + measure_txns)
        rnd.samples = driver.latency.count
        rnd.p50_ns = driver.latency.percentile_ns(50)
        rnd.p99_ns = driver.latency.percentile_ns(99)
        rnd.top1pct_mean_ns = top1pct_mean_ns(driver.latency)
        after = self.state(setup)
        rnd.fingerprint = {key: after[key] - before.get(key, 0.0) for key in after}
        if rnd.result is not None:
            for key, value in rnd.result.to_dict().items():
                rnd.fingerprint[f"result.{key}"] = value
        rnd.fingerprint["result.p50_ns"] = rnd.p50_ns
        rnd.fingerprint["result.p99_ns"] = rnd.p99_ns
        rnd.fingerprint["result.top1pct_mean_ns"] = rnd.top1pct_mean_ns
        return rnd

    def state(self, setup: Any) -> dict[str, float]:
        """Cumulative, deterministic counters of a setup (public attributes)."""
        out = {f"counter.{k}": float(v) for k, v in counter_snapshot(setup).items()}
        out["sim.now_ns"] = float(setup.sim.now)
        for pipes in self.pipes_by_key(setup).values():
            for pipe in pipes:
                out[f"pipe.{pipe.name}.bytes"] = float(pipe.total_bytes)
                out[f"pipe.{pipe.name}.transfers"] = float(pipe.total_transfers)
        if self.sharing:
            out["lock.acquires"] = float(setup.lock_service.acquires)
            out["lock.contended"] = float(setup.lock_service.contended_acquires)
            for node in setup.nodes:
                cache = getattr(node.engine.buffer_pool, "cpu_cache", None)
                if cache is not None:
                    for attr in ("fills", "write_backs", "stale_serves"):
                        key = f"cpu_cache.{attr}"
                        out[key] = out.get(key, 0.0) + getattr(cache, attr)
        return out

    def pipes_by_key(self, setup: Any) -> dict[str, list[Any]]:
        """Distinct pipes per route key (``cxl``, ``rdma``, ``wal``, ...)."""
        hosts = setup.hosts if self.sharing else [setup.host]
        out: dict[str, dict[str, Any]] = {}
        for host in hosts:
            for key, routed in host.pipes.items():
                for pipe in routed:
                    out.setdefault(key, {})[pipe.name] = pipe
        return {key: list(pipes.values()) for key, pipes in out.items()}

    # -- output checks ---------------------------------------------------------------

    def check(self, setup: Any) -> list[str]:
        """Check the data the run left behind; returns the problems found."""
        return self._check_sharing(setup) if self.sharing else self._check_pooling(setup)

    def _expected_row_problems(self, where: str, key: int, row: Optional[dict]) -> list[str]:
        # The loader writes id = key and pad = "p-<key:08d>" * 6; updates
        # change only k and c, and delete plus insert restores the row.
        if row is None:
            return [f"{where}: key {key} missing"]
        problems = []
        if row["id"] != key:
            problems.append(f"{where}: key {key} has id {row['id']}")
        if row["pad"] != bytes(f"p-{key:08d}", "ascii") * 6:
            problems.append(f"{where}: key {key} has a changed pad")
        if not 0 <= row["k"] < 4096 or len(row["c"]) != 120:
            problems.append(f"{where}: key {key} has k/c out of shape")
        return problems

    def _check_pooling(self, setup: Any) -> list[str]:
        problems: list[str] = []
        rows = self.workload.rows
        for index, ictx in enumerate(setup.instances):
            where = f"instance {index}"
            engine = ictx.engine
            table = engine.tables[_POOL_TABLE]
            mtr = engine.mtr()
            try:
                table.btree.verify(mtr)
                found = table.range(mtr, 1, rows + 1)
            except Exception as exc:  # any corruption is a failed check
                problems.append(f"{where}: {type(exc).__name__}: {exc}")
                continue
            finally:
                mtr.commit()
            if len(found) != rows:
                problems.append(f"{where}: {len(found)} rows, expected {rows}")
            for key, row in enumerate(found, start=1):
                problems.extend(self._expected_row_problems(where, key, row))
        return problems

    def sample_keys(self) -> list[int]:
        """The 32 hottest zipf keys plus a seeded random sample."""
        rows = self.workload.rows
        keys = {1 + (rank * _ZIPF_SCATTER) % rows for rank in range(_HOT_RANKS)}
        rng = random.Random(self.seed)
        keys.update(rng.randint(1, rows) for _ in range(_RANDOM_SAMPLE))
        return sorted(keys)

    def _check_sharing(self, setup: Any) -> list[str]:
        problems: list[str] = []
        keys = self.sample_keys()
        seen: dict[int, dict] = {}
        for node in setup.nodes:
            for key in keys:
                try:
                    row = setup.sim.run_process(node.point_select(SHARED_TABLE, key))
                except Exception as exc:
                    problems.append(f"{node.node_id}: read {key}: {type(exc).__name__}: {exc}")
                    continue
                if key not in seen:
                    seen[key] = row
                    problems.extend(self._expected_row_problems(node.node_id, key, row))
                elif row != seen[key]:
                    problems.append(
                        f"{node.node_id}: key {key} differs from {setup.nodes[0].node_id}'s read"
                    )
        return problems
