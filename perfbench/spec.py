"""What the benchmark measures: workloads, metrics and the layer map.

This module is the single source of ``BENCHMARK.json``
(``python3 perfbench/run.py --write-spec``) and of the wrapped public
functions behind every per-layer number.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from layertrace import Entry

# -- workloads ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    system: str  # "pool-cxl" | "share-cxl" | "share-rdma"
    mix: str
    rows: int
    workers: int  # simulated workers per instance / node
    measure_txns: int  # measured transactions per worker in the sim round
    host_txns: int  # transactions per worker in one host round
    queries_per_txn: int


WORKLOADS = (
    Workload(
        "pool-point-select",
        "CXL pooling, 4 instances, uniform point selects: B-tree lookups through "
        "page, metering and line-cache layers, no writes or coherency",
        "pool-cxl", "point_select", rows=3000, workers=16, measure_txns=16,
        host_txns=16, queries_per_txn=1,
    ),
    Workload(
        "pool-read-write",
        "CXL pooling, 4 instances, sysbench read_write: range walks, record "
        "decoding, mtr commits and redo onto the WAL pipe",
        "pool-cxl", "read_write", rows=3000, workers=16, measure_txns=16,
        host_txns=1, queries_per_txn=18,
    ),
    Workload(
        "share-point-update",
        "CXL multi-primary sharing, 8 nodes, zipf 0.9, 100% shared point updates: "
        "page locks, fusion RPCs, clflush and invalidation",
        "share-cxl", "point_update", rows=1500, workers=16, measure_txns=32,
        host_txns=1, queries_per_txn=10,
    ),
    Workload(
        "rdma-share-point-update",
        "the same sharing workload on the PolarDB-MP RDMA baseline: LBP, DBP "
        "server, 16 KB page flushes and invalidation messages",
        "share-rdma", "point_update", rows=1500, workers=16, measure_txns=32,
        host_txns=1, queries_per_txn=10,
    ),
)
WORKLOADS_BY_NAME = {w.name: w for w in WORKLOADS}

POOL_INSTANCES = 4
SHARE_NODES = 8
SHARE_ZIPF_THETA = 0.9
SHARE_PCT = 100.0
# Paper, Fig. 11: PolarCXLMem over PolarDB-MP (RDMA) at 100% shared data.
PAPER_CXL_OVER_RDMA_PCT_AT_100 = 27.0

# Builds per run whose median is ``setup_s``.
SETUP_REPEATS = 3
# Unmeasured transactions per worker at the start of the sim round.
# With 1, all workers leaving the start barrier together set the sharing
# workloads' tail latency (p99 IQR/median 0.09-0.10 over ten seeds); with
# 4 the start no longer shows in it.
ROUND_WARMUP_TXNS = 4

# -- metrics -----------------------------------------------------------------------------


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float = 0.0  # end-to-end only


# Bounds: set-up and host speed get the largest share allowed because the
# machine's own speed drifts by half and more over minutes. Set-up is in host
# seconds (IQR/median over ten seeds on a shared 2-core box up to 0.29);
# host speed is in reference seconds (calibrate.py), which takes the
# drift out (up to 0.06). The sim metrics move only with the seed (the
# slowest-1% mean up to 0.05, the others up to 0.025).
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("host_txn_per_ref_s", "1/ref_s", "higher", 0.25),
    Metric("host_peak_rss_mb", "MB", "lower", 0.1),
    Metric("sim_kqps", "kqps", "higher", 0.1),
    Metric("sim_txn_p50_us", "us", "lower", 0.1),
    Metric("sim_txn_top1pct_mean_us", "us", "lower", 0.2),
    Metric("sim_interconnect_bytes_per_query", "B", "lower", 0.1),
)

# Printed with the end-to-end metrics but kept out of BENCHMARK.json: it
# is 0 whenever the benchmark passes, and the JSON result already carries
# it as ``failed`` over ``attempted``.
FAILED_FRAC = Metric("txn_failed_frac", "1", "lower")

# Per-layer metrics of the traced run: (layer, metric, unit). Names are
# ``<layer>.<metric>``; the layers are this repository's modules.
_PER_LAYER = (
    ("trace", "txns", "count"),
    ("trace", "queries", "count"),
    ("trace", "wall_us_per_txn", "us/txn"),
    ("trace", "overhead_ratio", "ratio"),
    ("trace", "unattributed_us_per_txn", "us/txn"),
    ("trace", "wrapped_calls_per_txn", "1/txn"),
    ("workloads.driver", "self_us_per_txn", "us/txn"),
    ("workloads.sysbench", "opgen_us_per_txn", "us/txn"),
    ("db.btree", "lookups_per_txn", "1/txn"),
    ("db.btree", "pages_per_lookup", "1/lookup"),
    ("db.btree", "range_rows_per_scan", "1/scan"),
    ("db.btree", "self_us_per_txn", "us/txn"),
    ("db.page", "reads_per_query", "1/query"),
    ("db.page", "writes_per_query", "1/query"),
    ("db.page", "self_us_per_txn", "us/txn"),
    ("db.mtr", "commits_per_txn", "1/txn"),
    ("db.mtr", "redo_records_per_txn", "1/txn"),
    ("db.mtr", "redo_bytes_per_txn", "B/txn"),
    ("db.mtr", "wal_flushes_per_txn", "1/txn"),
    ("db.mtr", "self_us_per_txn", "us/txn"),
    ("hardware.memory", "metered_reads_per_query", "1/query"),
    ("hardware.memory", "metered_writes_per_query", "1/query"),
    ("hardware.memory", "burst_reads_per_txn", "1/txn"),
    ("hardware.memory", "cxl_bytes_per_query", "B/query"),
    ("hardware.memory", "rdma_bytes_per_query", "B/query"),
    ("hardware.memory", "self_us_per_txn", "us/txn"),
    ("hardware.cache", "line_touches_per_query", "1/query"),
    ("hardware.cache", "line_hit_ratio", "ratio"),
    ("hardware.cache", "line_self_us_per_txn", "us/txn"),
    ("hardware.cache", "cpu_accesses_per_txn", "1/txn"),
    ("hardware.cache", "cpu_hit_ratio", "ratio"),
    ("hardware.cache", "cpu_clflush_lines_per_release", "1/release"),
    ("hardware.cache", "cpu_invalidated_lines_per_txn", "1/txn"),
    ("hardware.cache", "cpu_self_us_per_txn", "us/txn"),
    ("sim.settle", "settles_per_txn", "1/txn"),
    ("sim.settle", "charges_per_settle", "1/settle"),
    ("sim.settle", "self_us_per_txn", "us/txn"),
    ("sim.core", "events_per_txn", "1/txn"),
    ("sim.core", "self_ns_per_event", "ns/event"),
    ("sim.resources", "cxl_busy_frac", "ratio"),
    ("sim.resources", "cxl_wait_us_per_txn", "us/txn"),
    ("sim.resources", "rdma_busy_frac", "ratio"),
    ("sim.resources", "rdma_wait_us_per_txn", "us/txn"),
    ("sim.resources", "wal_busy_frac", "ratio"),
    ("sim.resources", "wal_wait_us_per_txn", "us/txn"),
    ("sim.resources", "client_busy_frac", "ratio"),
    ("sim.resources", "client_wait_us_per_txn", "us/txn"),
    ("sim.resources", "self_us_per_txn", "us/txn"),
    ("core.cxl_bufferpool", "get_pages_per_txn", "1/txn"),
    ("core.cxl_bufferpool", "self_us_per_txn", "us/txn"),
    ("core.sharing", "get_pages_per_txn", "1/txn"),
    ("core.sharing", "flushes_per_txn", "1/txn"),
    ("core.sharing", "invalidations_observed_per_txn", "1/txn"),
    ("core.sharing", "line_refetches_per_txn", "1/txn"),
    ("core.sharing", "flag_reads_per_txn", "1/txn"),
    ("core.sharing", "self_us_per_txn", "us/txn"),
    ("core.fusion", "request_page_rpcs_per_txn", "1/txn"),
    ("core.fusion", "on_write_release_rpcs_per_txn", "1/txn"),
    ("core.fusion", "reshare_rpcs_per_txn", "1/txn"),
    ("core.fusion", "invalidations_pushed_per_txn", "1/txn"),
    ("core.fusion", "lock_acquires_per_txn", "1/txn"),
    ("core.fusion", "lock_contended_frac", "ratio"),
    ("core.fusion", "lock_wait_us_per_txn", "us/txn"),
    ("core.fusion", "self_us_per_txn", "us/txn"),
    ("baselines.rdma_sharing", "dbp_rpcs_per_txn", "1/txn"),
    ("baselines.rdma_sharing", "invalidation_messages_per_txn", "1/txn"),
    ("baselines.rdma_sharing", "page_flush_bytes_per_txn", "B/txn"),
    ("baselines.rdma_sharing", "lbp_refetches_per_txn", "1/txn"),
    ("baselines.rdma_sharing", "self_us_per_txn", "us/txn"),
)
# Work counts, bytes and times are better lower; hit ratios, the tracing
# overhead ratio (traced over untraced speed) and base counts higher.
_HIGHER = {"line_hit_ratio", "cpu_hit_ratio", "overhead_ratio", "txns", "queries",
           "range_rows_per_scan"}
PER_LAYER = tuple(
    Metric(f"{layer}.{metric}", unit, "higher" if metric in _HIGHER else "lower")
    for layer, metric, unit in _PER_LAYER
)

# -- layer map ---------------------------------------------------------------------------
# Count hooks: pre(tracer, args) -> state; post(tracer, args, result, state).


def _add(tracer: Any, key: str, amount: float) -> None:
    tracer.counts[key] = tracer.counts.get(key, 0.0) + amount


def _descent_pre(tracer: Any, args: tuple) -> int:
    return tracer.group_starts("get_page")


def _descent_post(tracer: Any, args: tuple, result: Any, state: int) -> None:
    _add(tracer, "descent_pages", tracer.group_starts("get_page") - state)


def _scan_post(tracer: Any, args: tuple, result: Any, state: Any) -> None:
    _add(tracer, "range_rows", len(result))


def _redo_post(tracer: Any, args: tuple, result: Any, state: Any) -> None:
    _add(tracer, "redo_bytes", len(args[3]))


def _flush_pre(tracer: Any, args: tuple) -> int:
    return args[0].flushes


def _flush_post(tracer: Any, args: tuple, result: Any, state: int) -> None:
    _add(tracer, "wal_flushes", args[0].flushes - state)


def _mem_read_post(tracer: Any, args: tuple, result: Any, state: Any) -> None:
    if args[2] >= args[0].timing.burst_threshold:
        _add(tracer, "burst_reads", 1)


def _touch_post(tracer: Any, args: tuple, result: Any, state: Any) -> None:
    _add(tracer, "line_hits", result[0])
    _add(tracer, "line_misses", result[1])


def _clflush_post(tracer: Any, args: tuple, result: Any, state: Any) -> None:
    _add(tracer, "clflush_lines", result)


def _invalidate_post(tracer: Any, args: tuple, result: Any, state: Any) -> None:
    _add(tracer, "invalidated_lines", result)


def _settle_pre(tracer: Any, args: tuple) -> None:
    # The generator is created with the meter's charges still pending.
    _add(tracer, "settle_charges", len(args[0].meter.transfers))


def _backlog_pre(tracer: Any, args: tuple) -> None:
    pipe = args[0]
    _add(tracer, f"pipe_wait_ns.{pipe.name}", pipe.backlog_ns)


def _lock_pre(tracer: Any, args: tuple) -> int:
    return args[0].sim.now


def _lock_post(tracer: Any, args: tuple, result: Any, state: int) -> None:
    _add(tracer, "lock_wait_ns", args[0].sim.now - state)


def _page_flush_post(tracer: Any, args: tuple, result: Any, state: Any) -> None:
    _add(tracer, "page_flush_bytes", len(args[2]))


_PAGE_READS = ("read", "read_u64", "read_u16", "read_u8", "image")
_PAGE_WRITES = ("write", "write_u64", "write_u16", "write_u8")
_DESCENTS = ("lookup", "update", "delete", "insert", "leaf_page_id_for")

LAYER_MAP: tuple[Entry, ...] = (
    # The driver's run() is the root; the worker generators it hands to
    # Simulator.process are resumed once per simulated step.
    Entry("workloads.driver", "repro.workloads.driver:PoolingDriver.run", "span"),
    Entry("workloads.driver", "repro.workloads.driver:SharingDriver.run", "span"),
    Entry("workloads.driver", "repro.sim.core:Simulator.process", "process"),
    # Transaction bodies (pooling) and op-list generators (sharing).
    Entry("workloads.sysbench",
          "repro.workloads.sysbench:SysbenchWorkload.txn_point_select", "txn"),
    Entry("workloads.sysbench", "repro.workloads.sysbench:SysbenchWorkload.txn_read_write", "txn"),
    Entry("workloads.sysbench",
          "repro.workloads.sysbench:SysbenchWorkload.sharing_txn_point_update", "txn"),
    Entry("db.btree", "repro.db.table:Table.get", "span"),
    Entry("db.btree", "repro.db.table:Table.update_field", "span"),
    Entry("db.btree", "repro.db.table:Table.range", "span"),
    Entry("db.btree", "repro.db.table:Table.delete", "span"),
    Entry("db.btree", "repro.db.table:Table.insert", "span"),
    *(
        Entry("db.btree", f"repro.db.btree:BTree.{name}", "span", _descent_pre, _descent_post)
        for name in _DESCENTS
    ),
    Entry("db.btree", "repro.db.btree:BTree.range_scan", "span", None, _scan_post),
    *(Entry("db.page", f"repro.db.page:PageView.{name}", "agg") for name in _PAGE_READS),
    *(Entry("db.page", f"repro.db.page:PageView.{name}", "agg") for name in _PAGE_WRITES),
    Entry("db.mtr", "repro.db.mtr:MiniTransaction.commit", "span"),
    Entry("db.mtr", "repro.storage.wal:RedoLog.append", "agg", None, _redo_post),
    Entry("db.mtr", "repro.storage.wal:RedoLog.flush", "span", _flush_pre, _flush_post),
    Entry("hardware.memory", "repro.hardware.memory:MappedMemory.read", "agg",
          None, _mem_read_post),
    Entry("hardware.memory", "repro.hardware.memory:MappedMemory.write", "agg"),
    Entry("hardware.memory", "repro.hardware.memory:WindowedMemory.read", "agg"),
    Entry("hardware.memory", "repro.hardware.memory:WindowedMemory.write", "agg"),
    Entry("hardware.cache.line", "repro.hardware.cache:LineCacheModel.touch_range", "agg",
          None, _touch_post),
    Entry("hardware.cache.cpu", "repro.hardware.cache:CpuCache.read", "agg"),
    Entry("hardware.cache.cpu", "repro.hardware.cache:CpuCache.write", "agg"),
    Entry("hardware.cache.cpu", "repro.hardware.cache:CpuCache.clflush", "agg",
          None, _clflush_post),
    Entry("hardware.cache.cpu", "repro.hardware.cache:CpuCache.invalidate", "agg",
          None, _invalidate_post),
    Entry("sim.settle", "repro.sim.settle:ChargeSettler.settle", "gen", _settle_pre),
    Entry("sim.core", "repro.sim.core:Simulator.run", "span"),
    Entry("sim.core", "repro.sim.core:Timeout.__init__", "agg"),
    Entry("sim.core", "repro.sim.core:Event.succeed", "agg"),
    Entry("sim.resources", "repro.sim.resources:Pipe.transfer", "agg", _backlog_pre),
    Entry("sim.resources", "repro.sim.resources:Pipe.transfer_batched", "agg", _backlog_pre),
    Entry("core.cxl_bufferpool", "repro.core.cxl_bufferpool:CxlBufferPool.get_page", "span"),
    Entry("core.sharing", "repro.core.sharing:SharedCxlBufferPool.get_page", "span"),
    Entry("core.sharing", "repro.core.sharing:SharedCxlBufferPool.flush_page_writes", "span"),
    Entry("core.sharing", "repro.core.sharing:MultiPrimaryNode.point_select", "gen"),
    Entry("core.sharing", "repro.core.sharing:MultiPrimaryNode.point_update", "gen"),
    Entry("core.sharing", "repro.core.sharing:MultiPrimaryNode.range_select", "gen"),
    Entry("core.sharing", "repro.core.coherency:FlagSlab.read_invalid", "agg"),
    Entry("core.sharing", "repro.core.coherency:FlagSlab.read_removal", "agg"),
    Entry("core.sharing", "repro.core.coherency:FlagSlab.clear_invalid", "agg"),
    Entry("core.sharing", "repro.core.coherency:FlagSlab.clear_removal", "agg"),
    Entry("core.fusion", "repro.core.fusion:BufferFusionServer.request_page", "span"),
    Entry("core.fusion", "repro.core.fusion:BufferFusionServer.on_write_release", "span"),
    Entry("core.fusion", "repro.core.fusion:BufferFusionServer.reshare", "span"),
    Entry("core.fusion", "repro.core.fusion:PageLockService.lock_read", "gen",
          _lock_pre, _lock_post),
    Entry("core.fusion", "repro.core.fusion:PageLockService.lock_write", "gen",
          _lock_pre, _lock_post),
    Entry("baselines.rdma_sharing", "repro.baselines.rdma_sharing:RdmaSharedBufferPool.get_page",
          "span"),
    Entry("baselines.rdma_sharing",
          "repro.baselines.rdma_sharing:RdmaSharedBufferPool.flush_page_writes", "span"),
    Entry("baselines.rdma_sharing", "repro.baselines.rdma_sharing:RdmaDbpServer.register", "span"),
    Entry("baselines.rdma_sharing", "repro.baselines.rdma_sharing:RdmaDbpServer.read_page", "span"),
    Entry("baselines.rdma_sharing",
          "repro.baselines.rdma_sharing:RdmaDbpServer.write_page_on_release", "span",
          None, _page_flush_post),
)

# Entry groups the metrics count across layers.
GROUPS: dict[str, tuple[str, ...]] = {
    "get_page": (
        "repro.core.cxl_bufferpool:CxlBufferPool.get_page",
        "repro.core.sharing:SharedCxlBufferPool.get_page",
        "repro.baselines.rdma_sharing:RdmaSharedBufferPool.get_page",
    ),
    "descents": tuple(f"repro.db.btree:BTree.{name}" for name in _DESCENTS),
    "page_reads": tuple(f"repro.db.page:PageView.{name}" for name in _PAGE_READS),
    "page_writes": tuple(f"repro.db.page:PageView.{name}" for name in _PAGE_WRITES),
    "events": ("repro.sim.core:Timeout.__init__", "repro.sim.core:Event.succeed"),
}

_ALL = {w.name for w in WORKLOADS}
_POOL = {"pool-point-select", "pool-read-write"}
_SHARE = {"share-point-update", "rdma-share-point-update"}
# Layers each workload must reach (a traced run recording zero calls into
# one of them means the layer map went stale).
EXERCISED: dict[str, set[str]] = {
    "workloads.driver": _ALL,
    "workloads.sysbench": _ALL,
    "db.btree": _ALL,
    "db.page": _ALL,
    "db.mtr": _ALL,
    "hardware.memory": _POOL | {"rdma-share-point-update"},
    "hardware.cache.line": _POOL | {"rdma-share-point-update"},
    "hardware.cache.cpu": {"share-point-update"},
    "sim.settle": _ALL,
    "sim.core": _ALL,
    "sim.resources": _ALL,
    "core.cxl_bufferpool": _POOL,
    "core.sharing": _SHARE,
    "core.fusion": _SHARE,
    "baselines.rdma_sharing": {"rdma-share-point-update"},
}


# -- BENCHMARK.json ----------------------------------------------------------------------

RUN_SECONDS = 10


def benchmark_json() -> dict[str, Any]:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def write_benchmark_json(path: Path) -> None:
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
