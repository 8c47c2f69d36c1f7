"""Per-layer metrics of a traced run.

Counts come from the wrappers (``tracer``) and from the setup's own
public counters (the round's fingerprint); both are deterministic for a
seed. Self times include the wrappers' own cost (see :mod:`layertrace`).
Every ratio's base count is returned beside it in ``bases`` for the
report.
"""

from __future__ import annotations

from typing import Any

from bench import Bench, Round
from layertrace import LayerTracer

_PIPE_KEYS = ("cxl", "rdma", "wal", "client")
_SHARED_POOL = "repro.core.sharing:SharedCxlBufferPool"
_FUSION = "repro.core.fusion:BufferFusionServer"


def _div(num: float, den: float) -> float:
    return num / den if den else 0.0


def pipe_stats(bench: Bench, setup: Any, tracer: LayerTracer) -> dict[str, float]:
    """Busy fraction (simulated) and submission backlog per route key.

    Read right after the run, before anything else advances the clock:
    busy is the bottleneck pipe's window bandwidth over its capacity, and
    wait is the backlog each transfer found at submission, summed.
    """
    out: dict[str, float] = {}
    by_key = bench.pipes_by_key(setup)
    for key in _PIPE_KEYS:
        pipes = by_key.get(key, [])
        out[f"{key}_busy_frac"] = max(
            (p.window_bandwidth() / p.bytes_per_second for p in pipes), default=0.0
        )
        out[f"{key}_wait_us_per_txn"] = max(
            (
                _div(tracer.counts.get(f"pipe_wait_ns.{p.name}", 0.0), tracer.txns) / 1e3
                for p in pipes
            ),
            default=0.0,
        )
    return out


def layer_metrics(
    bench: Bench,
    traced: Round,
    untraced: Round,
    tracer: LayerTracer,
    pipes: dict[str, float],
) -> tuple[dict[str, float], dict[str, str]]:
    """All per-layer metrics (``spec.PER_LAYER`` names) and ratio bases."""
    txns = tracer.txns
    queries = txns * bench.workload.queries_per_txn
    fp = traced.fingerprint
    counts = tracer.counts
    starts = tracer.starts
    group = tracer.group_starts

    def per_txn(value: float) -> float:
        return _div(value, txns)

    def per_query(value: float) -> float:
        return _div(value, queries)

    def counter(name: str) -> float:
        return fp.get(f"counter.{name}", 0.0)

    wall_ns = traced.host_s * 1e9
    self_ns = tracer.layer_self_ns()
    covered = sum(self_ns.values())

    def self_us(layer: str) -> float:
        return per_txn(self_ns.get(layer, 0.0)) / 1e3

    descents = group("descents")
    scans = starts("repro.db.btree:BTree.range_scan")
    line_hits, line_misses = counts.get("line_hits", 0.0), counts.get("line_misses", 0.0)
    cpu_hits, cpu_fills = fp.get("cpu_cache.stale_serves", 0.0), fp.get("cpu_cache.fills", 0.0)
    releases = starts(f"{_SHARED_POOL}.flush_page_writes")
    settles = starts("repro.sim.settle:ChargeSettler.settle")
    events = group("events")
    lock_acquires = fp.get("lock.acquires", 0.0)
    wrapped = sum(stat.starts for stat in tracer.stats.values())

    m: dict[str, float] = {
        "trace.txns": txns,
        "trace.queries": queries,
        "trace.wall_us_per_txn": per_txn(wall_ns) / 1e3,
        "trace.overhead_ratio": _div(traced.host_txn_per_s, untraced.host_txn_per_s),
        "trace.unattributed_us_per_txn": per_txn(wall_ns - covered) / 1e3,
        "trace.wrapped_calls_per_txn": per_txn(wrapped),
        "workloads.driver.self_us_per_txn": self_us("workloads.driver"),
        "workloads.sysbench.opgen_us_per_txn": self_us("workloads.sysbench"),
        "db.btree.lookups_per_txn": per_txn(descents),
        "db.btree.pages_per_lookup": _div(counts.get("descent_pages", 0.0), descents),
        "db.btree.range_rows_per_scan": _div(counts.get("range_rows", 0.0), scans),
        "db.btree.self_us_per_txn": self_us("db.btree"),
        "db.page.reads_per_query": per_query(group("page_reads")),
        "db.page.writes_per_query": per_query(group("page_writes")),
        "db.page.self_us_per_txn": self_us("db.page"),
        "db.mtr.commits_per_txn": per_txn(starts("repro.db.mtr:MiniTransaction.commit")),
        "db.mtr.redo_records_per_txn": per_txn(starts("repro.storage.wal:RedoLog.append")),
        "db.mtr.redo_bytes_per_txn": per_txn(counts.get("redo_bytes", 0.0)),
        "db.mtr.wal_flushes_per_txn": per_txn(counts.get("wal_flushes", 0.0)),
        "db.mtr.self_us_per_txn": self_us("db.mtr"),
        "hardware.memory.metered_reads_per_query": per_query(
            starts("repro.hardware.memory:MappedMemory.read")
        ),
        "hardware.memory.metered_writes_per_query": per_query(
            starts("repro.hardware.memory:MappedMemory.write")
        ),
        "hardware.memory.burst_reads_per_txn": per_txn(counts.get("burst_reads", 0.0)),
        "hardware.memory.cxl_bytes_per_query": per_query(counter("meter.cxl_bytes")),
        "hardware.memory.rdma_bytes_per_query": per_query(counter("meter.rdma_bytes")),
        "hardware.memory.self_us_per_txn": self_us("hardware.memory"),
        "hardware.cache.line_touches_per_query": per_query(line_hits + line_misses),
        "hardware.cache.line_hit_ratio": _div(line_hits, line_hits + line_misses),
        "hardware.cache.line_self_us_per_txn": self_us("hardware.cache.line"),
        "hardware.cache.cpu_accesses_per_txn": per_txn(
            starts("repro.hardware.cache:CpuCache.read")
            + starts("repro.hardware.cache:CpuCache.write")
        ),
        "hardware.cache.cpu_hit_ratio": _div(cpu_hits, cpu_hits + cpu_fills),
        "hardware.cache.cpu_clflush_lines_per_release": _div(
            counts.get("clflush_lines", 0.0), releases
        ),
        "hardware.cache.cpu_invalidated_lines_per_txn": per_txn(
            counts.get("invalidated_lines", 0.0)
        ),
        "hardware.cache.cpu_self_us_per_txn": self_us("hardware.cache.cpu"),
        "sim.settle.settles_per_txn": per_txn(settles),
        "sim.settle.charges_per_settle": _div(counts.get("settle_charges", 0.0), settles),
        "sim.settle.self_us_per_txn": self_us("sim.settle"),
        "sim.core.events_per_txn": per_txn(events),
        "sim.core.self_ns_per_event": _div(self_ns.get("sim.core", 0.0), events),
        **{f"sim.resources.{key}": value for key, value in pipes.items()},
        "sim.resources.self_us_per_txn": self_us("sim.resources"),
        "core.cxl_bufferpool.get_pages_per_txn": per_txn(
            starts("repro.core.cxl_bufferpool:CxlBufferPool.get_page")
        ),
        "core.cxl_bufferpool.self_us_per_txn": self_us("core.cxl_bufferpool"),
        "core.sharing.get_pages_per_txn": per_txn(starts(f"{_SHARED_POOL}.get_page")),
        "core.sharing.flushes_per_txn": per_txn(releases),
        "core.sharing.invalidations_observed_per_txn": per_txn(
            counter("pool_stats.invalidations_observed")
        ),
        "core.sharing.line_refetches_per_txn": per_txn(cpu_fills),
        "core.sharing.flag_reads_per_txn": per_txn(counter("meter.flag_reads")),
        "core.sharing.self_us_per_txn": self_us("core.sharing"),
        "core.fusion.request_page_rpcs_per_txn": per_txn(starts(f"{_FUSION}.request_page")),
        "core.fusion.on_write_release_rpcs_per_txn": per_txn(
            starts(f"{_FUSION}.on_write_release")
        ),
        "core.fusion.reshare_rpcs_per_txn": per_txn(starts(f"{_FUSION}.reshare")),
        "core.fusion.invalidations_pushed_per_txn": per_txn(
            counter("fusion_stats.invalidations_pushed")
        ),
        "core.fusion.lock_acquires_per_txn": per_txn(lock_acquires),
        "core.fusion.lock_contended_frac": _div(fp.get("lock.contended", 0.0), lock_acquires),
        "core.fusion.lock_wait_us_per_txn": per_txn(counts.get("lock_wait_ns", 0.0)) / 1e3,
        "core.fusion.self_us_per_txn": self_us("core.fusion"),
        "baselines.rdma_sharing.dbp_rpcs_per_txn": per_txn(counter("dbp_stats.rpcs")),
        "baselines.rdma_sharing.invalidation_messages_per_txn": per_txn(
            counter("dbp_stats.invalidation_messages")
        ),
        "baselines.rdma_sharing.page_flush_bytes_per_txn": per_txn(
            counts.get("page_flush_bytes", 0.0)
        ),
        "baselines.rdma_sharing.lbp_refetches_per_txn": per_txn(counter("pool_stats.refetches")),
        "baselines.rdma_sharing.self_us_per_txn": self_us("baselines.rdma_sharing"),
    }
    bases = {
        "trace.overhead_ratio": (
            f"{traced.host_txn_per_s:.1f} over {untraced.host_txn_per_s:.1f} txn/s"
        ),
        "db.btree.pages_per_lookup": f"{descents} descents",
        "db.btree.range_rows_per_scan": f"{scans} scans",
        "hardware.cache.line_hit_ratio": f"{line_hits + line_misses:.0f} line touches",
        "hardware.cache.cpu_hit_ratio": f"{cpu_hits + cpu_fills:.0f} line loads",
        "hardware.cache.cpu_clflush_lines_per_release": f"{releases} releases",
        "sim.settle.charges_per_settle": f"{settles} settles",
        "sim.core.self_ns_per_event": f"{events} events",
        "core.fusion.lock_contended_frac": f"{lock_acquires:.0f} acquires",
    }
    return m, bases
