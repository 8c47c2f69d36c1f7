"""Batched access charging is per-access metering, access for access.

A page snapshot charges the probes of one visit through
``MappedMemory.charge_accesses`` instead of one metered ``read`` each.
These properties hold the two paths bitwise equal on everything the
simulation observes: nanoseconds, transfer charges, counters, the line
cache's LRU order and hit/miss counts, and the tracer, span and MemSan
event streams.
"""

from contextlib import ExitStack

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.memsan import MemSan
from repro.hardware.cache import LineCacheModel
from repro.hardware.host import cxl_timing
from repro.hardware.memory import AccessMeter, MappedMemory, MemoryRegion
from repro.obs.spans import SpanTracer
from repro.obs.trace import Tracer
from repro.sim.latency import CACHE_LINE, LatencyConfig

BASE = 3 * 16384
SPAN = 16384

_sizes = st.one_of(
    st.integers(0, 2 * CACHE_LINE + 2),  # single-line and line-straddling
    st.sampled_from([255, 256, 300, 4096, SPAN]),  # around and past the burst cut
)


@st.composite
def _access(draw):
    nbytes = draw(_sizes)
    offset = draw(st.integers(0, SPAN - nbytes))
    return offset, nbytes


class _RecordingMemSan(MemSan):
    def __init__(self) -> None:
        super().__init__()
        self.events: list[tuple] = []

    def raw_load(self, region: str, offset: int, nbytes: int) -> None:
        self.events.append(("load", region, offset, nbytes))
        super().raw_load(region, offset, nbytes)


def _mapped(capacity_lines: int) -> MappedMemory:
    region = MemoryRegion("cxl0", 8 * SPAN, volatile=False)
    return MappedMemory(
        region,
        cxl_timing(LatencyConfig()),
        AccessMeter(),
        LineCacheModel(capacity_bytes=capacity_lines * CACHE_LINE),
        "cxl",
    )


def _observed(mapped: MappedMemory) -> dict:
    meter, cache = mapped.meter, mapped.line_cache
    return {
        "ns": meter.ns.hex(),
        "transfers": list(meter.transfers),
        "counters": dict(meter.counters),
        "lru": list(cache._lines),
        "hits": cache.hits,
        "misses": cache.misses,
    }


def _batches(accesses, cuts):
    """Split ``accesses`` into consecutive visits of the given sizes."""
    out, start = [], 0
    for size in cuts:
        out.append(accesses[start : start + size])
        start += size
    out.append(accesses[start:])
    return [batch for batch in out if batch]


def _run(accesses, cuts, capacity_lines, batched, hooks):
    """One side: per-access reads or batched charges, optionally under
    an installed tracer, an attached span and a recording MemSan."""
    mapped = _mapped(capacity_lines)
    with ExitStack() as stack:
        if hooks:
            tracer = stack.enter_context(Tracer())
            spans = stack.enter_context(SpanTracer())
            root = spans.begin("txn", "equivalence")
            stack.callback(spans.end, root)
            ms = stack.enter_context(_RecordingMemSan())
            ms.watch_region("cxl0")
            stack.enter_context(ms.actor("n0"))
        if batched:
            for batch in _batches(accesses, cuts):
                mapped.charge_accesses(BASE, batch)
        else:
            for offset, nbytes in accesses:
                mapped.read(BASE + offset, nbytes)
        observed = _observed(mapped)
        if hooks:
            observed.update(
                tracer=tracer.counters.snapshot(),
                span_costs=dict(root.costs or {}),
                memsan=list(ms.events),
                memsan_checked=ms.accesses_checked,
            )
    return observed


_accesses = st.lists(_access(), min_size=1, max_size=80)
_cuts = st.lists(st.integers(1, 9), max_size=12)
_capacity = st.integers(1, 6)  # tiny: evictions on most sequences


@settings(max_examples=150, deadline=None)
@given(accesses=_accesses, cuts=_cuts, capacity_lines=_capacity)
def test_batched_charges_equal_per_access_reads(accesses, cuts, capacity_lines):
    per_access = _run(accesses, cuts, capacity_lines, batched=False, hooks=False)
    assert _run(accesses, cuts, capacity_lines, batched=True, hooks=False) == per_access


@settings(max_examples=60, deadline=None)
@given(accesses=_accesses, cuts=_cuts, capacity_lines=_capacity)
def test_batched_charges_emit_the_same_hook_events(accesses, cuts, capacity_lines):
    per_access = _run(accesses, cuts, capacity_lines, batched=False, hooks=True)
    assert _run(accesses, cuts, capacity_lines, batched=True, hooks=True) == per_access
    assert per_access["memsan"]  # the hooks really saw the accesses
