"""Byte-addressable memory regions and access metering.

A :class:`MemoryRegion` is the *functional* substance of the simulation:
a bytearray with explicit volatility semantics. Host DRAM regions lose
their contents on a crash (``power_fail`` poisons them); CXL-box regions
survive, because the switch and memory devices have independent power
supply units (paper §3.2).

A :class:`MappedMemory` is a host's window onto a region through a
particular interconnect. Every read/write is metered: latency is charged
to an :class:`AccessMeter` (using a per-line timing cache to model the
CPU cache absorbing repeat accesses) and bytes are recorded as pending
transfers against named bandwidth pipes, which the workload driver
settles inside the discrete-event simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..analysis.memsan import active as memsan_active
from ..obs.spans import active as spans_active
from ..obs.trace import active as obs_active
from ..sim.latency import CACHE_LINE, LatencyTable

__all__ = [
    "MemoryRegion",
    "AccessMeter",
    "TransferCharge",
    "MappedMemory",
    "PoisonedMemoryError",
]

_POISON = 0xDE


class PoisonedMemoryError(RuntimeError):
    """Raised when reading a volatile region after a power failure."""


class MemoryRegion:
    """A contiguous span of simulated physical memory."""

    def __init__(self, name: str, size: int, volatile: bool) -> None:
        if size <= 0:
            raise ValueError("region size must be positive")
        self.name = name
        self.size = size
        self.volatile = volatile
        self._data = bytearray(size)
        self._poisoned = False

    def read(self, offset: int, nbytes: int) -> bytes:
        if self._poisoned or offset < 0 or nbytes < 0 or offset + nbytes > self.size:
            self._reject(offset, nbytes)
        ms = memsan_active()
        if ms is not None:
            ms.raw_load(self.name, offset, nbytes)
        return bytes(self._data[offset : offset + nbytes])

    def write(self, offset: int, data: bytes) -> None:
        nbytes = len(data)
        if self._poisoned or offset < 0 or offset + nbytes > self.size:
            self._reject(offset, nbytes)
        ms = memsan_active()
        if ms is not None:
            ms.raw_store(self.name, offset, nbytes)
        self._data[offset : offset + nbytes] = data

    def view(self, offset: int, nbytes: int) -> memoryview:
        """The live bytes of a range, for a caller that meters its own reads.

        No MemSan event here: whoever decodes from the view reports each
        load (see :meth:`MappedMemory.charge_accesses`).
        """
        if self._poisoned or offset < 0 or nbytes < 0 or offset + nbytes > self.size:
            self._reject(offset, nbytes)
        return memoryview(self._data)[offset : offset + nbytes]

    def free(self) -> None:
        """Release the bytes; every later access is out of bounds."""
        self._data = bytearray()
        self.size = 0

    def power_fail(self) -> None:
        """Simulate power loss. Volatile regions are poisoned until restored.

        Idempotent: failing an already-failed region (cascading faults in
        a sweep) is a no-op, as is failing a non-volatile region — CXL
        boxes have their own PSUs (§3.2), so host power events never
        touch them.
        """
        if self.volatile:
            self._poisoned = True

    def power_restore(self) -> None:
        """Bring a failed region back: fresh, zeroed, contents gone.

        Idempotent: restoring a healthy region keeps its contents —
        only a poisoned region is re-zeroed.
        """
        if self._poisoned:
            self._data = bytearray(self.size)
            self._poisoned = False

    @property
    def poisoned(self) -> bool:
        return self._poisoned

    def _reject(self, offset: int, nbytes: int) -> None:
        """Raise for an access that must not happen (callers test first)."""
        if self._poisoned:
            raise PoisonedMemoryError(
                f"region {self.name!r} lost its contents in a power failure; "
                "call power_restore() before reuse"
            )
        raise IndexError(
            f"access [{offset}, {offset + nbytes}) outside region "
            f"{self.name!r} of size {self.size}"
        )


class TransferCharge:
    """A pending bandwidth charge to settle against a named pipe.

    A plain slotted record rather than a frozen dataclass: one of these
    is allocated per metered device transfer, and ``object.__setattr__``
    (what frozen dataclasses pay per field) showed up in the hot-path
    profile. Treat instances as immutable all the same.

    >>> TransferCharge("cxl", 64) == TransferCharge("cxl", 64, 0.0)
    True
    """

    __slots__ = ("pipe_key", "nbytes", "base_ns")

    def __init__(self, pipe_key: str, nbytes: int, base_ns: float = 0.0) -> None:
        self.pipe_key = pipe_key
        self.nbytes = nbytes
        self.base_ns = base_ns

    def __repr__(self) -> str:
        return (
            f"TransferCharge(pipe_key={self.pipe_key!r}, "
            f"nbytes={self.nbytes!r}, base_ns={self.base_ns!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransferCharge):
            return NotImplemented
        return (
            self.pipe_key == other.pipe_key
            and self.nbytes == other.nbytes
            and self.base_ns == other.base_ns
        )

    def __hash__(self) -> int:
        return hash((self.pipe_key, self.nbytes, self.base_ns))


# Memoized "<pipe_key>_bytes" / "<pipe_key>_ops" counter names: the same
# handful of pipe keys recur millions of times, and building the strings
# per charge was measurable.
_PIPE_COUNTER_KEYS: dict[str, tuple[str, str]] = {}


class AccessMeter:
    """Accumulates the cost of functional work for one engine instance.

    ``ns`` is CPU-visible latency (memory stalls, compute). ``transfers``
    are bytes that must additionally flow through shared pipes (RDMA NIC,
    CXL link, storage, WAL device, client network); the driver turns them
    into simulated pipe occupancy, which is where saturation comes from.
    ``counters`` holds free-form byte/op counts for reporting (e.g. read
    amplification).
    """

    def __init__(self) -> None:
        self.ns: float = 0.0
        self.transfers: list[TransferCharge] = []
        self.counters: dict[str, float] = {}
        # Monotone total of everything take() has drained, so span
        # tracing can snapshot (ns + taken_ns) and difference it later
        # without caring whether a settle happened in between.
        self.taken_ns: float = 0.0

    def charge_ns(self, ns: float) -> None:
        self.ns += ns

    def charge_transfer(
        self, pipe_key: str, nbytes: int, base_ns: float = 0.0
    ) -> None:
        self.transfers.append(TransferCharge(pipe_key, nbytes, base_ns))
        keys = _PIPE_COUNTER_KEYS.get(pipe_key)
        if keys is None:
            keys = _PIPE_COUNTER_KEYS[pipe_key] = (
                pipe_key + "_bytes",
                pipe_key + "_ops",
            )
        counters = self.counters
        bytes_key, ops_key = keys
        counters[bytes_key] = counters.get(bytes_key, 0.0) + nbytes
        counters[ops_key] = counters.get(ops_key, 0.0) + 1

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def take(self) -> tuple[float, list[TransferCharge]]:
        """Return and clear the per-operation charges (counters persist)."""
        ns, self.ns = self.ns, 0.0
        self.taken_ns += ns
        transfers, self.transfers = self.transfers, []
        return ns, transfers

    def reset(self) -> None:
        self.ns = 0.0
        self.transfers = []
        self.counters = {}
        self.taken_ns = 0.0


@dataclass(frozen=True)
class MemoryTiming:
    """Latency parameters for one interconnect path to a region."""

    miss_ns: float  # one cache line fetched from the device
    hit_ns: float  # line already in the CPU cache hierarchy
    read_burst_base_ns: float  # fixed cost of a bulk (streamed) read
    read_burst_ns_per_byte: float
    write_burst_base_ns: float  # fixed cost of a bulk (streamed) write
    write_burst_ns_per_byte: float
    pipe_key: Optional[str] = None  # bandwidth pipe charged per byte moved
    pipe_base_ns: float = 0.0

    # Bulk accesses at or above this size use the burst model and bypass
    # the line cache (non-temporal/streaming semantics).
    burst_threshold: int = 256


class MappedMemory:
    """A metered, cache-modelled window onto a :class:`MemoryRegion`.

    Small accesses go through the per-line timing cache (hits are nearly
    free, misses fetch whole lines over the interconnect); accesses at or
    above ``timing.burst_threshold`` use the streamed burst model and
    move every byte. All derived timing constants are precomputed here:
    the burst-latency lines become :class:`~repro.sim.latency.LatencyTable`
    lookups and the per-region counter names become interned strings, so
    the per-access cost is dict probes, not arithmetic and string
    building.

    >>> from repro.hardware.cache import LineCacheModel
    >>> region = MemoryRegion("demo", 4096, volatile=False)
    >>> meter = AccessMeter()
    >>> timing = MemoryTiming(
    ...     miss_ns=100.0, hit_ns=1.0,
    ...     read_burst_base_ns=50.0, read_burst_ns_per_byte=0.1,
    ...     write_burst_base_ns=50.0, write_burst_ns_per_byte=0.1,
    ...     pipe_key="cxl")
    >>> mem = MappedMemory(region, timing, meter, LineCacheModel(1024), "cxl")
    >>> mem.write(0, b"hello")           # cold line: one miss, one line moved
    >>> mem.read(0, 5)                   # warm line: a hit, no link traffic
    b'hello'
    >>> meter.ns                         # miss (100) + hit (1)
    101.0
    >>> (meter.counters["cxl_bytes"], meter.counters["cxl_ops"])
    (64.0, 1.0)
    """

    def __init__(
        self,
        region: MemoryRegion,
        timing: MemoryTiming,
        meter: AccessMeter,
        line_cache: "LineCacheProtocol",
        counter_key: str,
    ) -> None:
        self.region = region
        self.timing = timing
        self.meter = meter
        self.line_cache = line_cache
        self.counter_key = counter_key
        # Hot-path constants (MemoryTiming is frozen; region names and
        # counter keys never change after construction).
        self._region_name = region.name
        self._line_key_base = line_cache.line_key_base(region.name)
        self._burst_threshold = timing.burst_threshold
        self._miss_ns = timing.miss_ns
        self._hit_ns = timing.hit_ns
        self._pipe_key = timing.pipe_key
        self._pipe_base_ns = timing.pipe_base_ns
        self._read_table = LatencyTable(
            timing.read_burst_base_ns, timing.read_burst_ns_per_byte
        )
        self._write_table = LatencyTable(
            timing.write_burst_base_ns, timing.write_burst_ns_per_byte
        )
        self._touched_key = counter_key + "_touched_bytes"
        self._span_kind = counter_key + "_access"
        self._trace_burst_key = f"mem.{counter_key}.burst_bytes"
        self._trace_hits_key = f"mem.{counter_key}.line_hits"
        self._trace_misses_key = f"mem.{counter_key}.line_misses"
        self._trace_device_key = f"mem.{counter_key}.device_bytes"
        if timing.pipe_key is not None:
            self._pipe_bytes_key = timing.pipe_key + "_bytes"
            self._pipe_ops_key = timing.pipe_key + "_ops"
            # Single-line misses dominate the charge stream; they are all
            # the same immutable (pipe, 64 B, base) value, so one shared
            # instance replaces an allocation per miss.
            self._line_charge = TransferCharge(
                timing.pipe_key, CACHE_LINE, timing.pipe_base_ns
            )
        else:
            self._pipe_bytes_key = self._pipe_ops_key = None
            self._line_charge = None

    # -- metered access --------------------------------------------------------

    def read(self, offset: int, nbytes: int) -> bytes:
        region = self.region
        if region._poisoned or offset < 0 or nbytes < 0 or offset + nbytes > region.size:
            region._reject(offset, nbytes)
        self.charge_accesses(offset, ((0, nbytes),))
        return bytes(region._data[offset : offset + nbytes])

    def write(self, offset: int, data: bytes) -> None:
        region = self.region
        nbytes = len(data)
        if region._poisoned or offset < 0 or offset + nbytes > region.size:
            region._reject(offset, nbytes)
        self.charge_accesses(offset, ((0, nbytes),), write=True)
        region._data[offset : offset + nbytes] = data

    def read_unmetered(self, offset: int, nbytes: int) -> bytes:
        """Functional read with no timing charge (recovery bookkeeping)."""
        return self.region.read(offset, nbytes)

    def write_unmetered(self, offset: int, data: bytes) -> None:
        self.region.write(offset, data)

    # -- cost model -------------------------------------------------------------

    def charge_accesses(
        self, base: int, accesses: Iterable[tuple[int, int]], write: bool = False
    ) -> None:
        """Charge each ``(offset, nbytes)`` access at ``base + offset``, in order.

        The one implementation of the cost model: :meth:`read` and
        :meth:`write` charge their single access here, and a page
        snapshot (:class:`~repro.db.page.PageSnapshot`) charges all the
        probes of one visit here at once. Per access, exactly as if each
        were its own metered call: one line-cache probe (or one burst),
        one ``meter.ns +=`` (latencies are inexact floats, so they are
        never pre-summed), the same counters, transfer charges, tracer
        counts and span charge, then the MemSan raw load/store.
        The caller has checked every access against the region bounds.
        """
        meter = self.meter
        counters = meter.counters
        transfers = meter.transfers
        tracer = obs_active()
        spans = spans_active()
        ms = memsan_active()
        touch_range = self.line_cache.touch_range
        line_key_base = self._line_key_base
        burst_threshold = self._burst_threshold
        miss_ns = self._miss_ns
        hit_ns = self._hit_ns
        touched_key = self._touched_key
        pipe_key = self._pipe_key
        for offset, nbytes in accesses:
            offset += base
            if nbytes >= burst_threshold:
                table = self._write_table if write else self._read_table
                cache = table._cache
                ns = cache.get(nbytes)
                if ns is None:
                    ns = cache[nbytes] = table.base_ns + nbytes * table.ns_per_byte
                meter.ns += ns
                device_bytes = nbytes  # streamed: every byte crosses the link
                if tracer is not None:
                    tracer.count(self._trace_burst_key, nbytes)
            else:
                first_line = offset // CACHE_LINE
                last_line = (
                    (offset + nbytes - 1) // CACHE_LINE if nbytes > 1 else first_line
                )
                hits, misses = touch_range(line_key_base, first_line, last_line)
                ns = misses * miss_ns + hits * hit_ns
                meter.ns += ns
                # Only cache misses generate device/link traffic, at line
                # granularity — a hot B-tree root costs the CXL link nothing.
                device_bytes = misses * CACHE_LINE
                if tracer is not None:
                    if hits:
                        tracer.count(self._trace_hits_key, hits)
                    if misses:
                        tracer.count(self._trace_misses_key, misses)
            if spans is not None:
                spans.add_ns(self._span_kind, ns)
            counters[touched_key] = counters.get(touched_key, 0.0) + nbytes
            if device_bytes:
                if tracer is not None:
                    tracer.count(self._trace_device_key, device_bytes)
                if pipe_key is not None:
                    # Inlined AccessMeter.charge_transfer with precomputed
                    # counter keys — this runs once per device transfer.
                    if device_bytes == CACHE_LINE:
                        transfers.append(self._line_charge)
                    else:
                        transfers.append(
                            TransferCharge(pipe_key, device_bytes, self._pipe_base_ns)
                        )
                    key = self._pipe_bytes_key
                    counters[key] = counters.get(key, 0.0) + device_bytes
                    key = self._pipe_ops_key
                    counters[key] = counters.get(key, 0.0) + 1
            if ms is not None:
                if write:
                    ms.raw_store(self._region_name, offset, nbytes)
                else:
                    ms.raw_load(self._region_name, offset, nbytes)


class WindowedMemory:
    """A sub-range of a mapped memory, addressed from zero.

    Used for CXL extents: the memory manager hands a tenant an offset
    into the shared pool, and the tenant addresses its extent relative
    to that offset (what ``mmap`` of the dax device at an offset gives).
    """

    __slots__ = ("mapped", "base", "size")

    def __init__(self, mapped: MappedMemory, base: int, size: int) -> None:
        if base < 0 or base + size > mapped.region.size:
            raise IndexError("window outside the mapped region")
        self.mapped = mapped
        self.base = base
        self.size = size

    def _check(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > self.size:
            raise IndexError(
                f"access [{offset}, {offset + nbytes}) outside window of "
                f"size {self.size}"
            )

    def read(self, offset: int, nbytes: int) -> bytes:
        self._check(offset, nbytes)
        return self.mapped.read(self.base + offset, nbytes)

    def write(self, offset: int, data: bytes) -> None:
        self._check(offset, len(data))
        self.mapped.write(self.base + offset, data)

    def read_unmetered(self, offset: int, nbytes: int) -> bytes:
        self._check(offset, nbytes)
        return self.mapped.read_unmetered(self.base + offset, nbytes)

    def write_unmetered(self, offset: int, data: bytes) -> None:
        self._check(offset, len(data))
        self.mapped.write_unmetered(self.base + offset, data)


class LineCacheProtocol:
    """Interface for the timing-only CPU cache model.

    Lines are keyed by plain ints: each region gets a disjoint key range
    from :meth:`line_key_base`, and line ``n`` of it is ``base + n``.
    """

    def line_key_base(self, region_name: str) -> int:  # pragma: no cover
        raise NotImplementedError

    def touch_range(
        self, key_base: int, first_line: int, last_line: int
    ) -> tuple[int, int]:  # pragma: no cover
        """Touch ``first_line..last_line`` inclusive; return (hits, misses)."""
        raise NotImplementedError

    def clear(self) -> None:  # pragma: no cover
        raise NotImplementedError
