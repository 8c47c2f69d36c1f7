"""Memory regions, volatility, metering, mapped/windowed access."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hardware.cache import LineCacheModel
from repro.hardware.host import cxl_timing, dram_timing
from repro.hardware.memory import (
    AccessMeter,
    MappedMemory,
    MemoryRegion,
    PoisonedMemoryError,
    WindowedMemory,
)
from repro.sim.latency import CACHE_LINE, LatencyConfig


class TestMemoryRegion:
    def test_roundtrip(self):
        region = MemoryRegion("r", 4096, volatile=True)
        region.write(100, b"hello")
        assert region.read(100, 5) == b"hello"

    def test_zero_initialized(self):
        region = MemoryRegion("r", 64, volatile=False)
        assert region.read(0, 64) == b"\x00" * 64

    def test_bounds_checked(self):
        region = MemoryRegion("r", 64, volatile=False)
        with pytest.raises(IndexError):
            region.read(60, 8)
        with pytest.raises(IndexError):
            region.write(-1, b"x")

    def test_volatile_power_fail_poisons(self):
        region = MemoryRegion("r", 64, volatile=True)
        region.write(0, b"data")
        region.power_fail()
        with pytest.raises(PoisonedMemoryError):
            region.read(0, 4)
        with pytest.raises(PoisonedMemoryError):
            region.write(0, b"x")

    def test_nonvolatile_survives_power_fail(self):
        region = MemoryRegion("r", 64, volatile=False)
        region.write(0, b"data")
        region.power_fail()
        assert region.read(0, 4) == b"data"

    def test_power_restore_zeroes(self):
        region = MemoryRegion("r", 64, volatile=True)
        region.write(0, b"data")
        region.power_fail()
        region.power_restore()
        assert region.read(0, 4) == b"\x00" * 4
        assert not region.poisoned

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            MemoryRegion("r", 0, volatile=True)

    @given(st.binary(min_size=1, max_size=300), st.integers(0, 700))
    def test_write_read_roundtrip_property(self, data, offset):
        region = MemoryRegion("r", 1024, volatile=False)
        if offset + len(data) > 1024:
            with pytest.raises(IndexError):
                region.write(offset, data)
        else:
            region.write(offset, data)
            assert region.read(offset, len(data)) == data


class TestAccessMeter:
    def test_charges_accumulate_and_take_clears(self):
        meter = AccessMeter()
        meter.charge_ns(100)
        meter.charge_transfer("rdma", 64, base_ns=10)
        ns, transfers = meter.take()
        assert ns == 100
        assert len(transfers) == 1
        assert transfers[0].pipe_key == "rdma"
        assert meter.ns == 0
        assert meter.transfers == []

    def test_counters_persist_across_take(self):
        meter = AccessMeter()
        meter.charge_transfer("rdma", 64)
        meter.take()
        assert meter.counters["rdma_bytes"] == 64
        assert meter.counters["rdma_ops"] == 1

    def test_reset_clears_everything(self):
        meter = AccessMeter()
        meter.charge_ns(5)
        meter.count("x")
        meter.reset()
        assert meter.ns == 0
        assert meter.counters == {}


def _mapped(kind: str, meter: AccessMeter, cache: LineCacheModel) -> MappedMemory:
    config = LatencyConfig()
    region = MemoryRegion("m", 1 << 20, volatile=False)
    timing = dram_timing(config) if kind == "dram" else cxl_timing(config)
    return MappedMemory(region, timing, meter, cache, counter_key=kind)


class TestMappedMemory:
    def test_small_read_charges_miss_then_hit(self):
        meter = AccessMeter()
        mapped = _mapped("dram", meter, LineCacheModel())
        mapped.read(0, 8)
        first = meter.ns
        mapped.read(0, 8)
        second = meter.ns - first
        assert first == pytest.approx(LatencyConfig().dram_local_ns)
        assert second < first  # cached

    def test_burst_read_uses_burst_model(self):
        meter = AccessMeter()
        mapped = _mapped("cxl", meter, LineCacheModel())
        mapped.read(0, 16384)
        config = LatencyConfig()
        assert meter.ns == pytest.approx(config.cxl_read_ns(16384), rel=0.01)

    def test_burst_write_differs_from_read(self):
        config = LatencyConfig()
        meter = AccessMeter()
        mapped = _mapped("cxl", meter, LineCacheModel())
        mapped.write(0, b"\xAA" * 16384)
        assert meter.ns == pytest.approx(config.cxl_write_ns(16384), rel=0.01)

    def test_cxl_pipe_charged_only_on_misses(self):
        meter = AccessMeter()
        mapped = _mapped("cxl", meter, LineCacheModel())
        mapped.read(0, 8)
        assert meter.counters.get("cxl_touched_bytes") == 8
        assert meter.counters.get("cxl_bytes") == CACHE_LINE
        _, transfers = meter.take()
        assert sum(t.nbytes for t in transfers) == CACHE_LINE
        mapped.read(0, 8)  # hit: no new pipe traffic
        _, transfers = meter.take()
        assert transfers == []

    def test_dram_has_no_pipe(self):
        meter = AccessMeter()
        mapped = _mapped("dram", meter, LineCacheModel())
        mapped.read(0, 8)
        assert meter.transfers == []

    def test_unmetered_access_free(self):
        meter = AccessMeter()
        mapped = _mapped("cxl", meter, LineCacheModel())
        mapped.write_unmetered(0, b"x")
        assert mapped.read_unmetered(0, 1) == b"x"
        assert meter.ns == 0

    def test_straddling_read_touches_two_lines(self):
        meter = AccessMeter()
        mapped = _mapped("dram", meter, LineCacheModel())
        mapped.read(60, 8)  # crosses a line boundary
        assert meter.ns == pytest.approx(2 * LatencyConfig().dram_local_ns)


class TestWindowedMemory:
    def test_relative_addressing(self):
        meter = AccessMeter()
        mapped = _mapped("cxl", meter, LineCacheModel())
        window = WindowedMemory(mapped, base=4096, size=8192)
        window.write(0, b"abc")
        assert mapped.read_unmetered(4096, 3) == b"abc"
        assert window.read(0, 3) == b"abc"

    def test_bounds(self):
        meter = AccessMeter()
        mapped = _mapped("cxl", meter, LineCacheModel())
        window = WindowedMemory(mapped, base=0, size=128)
        with pytest.raises(IndexError):
            window.read(120, 16)
        with pytest.raises(IndexError):
            WindowedMemory(mapped, base=(1 << 20) - 64, size=128)

    def test_unmetered_passthrough(self):
        meter = AccessMeter()
        mapped = _mapped("cxl", meter, LineCacheModel())
        window = WindowedMemory(mapped, base=64, size=512)
        window.write_unmetered(0, b"zz")
        assert window.read_unmetered(0, 2) == b"zz"
        assert meter.ns == 0


class TestRejectedAccessIsNotCharged:
    """An access that raises must leave the meter and line cache untouched."""

    @staticmethod
    def _untouched(mapped: MappedMemory) -> None:
        meter, cache = mapped.meter, mapped.line_cache
        assert meter.ns == 0.0
        assert meter.transfers == []
        assert meter.counters == {}
        assert (cache.hits, cache.misses, len(cache._lines)) == (0, 0, 0)

    @pytest.mark.parametrize("offset, nbytes", [(100, -5), (-1, 4), (120, 16)])
    def test_window(self, offset, nbytes):
        mapped = _mapped("cxl", AccessMeter(), LineCacheModel())
        window = WindowedMemory(mapped, base=4096, size=128)
        with pytest.raises(IndexError):
            window.read(offset, nbytes)
        self._untouched(mapped)

    @pytest.mark.parametrize("offset, nbytes", [(100, -5), (-1, 4), ((1 << 20) - 4, 8)])
    def test_mapped(self, offset, nbytes):
        mapped = _mapped("cxl", AccessMeter(), LineCacheModel())
        with pytest.raises(IndexError):
            mapped.read(offset, nbytes)
        self._untouched(mapped)

    @pytest.mark.parametrize("offset", [-1, (1 << 20) - 4])
    def test_mapped_write(self, offset):
        mapped = _mapped("cxl", AccessMeter(), LineCacheModel())
        with pytest.raises(IndexError):
            mapped.write(offset, b"x" * 8)
        self._untouched(mapped)

    @pytest.mark.parametrize("offset, nbytes", [(100, -5), (-1, 4), (16380, 8)])
    def test_page_accessor(self, offset, nbytes):
        from repro.db.bufferpool import OffsetAccessor

        mapped = _mapped("cxl", AccessMeter(), LineCacheModel())
        # The page lies inside the window, the access does not lie inside
        # the page (though (16380, 8) would still lie inside the window).
        window = WindowedMemory(mapped, base=4096, size=4 * 16384)
        accessor = OffsetAccessor(window, 16384)
        with pytest.raises(IndexError):
            accessor.read(offset, nbytes)
        page = accessor.snapshot()
        with pytest.raises(IndexError):
            page.read(offset, nbytes)
        page.release()
        self._untouched(mapped)

    def test_page_outside_window_rejected_at_construction(self):
        from repro.db.bufferpool import OffsetAccessor

        mapped = _mapped("cxl", AccessMeter(), LineCacheModel())
        window = WindowedMemory(mapped, base=4096, size=16384 + 100)
        OffsetAccessor(window, 0)
        with pytest.raises(IndexError):
            OffsetAccessor(window, 200)
        with pytest.raises(IndexError):
            OffsetAccessor(mapped, (1 << 20) - 100)

    def test_poisoned_region(self):
        from repro.db.bufferpool import OffsetAccessor

        meter = AccessMeter()
        region = MemoryRegion("d", 1 << 16, volatile=True)
        mapped = MappedMemory(
            region, dram_timing(LatencyConfig()), meter, LineCacheModel(), "dram"
        )
        region.power_fail()
        with pytest.raises(PoisonedMemoryError):
            mapped.read(0, 8)
        with pytest.raises(PoisonedMemoryError):
            OffsetAccessor(mapped, 0).snapshot()
        self._untouched(mapped)
