"""Page views: typed access to one page's bytes, wherever they live.

A :class:`PageView` binds a page id to a :class:`PageAccessor` — the
object that actually moves bytes (a metered window onto DRAM, onto CXL
memory, or through a functional CPU cache in the sharing scenario). The
B-tree and recovery code never know where a page physically resides;
that indirection is what lets the same engine run on a local, a tiered
RDMA, or a PolarCXLMem buffer pool.

All mutations in normal operation go through the mini-transaction
(:mod:`repro.db.mtr`), which adds redo logging; the raw ``write`` here is
for recovery replay and pool-internal initialization.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Optional, Protocol, Union

from .constants import (
    NO_FREE_SLOT,
    OFF_FIRST_FREE,
    OFF_HEAP_COUNT,
    OFF_LEVEL,
    OFF_LSN,
    OFF_NEXT_LEAF,
    OFF_NRECS,
    OFF_PAGE_ID,
    OFF_PAGE_TYPE,
    PAGE_SIZE,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..hardware.memory import MappedMemory

__all__ = ["PageAccessor", "PageReader", "PageSnapshot", "PageView", "format_empty_page"]

_U64 = struct.Struct("<Q")
_U16 = struct.Struct("<H")
_U8 = struct.Struct("<B")


def raise_outside_page(offset: int, nbytes: int) -> None:
    raise IndexError(f"access [{offset}, {offset + nbytes}) outside a {PAGE_SIZE} B page")


class PageAccessor(Protocol):
    """Moves bytes for one page; implementations meter the movement."""

    def read(self, offset: int, nbytes: int) -> bytes: ...

    def write(self, offset: int, data: bytes) -> None: ...


class PageView:
    """One page, seen through an accessor, pinned in some buffer pool."""

    __slots__ = ("page_id", "accessor", "pool")

    def __init__(
        self, page_id: int, accessor: PageAccessor, pool: Optional[object] = None
    ) -> None:
        self.page_id = page_id
        self.accessor = accessor
        self.pool = pool

    # -- raw byte access -----------------------------------------------------------

    def read(self, offset: int, nbytes: int) -> bytes:
        return self.accessor.read(offset, nbytes)

    def write(self, offset: int, data: bytes) -> None:
        self.accessor.write(offset, data)

    def image(self) -> bytes:
        """The full page image (used when flushing to storage)."""
        return self.accessor.read(0, PAGE_SIZE)

    # -- read-only visits -----------------------------------------------------------

    def snapshot(self) -> PageReader:
        """A reader for one read-only visit; call ``release()`` when done.

        An accessor over metered memory hands out a :class:`PageSnapshot`,
        which decodes the page's bytes in place and charges all the probes
        at release. Any other accessor (the sharing scenario's CPU cache,
        whose lines may be stale copies) keeps per-access reads: the view
        itself is the reader and its ``release`` does nothing.
        """
        snapshot = getattr(self.accessor, "snapshot", None)
        return self if snapshot is None else snapshot()

    def release(self) -> None:
        """End a visit begun with :meth:`snapshot` (nothing to charge here)."""

    # -- typed helpers ---------------------------------------------------------------

    def read_u64(self, offset: int) -> int:
        return _U64.unpack(self.accessor.read(offset, 8))[0]

    def write_u64(self, offset: int, value: int) -> None:
        self.accessor.write(offset, _U64.pack(value))

    def read_u16(self, offset: int) -> int:
        return _U16.unpack(self.accessor.read(offset, 2))[0]

    def write_u16(self, offset: int, value: int) -> None:
        self.accessor.write(offset, _U16.pack(value))

    def read_u8(self, offset: int) -> int:
        return self.accessor.read(offset, 1)[0]

    def write_u8(self, offset: int, value: int) -> None:
        self.accessor.write(offset, _U8.pack(value))

    # -- header fields ----------------------------------------------------------------

    @property
    def stored_page_id(self) -> int:
        return self.read_u64(OFF_PAGE_ID)

    @property
    def lsn(self) -> int:
        return self.read_u64(OFF_LSN)

    def set_lsn(self, lsn: int) -> None:
        self.write_u64(OFF_LSN, lsn)

    @property
    def page_type(self) -> int:
        return self.read_u8(OFF_PAGE_TYPE)

    @property
    def level(self) -> int:
        return self.read_u8(OFF_LEVEL)

    @property
    def nrecs(self) -> int:
        return self.read_u16(OFF_NRECS)

    @property
    def next_leaf(self) -> int:
        return self.read_u64(OFF_NEXT_LEAF)

    @property
    def heap_count(self) -> int:
        return self.read_u16(OFF_HEAP_COUNT)

    @property
    def first_free(self) -> int:
        return self.read_u16(OFF_FIRST_FREE)


def format_empty_page(page_id: int, page_type: int, level: int = 0) -> bytes:
    """A fresh page image with an initialized header and zeroed body."""
    image = bytearray(PAGE_SIZE)
    _U64.pack_into(image, OFF_PAGE_ID, page_id)
    _U64.pack_into(image, OFF_LSN, 0)
    image[OFF_PAGE_TYPE] = page_type
    image[OFF_LEVEL] = level
    _U16.pack_into(image, OFF_NRECS, 0)
    _U64.pack_into(image, OFF_NEXT_LEAF, 0)
    _U16.pack_into(image, OFF_HEAP_COUNT, 0)
    _U16.pack_into(image, OFF_FIRST_FREE, NO_FREE_SLOT)
    return bytes(image)


class PageSnapshot:
    """One read-only visit to a page in metered memory.

    Reads decode straight from a ``memoryview`` of the page's bytes and
    record ``(offset, nbytes)``; :meth:`release` charges the recorded
    probes, in order, through
    :meth:`~repro.hardware.memory.MappedMemory.charge_accesses` — the
    charges, MemSan events and tracer counts of one metered read per
    probe. Only valid while nothing writes the page: open it, read,
    release, then write or move to another page.
    """

    __slots__ = ("_buf", "_accesses", "_mapped", "_base")

    def __init__(self, mapped: MappedMemory, base: int) -> None:
        self._buf = mapped.region.view(base, PAGE_SIZE)
        self._accesses: list[tuple[int, int]] = []
        self._mapped = mapped
        self._base = base

    def read(self, offset: int, nbytes: int) -> bytes:
        if offset < 0 or nbytes < 0 or offset + nbytes > PAGE_SIZE:
            raise_outside_page(offset, nbytes)
        self._accesses.append((offset, nbytes))
        return self._buf[offset : offset + nbytes].tobytes()

    def read_u64(self, offset: int) -> int:
        if offset < 0 or offset > PAGE_SIZE - 8:
            raise_outside_page(offset, 8)
        self._accesses.append((offset, 8))
        return _U64.unpack_from(self._buf, offset)[0]

    def read_u16(self, offset: int) -> int:
        if offset < 0 or offset > PAGE_SIZE - 2:
            raise_outside_page(offset, 2)
        self._accesses.append((offset, 2))
        return _U16.unpack_from(self._buf, offset)[0]

    def read_u8(self, offset: int) -> int:
        if offset < 0 or offset >= PAGE_SIZE:
            raise_outside_page(offset, 1)
        self._accesses.append((offset, 1))
        return self._buf[offset]

    def release(self) -> None:
        """Charge every probe of the visit, in the order it was made."""
        self._mapped.charge_accesses(self._base, self._accesses)
        self._buf.release()


# What a read-only visit decodes from: the view itself (per-access reads)
# or an open snapshot of it (see PageView.snapshot).
PageReader = Union[PageView, PageSnapshot]
