"""A fixed pure-Python kernel that measures how fast the host runs right now.

On a shared machine the interpreter's speed swings by tens of percent
from second to second and drifts over minutes, and the simulator's host
time swings with it. The benchmark runs this kernel between its timed
rounds and states host speed in *reference seconds*: one reference
second is the host time of ``KERNELS_PER_REF_S`` runs of the kernel. A
change to the simulator moves its rounds but not the kernel, so it moves
the result; a slow or busy machine moves both, so it cancels out.

The kernel does the kind of work the simulator does: bound-method calls,
dict lookups, bytes slicing and decoding, generator resumptions and a
heap of pending events. Its data stays in the CPU's caches: on a shared
2-core Xeon a cache-resident kernel followed the simulator's speed
swings more closely than one reading 4 MiB at random did (spread of the
scaled result over eight runs 0.025 against 0.063). Its inputs are built
once, at import; the garbage collector is off while it runs, so the
program's own heap does not bill the kernel for a collection.
"""

from __future__ import annotations

import gc
import heapq
import time

__all__ = ["KERNELS_PER_REF_S", "kernel_seconds", "run_kernel"]

KERNELS_PER_REF_S = 20
_STREAMS = 8
_STEPS = 4_000  # per stream
_TABLE_SIZE = 1 << 12
_BUFFER = bytes(range(256)) * (1 << 10)  # 256 KiB


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: int, value: int, next_node: "_Node | None") -> None:
        self.key = key
        self.value = value
        self.next = next_node

    def get(self, key: int) -> int:
        return self.value if self.key == key else 0


def _build_table() -> dict[int, _Node]:
    table: dict[int, _Node] = {}
    head = None
    for key in range(_TABLE_SIZE):
        head = _Node(key, key * 7, head)
        table[key] = head
    return table


_TABLE = _build_table()


def _stream(seed: int):
    x = seed
    acc = 0
    last = len(_BUFFER) - 8
    table = _TABLE
    for _ in range(_STEPS):
        x = (x * 1_103_515_245 + 12_345) & 0x7FFF_FFFF
        node = table.get(x & (_TABLE_SIZE - 1))
        if node is not None:
            acc += node.get(node.key)
        offset = x % last
        acc ^= int.from_bytes(_BUFFER[offset:offset + 8], "little")
        yield acc


def _work() -> int:
    streams = [_stream(1 + index) for index in range(_STREAMS)]
    heap = [(0, index) for index in range(_STREAMS)]
    checksum = 0
    while heap:
        now, index = heapq.heappop(heap)
        value = next(streams[index], None)
        if value is None:
            continue
        checksum = (checksum + value) & 0xFFFF_FFFF
        heapq.heappush(heap, (now + (value & 7) + 1, index))
    return checksum


CHECKSUM = _work()


def run_kernel() -> float:
    """Run the kernel once; returns its host seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        checksum = _work()
        elapsed = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if checksum != CHECKSUM:
        raise RuntimeError("calibration kernel gave a different checksum")
    return elapsed


def kernel_seconds(at_least: float) -> float:
    """Run the kernel until at least ``at_least`` host seconds have gone
    into it (once at minimum); returns its mean host seconds per run."""
    times = [run_kernel()]
    while sum(times) < at_least:
        times.append(run_kernel())
    return sum(times) / len(times)
