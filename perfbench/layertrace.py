"""Layer tracing from outside the program: wrap public entry points.

A :class:`LayerTracer` replaces public functions of ``repro`` (class
attributes, looked up at every call) with timing wrappers, so nothing
under ``src/`` changes. Every wrapped call is attributed to one layer.
Self time is a call's duration minus the time its wrapped children
cover, so the self times of all calls under a top-level call add up to
that call's duration exactly.

Four kinds of entry point (see :data:`spec.LAYER_MAP`):

``span``     an ordinary call, stored as one span record.
``gen``      a generator function. Calling it does no work, so each
             resumption is timed and stored as one span segment.
``process``  ``Simulator.process``: the generator it is handed (a driver
             worker) is wrapped like ``gen``, and each resumption also
             restores that worker's current transaction id.
``txn``      an ordinary call that starts a new transaction id.
``agg``      a per-access call (hundreds per transaction): its count and
             self time are aggregated in place and no span is stored.

Wrappers stay installed but idle (one flag test) until :meth:`start`, so
the tracer can be installed before a setup is built. Stored spans are
``(name, start_ns, end_ns, parent_index, txn_id)`` tuples, kept in memory
and written out by :meth:`write_spans` after the run.

The wrapper code itself costs time, which lands in the self time of the
wrapped call and of its caller: self times are comparable between two
commits traced the same way, not with untraced wall time. The traced
over untraced speed of the same run says how much the wrappers cost.
"""

from __future__ import annotations

import gzip
import importlib
import json
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any, Callable, Optional, Sequence

__all__ = ["Entry", "EntryStats", "LayerTracer", "resolve"]


@dataclass(frozen=True)
class Entry:
    """One wrapped public function: ``target`` is ``module:Class.attr``."""

    layer: str
    target: str
    kind: str  # "span" | "gen" | "process" | "txn" | "agg"
    # Optional count hooks, run only while tracing is on:
    # pre(tracer, args) -> state, before the call (gen: when created);
    # post(tracer, args, result, state), after it returns or finishes.
    pre: Optional[Callable[..., Any]] = None
    post: Optional[Callable[..., None]] = None


@dataclass
class EntryStats:
    starts: int = 0  # calls made (for a generator: generators created)
    self_ns: int = 0


def resolve(target: str) -> tuple[type, str, Any]:
    """``module:Class.attr`` -> (class, attr, current function).

    Raises ``LookupError`` when the module, class or attribute is gone,
    which is how the layer-map test notices a rename.
    """
    module_name, _, qual = target.partition(":")
    owner_name, _, attr = qual.rpartition(".")
    try:
        owner = getattr(importlib.import_module(module_name), owner_name)
    except (ImportError, AttributeError) as exc:
        raise LookupError(f"{target}: {exc}") from exc
    func = owner.__dict__.get(attr)
    if func is None or not callable(func):
        raise LookupError(f"{target}: no function {attr!r} on {owner_name}")
    return owner, attr, func


class LayerTracer:
    """Installs wrappers for a layer map and accounts time per entry."""

    def __init__(
        self, entries: Sequence[Entry], groups: Optional[dict[str, Sequence[str]]] = None
    ) -> None:
        self.entries = list(entries)
        self.stats: dict[str, EntryStats] = {e.target: EntryStats() for e in entries}
        self._name_ids = {e.target: i for i, e in enumerate(self.entries)}
        self._group_stats = {
            name: [self.stats[t] for t in targets] for name, targets in (groups or {}).items()
        }
        self.counts: dict[str, float] = {}
        self.spans: list[Optional[tuple]] = []
        self.enabled = False
        # Time covered by wrapped children of the innermost open call.
        self._child_ns = 0
        self._parent = -1
        self.txn = -1
        self._next_txn = 0
        self._installed: list[tuple[type, str, Any]] = []

    # -- install ---------------------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        try:
            for entry in self.entries:
                owner, attr, func = resolve(entry.target)
                self._installed.append((owner, attr, func))
                setattr(owner, attr, self._wrap(entry, func))
        except LookupError:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        for owner, attr, func in reversed(self._installed):
            setattr(owner, attr, func)
        self._installed = []
        self.enabled = False

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    def start(self) -> None:
        self.enabled = True

    def stop(self) -> None:
        self.enabled = False

    # -- wrappers --------------------------------------------------------------------

    def _wrap(self, entry: Entry, func: Any) -> Any:
        make = {
            "agg": self._wrap_agg,
            "span": self._wrap_span,
            "txn": self._wrap_span,
            "gen": self._wrap_gen,
            "process": self._wrap_process,
        }[entry.kind]
        return make(entry, func)

    def _wrap_agg(self, entry: Entry, func: Any) -> Any:
        tracer = self
        stat = self.stats[entry.target]
        pre, post = entry.pre, entry.post

        def agg(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return func(*args, **kwargs)
            stat.starts += 1
            state = pre(tracer, args) if pre is not None else None
            saved_ns = tracer._child_ns
            tracer._child_ns = 0
            t0 = perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                stat.self_ns += dur - tracer._child_ns
                tracer._child_ns = saved_ns + dur
            if post is not None:
                post(tracer, args, result, state)
            return result

        return agg

    def _segment(
        self, entry: Entry, stat: EntryStats, name_id: int, call: Callable[[], Any]
    ) -> Any:
        """Run ``call`` as one stored span of ``entry``."""
        index = len(self.spans)
        self.spans.append(None)
        saved_ns, parent = self._child_ns, self._parent
        self._child_ns = 0
        self._parent = index
        t0 = perf_counter_ns()
        try:
            return call()
        finally:
            t1 = perf_counter_ns()
            dur = t1 - t0
            stat.self_ns += dur - self._child_ns
            self._child_ns = saved_ns + dur
            self._parent = parent
            self.spans[index] = (name_id, t0, t1, parent, self.txn)

    def _wrap_span(self, entry: Entry, func: Any) -> Any:
        tracer = self
        stat = self.stats[entry.target]
        name_id = self._name_ids[entry.target]
        pre, post = entry.pre, entry.post
        starts_txn = entry.kind == "txn"

        def span(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return func(*args, **kwargs)
            if starts_txn:
                tracer.txn = tracer._next_txn
                tracer._next_txn += 1
            stat.starts += 1
            state = pre(tracer, args) if pre is not None else None
            result = tracer._segment(entry, stat, name_id, lambda: func(*args, **kwargs))
            if post is not None:
                post(tracer, args, result, state)
            return result

        return span

    def _traced_generator(
        self, entry: Entry, gen: Any, args: tuple, state: Any, ctx: Optional[list]
    ) -> Any:
        """Delegate to ``gen`` like ``yield from``, timing each resumption.

        ``ctx`` (process entries only) holds the worker's transaction id:
        it is made current before each resumption and saved after it, so
        spans outside any worker carry -1.
        """
        stat = self.stats[entry.target]
        name_id = self._name_ids[entry.target]
        value: Any = None
        thrown: Optional[BaseException] = None
        while True:
            if ctx is not None:
                self.txn = ctx[0]
            try:
                if thrown is None:
                    target = self._segment(entry, stat, name_id, lambda: gen.send(value))
                else:
                    exc, thrown = thrown, None
                    target = self._segment(entry, stat, name_id, lambda: gen.throw(exc))
            except StopIteration as stop:
                if ctx is not None:
                    ctx[0], self.txn = self.txn, -1
                if entry.post is not None:
                    entry.post(self, args, stop.value, state)
                return stop.value
            if ctx is not None:
                ctx[0], self.txn = self.txn, -1
            try:
                value = yield target
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:
                # Thrown into this wrapper: forward it, as ``yield from`` does.
                thrown = exc

    def _wrap_gen(self, entry: Entry, func: Any) -> Any:
        tracer = self
        stat = self.stats[entry.target]

        def gen_factory(*args: Any, **kwargs: Any) -> Any:
            gen = func(*args, **kwargs)
            if not tracer.enabled:
                return gen
            stat.starts += 1
            state = entry.pre(tracer, args) if entry.pre is not None else None
            return tracer._traced_generator(entry, gen, args, state, None)

        return gen_factory

    def _wrap_process(self, entry: Entry, func: Any) -> Any:
        tracer = self
        stat = self.stats[entry.target]

        def process(sim: Any, generator: Any, *args: Any, **kwargs: Any) -> Any:
            if tracer.enabled:
                stat.starts += 1
                generator = tracer._traced_generator(entry, generator, (), None, [-1])
            return func(sim, generator, *args, **kwargs)

        return process

    # -- results ---------------------------------------------------------------------

    def layer_starts(self, layer: str) -> int:
        return sum(self.stats[e.target].starts for e in self.entries if e.layer == layer)

    def starts(self, target: str) -> int:
        return self.stats[target].starts

    def group_starts(self, group: str) -> int:
        return sum(stat.starts for stat in self._group_stats[group])

    @property
    def txns(self) -> int:
        """Transactions started while tracing (``txn`` entries)."""
        return self._next_txn

    def layer_self_ns(self) -> dict[str, int]:
        """Self time per layer, summed over its entries."""
        out: dict[str, int] = {}
        for entry in self.entries:
            out[entry.layer] = out.get(entry.layer, 0) + self.stats[entry.target].self_ns
        return out

    def write_spans(self, path: str, meta: dict) -> None:
        """Write the spans as one gzipped JSON document.

        A span's id is its index in ``spans``; each row is ``[name,
        start_ns, end_ns, parent, txn]`` with ``name`` an index into
        ``names``, ``parent`` the id of the enclosing span (-1: none) and
        ``txn`` the transaction id (-1: outside any transaction).
        """
        doc = {
            "meta": meta,
            "names": [f"{e.layer}:{e.target}" for e in self.entries],
            "fields": ["name", "start_ns", "end_ns", "parent", "txn"],
            "spans": self.spans,
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            json.dump(doc, out, separators=(",", ":"))
