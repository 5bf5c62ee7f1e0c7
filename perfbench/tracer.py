"""Span tracer for the benchmark's traced runs.

Wrappers are installed from this file only, on the module or class
attribute each caller looks the name up on (``repro.core.lossless`` binds
``bytesort_transform`` and ``get_backend`` at import, so the wrappers go
there, not on the defining module).  Nothing under ``src/`` is edited.

A span is ``(span_id, parent_id, op_id, name, start, end)`` in
``time.perf_counter`` seconds.  Spans stay in memory and are written out
when the run ends.  The current span lives in a ``ContextVar``, so asyncio
tasks of the service nest correctly; work handed to an executor thread is
re-parented explicitly (``run_in_executor`` does not copy the context).
"""

from __future__ import annotations

import contextvars
import dataclasses
import itertools
import os
import threading
import time
from collections import defaultdict

now = time.perf_counter

#: Span names whose metric is the inclusive duration, not the self time
#: ("parents", and the time a caller is blocked in the chunk pipeline).
INCLUSIVE = ("atc.encode", "atc.decode", "pipeline.submit", "pipeline.close")

#: Root span names: one per operation; their self time is ``other.self_s``.
ROOTS = ("op", "service.request")

#: Span name -> per-layer metric name.
SPAN_METRICS = {
    "spec_like.gen": "spec_like.gen_s",
    "filter": "filter.self_s",
    "trace_io.read": "trace_io.read_s",
    "trace_io.write": "trace_io.write_s",
    "lossy.plan": "lossy.plan_s",
    "intervals.materialize": "intervals.materialize_s",
    "bytesort.fwd": "bytesort.fwd_s",
    "bytesort.inv": "bytesort.inv_s",
    "backend.compress": "backend.compress_s",
    "backend.decompress": "backend.decompress_s",
    "integrity.digest": "integrity.digest_s",
    "container.chunk_write": "container.chunk_write_s",
    "container.chunk_read": "container.chunk_read_s",
    "container.info_write": "container.info_write_s",
    "container.info_read": "container.info_read_s",
    "pipeline.submit": "pipeline.submit_s",
    "pipeline.close": "pipeline.close_s",
    "formats.parse": "formats.parse_s",
    "formats.write": "formats.write_s",
    "sidecar.write": "sidecar.write_s",
    "sidecar.read": "sidecar.read_s",
    "http.read": "http.read_s",
    "http.write": "http.write_s",
    "job.queue_wait": "job.queue_wait_s",
    "job.run": "job.run_s",
    "svc_cache.lookup": "svc_cache.lookup_s",
    "svc_cache.commit": "svc_cache.commit_s",
    "svc_cache.pack": "svc_cache.pack_s",
    "atc.encode": "atc.encode_s",
    "atc.decode": "atc.decode_s",
}

#: Counters recorded at the same boundaries (``*_max`` keep a maximum).
COUNT_METRICS = (
    "filter.refs_in",
    "filter.addrs_out",
    "trace_io.bytes",
    "lossy.intervals",
    "lossy.new_chunks",
    "bytesort.windows",
    "backend.calls",
    "backend.bytes_in",
    "backend.bytes_out",
    "integrity.bytes",
    "formats.records",
    "sidecar.bytes",
    "http.body_bytes",
    "gate.rejected",
    "gate.in_flight_max",
    "svc_cache.lookups",
    "svc_cache.hits",
    "svc_cache.integrity_evictions",
)


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._lock = threading.Lock()
        #: ``(span_id, op_id, name)`` of the innermost open span.
        self.current = contextvars.ContextVar("perfbench_span", default=(0, None, None))

    def begin(self, name, op_id=None, parent=None):
        """Open a span; returns the handle :meth:`end` closes."""
        parent_id, current_op, _ = self.current.get() if parent is None else parent
        op = current_op if op_id is None else op_id
        span_id = next(self._ids)
        token = self.current.set((span_id, op, name))
        return (span_id, parent_id, op, name, now(), token)

    def end(self, handle) -> None:
        span_id, parent_id, op, name, start, token = handle
        end = now()
        self.current.reset(token)
        self.spans.append((span_id, parent_id, op, name, start, end))

    def record(self, name, start, end, parent) -> None:
        """Append a span measured elsewhere (e.g. a queue wait)."""
        parent_id, op, _ = parent
        self.spans.append((next(self._ids), parent_id, op, name, start, end))

    def span(self, name, op_id=None):
        return _SpanContext(self, name, op_id)

    def new_op(self) -> int:
        return next(self._ops)

    def count(self, key, value=1) -> None:
        with self._lock:
            self.counts[key] += value

    def count_max(self, key, value) -> None:
        with self._lock:
            self.counts[key] = max(self.counts[key], value)

    def dump(self):
        return {"spans": list(self.spans), "counts": dict(self.counts)}


class _SpanContext:
    __slots__ = ("tracer", "name", "op_id", "handle")

    def __init__(self, tracer, name, op_id):
        self.tracer, self.name, self.op_id = tracer, name, op_id

    def __enter__(self):
        self.handle = self.tracer.begin(self.name, self.op_id)
        return self.handle[0]

    def __exit__(self, *exc):
        self.tracer.end(self.handle)
        return False


TRACER = Tracer()


# -- wrapper factories ------------------------------------------------------------------------
def _plain(name, counter=None):
    def factory(original):
        def traced(*args, **kwargs):
            handle = TRACER.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                TRACER.end(handle)
            if counter is not None:
                counter(args, kwargs, result)
            return result

        return traced

    return factory


def _per_item(name, counter=None):
    """Wrap a function returning an iterator: one span per ``next()``."""

    def factory(original):
        def traced(*args, **kwargs):
            inner = iter(original(*args, **kwargs))

            def items():
                while True:
                    handle = TRACER.begin(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        TRACER.end(handle)
                    if counter is not None:
                        counter(item)
                    yield item

            return items()

        return traced

    return factory


def _counter_only(counter):
    def factory(original):
        def traced(*args, **kwargs):
            result = original(*args, **kwargs)
            counter(args, kwargs, result)
            return result

        return traced

    return factory


def _async(name):
    def factory(original):
        async def traced(*args, **kwargs):
            handle = TRACER.begin(name)
            try:
                return await original(*args, **kwargs)
            finally:
                TRACER.end(handle)

        return traced

    return factory


def _count(key, measure):
    return lambda args, kwargs, result: TRACER.count(key, measure(args, kwargs, result))


# -- the patch table ----------------------------------------------------------------------
def _targets():
    """Yield ``(owner, attribute, factory)`` for every traced entry point.

    Imported lazily so the benchmark can report a missing package cleanly.
    """
    import repro.core.atc as atc
    import repro.core.container as container
    import repro.core.fsck as fsck
    import repro.core.lossless as lossless
    import repro.core.lossy as lossy
    import repro.core.parallel as parallel
    import repro.service.app as app
    import repro.service.cache as svc_cache
    import repro.service.http as http
    import repro.service.limits as limits
    import repro.traces.filter as filt
    import repro.traces.formats.convert as convert
    import repro.traces.spec_like as spec_like
    import repro.traces.trace as trace

    def windows(args, kwargs, result):
        buffer = kwargs.get("buffer_addresses", args[1] if len(args) > 1 else 1_000_000)
        return -(-len(args[0]) // int(buffer))

    def payload_bytes(args, kwargs, result):
        return len(args[0])

    def plan_counter(args, kwargs, result):
        TRACER.count("lossy.intervals")
        TRACER.count("lossy.new_chunks", int(bool(result[1])))

    def filter_counter(args, kwargs, result):
        TRACER.count("filter.refs_in", len(args[1]))
        TRACER.count("filter.addrs_out", int(result.size))

    def lookup_counter(args, kwargs, result):
        if TRACER.current.get()[2] == "svc_cache.commit":
            return  # commit re-reads its own entry; not a request lookup
        TRACER.count("svc_cache.lookups")
        TRACER.count("svc_cache.hits", int(result is not None))

    def gate_counter(args, kwargs, result):
        TRACER.count("gate.rejected", int(not result))
        TRACER.count_max("gate.in_flight_max", args[0].active)

    read_bytes = lambda chunk: TRACER.count("trace_io.bytes", int(chunk.nbytes))
    digest = _plain("integrity.digest", _count("integrity.bytes", payload_bytes))

    yield spec_like, "generate_reference_stream", _plain("spec_like.gen")
    yield filt.StreamingCacheFilter, "filter_chunk", _plain("filter", filter_counter)
    yield trace, "iter_raw_chunks", _per_item("trace_io.read", read_bytes)
    yield app, "iter_raw_chunks", _per_item("trace_io.read", read_bytes)
    yield trace, "write_raw_trace", _plain(
        "trace_io.write", _count("trace_io.bytes", lambda a, k, r: r)
    )
    yield lossy.LossyIntervalEncoder, "plan_interval", _plain("lossy.plan", plan_counter)
    yield atc, "materialize_interval", _plain("intervals.materialize")
    yield lossless, "bytesort_transform", _plain(
        "bytesort.fwd", _count("bytesort.windows", windows)
    )
    yield lossless, "bytesort_inverse", _plain("bytesort.inv")
    backend = _backend_factory()
    yield lossless, "get_backend", backend
    yield container, "get_backend", backend
    yield atc, "chunk_digest", digest
    yield fsck, "chunk_digest", digest
    yield container, "verify_chunk_payload", digest
    yield container, "footer_digest", digest
    yield container.AtcContainer, "write_chunk", _plain("container.chunk_write")
    yield container.AtcContainer, "read_chunk", _plain("container.chunk_read")
    yield container.AtcContainer, "write_info", _plain("container.info_write")
    yield container.AtcContainer, "read_info", _plain("container.info_read")
    yield parallel.OrderedChunkWriter, "submit", _plain("pipeline.submit")
    yield parallel.OrderedChunkWriter, "close", _plain("pipeline.close")
    yield atc.AtcEncoder, "encode_stream", _plain("atc.encode")
    yield atc.AtcEncoder, "close", _plain("atc.encode")
    yield atc.AtcDecoder, "read_all", _plain("atc.decode")
    yield atc.AtcDecoder, "iter_chunks", _per_item("atc.decode")
    yield convert, "SidecarWriter", _sidecar_writer
    yield convert, "SidecarReader", _sidecar_reader
    yield app, "read_request", _async("http.read")
    yield http.Request, "iter_body", _iter_body
    yield app, "write_response", _async("http.write")
    yield app.AtcService, "_serve_one", _serve_one
    yield app.AtcService, "_run_job", _run_job
    yield limits.ConnectionGate, "try_acquire", _counter_only(gate_counter)
    yield svc_cache.ContainerCache, "lookup", _plain("svc_cache.lookup", lookup_counter)
    yield svc_cache.ContainerCache, "commit", _plain("svc_cache.commit")
    yield svc_cache.ContainerCache, "_evict", _evict
    yield app, "pack_container", _plain("svc_cache.pack")


def _backend_factory():
    """Wrap ``get_backend``: one traced proxy per back-end object, shared by
    every patch point, so a proxy one module hands to another (the decoder
    passes its container's back-end to its codec) is not wrapped twice."""
    proxies = {}  # id(backend) -> (backend, proxy); holding both keeps ids unique

    def counted(args, kwargs, result):
        TRACER.count("backend.calls")
        TRACER.count("backend.bytes_in", len(args[0]))
        TRACER.count("backend.bytes_out", len(result))

    def factory(original):
        def traced(name_or_backend):
            backend = original(name_or_backend)
            if any(backend is proxy for _, proxy in proxies.values()):
                return backend
            if id(backend) not in proxies:
                proxies[id(backend)] = (
                    backend,
                    dataclasses.replace(
                        backend,
                        compress=_plain("backend.compress", counted)(backend.compress),
                        decompress=_plain("backend.decompress", counted)(backend.decompress),
                    ),
                )
            return proxies[id(backend)][1]

        return traced

    return factory


def _sidecar_writer(original):
    class TracedSidecarWriter(original):
        def __init__(self, path):
            self._perfbench_path = path
            with TRACER.span("sidecar.write"):
                super().__init__(path)

        def append(self, kinds, cycles):
            with TRACER.span("sidecar.write"):
                super().append(kinds, cycles)

        def close(self):
            with TRACER.span("sidecar.write"):
                super().close()
            TRACER.count("sidecar.bytes", os.path.getsize(self._perfbench_path))

    return TracedSidecarWriter


def _sidecar_reader(original):
    class TracedSidecarReader(original):
        def __init__(self, path):
            with TRACER.span("sidecar.read"):
                super().__init__(path)

        def take(self, count):
            with TRACER.span("sidecar.read"):
                return super().take(count)

    return TracedSidecarReader


def _iter_body(original):
    async def traced(self):
        pieces = original(self).__aiter__()
        while True:
            handle = TRACER.begin("http.read")
            try:
                piece = await pieces.__anext__()
            except StopAsyncIteration:
                return
            finally:
                TRACER.end(handle)
            TRACER.count("http.body_bytes", len(piece))
            yield piece

    return traced


def _serve_one(original):
    async def traced(self, reader, writer):
        handle = TRACER.begin("service.request", op_id=TRACER.new_op(), parent=(0, None, None))
        try:
            return await original(self, reader, writer)
        finally:
            TRACER.end(handle)

    return traced


def _run_job(original):
    async def traced(self, fn, token):
        parent = TRACER.current.get()
        submitted = now()

        def job():
            TRACER.record("job.queue_wait", submitted, now(), parent)
            handle = TRACER.begin("job.run", parent=parent)
            try:
                return fn()
            finally:
                TRACER.end(handle)

        return await original(self, job, token)

    return traced


def _evict(original):
    def traced(self, key, path):
        TRACER.count("svc_cache.integrity_evictions")
        return original(self, key, path)

    return traced


# -- install / uninstall ----------------------------------------------------------------------
#: ``(owner, attribute, original, factory)`` for every patch point; an owner
#: is a module, a class, or the trace-format registry dict.
_PATCHES = []
_INSTALLED = []


def _patch_table():
    if not _PATCHES:
        import repro.traces.formats.base as formats_base

        for owner, name, factory in _targets():
            _PATCHES.append((owner, name, vars(owner)[name], factory))
        for fmt_name, fmt in formats_base._FORMATS.items():
            _PATCHES.append((formats_base._FORMATS, fmt_name, fmt, _format_factory))
    return _PATCHES


def _format_factory(fmt):
    def counted(chunk):
        TRACER.count("formats.records", len(chunk))

    return dataclasses.replace(
        fmt,
        read=_per_item("formats.parse", counted)(fmt.read),
        write=_plain("formats.write")(fmt.write),
    )


def _set(owner, name, value):
    if isinstance(owner, dict):
        owner[name] = value
    else:
        setattr(owner, name, value)


def _get(owner, name):
    return owner[name] if isinstance(owner, dict) else vars(owner)[name]


def install() -> None:
    """Install every wrapper (idempotent)."""
    if _INSTALLED:
        return
    for owner, name, original, factory in _patch_table():
        _set(owner, name, factory(original))
        _INSTALLED.append((owner, name, original))


def uninstall() -> None:
    """Restore every original entry point."""
    while _INSTALLED:
        owner, name, original = _INSTALLED.pop()
        _set(owner, name, original)


def wrapped_entry_points():
    """Patch points not holding their original object (empty = untraced)."""
    return [
        f"{getattr(owner, '__name__', 'formats')}.{name}"
        for owner, name, original, _ in _patch_table()
        if _get(owner, name) is not original
    ]


# -- aggregation ----------------------------------------------------------------------------
def self_times(spans):
    """Return ``{span_id: (span, self_seconds)}``: duration minus children."""
    child_time = defaultdict(float)
    for span in spans:
        child_time[span[1]] += span[5] - span[4]
    return {span[0]: (span, (span[5] - span[4]) - child_time[span[0]]) for span in spans}


def layer_metrics(spans, counts, operations):
    """Per-operation layer metrics from the spans of ``operations`` ops."""
    totals = defaultdict(float)
    for span, self_s in self_times(spans).values():
        name = span[3]
        if span[2] is None:  # outside any operation
            continue
        if span[2] == "setup":
            if name == "spec_like.gen":
                totals["spec_like.gen_s"] += span[5] - span[4]
            continue
        if name in ROOTS:
            totals["other.self_s"] += self_s
        elif name in SPAN_METRICS:
            totals[SPAN_METRICS[name]] += (span[5] - span[4]) if name in INCLUSIVE else self_s
    ops = max(int(operations), 1)
    metrics = {}
    for name in list(SPAN_METRICS.values()) + ["other.self_s"]:
        divisor = 1 if name == "spec_like.gen_s" else ops
        metrics[name] = totals.get(name, 0.0) / divisor
    for name in COUNT_METRICS:
        value = counts.get(name, 0)
        metrics[name] = value if name.endswith("_max") else value / ops
    return metrics


def layer_split(spans, root_names=ROOTS, within=None, ops=None):
    """Self seconds per span name over operation spans, largest first.

    ``within`` keeps only spans at or below a span of that name (e.g.
    ``"atc.encode"``); ``ops`` keeps only those operation ids.
    """
    by_id = {span[0]: span for span in spans}
    totals = defaultdict(float)
    for span, self_s in self_times(spans).values():
        if span[2] in (None, "setup") or (ops is not None and span[2] not in ops):
            continue
        if within is not None:
            node = span
            while node is not None and node[3] != within:
                node = by_id.get(node[1])
            if node is None:
                continue
        totals[f"other:{span[3]}" if span[3] in root_names else span[3]] += self_s
    return sorted(totals.items(), key=lambda item: -item[1])


def hit_ops(spans):
    """Service operations that were dedup hits: a cache lookup, no job."""
    names = defaultdict(set)
    for span in spans:
        names[span[2]].add(span[3])
    return {op for op, seen in names.items() if "svc_cache.lookup" in seen and "job.run" not in seen}
