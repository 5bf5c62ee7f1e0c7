"""Ordered parallel primitives of the chunk pipeline.

The paper's ATC tool overlaps compression with trace generation by piping
bytesorted blocks through an external ``bzip2 -c`` process; the operating
system runs the compressor on another core.  This module reproduces that
overlap in-process with a thread pool: the stdlib codecs release the GIL,
so the compressor overlaps the caller just as the external process does.

``workers`` is the only parallelism setting.  ``workers == 1`` runs every
task inline on the caller's thread — the serial oracle the parallel path
must be byte-identical to.  ``workers > 1`` submits to a
:class:`concurrent.futures.ThreadPoolExecutor` of that size, owned (created
and shut down) by the call site.  ``0``/``None`` mean one worker per CPU.

Three primitives are provided:

* :func:`map_ordered` — a bounded ``map`` that preserves input order (used
  for bulk chunk compression, decoder bulk reads, sweep cells).
* :func:`imap_ordered` — its lazy form over an unbounded item stream.
* :class:`OrderedChunkWriter` — a streaming pipeline stage: submit
  ``(chunk_id, fn, args)`` triples as chunk boundaries are reached;
  completed payloads are written back strictly in submission order, and at
  most ``max_pending`` chunks are in flight so memory stays bounded.

Every primitive returns results in input order, so the chunk pipeline's
hard invariant (parallel output byte-identical to serial output) holds by
construction.  A task exception propagates to the caller unchanged; on
that error path unstarted tasks are cancelled and the pool's threads are
joined before the exception leaves the primitive.
"""

from __future__ import annotations

import itertools
import os
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Deque, Iterable, Iterator, List, Optional, Tuple, TypeVar

from repro.errors import ConfigurationError

__all__ = [
    "resolve_workers",
    "map_ordered",
    "imap_ordered",
    "OrderedChunkWriter",
]

_T = TypeVar("_T")
_R = TypeVar("_R")


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a worker-count knob to a concrete positive integer.

    ``None`` and ``0`` mean "one worker per available CPU"; any positive
    integer is taken literally; negative values and non-integers are
    rejected.

    Example:
        >>> resolve_workers(3)
        3
    """
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    if not isinstance(workers, int) or workers < 0:
        raise ConfigurationError(f"workers must be a non-negative integer or None, got {workers!r}")
    return workers


def map_ordered(fn: Callable[[_T], _R], items: Iterable[_T], workers: int = 1) -> List[_R]:
    """Apply ``fn`` to every item, in parallel, preserving input order.

    With one worker (or fewer than two items) this is a plain list
    comprehension; otherwise the items run on a thread pool of ``workers``
    threads (``0``/``None`` = one per CPU) created for this call.
    """
    items = list(items)
    return list(imap_ordered(fn, items, workers=workers if len(items) > 1 else 1))


def imap_ordered(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    workers: int = 1,
    lookahead: Optional[int] = None,
) -> Iterator[_R]:
    """Lazily apply ``fn`` to an item stream, yielding results in order.

    The streaming form of :func:`map_ordered`: ``items`` may be any
    iterable (including an unbounded generator) and is consumed only as
    results are yielded, with at most ``lookahead`` tasks (default
    ``2 * workers``) in flight ahead of the consumer — so both the input
    items and the pending results stay bounded regardless of stream
    length.  Results are identical to ``map(fn, items)`` for every worker
    count; with one worker items are processed inline, one at a time.

    Args:
        fn: The per-item function.
        items: The inputs; consumed lazily.
        workers: Thread-pool size (``1`` = inline, ``0``/``None`` = one per
            CPU).
        lookahead: In-flight window override (defaults to ``2 * workers``).

    Example:
        >>> list(imap_ordered(lambda value: value * 2, iter([1, 2, 3])))
        [2, 4, 6]
    """
    workers = resolve_workers(workers)
    if workers <= 1:
        for item in items:
            yield fn(item)
        return
    window = max(1, 2 * workers if lookahead is None else lookahead)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending: Deque[Future] = deque()
        iterator = iter(items)
        try:
            for item in itertools.islice(iterator, window):
                pending.append(pool.submit(fn, item))
            while pending:
                # Collect the oldest result before topping the window up, so
                # at most ``window`` submitted tasks are ever unfinished.
                result = pending.popleft().result()
                for item in itertools.islice(iterator, 1):
                    pending.append(pool.submit(fn, item))
                yield result
        finally:
            # Error or early close: drop unstarted tasks before the pool
            # joins its threads on exit.
            for future in pending:
                future.cancel()


class OrderedChunkWriter:
    """Run chunk tasks, writing their results back in submission order.

    Args:
        write: Callback ``write(chunk_id, payload)`` invoked on the caller's
            thread, strictly in the order chunks were submitted.
        workers: ``1`` runs every task inline at submission (the reference
            behaviour); more creates a thread pool of that size, shut down
            with the writer.  ``0``/``None`` means one worker per CPU.
        max_pending: Maximum number of chunks in flight before :meth:`submit`
            blocks on the oldest one (defaults to ``2 * workers``), bounding
            the memory held by buffered intervals and finished payloads.
    """

    def __init__(
        self,
        write: Callable[[int, bytes], object],
        workers: int = 1,
        max_pending: Optional[int] = None,
    ) -> None:
        self._write = write
        self.workers = resolve_workers(workers)
        self._pool = ThreadPoolExecutor(max_workers=self.workers) if self.workers > 1 else None
        self._max_pending = max_pending if max_pending is not None else 2 * self.workers
        self._pending: Deque[Tuple[int, Future]] = deque()
        self._closed = False

    @property
    def is_async(self) -> bool:
        """True when tasks may still be running after :meth:`submit` returns.

        Callers must hand such writers owned arguments (the encoder copies
        interval views before submitting); on the inline path buffer reuse
        is safe.
        """
        return self._pool is not None

    def submit(self, chunk_id: int, task: Callable[..., bytes], *args) -> None:
        """Queue one chunk; ``task(*args)`` produces its compressed payload."""
        if self._closed:
            raise ConfigurationError("cannot submit chunks to a closed OrderedChunkWriter")
        if self._pool is None:
            self._write(chunk_id, task(*args))
            return
        self._pending.append((chunk_id, self._pool.submit(task, *args)))
        while len(self._pending) > self._max_pending:
            self._drain_one()

    def _drain_one(self) -> None:
        chunk_id, future = self._pending.popleft()
        self._write(chunk_id, future.result())

    def _shutdown(self, cancel: bool) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=cancel)
            self._pool = None

    def close(self) -> None:
        """Drain every in-flight chunk (in order) and shut the pool down."""
        if self._closed:
            return
        self._closed = True
        try:
            while self._pending:
                self._drain_one()
        finally:
            self._pending.clear()
            self._shutdown(cancel=True)

    def cancel(self) -> None:
        """Drop all in-flight chunks without writing them (error path).

        Queued-but-unstarted tasks are cancelled, finished results are
        discarded, and the pool's threads are joined.
        """
        self._closed = True
        for _, future in self._pending:
            future.cancel()
        self._pending.clear()
        self._shutdown(cancel=True)

    def __enter__(self) -> "OrderedChunkWriter":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        if exc_type is None:
            self.close()
        else:
            self.cancel()
