"""Ordered parallel primitives of the chunk pipeline, on the executor engine.

The paper's ATC tool overlaps compression with trace generation by piping
bytesorted blocks through an external ``bzip2 -c`` process; the operating
system runs the compressor on another core.  This module reproduces that
overlap in-process on top of the pluggable executor engine
(:mod:`repro.core.executors`): work runs either inline (``serial``) or on
a thread pool (``thread`` — the stdlib codecs release the GIL, so the
compressor overlaps the caller just as the external process does).

Two primitives are provided on top of the engine:

* :func:`map_ordered` — a bounded ``map`` that preserves input order (used
  for bulk chunk compression, decoder prefetch, sweep cells).
* :class:`OrderedChunkWriter` — a streaming pipeline stage: submit
  ``(chunk_id, fn, args)`` triples as chunk boundaries are reached;
  completed payloads are written back strictly in submission order, and at
  most ``max_pending`` chunks are in flight so memory stays bounded.

Both degrade to plain synchronous execution on the serial executor, which
keeps the default path free of pool overhead and makes the byte-identity
invariant (parallel output == serial output) easy to test.  The executor
is selected per call site (``executor=`` accepts a strategy name or a live
:class:`~repro.core.executors.Executor` to share), falling back to the
``REPRO_EXECUTOR`` environment variable and the worker-count heuristic —
see :func:`~repro.core.executors.resolve_executor`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Sequence, Tuple, TypeVar

from repro.core.executors import (
    EXECUTOR_NAMES,
    Executor,
    SerialExecutor,
    TaskHandle,
    ThreadExecutor,
    executor_kind,
    executor_scope,
    resolve_executor,
    resolve_workers,
)
from repro.errors import ConfigurationError

__all__ = [
    "EXECUTOR_NAMES",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "TaskHandle",
    "resolve_workers",
    "resolve_executor",
    "executor_scope",
    "executor_kind",
    "map_ordered",
    "imap_ordered",
    "OrderedChunkWriter",
]

_T = TypeVar("_T")
_R = TypeVar("_R")


def map_ordered(
    fn: Callable[[_T], _R],
    items: Sequence[_T],
    workers: int = 1,
    executor=None,
) -> List[_R]:
    """Apply ``fn`` to every item, in parallel, preserving input order.

    With one worker (or fewer than two items) and no explicit executor this
    is a plain list comprehension; otherwise the work runs on the resolved
    executor (threads unless ``executor`` or ``REPRO_EXECUTOR`` says
    ``serial``).

    Args:
        fn: The per-item function.
        items: The inputs, fully materialised.
        workers: Pool size for executors created here (``0``/``None`` = one
            per CPU).
        executor: Strategy name, :class:`Executor` instance to borrow, or
            ``None`` for the environment/auto default.
    """
    items = list(items)
    if len(items) <= 1:
        return [fn(item) for item in items]
    # Inline only when nothing asked for parallelism: no explicit executor,
    # one worker, and no REPRO_EXECUTOR override (executor_kind consults the
    # environment for a None spec) — so the env knob flips this site too.
    if executor is None and resolve_workers(workers) <= 1 and executor_kind(None) == "auto":
        return [fn(item) for item in items]
    with executor_scope(executor, workers) as engine:
        return engine.map_ordered(fn, items)


def imap_ordered(
    fn: Callable[[_T], _R],
    items,
    workers: int = 1,
    executor=None,
    lookahead: Optional[int] = None,
):
    """Lazily apply ``fn`` to an item stream, yielding results in order.

    The streaming form of :func:`map_ordered`: ``items`` may be any
    iterable (including an unbounded generator) and is consumed only as
    results are yielded, with at most ``lookahead`` tasks (default
    ``2 * workers``) in flight ahead of the consumer — so both the input
    items and the pending results stay bounded regardless of stream
    length.  Results are byte-identical to ``map(fn, items)`` for every
    strategy; on the serial path items are processed one at a time with
    no window at all.

    Args:
        fn: The per-item function.
        items: The inputs; consumed lazily.
        workers: Pool size for executors created here (``0``/``None`` =
            one per CPU).
        executor: Strategy name, :class:`Executor` instance to borrow, or
            ``None`` for the environment/auto default.
        lookahead: In-flight window override (defaults to ``2 * workers``).

    Example:
        >>> list(imap_ordered(lambda value: value * 2, iter([1, 2, 3])))
        [2, 4, 6]
    """
    if executor is None and resolve_workers(workers) <= 1 and executor_kind(None) == "auto":
        for item in items:
            yield fn(item)
        return
    with executor_scope(executor, workers) as engine:
        for result in engine.imap_ordered(fn, items, lookahead=lookahead):
            yield result


class OrderedChunkWriter:
    """Run chunk tasks on an executor, writing results in submission order.

    Args:
        write: Callback ``write(chunk_id, payload)`` invoked on the caller's
            thread, strictly in the order chunks were submitted.
        workers: Pool size when the writer creates its own executor; ``1``
            (with no explicit ``executor``) selects inline serial execution,
            the reference behaviour, and ``0``/``None`` means one worker
            per CPU.
        max_pending: Maximum number of chunks in flight before :meth:`submit`
            blocks on the oldest one (defaults to ``2 * workers``), bounding
            the memory held by buffered intervals and finished payloads.
        executor: Strategy name or live :class:`Executor` to run tasks on; a
            borrowed instance is left open on close, an executor created
            here is shut down with the writer.
    """

    def __init__(
        self,
        write: Callable[[int, bytes], object],
        workers: int = 1,
        max_pending: Optional[int] = None,
        executor=None,
    ) -> None:
        self._write = write
        self._owns_executor = not isinstance(executor, Executor)
        self._executor = resolve_executor(executor, resolve_workers(workers))
        self.workers = self._executor.workers if self._executor.is_async else 1
        self._max_pending = max_pending if max_pending is not None else 2 * max(1, self.workers)
        self._pending: Deque[Tuple[int, TaskHandle]] = deque()
        self._closed = False

    @property
    def is_async(self) -> bool:
        """True when tasks may still be running after :meth:`submit` returns.

        Callers must hand such writers owned arguments (the encoder copies
        interval views before submitting); on the inline serial path buffer
        reuse is safe.
        """
        return self._executor.is_async

    def submit(self, chunk_id: int, task: Callable[..., bytes], *args) -> None:
        """Queue one chunk; ``task(*args)`` produces its compressed payload."""
        if self._closed:
            raise ConfigurationError("cannot submit chunks to a closed OrderedChunkWriter")
        if not self._executor.is_async:
            self._write(chunk_id, task(*args))
            return
        self._pending.append((chunk_id, self._executor.submit(task, *args)))
        while len(self._pending) > self._max_pending:
            self._drain_one()

    def _drain_one(self) -> None:
        chunk_id, handle = self._pending.popleft()
        self._write(chunk_id, handle.result())

    def close(self) -> None:
        """Drain every in-flight chunk (in order) and shut the pool down."""
        if self._closed:
            return
        self._closed = True
        try:
            while self._pending:
                self._drain_one()
        finally:
            if self._owns_executor:
                self._executor.close()

    def cancel(self) -> None:
        """Drop all in-flight chunks without writing them (error path).

        Queued-but-unstarted tasks are cancelled; finished results are
        discarded; the pool is shut down.  A borrowed executor is left open
        but its pending handles are cancelled.
        """
        self._closed = True
        for _, handle in self._pending:
            handle.cancel()
        self._pending.clear()
        if self._owns_executor:
            self._executor.close(cancel=True)

    def __enter__(self) -> "OrderedChunkWriter":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        if exc_type is None:
            self.close()
        else:
            self.cancel()
