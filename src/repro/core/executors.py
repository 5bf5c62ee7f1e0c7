"""Pluggable executor engine behind every parallel fan-out in the library.

The paper's throughput claims are multi-core claims: ATC exists so that
cache-filtered traces can be (de)compressed at hundreds of MB/s by
overlapping compression with trace generation on other cores.  A Python
thread pool only reproduces that overlap for code that releases the GIL
(the stdlib byte codecs); the numpy-light hot loops — the lossy encoder's
interval state machine, cache simulation, sweep cells — serialise on the
GIL.  This module abstracts "where work runs" behind one small interface so
every fan-out site can be switched between two strategies:

* :class:`SerialExecutor` — runs tasks inline at submission time; the
  reference behaviour the thread executor must be byte-identical to.
* :class:`ThreadExecutor` — a thread pool; best for GIL-releasing work
  (bz2/zlib/lzma compression, large-array numpy kernels, file I/O).

There is no process executor: threads beat a process pool with
shared-memory transport on every measured codec and filter case, so
multi-process execution lives one level up, where it needs no transport —
``repro sweep run --shard i/N`` runs independent sweep shards as separate
processes coordinated only through the result store.

Selection is centralised in :func:`resolve_executor`: every CLI ``--executor``
flag and the ``REPRO_EXECUTOR`` environment variable funnel through it, and
the ``auto`` default keeps single-worker paths free of any pool overhead.

Correctness contract: an executor never reorders results —
:meth:`Executor.map_ordered` and :meth:`Executor.imap_ordered` return
results in input order, and :meth:`Executor.submit` hands back per-task
handles the caller drains in its own order — so the chunk pipeline's hard
invariant (parallel output byte-identical to serial output) holds by
construction for every executor.

Failure contract: a task exception propagates to the caller unchanged, and
closing an executor always joins its worker threads.
"""

from __future__ import annotations

import abc
import itertools
import os
from collections import deque
from typing import Callable, Deque, Iterable, Iterator, List, Optional, Sequence, TypeVar

from repro.errors import ConfigurationError

__all__ = [
    "EXECUTOR_NAMES",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "TaskHandle",
    "resolve_workers",
    "resolve_executor",
    "resolved_kind",
    "executor_scope",
    "executor_kind",
]

_T = TypeVar("_T")
_R = TypeVar("_R")

#: The executor strategies selectable by name (CLI ``--executor`` and the
#: ``REPRO_EXECUTOR`` environment variable accept exactly these plus ``auto``).
EXECUTOR_NAMES = ("serial", "thread")

#: Why ``process`` is rejected, and what to use instead.
_PROCESS_REMOVED = (
    "the process executor was removed: use 'thread' (the codecs release the GIL), "
    "or run independent sweep shards as processes with 'repro sweep run --shard i/N'"
)


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a worker-count knob to a concrete positive integer.

    ``None`` and ``0`` mean "one worker per available CPU"; any positive
    integer is taken literally; negative values are rejected.
    """
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    if not isinstance(workers, int) or workers < 0:
        raise ConfigurationError(f"workers must be a non-negative integer or None, got {workers!r}")
    return workers


class TaskHandle(abc.ABC):
    """A single submitted task; :meth:`result` blocks until it finishes."""

    @abc.abstractmethod
    def result(self):
        """Return the task's result, raising the task's exception if any."""

    def cancel(self) -> bool:
        """Try to prevent the task from running; True when it never will."""
        return False


class _ImmediateHandle(TaskHandle):
    """Handle of a task that already ran inline (serial executor)."""

    def __init__(self, value, error: Optional[BaseException]) -> None:
        self._value = value
        self._error = error

    def result(self):
        """Return the inline result (or re-raise the inline exception)."""
        if self._error is not None:
            raise self._error
        return self._value


class Executor(abc.ABC):
    """The engine interface every fan-out site in the library runs on.

    Implementations guarantee input-order results and full worker cleanup
    on :meth:`close`; see the module docstring for the exact contracts.
    """

    #: Strategy name ("serial" or "thread").
    name: str = "abstract"

    def __init__(self, workers: int = 1) -> None:
        self.workers = resolve_workers(workers)

    #: True when submitted tasks may run after :meth:`submit` returns, in
    #: which case callers must not mutate (or reuse the buffers of)
    #: submitted arguments.  Serial execution runs tasks inline, so buffer
    #: reuse is safe there — the encoder relies on this to skip copies.
    is_async: bool = True

    @abc.abstractmethod
    def submit(self, fn: Callable[..., _R], *args) -> TaskHandle:
        """Schedule ``fn(*args)``; returns a handle to collect the result."""

    def map_ordered(self, fn: Callable[[_T], _R], items: Sequence[_T]) -> List[_R]:
        """Apply ``fn`` to every item, returning results in input order."""
        return list(self.imap_ordered(fn, items))

    def imap_ordered(
        self, fn: Callable[[_T], _R], items: Iterable[_T], lookahead: Optional[int] = None
    ) -> Iterator[_R]:
        """Lazily yield ``fn(item)`` results in input order.

        At most ``lookahead`` tasks (default ``2 * workers``) are in flight
        ahead of the consumer, bounding memory for long streams.
        """
        window = max(1, 2 * self.workers if lookahead is None else lookahead)
        pending: Deque[TaskHandle] = deque()
        iterator = iter(items)
        try:
            for item in itertools.islice(iterator, window):
                pending.append(self.submit(fn, item))
            while pending:
                handle = pending.popleft()
                for item in itertools.islice(iterator, 1):
                    pending.append(self.submit(fn, item))
                yield handle.result()
        finally:
            for handle in pending:
                handle.cancel()

    def close(self, cancel: bool = False) -> None:
        """Shut the executor down, reaping workers.

        With ``cancel=True`` queued-but-unstarted tasks are dropped (error
        path); otherwise they are allowed to finish.
        """

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        self.close(cancel=exc_type is not None)


class SerialExecutor(Executor):
    """Inline execution: ``submit`` runs the task before returning.

    The zero-overhead reference implementation — no pool, no queues, no
    copies — whose output every parallel executor is compared against.

    Example:
        >>> with SerialExecutor() as executor:
        ...     executor.map_ordered(lambda value: value * 2, [1, 2, 3])
        [2, 4, 6]
    """

    name = "serial"
    is_async = False

    def __init__(self, workers: int = 1) -> None:
        super().__init__(workers=1)

    def submit(self, fn: Callable[..., _R], *args) -> TaskHandle:
        """Run ``fn(*args)`` immediately; the handle replays the outcome."""
        try:
            return _ImmediateHandle(fn(*args), None)
        except Exception as error:  # noqa: BLE001 - replayed by result()
            return _ImmediateHandle(None, error)

    def map_ordered(self, fn: Callable[[_T], _R], items: Sequence[_T]) -> List[_R]:
        """Plain list comprehension (exceptions propagate eagerly)."""
        return [fn(item) for item in items]


class _FutureHandle(TaskHandle):
    """Handle wrapping a ``concurrent.futures.Future`` (thread executor)."""

    def __init__(self, future) -> None:
        self._future = future

    def result(self):
        """Block for and return the future's result."""
        return self._future.result()

    def cancel(self) -> bool:
        """Forward to ``Future.cancel``."""
        return self._future.cancel()


class ThreadExecutor(Executor):
    """Thread-pool execution for GIL-releasing work.

    The stdlib byte codecs (``bz2``, ``zlib``, ``lzma``) and large-array
    numpy kernels release the GIL, so a small thread pool overlaps chunk
    compression with trace consumption exactly like the paper's external
    ``bzip2 -c`` process overlaps with the tracer — with zero serialisation
    cost, because threads share the address space.
    """

    name = "thread"

    def __init__(self, workers: int = 2) -> None:
        from concurrent.futures import ThreadPoolExecutor

        super().__init__(workers)
        self._pool = ThreadPoolExecutor(max_workers=self.workers)

    def submit(self, fn: Callable[..., _R], *args) -> TaskHandle:
        """Schedule ``fn(*args)`` on the pool."""
        if self._pool is None:
            raise ConfigurationError("cannot submit tasks to a closed executor")
        return _FutureHandle(self._pool.submit(fn, *args))

    def close(self, cancel: bool = False) -> None:
        """Shut the pool down; with ``cancel=True`` drop unstarted tasks."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=cancel)
            self._pool = None


def resolved_kind(spec=None, workers: Optional[int] = 1) -> str:
    """The concrete strategy a (spec, workers) pair resolves to, by name.

    The single home of the ``auto`` rule: serial for one worker, threads
    beyond.  :func:`resolve_executor` applies it when building executors,
    and reporting call sites (e.g. the bench report's ``executor`` field)
    reuse it so recorded provenance can never drift from what actually ran.

    Example:
        >>> resolved_kind("thread", workers=1)
        'thread'
        >>> resolved_kind(None, workers=4)   # auto, no REPRO_EXECUTOR set
        'thread'
    """
    kind = executor_kind(spec)
    if kind == "auto":
        kind = "serial" if resolve_workers(workers) <= 1 else "thread"
    return kind


def resolve_executor(spec=None, workers: Optional[int] = 1) -> Executor:
    """Resolve an executor selection to a live :class:`Executor`.

    The single funnel behind every ``--executor`` CLI flag and config knob:

    * an :class:`Executor` instance passes through unchanged (the caller
      owns its lifecycle — see :func:`executor_scope`);
    * ``"serial"`` / ``"thread"`` select a strategy
      explicitly (``workers`` sizes the pool; ``0``/``None`` = CPU count);
    * ``None`` consults the ``REPRO_EXECUTOR`` environment variable, then
      falls back to ``"auto"``;
    * ``"auto"`` picks serial for a single worker (no pool overhead on the
      default path) and threads otherwise (the safe choice: correct for
      closures and shared state, fast for the GIL-releasing codecs).

    Example:
        >>> resolve_executor("serial").name
        'serial'
        >>> resolve_executor(None, workers=1).name     # auto: 1 worker
        'serial'
        >>> with resolve_executor("thread", workers=2) as executor:
        ...     executor.name, executor.workers
        ('thread', 2)
    """
    if isinstance(spec, Executor):
        return spec
    if spec is not None and not isinstance(spec, str):
        raise ConfigurationError(f"executor must be a name or Executor instance, got {spec!r}")
    if resolved_kind(spec, workers) == "serial":
        return SerialExecutor()
    return ThreadExecutor(resolve_workers(workers))


class executor_scope:
    """Context manager resolving a spec and closing only owned executors.

    ``with executor_scope(spec, workers) as executor`` yields a live
    executor; if ``spec`` was already an :class:`Executor` instance it is
    borrowed (the caller keeps it open for reuse), otherwise the scope
    created it and closes it on exit — the pattern every fan-out site uses.
    """

    def __init__(self, spec=None, workers: Optional[int] = 1) -> None:
        self._spec = spec
        self._workers = workers
        self._executor: Optional[Executor] = None
        self._owned = False

    def __enter__(self) -> Executor:
        self._executor = resolve_executor(self._spec, self._workers)
        self._owned = not isinstance(self._spec, Executor)
        return self._executor

    def __exit__(self, exc_type, exc, traceback) -> None:
        if self._owned and self._executor is not None:
            self._executor.close(cancel=exc_type is not None)


def executor_kind(spec) -> str:
    """The strategy name a spec would resolve to, without creating a pool.

    Validates the name (``REPRO_EXECUTOR`` included, for a ``None`` spec):
    unknown names, and the removed ``process`` executor, raise
    :class:`~repro.errors.ConfigurationError`.

    Example:
        >>> executor_kind("thread")
        'thread'
    """
    if isinstance(spec, Executor):
        return spec.name
    name = (spec or os.environ.get("REPRO_EXECUTOR") or "auto").strip().lower()
    if name == "process":
        raise ConfigurationError(_PROCESS_REMOVED)
    if name not in ("auto",) + EXECUTOR_NAMES:
        raise ConfigurationError(
            f"unknown executor {name!r}; choose from {('auto',) + EXECUTOR_NAMES}"
        )
    return name
