"""Tests of the executor engine: selection, ordering, errors, shutdown."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.executors import (
    EXECUTOR_NAMES,
    Executor,
    SerialExecutor,
    ThreadExecutor,
    executor_kind,
    executor_scope,
    resolve_executor,
    resolved_kind,
)
from repro.core.parallel import OrderedChunkWriter, map_ordered
from repro.errors import ConfigurationError


def _double(value):
    return value * 2


def _boom(_value):
    raise ValueError("task failure")


def _slow_identity(value):
    time.sleep(0.05)
    return value


def _pool_threads():
    return [t for t in threading.enumerate() if t.name.startswith("ThreadPoolExecutor")]


class TestResolveExecutor:
    def test_names_resolve_to_matching_strategies(self):
        for name in EXECUTOR_NAMES:
            executor = resolve_executor(name, workers=2)
            try:
                assert executor.name == name
            finally:
                executor.close()

    def test_auto_is_serial_for_one_worker_and_threads_beyond(self):
        assert resolve_executor("auto", workers=1).name == "serial"
        executor = resolve_executor("auto", workers=3)
        try:
            assert executor.name == "thread"
            assert executor.workers == 3
        finally:
            executor.close()

    def test_default_consults_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "thread")
        executor = resolve_executor(None, workers=1)
        try:
            assert executor.name == "thread"
        finally:
            executor.close()
        monkeypatch.delenv("REPRO_EXECUTOR")
        assert resolve_executor(None, workers=1).name == "serial"

    @pytest.mark.parametrize("name", ["fibers", "process"])
    def test_unknown_name_rejected(self, name):
        with pytest.raises(ConfigurationError):
            resolve_executor(name, workers=2)
        with pytest.raises(ConfigurationError):
            executor_kind(name)

    @pytest.mark.parametrize("via_environment", [False, True])
    def test_removed_process_executor_names_its_replacements(self, monkeypatch, via_environment):
        if via_environment:
            monkeypatch.setenv("REPRO_EXECUTOR", "process")
            spec = None
        else:
            spec = "process"
        with pytest.raises(ConfigurationError) as caught:
            resolve_executor(spec, workers=2)
        message = str(caught.value)
        assert "'thread'" in message
        assert "repro sweep run --shard i/N" in message

    def test_instance_passes_through_and_scope_borrows_it(self):
        with ThreadExecutor(2) as executor:
            assert resolve_executor(executor) is executor
            with executor_scope(executor, workers=8) as scoped:
                assert scoped is executor
            # Borrowed: the scope must not have closed it.
            assert executor.map_ordered(_double, [1, 2]) == [2, 4]

    def test_scope_closes_executors_it_created(self):
        with executor_scope("thread", workers=2) as executor:
            assert executor.map_ordered(_double, [3]) == [6]
        with pytest.raises(ConfigurationError):
            executor.submit(_double, 1)


class TestOrderingAndErrors:
    @pytest.mark.parametrize("name", EXECUTOR_NAMES)
    def test_map_ordered_preserves_input_order(self, name):
        with resolve_executor(name, workers=2) as executor:
            items = list(range(24))
            assert executor.map_ordered(_double, items) == [value * 2 for value in items]

    @pytest.mark.parametrize("name", EXECUTOR_NAMES)
    def test_imap_ordered_streams_in_order(self, name):
        with resolve_executor(name, workers=2) as executor:
            items = list(range(15))
            assert list(executor.imap_ordered(_double, items, lookahead=3)) == [
                value * 2 for value in items
            ]

    @pytest.mark.parametrize("name", EXECUTOR_NAMES)
    def test_task_exceptions_propagate_unchanged(self, name):
        with resolve_executor(name, workers=2) as executor:
            with pytest.raises(ValueError, match="task failure"):
                executor.map_ordered(_boom, [1, 2])

    def test_serial_submit_runs_inline(self):
        executor = SerialExecutor()
        ran = []
        executor.submit(ran.append, "now")
        assert ran == ["now"]  # before result() was ever called
        assert executor.is_async is False

    def test_map_ordered_helper_routes_through_named_executor(self):
        assert map_ordered(_double, [1, 2, 3], workers=2, executor="thread") == [2, 4, 6]

    def test_map_ordered_helper_stays_inline_for_one_worker(self):
        calls = []

        def local_closure(value):
            calls.append(value)
            return value

        assert map_ordered(local_closure, [1, 2], workers=1) == [1, 2]
        assert calls == [1, 2]


class TestCleanShutdown:
    """Abort and close paths join every worker thread."""

    def test_aborted_encoder_context_joins_the_pool(self, tmp_path):
        from repro.core.atc import MODE_LOSSLESS, AtcEncoder
        from repro.core.lossy import LossyConfig

        before = len(_pool_threads())
        config = LossyConfig(
            interval_length=5_000, chunk_buffer_addresses=5_000, workers=2, executor="thread"
        )
        encoder = AtcEncoder(tmp_path / "container", mode=MODE_LOSSLESS, config=config)
        with pytest.raises(RuntimeError):
            with encoder:
                encoder.code_many(np.arange(20_000, dtype=np.uint64))
                raise RuntimeError("abort")
        assert len(_pool_threads()) == before

    def test_close_is_idempotent_and_rejects_new_work(self):
        executor = ThreadExecutor(1)
        assert executor.submit(_double, 4).result() == 8
        executor.close()
        executor.close()
        with pytest.raises(ConfigurationError):
            executor.submit(_double, 1)

    def test_slow_queue_cancel_returns_promptly(self):
        executor = ThreadExecutor(1)
        started = time.perf_counter()
        for value in range(40):
            executor.submit(_slow_identity, value)
        executor.close(cancel=True)
        # 40 tasks x 50 ms would be 2 s serially; cancellation must drop
        # the unstarted tail instead of draining it.
        assert time.perf_counter() - started < 1.5

    def test_task_error_inside_pipeline_surfaces_and_joins_the_pool(self):
        before = len(_pool_threads())
        written = []
        writer = OrderedChunkWriter(
            lambda cid, payload: written.append(cid), workers=2, executor="thread"
        )
        writer.submit(0, _double, 1)
        writer.submit(1, _boom, 2)
        with pytest.raises(ValueError, match="task failure"):
            writer.close()
        assert written == [0]
        assert len(_pool_threads()) == before

    def test_cancelled_pipeline_discards_results_without_leaks(self):
        before = len(_pool_threads())
        written = []
        writer = OrderedChunkWriter(
            lambda cid, payload: written.append(cid), workers=2, max_pending=80, executor="thread"
        )
        started = time.perf_counter()
        for chunk_id in range(80):
            writer.submit(chunk_id, _slow_identity, chunk_id)
        writer.cancel()
        # draining 80 x 50 ms on two workers would take 2 s
        assert time.perf_counter() - started < 1.0
        assert written == []
        assert len(_pool_threads()) == before
        with pytest.raises(ConfigurationError):
            writer.submit(80, _double, 1)

    def test_cancel_on_a_borrowed_pool_leaves_it_usable(self):
        gate = threading.Event()
        ran = []
        with ThreadExecutor(1) as executor:
            writer = OrderedChunkWriter(lambda cid, payload: None, executor=executor)
            writer.submit(0, gate.wait, 5)  # occupies the only worker
            writer.submit(1, ran.append, "queued")
            writer.cancel()
            gate.set()
            # FIFO pool of one: the queued task would have run before this
            assert executor.submit(_double, 21).result() == 42
        assert ran == []

    def test_handle_cancel_drops_an_unstarted_task(self):
        gate = threading.Event()
        ran = []
        with ThreadExecutor(1) as executor:
            blocker = executor.submit(gate.wait, 5)
            queued = executor.submit(ran.append, "queued")
            assert queued.cancel() is True
            gate.set()
            assert blocker.result() is True
            assert executor.submit(_double, 2).result() == 4
        assert ran == []

    def test_serial_handle_has_already_run(self):
        ran = []
        handle = SerialExecutor().submit(ran.append, "now")
        assert handle.cancel() is False
        assert ran == ["now"]

    def test_scope_exit_on_error_drops_unstarted_work(self):
        gate = threading.Event()
        ran = []
        release = threading.Timer(0.2, gate.set)
        with pytest.raises(RuntimeError, match="abort"):
            with executor_scope("thread", workers=1) as executor:
                executor.submit(gate.wait, 5)
                for value in range(5):
                    executor.submit(ran.append, value)
                release.start()
                raise RuntimeError("abort")
        release.join()
        assert ran == []


class TestExecutorKind:
    def test_kind_resolves_names_env_and_instances(self, monkeypatch):
        assert executor_kind("thread") == "thread"
        assert executor_kind(None) == "auto"
        monkeypatch.setenv("REPRO_EXECUTOR", "thread")
        assert executor_kind(None) == "thread"
        with SerialExecutor() as executor:
            assert executor_kind(executor) == "serial"

    @pytest.mark.parametrize(
        "spec,workers,expected",
        [
            (None, 1, "serial"),
            (None, 4, "thread"),
            ("auto", 2, "thread"),
            ("thread", 1, "thread"),
            ("serial", 4, "serial"),
        ],
    )
    def test_resolved_kind_applies_the_auto_rule(self, monkeypatch, spec, workers, expected):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        assert resolved_kind(spec, workers) == expected
        with resolve_executor(spec, workers) as executor:
            assert executor.name == expected


def test_engine_module_is_exported_from_core():
    import repro
    import repro.core as core

    assert core.ThreadExecutor is ThreadExecutor
    assert repro.resolve_executor is resolve_executor
    assert issubclass(ThreadExecutor, Executor)
    assert EXECUTOR_NAMES == ("serial", "thread")
