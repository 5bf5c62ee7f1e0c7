"""Tests of the parallel chunk pipeline and its byte-identity invariant."""

from __future__ import annotations

import hashlib
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.atc import (
    MODE_LOSSLESS,
    MODE_LOSSY,
    AtcDecoder,
    compress_trace,
    decompress_trace,
)
from repro.core.lossless import LosslessCodec
from repro.core.lossy import LossyCodec, LossyConfig
from repro.core.parallel import OrderedChunkWriter, imap_ordered, map_ordered, resolve_workers
from repro.errors import CodecError, ConfigurationError


def _container_digest(directory) -> str:
    digest = hashlib.sha256()
    for entry in sorted(Path(directory).iterdir()):
        digest.update(entry.name.encode())
        digest.update(entry.read_bytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def phased_trace() -> np.ndarray:
    """A multi-phase trace that produces several chunks in both modes."""
    rng = np.random.default_rng(11)
    pieces = []
    for phase in range(6):
        base = (phase % 3) * 0x1000_0000
        pieces.append(rng.integers(base, base + 50_000, size=30_000, dtype=np.uint64))
    return np.concatenate(pieces)


def _config(workers: int) -> LossyConfig:
    return LossyConfig(interval_length=20_000, chunk_buffer_addresses=20_000, workers=workers)


class TestResolveWorkers:
    def test_positive_passthrough(self):
        assert resolve_workers(3) == 3

    def test_zero_and_none_mean_cpu_count(self):
        assert resolve_workers(0) >= 1
        assert resolve_workers(None) == resolve_workers(0)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_workers(-2)

    @pytest.mark.parametrize("value", [2.5, "2"])
    def test_non_integers_rejected(self, value):
        with pytest.raises(ConfigurationError):
            resolve_workers(value)

    @pytest.mark.parametrize("value", [-1, 2.5])
    def test_lossy_config_validates_workers_at_construction(self, value):
        with pytest.raises(ConfigurationError):
            LossyConfig(workers=value)


class TestMapOrdered:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_preserves_order(self, workers):
        items = list(range(50))
        assert map_ordered(lambda value: value * 2, items, workers=workers) == [
            value * 2 for value in items
        ]

    def test_propagates_errors(self):
        def boom(value):
            raise ValueError(value)

        with pytest.raises(ValueError):
            map_ordered(boom, [1, 2, 3], workers=4)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_accepts_generators_and_empty_input(self, workers):
        assert map_ordered(str, (value for value in range(9)), workers=workers) == [
            str(value) for value in range(9)
        ]
        assert map_ordered(str, [], workers=workers) == []

    def test_single_item_runs_inline_even_with_several_workers(self):
        before = threading.active_count()
        assert map_ordered(lambda _: threading.get_ident(), ["only"], workers=4) == [
            threading.get_ident()
        ]
        assert threading.active_count() == before


class TestOrderedChunkWriter:
    @pytest.mark.parametrize("workers", [0, 1, 4])
    def test_writes_in_submission_order(self, workers):
        written = []
        with OrderedChunkWriter(lambda cid, payload: written.append((cid, payload)), workers) as writer:
            for chunk_id in range(20):
                writer.submit(chunk_id, lambda chunk_id=chunk_id: bytes([chunk_id]))
        assert written == [(chunk_id, bytes([chunk_id])) for chunk_id in range(20)]

    def test_bounded_pending(self):
        written = []
        writer = OrderedChunkWriter(lambda cid, payload: written.append(cid), workers=2, max_pending=3)
        for chunk_id in range(10):
            writer.submit(chunk_id, lambda chunk_id=chunk_id: bytes([chunk_id]))
            assert len(writer._pending) <= 3
        writer.close()
        assert written == list(range(10))

    def test_submit_after_close_rejected(self):
        writer = OrderedChunkWriter(lambda cid, payload: None, workers=1)
        writer.close()
        with pytest.raises(ConfigurationError):
            writer.submit(0, lambda: b"")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_close_is_idempotent(self, workers):
        written = []
        writer = OrderedChunkWriter(lambda cid, payload: written.append(cid), workers=workers)
        writer.submit(0, lambda: b"a")
        writer.close()
        writer.close()
        assert written == [0]
        assert writer.is_async is False  # the pool is gone after close

    @pytest.mark.parametrize("workers", [2, 3])
    def test_default_window_is_twice_the_workers(self, workers):
        gate = threading.Event()
        writer = OrderedChunkWriter(lambda cid, payload: None, workers=workers)
        try:
            for chunk_id in range(2 * workers):
                writer.submit(chunk_id, gate.wait, 5)
            # A full window: nothing has been drained yet.
            assert len(writer._pending) == 2 * workers
        finally:
            gate.set()
            writer.close()

    def test_context_exit_on_error_drops_queued_chunks(self):
        gate = threading.Event()
        ran, written = [], []
        with pytest.raises(RuntimeError, match="abort"):
            with OrderedChunkWriter(lambda cid, payload: written.append(cid), workers=2) as writer:
                writer.submit(0, gate.wait, 5)
                writer.submit(1, gate.wait, 5)  # both workers now blocked
                writer.submit(2, ran.append, "queued")
                threading.Timer(0.1, gate.set).start()
                raise RuntimeError("abort")
        assert ran == [] and written == []

    def test_task_error_surfaces_on_close(self):
        def boom():
            raise RuntimeError("compression failed")

        writer = OrderedChunkWriter(lambda cid, payload: None, workers=2)
        writer.submit(0, boom)
        with pytest.raises(RuntimeError):
            writer.close()

    def test_serial_task_error_surfaces_at_submit(self):
        def boom():
            raise RuntimeError("compression failed")

        written = []
        writer = OrderedChunkWriter(lambda cid, payload: written.append(cid), workers=1)
        writer.submit(0, lambda: b"ok")
        with pytest.raises(RuntimeError, match="compression failed"):
            writer.submit(1, boom)
        writer.close()
        assert written == [0]

    @pytest.mark.parametrize("workers,expected", [(1, False), (2, True)])
    def test_is_async_follows_the_worker_count(self, workers, expected):
        writer = OrderedChunkWriter(lambda cid, payload: None, workers=workers)
        try:
            assert writer.is_async is expected
            assert writer.workers == workers
        finally:
            writer.close()


def _boom(_value):
    raise ValueError("task failure")


def _slow_identity(value):
    time.sleep(0.05)
    return value


class TestErrorsAndShutdown:
    """Task errors surface unchanged, and every pool joins its threads."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_task_error_surfaces_without_leaking_threads(self, workers):
        before = threading.active_count()
        with pytest.raises(ValueError, match="task failure"):
            map_ordered(_boom, [1, 2, 3], workers=workers)
        with pytest.raises(ValueError, match="task failure"):
            list(imap_ordered(_boom, iter([1, 2, 3]), workers=workers))
        assert threading.active_count() == before

    def test_pipeline_task_error_surfaces_and_joins_the_pool(self):
        before = threading.active_count()
        written = []
        writer = OrderedChunkWriter(lambda cid, payload: written.append(cid), workers=2)
        writer.submit(0, _slow_identity, b"ok")
        writer.submit(1, _boom, 2)
        with pytest.raises(ValueError, match="task failure"):
            writer.close()
        assert written == [0]
        assert threading.active_count() == before

    def test_cancelled_writer_writes_nothing_and_returns_promptly(self):
        before = threading.active_count()
        written = []
        writer = OrderedChunkWriter(
            lambda cid, payload: written.append(cid), workers=2, max_pending=80
        )
        started = time.perf_counter()
        for chunk_id in range(80):
            writer.submit(chunk_id, _slow_identity, chunk_id)
        writer.cancel()
        # Draining 80 x 50 ms on two workers would take 2 s; cancelling
        # drops the unstarted tail instead.
        assert time.perf_counter() - started < 1.0
        assert written == []
        assert threading.active_count() == before
        with pytest.raises(ConfigurationError):
            writer.submit(80, _slow_identity, 1)

    def test_aborted_encoder_context_joins_the_pool(self, tmp_path, phased_trace):
        from repro.core.atc import AtcEncoder

        before = threading.active_count()
        encoder = AtcEncoder(tmp_path / "container", mode=MODE_LOSSLESS, config=_config(2))
        with pytest.raises(RuntimeError):
            with encoder:
                encoder.code_many(phased_trace[:60_000])
                raise RuntimeError("abort")
        assert threading.active_count() == before

    @pytest.mark.parametrize(
        "workers,lookahead,bound",
        [(1, None, 1), (3, None, 6), (2, 1, 1), (2, 5, 5)],
        ids=["inline", "default-window", "lookahead-1", "lookahead-5"],
    )
    def test_imap_ordered_bounds_in_flight_tasks_and_keeps_order(self, workers, lookahead, bound):
        lock = threading.Lock()
        state = {"submitted": 0, "finished": 0, "peak": 0}

        def task(value):
            time.sleep(0.001 * (value % 3))
            with lock:
                state["finished"] += 1
            return value * 7

        def items():
            for value in range(60):
                with lock:
                    state["submitted"] += 1
                    state["peak"] = max(state["peak"], state["submitted"] - state["finished"])
                yield value

        results = imap_ordered(task, items(), workers=workers, lookahead=lookahead)
        assert list(results) == [v * 7 for v in range(60)]
        assert state["peak"] <= bound

    def test_imap_ordered_early_close_drops_unstarted_work(self):
        before = threading.active_count()
        ran = []
        stream = imap_ordered(lambda value: ran.append(value) or value, range(100), workers=2)
        assert next(stream) == 0
        stream.close()
        assert len(ran) <= 1 + 2 * 2
        assert threading.active_count() == before

    def test_one_worker_runs_inline_on_the_caller_thread(self):
        threads = set()

        def record(value):
            threads.add(threading.get_ident())
            return value

        assert map_ordered(record, [1, 2, 3], workers=1) == [1, 2, 3]
        written = []
        writer = OrderedChunkWriter(lambda cid, payload: written.append(cid), workers=1)
        writer.submit(0, record, b"now")
        assert written == [0]  # before close() was ever called
        assert threads == {threading.get_ident()}


def _synthetic_addresses(count: int) -> np.ndarray:
    """RNG-free addresses with repeated bytes."""
    k = np.arange(count, dtype=np.uint64)
    return ((k * np.uint64(2654435761)) ^ (k >> np.uint64(3))) % np.uint64(65536) + np.uint64(
        0x40_0000
    )


class TestBulkCodecWindow:
    def test_imap_ordered_serial_pulls_one_at_a_time(self):
        state = {"pulled": 0, "yielded": 0}

        def items():
            for value in range(32):
                state["pulled"] += 1
                assert state["pulled"] <= state["yielded"] + 1
                yield value

        results = []
        for value in imap_ordered(lambda v: v * 3, items()):
            state["yielded"] += 1
            results.append(value)
        assert results == [v * 3 for v in range(32)]

    def test_imap_ordered_bounded_window_on_threads(self):
        workers = 2
        state = {"pulled": 0, "yielded": 0}
        # With list(items) up front this trips immediately (pulled == 64 at
        # yielded == 0); the bounded window keeps pulls within the
        # submission lookahead (2 * workers) plus slack for in-flight tasks.
        window_slack = 2 * workers + 2

        def items():
            for value in range(64):
                state["pulled"] += 1
                assert state["pulled"] <= state["yielded"] + window_slack
                yield value

        results = []
        for value in imap_ordered(lambda v: v + 100, items(), workers=workers):
            state["yielded"] += 1
            results.append(value)
        assert results == [v + 100 for v in range(64)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_compress_many_accepts_generators_byte_identically(self, workers):
        codec = LosslessCodec(buffer_addresses=64, backend="zlib")
        intervals = [_synthetic_addresses(50 + 13 * i) for i in range(12)]
        reference = [codec.compress(interval) for interval in intervals]
        produced = codec.compress_many((interval for interval in intervals), workers=workers)
        assert produced == reference
        recovered = codec.decompress_many(iter(produced), workers=workers)
        assert all(np.array_equal(r, i) for r, i in zip(recovered, intervals))


class TestEncoderErrorPath:
    def test_close_after_aborted_context_writes_no_info(self, tmp_path, phased_trace):
        """An exception inside the context must not let a later close()
        publish an INFO stream referencing cancelled (unwritten) chunks."""
        from repro.core.atc import AtcEncoder
        from repro.core.container import AtcContainer

        directory = tmp_path / "container"
        encoder = AtcEncoder(directory, mode=MODE_LOSSLESS, config=_config(4))
        with pytest.raises(RuntimeError):
            with encoder:
                encoder.code_many(phased_trace[:40_000])
                raise RuntimeError("boom")
        encoder.close()  # must be a no-op, not a corrupt-container write
        assert not AtcContainer(directory).exists()
        with pytest.raises(CodecError):
            encoder.code(1)


class TestContainerDeterminism:
    @pytest.mark.parametrize("mode", [MODE_LOSSY, MODE_LOSSLESS])
    def test_parallel_container_is_byte_identical(self, tmp_path, phased_trace, mode):
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        compress_trace(phased_trace, serial, mode=mode, config=_config(1))
        compress_trace(phased_trace, parallel, mode=mode, config=_config(4))
        serial_files = sorted(entry.name for entry in serial.iterdir())
        parallel_files = sorted(entry.name for entry in parallel.iterdir())
        assert serial_files == parallel_files
        assert len(serial_files) > 2  # several chunks, or there was nothing to parallelise
        assert _container_digest(serial) == _container_digest(parallel)

    @pytest.mark.parametrize("mode", [MODE_LOSSY, MODE_LOSSLESS])
    def test_parallel_decode_matches_serial(self, tmp_path, phased_trace, mode):
        directory = tmp_path / "container"
        compress_trace(phased_trace, directory, mode=mode, config=_config(2))
        serial = decompress_trace(directory, workers=1)
        parallel = decompress_trace(directory, workers=4)
        assert np.array_equal(serial, parallel)
        if mode == MODE_LOSSLESS:
            assert np.array_equal(serial, phased_trace)

    def test_in_memory_lossy_codec_matches_parallel(self, phased_trace):
        serial = LossyCodec(_config(1)).compress(phased_trace)
        parallel = LossyCodec(_config(4)).compress(phased_trace)
        assert serial.chunks == parallel.chunks
        assert len(serial.records) == len(parallel.records)
        assert np.array_equal(
            LossyCodec(_config(1)).decompress(serial), LossyCodec(_config(4)).decompress(parallel)
        )

    def test_compress_many_matches_serial_compress(self, phased_trace):
        codec = LosslessCodec(buffer_addresses=10_000)
        intervals = [phased_trace[start : start + 25_000] for start in range(0, 100_000, 25_000)]
        serial = [codec.compress(interval) for interval in intervals]
        assert codec.compress_many(intervals, workers=4) == serial


class TestDecoderChunkCache:
    def test_parallel_read_all_with_tiny_cache_matches_serial(self, tmp_path, phased_trace):
        directory = tmp_path / "container"
        compress_trace(phased_trace, directory, mode=MODE_LOSSLESS, config=_config(1))
        serial = AtcDecoder(directory, workers=1).read_all()
        parallel = AtcDecoder(directory, workers=4, cache_chunks=1).read_all()
        assert np.array_equal(serial, parallel)

    def test_read_all_loads_each_chunk_once_even_serially(self, tmp_path, phased_trace):
        directory = tmp_path / "container"
        compress_trace(phased_trace, directory, mode=MODE_LOSSLESS, config=_config(1))
        decoder = AtcDecoder(directory, workers=1, cache_chunks=1)
        loads = []
        original = decoder._load_chunk

        def counting_load(chunk_id):
            loads.append(chunk_id)
            return original(chunk_id)

        decoder._load_chunk = counting_load
        assert np.array_equal(decoder.read_all(), phased_trace)
        assert len(loads) == len(set(loads))  # no chunk decoded twice

    @pytest.mark.parametrize("workers,prefetches", [(1, False), (2, True)])
    def test_streaming_decode_prefetches_iff_several_workers(
        self, tmp_path, phased_trace, workers, prefetches
    ):
        directory = tmp_path / "container"
        compress_trace(phased_trace, directory, mode=MODE_LOSSLESS, config=_config(1))
        decoder = AtcDecoder(directory, workers=workers)
        loaders = set()
        original = decoder._load_chunk

        def recording_load(chunk_id):
            loaders.add(threading.get_ident())
            return original(chunk_id)

        decoder._load_chunk = recording_load
        decoded = np.concatenate(list(decoder.iter_intervals()))
        assert np.array_equal(decoded, phased_trace)
        assert (threading.get_ident() not in loaders) is prefetches

    def test_cache_is_bounded(self, tmp_path, phased_trace):
        directory = tmp_path / "container"
        compress_trace(phased_trace, directory, mode=MODE_LOSSLESS, config=_config(1))
        decoder = AtcDecoder(directory, cache_chunks=2)
        decoder.read_all()
        assert len(decoder._chunk_cache) <= decoder._cache_capacity

    def test_cache_capacity_validated(self, tmp_path, phased_trace):
        directory = tmp_path / "container"
        compress_trace(phased_trace[:30_000], directory, mode=MODE_LOSSLESS, config=_config(1))
        with pytest.raises(ConfigurationError):
            AtcDecoder(directory, cache_chunks=0)

    def test_lossy_imitations_reuse_cached_chunk(self, tmp_path, working_set_addresses):
        directory = tmp_path / "container"
        config = LossyConfig(interval_length=5_000, chunk_buffer_addresses=5_000)
        decoder = compress_trace(working_set_addresses, directory, mode=MODE_LOSSY, config=config)
        # Streaming decode goes through the LRU cache: a stationary trace
        # stores one chunk and every interval reuses it.
        total = sum(int(piece.size) for piece in decoder.iter_intervals())
        assert total == working_set_addresses.size
        assert len(decoder._chunk_cache) == 1


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    addresses=st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), max_size=400),
    interval_length=st.integers(min_value=1, max_value=97),
    workers=st.sampled_from([2, 3]),
)
def test_parallel_roundtrip_property(addresses, interval_length, workers):
    """Lossless parallel encode/decode is exact for arbitrary traces."""
    config = LossyConfig(
        interval_length=interval_length,
        chunk_buffer_addresses=interval_length,
        backend="zlib",
        workers=workers,
    )
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "container"
        compress_trace(addresses, directory, mode=MODE_LOSSLESS, config=config)
        recovered = decompress_trace(directory, workers=workers)
    assert recovered.tolist() == addresses
