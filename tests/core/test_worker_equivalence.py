"""Cross-worker equivalence: one worker vs a thread pool, byte for byte.

The pipeline's hard invariant is that the worker count is invisible in the
output: for every mode (lossless, lossy), every chunk/interval size and
every worker count, the ``.atc`` container bytes are identical.  This
module pins that invariant three ways:

* a ``workers`` matrix over chunk sizes {1, 7, 4096} for both modes,
  asserting the container digests at 2 and 4 workers equal the inline
  (1-worker) digest;
* the two-worker pipeline reproducing the *committed golden fixtures* byte
  for byte (the strongest anchor: not just self-consistency, but the
  on-disk format as committed);
* a hypothesis property run at two workers.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.atc import MODE_LOSSLESS, MODE_LOSSY, AtcDecoder, AtcEncoder
from repro.core.lossy import LossyConfig

from test_golden_containers import (
    GOLDEN_VARIANTS,
    golden_addresses,
    golden_config,
    golden_directory,
    golden_v1_directory,
)

#: Thread-pool sizes compared against the inline (1-worker) oracle.
POOL_SIZES = (2, 4)

#: (chunk size, trace length): tiny chunks get shorter traces so the
#: lossless matrix cell stays at hundreds — not thousands — of chunk tasks.
CHUNK_MATRIX = ((1, 120), (7, 700), (4096, 3000))


def _digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for entry in sorted(directory.iterdir()):
        digest.update(entry.name.encode())
        digest.update(entry.read_bytes())
    return digest.hexdigest()


def _encode(trace, directory, mode, chunk, workers) -> str:
    config = LossyConfig(
        interval_length=chunk,
        threshold=0.5,
        chunk_buffer_addresses=chunk,
        backend="zlib",
        workers=workers,
    )
    with AtcEncoder(directory, mode=mode, config=config) as encoder:
        encoder.code_many(trace)
    return _digest(directory)


class TestCrossWorkerMatrix:
    @pytest.mark.parametrize("workers", POOL_SIZES)
    @pytest.mark.parametrize("mode", [MODE_LOSSLESS, MODE_LOSSY])
    @pytest.mark.parametrize("chunk,length", CHUNK_MATRIX)
    def test_containers_byte_identical_across_worker_counts(
        self, tmp_path, mode, chunk, length, workers
    ):
        trace = golden_addresses()[:length]
        inline = _encode(trace, tmp_path / "inline", mode, chunk, 1)
        pooled = _encode(trace, tmp_path / "pooled", mode, chunk, workers)
        assert pooled == inline, (mode, chunk, workers)

    @pytest.mark.parametrize("workers", POOL_SIZES)
    @pytest.mark.parametrize("mode", [MODE_LOSSLESS, MODE_LOSSY])
    @pytest.mark.parametrize("chunk,length", CHUNK_MATRIX)
    def test_decode_identical_across_worker_counts(self, tmp_path, mode, chunk, length, workers):
        trace = golden_addresses()[:length]
        directory = tmp_path / "container"
        _encode(trace, directory, mode, chunk, 1)
        reference = AtcDecoder(directory, workers=1).read_all()
        assert np.array_equal(AtcDecoder(directory, workers=workers).read_all(), reference)
        streamed = list(AtcDecoder(directory, workers=workers).iter_intervals())
        assert np.array_equal(np.concatenate(streamed), reference)
        if mode == MODE_LOSSLESS:
            assert np.array_equal(reference, trace)


class TestTwoWorkersMatchGoldenFixtures:
    @pytest.mark.parametrize(
        "format_version,committed_directory", [(2, golden_directory), (1, golden_v1_directory)]
    )
    def test_two_worker_encoder_reproduces_committed_containers(
        self, tmp_path, format_version, committed_directory
    ):
        """The strongest anchor: the threaded pipeline must reproduce the
        committed on-disk golden bytes, not merely agree with itself."""
        for mode_name, mode, backend in GOLDEN_VARIANTS:
            committed = committed_directory(mode_name, backend)
            fresh = tmp_path / f"{mode_name}_{backend}"
            with AtcEncoder(
                fresh,
                mode=mode,
                config=replace(golden_config(backend), workers=2),
                format_version=format_version,
            ) as encoder:
                encoder.code_many(golden_addresses())
            expected = {entry.name: entry.read_bytes() for entry in sorted(committed.iterdir())}
            actual = {entry.name: entry.read_bytes() for entry in sorted(fresh.iterdir())}
            assert actual == expected, (
                f"v{format_version} {mode_name}_{backend} drifted at two workers"
            )


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    addresses=st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), max_size=120),
    interval_length=st.integers(min_value=1, max_value=31),
)
def test_two_worker_roundtrip_property(tmp_path_factory, addresses, interval_length):
    """Lossless two-worker encode/decode is exact for arbitrary traces."""
    config = LossyConfig(
        interval_length=interval_length,
        chunk_buffer_addresses=interval_length,
        backend="zlib",
        workers=2,
    )
    directory = tmp_path_factory.mktemp("prop") / "container"
    with AtcEncoder(directory, mode=MODE_LOSSLESS, config=config) as enc:
        enc.code_many(np.array(addresses, dtype=np.uint64))
    decoded = AtcDecoder(directory, workers=2).read_all()
    assert decoded.tolist() == addresses
