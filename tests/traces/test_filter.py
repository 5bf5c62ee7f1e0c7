"""Tests of the L1I/L1D cache filter front-end."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.cache import CacheConfig
from repro.errors import ConfigurationError
from repro.traces import synthetic
from repro.traces.filter import (
    PAPER_L1_CONFIG,
    CacheFilter,
    filter_reference_stream,
    filter_spec_like_traces,
    filtered_spec_like_trace,
)
from repro.traces.synthetic import make_reference_stream


class TestPaperL1Config:
    def test_geometry_matches_section_4_2(self):
        assert PAPER_L1_CONFIG.capacity_bytes == 32 * 1024
        assert PAPER_L1_CONFIG.associativity == 4
        assert PAPER_L1_CONFIG.block_bytes == 64
        assert PAPER_L1_CONFIG.policy == "lru"
        assert PAPER_L1_CONFIG.num_sets == 128


class TestCacheFilter:
    def test_cache_resident_working_set_produces_few_misses(self):
        """A working set smaller than 32 KB should be filtered away."""
        data = synthetic.random_working_set(20_000, working_set_blocks=128, seed=0)
        stream = make_reference_stream(data, instruction_ratio=0.0)
        result = filter_reference_stream(stream)
        assert result.filter_ratio < 0.05

    def test_streaming_data_misses_once_per_block(self):
        data = synthetic.sequential_stream(16_384, base=0x4000_0000, stride=8)
        stream = make_reference_stream(data, instruction_ratio=0.0)
        result = filter_reference_stream(stream)
        # 16384 * 8 bytes = 128 KB touched = 2048 blocks, each missing once.
        assert len(result.trace) == 2_048

    def test_output_is_block_addresses(self):
        data = synthetic.sequential_stream(4_096, base=0x4000_0000, stride=64)
        stream = make_reference_stream(data, instruction_ratio=0.0)
        result = filter_reference_stream(stream)
        assert result.trace.addresses.max() < (1 << 58)
        assert np.array_equal(
            result.trace.addresses,
            np.arange(0x4000_0000 // 64, 0x4000_0000 // 64 + 4_096, dtype=np.uint64),
        )

    def test_instruction_and_data_use_separate_caches(self):
        data = synthetic.sequential_stream(2_000, base=0x4000_0000, stride=64)
        stream = make_reference_stream(data, instruction_ratio=1.0, seed=0)
        cache_filter = CacheFilter()
        result = cache_filter.filter(stream)
        assert result.instruction_stats.accesses == 2_000
        assert result.data_stats.accesses == 2_000
        assert result.total_references == 4_000

    def test_misses_preserve_program_order(self):
        data = synthetic.strided_stream(1_000, base=0, stride=4096)
        stream = make_reference_stream(data, instruction_ratio=0.0)
        result = filter_reference_stream(stream)
        assert np.array_equal(result.trace.addresses, data >> np.uint64(6))

    def test_mismatched_block_sizes_rejected(self):
        other = CacheConfig(num_sets=64, associativity=4, block_bytes=32)
        with pytest.raises(ConfigurationError):
            CacheFilter(instruction_config=PAPER_L1_CONFIG, data_config=other)

    def test_reset_clears_state(self):
        data = synthetic.sequential_stream(4_096, base=0, stride=64)
        stream = make_reference_stream(data, instruction_ratio=0.0)
        cache_filter = CacheFilter()
        first = cache_filter.filter(stream)
        cache_filter.reset()
        second = cache_filter.filter(stream)
        assert len(first.trace) == len(second.trace)


class TestFilteredSpecLikeTrace:
    def test_end_to_end_trace_generation(self):
        trace = filtered_spec_like_trace("433.milc", 10_000, seed=0)
        assert trace.name == "433.milc"
        assert len(trace) > 0

    def test_deterministic(self):
        a = filtered_spec_like_trace("445.gobmk", 5_000, seed=3)
        b = filtered_spec_like_trace("445.gobmk", 5_000, seed=3)
        assert a == b

    def test_regular_workloads_filter_down_more_than_random(self):
        streaming = filtered_spec_like_trace("453.povray", 10_000, seed=0)
        pointer = filtered_spec_like_trace("429.mcf", 10_000, seed=0)
        assert len(streaming) < len(pointer)

    def test_batch_form_is_identical_at_every_worker_count(self):
        names = ["433.milc", "429.mcf", "453.povray"]
        inline = filter_spec_like_traces(names, 4_000, seed=1, workers=1)
        assert list(inline) == names
        assert inline == filter_spec_like_traces(names, 4_000, seed=1, workers=3)
        assert inline["429.mcf"] == filtered_spec_like_trace("429.mcf", 4_000, seed=1)


class TestFilterBatchEquivalence:
    """The vectorised split-by-cache filter must match the interleaved loop."""

    def test_matches_serial_interleaved_reference(self):
        from repro.cache.cache import SetAssociativeCache

        stream = synthetic.make_reference_stream(
            synthetic.random_working_set(8_000, working_set_blocks=3_000, seed=3), seed=4
        )
        result = CacheFilter().filter(stream)

        icache = SetAssociativeCache(PAPER_L1_CONFIG)
        dcache = SetAssociativeCache(PAPER_L1_CONFIG)
        shift = np.uint64(6)
        blocks = (stream.addresses >> shift).astype(np.uint64)
        expected = []
        for block, instruction in zip(blocks.tolist(), stream.is_instruction.tolist()):
            cache = icache if instruction else dcache
            if not cache.access_block(block):
                expected.append(block)
        assert result.trace.addresses.tolist() == expected
        assert result.instruction_stats == icache.stats
        assert result.data_stats == dcache.stats
