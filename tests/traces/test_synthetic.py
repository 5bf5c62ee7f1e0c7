"""Tests of the synthetic workload generators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.traces import synthetic
from repro.traces.synthetic import ReferenceStream, make_reference_stream


class TestPrimitiveGenerators:
    def test_sequential_stream_is_arithmetic(self):
        stream = synthetic.sequential_stream(100, base=1000, stride=8)
        assert stream[0] == 1000
        assert np.all(np.diff(stream.astype(np.int64)) == 8)

    def test_strided_stream_wraps(self):
        stream = synthetic.strided_stream(100, base=0, stride=64, wrap_bytes=640)
        assert stream.max() < 640
        assert stream[10] == stream[0]

    def test_multi_stream_interleaves_bases(self):
        stream = synthetic.multi_stream(6, bases=[0, 1000], stride=8)
        assert stream.tolist() == [0, 1000, 8, 1008, 16, 1016]

    def test_loop_nest_row_major_is_sequential(self):
        stream = synthetic.loop_nest(16, base=0, rows=4, cols=4, element_bytes=8)
        assert stream.tolist() == [i * 8 for i in range(16)]

    def test_loop_nest_column_major_strides_by_row_length(self):
        stream = synthetic.loop_nest(4, base=0, rows=4, cols=4, element_bytes=8, column_major=True)
        assert stream.tolist() == [0, 32, 64, 96]

    def test_loop_nest_repeats_to_requested_length(self):
        stream = synthetic.loop_nest(40, base=0, rows=4, cols=4)
        assert stream.size == 40
        assert np.array_equal(stream[:16], stream[16:32])

    def test_random_working_set_bounded(self):
        stream = synthetic.random_working_set(10_000, working_set_blocks=64, base=0, seed=3)
        assert np.unique(stream).size <= 64
        assert stream.max() < 64 * 64

    def test_random_working_set_deterministic(self):
        a = synthetic.random_working_set(1_000, working_set_blocks=128, seed=5)
        b = synthetic.random_working_set(1_000, working_set_blocks=128, seed=5)
        assert np.array_equal(a, b)

    def test_pointer_chase_visits_nodes_cyclically(self):
        stream = synthetic.pointer_chase(50, num_nodes=10, base=0, node_bytes=64, seed=1)
        # A permutation cycle over <=10 nodes repeats with period <= 10.
        assert np.unique(stream).size <= 10

    def test_pointer_chase_deterministic(self):
        a = synthetic.pointer_chase(200, num_nodes=50, seed=9)
        b = synthetic.pointer_chase(200, num_nodes=50, seed=9)
        assert np.array_equal(a, b)

    @settings(max_examples=150, deadline=None)
    @given(
        length=st.integers(min_value=1, max_value=400),
        num_nodes=st.integers(min_value=1, max_value=120),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(length=1, num_nodes=1, seed=0)
    @example(length=97, num_nodes=1, seed=3)
    @example(length=3 * 56 + 2, num_nodes=60, seed=4)  # three laps of a 56-node cycle
    @example(length=50, num_nodes=120, seed=4)  # stops inside a 112-node cycle
    def test_pointer_chase_matches_scalar_walk(self, length, num_nodes, seed):
        # The oracle walks the successor permutation one node per reference.
        successor = np.random.default_rng(seed).permutation(num_nodes)
        node, expected = 0, []
        for _ in range(length):
            expected.append(0x5000_0000 + node * 64)
            node = int(successor[node])
        stream = synthetic.pointer_chase(length, num_nodes=num_nodes, seed=seed)
        assert stream.dtype == np.uint64
        assert stream.tolist() == expected

    def test_gups_updates_aligned(self):
        stream = synthetic.gups_updates(1_000, table_bytes=1 << 20, base=0, seed=2)
        assert np.all(stream % 8 == 0)
        assert stream.max() < 1 << 20

    def test_stack_accesses_stay_below_base(self):
        stream = synthetic.stack_accesses(1_000, base=0x1_0000, max_depth_bytes=4096, seed=4)
        assert np.all(stream <= 0x1_0000)
        assert np.all(stream >= 0x1_0000 - 4096)

    def test_phased_stream_concatenates(self):
        a = synthetic.sequential_stream(10, base=0)
        b = synthetic.sequential_stream(5, base=10_000)
        combined = synthetic.phased_stream([a, b])
        assert combined.size == 15
        assert np.array_equal(combined[:10], a)

    def test_region_mixture_respects_regions(self):
        stream = synthetic.region_mixture(
            5_000, regions=[(0, 1 << 16), (1 << 30, 1 << 16)], weights=[0.5, 0.5], seed=6
        )
        in_first = stream < (1 << 16)
        in_second = (stream >= (1 << 30)) & (stream < (1 << 30) + (1 << 16))
        assert np.all(in_first | in_second)
        assert 0.3 < in_first.mean() < 0.7

    def test_code_stream_mostly_hot(self):
        stream = synthetic.code_stream(10_000, code_base=0, hot_code_bytes=4096, seed=7)
        hot_fraction = (stream < 4096).mean()
        assert hot_fraction > 0.9


class TestGeneratorValidation:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: synthetic.sequential_stream(0),
            lambda: synthetic.sequential_stream(10, stride=0),
            lambda: synthetic.multi_stream(10, bases=[]),
            lambda: synthetic.random_working_set(10, working_set_blocks=0),
            lambda: synthetic.pointer_chase(10, num_nodes=0),
            lambda: synthetic.phased_stream([]),
            lambda: synthetic.region_mixture(10, regions=[]),
            lambda: synthetic.region_mixture(10, regions=[(0, 64)], weights=[0.0]),
            lambda: synthetic.loop_nest(0),
            lambda: make_reference_stream(np.arange(10, dtype=np.uint64), instruction_ratio=-1.0),
            lambda: make_reference_stream(np.arange(10, dtype=np.uint64), instruction_ratio=float("nan")),
            lambda: make_reference_stream(np.arange(10, dtype=np.uint64), instruction_ratio=float("inf")),
            lambda: make_reference_stream(np.arange(10, dtype=np.uint64), instruction_ratio=float("-inf")),
        ],
    )
    def test_invalid_parameters_raise(self, call):
        with pytest.raises(ConfigurationError):
            call()


class TestReferenceStream:
    def test_make_reference_stream_mixes_instruction_and_data(self):
        data = synthetic.sequential_stream(1_000, base=0x1000_0000)
        stream = make_reference_stream(data, name="mix", instruction_ratio=1.0, seed=11)
        assert len(stream) == 2_000
        assert stream.is_instruction.sum() == 1_000
        assert np.array_equal(stream.data_addresses, data)

    @settings(max_examples=150, deadline=None)
    @given(
        num_data=st.integers(min_value=1, max_value=300),
        ratio=st.floats(min_value=0.0, max_value=4.0),
    )
    def test_instruction_positions_match_sorted_unique_oracle(self, num_data, ratio):
        # The oracle deduplicates the evenly spaced positions with a full
        # sort-unique and tops them up with the lowest free slots.
        num_code = int(round(num_data * ratio))
        total = num_data + num_code
        expected = np.zeros(total, dtype=bool)
        if num_code:
            positions = np.unique(np.linspace(0, total - 1, num_code).astype(np.int64))
            while positions.size < num_code:
                free = np.setdiff1d(np.arange(total, dtype=np.int64), positions)
                positions = np.sort(np.concatenate([positions, free[: num_code - positions.size]]))
            expected[positions] = True
        data = synthetic.sequential_stream(num_data, base=0x1000_0000)
        stream = make_reference_stream(data, instruction_ratio=ratio, seed=2)
        assert np.array_equal(stream.is_instruction, expected)
        assert np.array_equal(stream.data_addresses, data)

    def test_zero_instruction_ratio(self):
        data = synthetic.sequential_stream(100, base=0)
        stream = make_reference_stream(data, instruction_ratio=0.0)
        assert len(stream) == 100
        assert stream.is_instruction.sum() == 0

    def test_mismatched_mask_rejected(self):
        with pytest.raises(ConfigurationError):
            ReferenceStream(np.arange(5, dtype=np.uint64), np.zeros(4, dtype=bool))

    def test_instruction_addresses_view(self):
        data = synthetic.sequential_stream(100, base=0x5000_0000)
        stream = make_reference_stream(data, instruction_ratio=0.5, seed=1)
        assert stream.instruction_addresses.size + stream.data_addresses.size == len(stream)
