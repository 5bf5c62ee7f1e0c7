"""Tests of the bytesort reversible transformation (paper Section 4.1)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bytesort import (
    bytesort_inverse,
    bytesort_inverse_window,
    bytesort_transform,
    bytesort_window,
    iter_windows,
)
from repro.errors import CodecError
from repro.traces.trace import ADDRESS_BYTES


class TestBytesortWindow:
    def test_empty_window_roundtrips(self):
        assert bytesort_window(np.empty(0, dtype=np.uint64)) == b""
        assert bytesort_inverse_window(b"").size == 0

    def test_single_address_roundtrips(self):
        values = np.array([0xDEADBEEFCAFEF00D], dtype=np.uint64)
        assert np.array_equal(bytesort_inverse_window(bytesort_window(values)), values)

    def test_output_size_is_eight_bytes_per_address(self, sequential_addresses):
        payload = bytesort_window(sequential_addresses)
        assert len(payload) == ADDRESS_BYTES * sequential_addresses.size

    def test_roundtrip_sequential(self, sequential_addresses):
        payload = bytesort_window(sequential_addresses)
        assert np.array_equal(bytesort_inverse_window(payload), sequential_addresses)

    def test_roundtrip_random(self, random_addresses):
        payload = bytesort_window(random_addresses)
        assert np.array_equal(bytesort_inverse_window(payload), random_addresses)

    def test_roundtrip_with_duplicates(self, working_set_addresses):
        payload = bytesort_window(working_set_addresses)
        assert np.array_equal(bytesort_inverse_window(payload), working_set_addresses)

    def test_first_block_is_msb_in_original_order(self):
        values = np.array([0x0100000000000000, 0x0200000000000000, 0x0300000000000000], dtype=np.uint64)
        payload = bytesort_window(values)
        assert payload[:3] == bytes([0x01, 0x02, 0x03])

    def test_transform_is_a_byte_permutation(self, random_addresses):
        """Bytesort reorders bytes but never changes the multiset of bytes."""
        payload = bytesort_window(random_addresses)
        original = random_addresses.view(np.uint8)
        assert np.array_equal(
            np.bincount(np.frombuffer(payload, dtype=np.uint8), minlength=256),
            np.bincount(original, minlength=256),
        )

    def test_section_4_1_worked_example(self):
        """The 384-address example of Section 4.1.

        Input: F200,F201,A100,F202,F203,A101,... (two interleaved regions).
        After bytesort, the low-order byte block must be 00..7F followed by
        00..FF because addresses are grouped by region (A1 region first,
        stable order preserved inside each region).
        """
        f2 = [0xF200 + i for i in range(256)]
        a1 = [0xA100 + i for i in range(128)]
        interleaved = []
        f2_index = a1_index = 0
        while f2_index < 256 or a1_index < 128:
            for _ in range(2):
                if f2_index < 256:
                    interleaved.append(f2[f2_index])
                    f2_index += 1
            if a1_index < 128:
                interleaved.append(a1[a1_index])
                a1_index += 1
        values = np.array(interleaved, dtype=np.uint64)
        payload = bytesort_window(values)
        count = values.size
        # Blocks are emitted MSB first; the last block is the low-order byte.
        low_block = payload[-count:]
        expected = bytes(range(128)) + bytes(range(256))
        assert low_block == expected
        # Second-to-last block: the byte of order 1 is emitted *before*
        # sorting by it, i.e. still in interleaved order F2,F2,A1,F2,F2,A1,...
        order1_block = payload[-2 * count : -count]
        assert order1_block == bytes((value >> 8) & 0xFF for value in interleaved)
        # And the whole thing still inverts exactly.
        assert np.array_equal(bytesort_inverse_window(payload), values)

    def test_figure_1_style_grouping(self):
        """Figure 1: interleaving two regions, bytesort exposes regularity.

        The check is the figure's point rather than its exact byte layout:
        the transform stays reversible and the transformed stream compresses
        at least as well as the raw interleaved bytes.
        """
        import zlib

        region_a = [0x00000000 + i * 0x4000 for i in range(512)]
        region_b = [0xFF000000 + i for i in range(512)]
        interleaved = [value for pair in zip(region_a, region_b) for value in pair]
        values = np.array(interleaved, dtype=np.uint64)
        payload = bytesort_window(values)
        assert np.array_equal(bytesort_inverse_window(payload), values)
        assert len(zlib.compress(payload, 9)) <= len(zlib.compress(values.tobytes(), 9))

    def test_rejects_partial_window(self):
        with pytest.raises(CodecError):
            bytesort_inverse_window(b"\x00" * 13)


class TestBytesortStreaming:
    def test_roundtrip_multiple_windows(self, random_addresses):
        payload = bytesort_transform(random_addresses, buffer_addresses=1_000)
        assert np.array_equal(bytesort_inverse(payload, 1_000), random_addresses)

    def test_roundtrip_window_not_dividing_length(self, random_addresses):
        payload = bytesort_transform(random_addresses, buffer_addresses=7_777)
        assert np.array_equal(bytesort_inverse(payload, 7_777), random_addresses)

    def test_buffer_larger_than_trace(self, sequential_addresses):
        payload = bytesort_transform(sequential_addresses, buffer_addresses=10**9)
        assert np.array_equal(bytesort_inverse(payload, 10**9), sequential_addresses)

    def test_mismatched_buffer_fails_or_differs(self, random_addresses):
        payload = bytesort_transform(random_addresses, buffer_addresses=1_000)
        recovered = bytesort_inverse(payload, 2_000)
        assert not np.array_equal(recovered, random_addresses)

    def test_invalid_buffer_size(self):
        with pytest.raises(CodecError):
            bytesort_transform(np.arange(10, dtype=np.uint64), buffer_addresses=0)
        with pytest.raises(CodecError):
            bytesort_inverse(b"", buffer_addresses=-1)

    def test_iter_windows_covers_everything(self):
        values = np.arange(25, dtype=np.uint64)
        windows = list(iter_windows(values, 10))
        assert [w.size for w in windows] == [10, 10, 5]
        assert np.array_equal(np.concatenate(windows), values)

    def test_iter_windows_rejects_bad_buffer(self):
        with pytest.raises(CodecError):
            list(iter_windows(np.arange(5, dtype=np.uint64), 0))


class TestBytesortProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), min_size=0, max_size=300)
    )
    def test_roundtrip_any_values(self, values):
        array = np.array(values, dtype=np.uint64)
        assert np.array_equal(bytesort_inverse_window(bytesort_window(array)), array)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), min_size=1, max_size=300),
        st.integers(min_value=1, max_value=64),
    )
    def test_streaming_roundtrip_any_buffer(self, values, buffer_addresses):
        array = np.array(values, dtype=np.uint64)
        payload = bytesort_transform(array, buffer_addresses)
        assert np.array_equal(bytesort_inverse(payload, buffer_addresses), array)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), min_size=1, max_size=200))
    def test_length_preserved(self, values):
        array = np.array(values, dtype=np.uint64)
        assert len(bytesort_window(array)) == 8 * array.size


def _definition_bytesort(values) -> bytes:
    """Section 4.1 read literally, on Python ints: emit the current byte of
    every address in the current order, then stably re-sort by it."""
    order = [int(value) for value in values]
    blocks = []
    for position in range(ADDRESS_BYTES - 1, -1, -1):
        column = [(value >> (8 * position)) & 0xFF for value in order]
        blocks.append(bytes(column))
        order = [value for _, value in sorted(zip(column, order), key=lambda pair: pair[0])]
    return b"".join(blocks)


def _tied_window(count: int) -> np.ndarray:
    """RNG-free addresses with many repeated bytes (ties exercise stability)."""
    k = np.arange(count, dtype=np.uint64)
    return ((k * np.uint64(2654435761)) ^ (k >> np.uint64(3))) % np.uint64(65536) + np.uint64(
        0x40_0000
    )


class TestBytesortMatchesDefinition:
    """The vectorised transform against a per-address reading of the paper."""

    @pytest.mark.parametrize("count", [1, 7, 4096])
    def test_forward_matches_definition(self, count):
        values = _tied_window(count)
        assert bytesort_window(values) == _definition_bytesort(values)

    @pytest.mark.parametrize("count", [1, 7, 4096])
    def test_inverse_recovers_definition_payload(self, count):
        values = _tied_window(count)
        assert np.array_equal(bytesort_inverse_window(_definition_bytesort(values)), values)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), min_size=1, max_size=200))
    def test_forward_matches_definition_property(self, values):
        array = np.array(values, dtype=np.uint64)
        assert bytesort_window(array) == _definition_bytesort(values)
