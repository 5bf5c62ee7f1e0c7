"""Tests of the trace-format adapters, the sidecar and ``repro convert``.

Three layers:

* **Adapters** — the k6/mase/binary readers and writers round-trip, stream
  at bounded memory, survive arbitrary short reads (hypothesis), and fail
  loudly with line/record-numbered errors.
* **Conversion** — ``convert_to_atc`` / ``export_from_atc`` round-trip
  file-to-file through real ATC containers, commands and cycles preserved
  exactly via the ``SIDECAR.bz2`` stream, at flat peak memory.
* **Golden fixtures** — the committed container under
  ``tests/data/golden/lossless_k6`` (made from the committed
  ``tests/data/traces/k6_golden.trc.gz``) is pinned byte for byte, sidecar
  included, like the core golden containers.  To regenerate after an
  *intentional* format change::

      PYTHONPATH=src python tests/traces/test_formats.py --regen
"""

from __future__ import annotations

import gzip
import io
import shutil
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atc import MODE_LOSSY, AtcDecoder
from repro.core.lossy import LossyConfig
from repro.errors import ConfigurationError, TraceFormatError
from repro.traces.formats import (
    BinaryLayout,
    SidecarReader,
    SidecarWriter,
    SyntheticSidecar,
    TraceRecords,
    concat_records,
    convert_to_atc,
    detect_format,
    export_from_atc,
    format_names,
    get_format,
    has_sidecar,
    iter_binary_records,
    iter_k6_records,
    iter_mase_records,
    records_equal,
    sidecar_path,
    write_binary_records,
    write_k6_records,
    write_mase_records,
)

_DATA = Path(__file__).resolve().parent.parent / "data"
TRACES = _DATA / "traces"
GOLDEN_K6 = _DATA / "golden" / "lossless_k6"


# ---------------------------------------------------------------------------
# deterministic golden input (pure integer arithmetic, no RNG)
# ---------------------------------------------------------------------------
def golden_records() -> TraceRecords:
    """1200 records: three phases, all three kinds, non-monotonic cycles."""
    k = np.arange(1200, dtype=np.uint64)
    phase = k // np.uint64(400)
    scrambled = ((k + np.uint64(1)) * np.uint64(2654435761)) % np.uint64(4096)
    addresses = np.uint64(0x40_0000) + phase * np.uint64(0x1_0000) + scrambled * np.uint64(64)
    kinds = (k % np.uint64(3)).astype(np.uint8)
    # Cycles jump backwards at k = 600, exercising the sidecar's modular
    # delta encoding on a committed fixture.
    cycles = np.where(k < 600, np.uint64(1000) + np.uint64(3) * k, np.uint64(2) * k).astype(np.uint64)
    return TraceRecords(addresses, kinds, cycles.astype(np.uint64))


def golden_config() -> LossyConfig:
    """The fixed configuration the golden k6 container was converted with."""
    return LossyConfig(interval_length=400, threshold=0.5, chunk_buffer_addresses=400, backend="bz2")


_WIDE_LAYOUT = BinaryLayout(record_bytes=16, address_offset=4, address_bytes=6, byteorder="big")


def _read_all(chunks) -> TraceRecords:
    return concat_records(list(chunks))


def _files_of(directory: Path) -> dict:
    return {entry.name: entry.read_bytes() for entry in sorted(directory.iterdir())}


# ---------------------------------------------------------------------------
# TraceRecords
# ---------------------------------------------------------------------------
class TestTraceRecords:
    def test_from_addresses_synthesizes_kinds_and_cycles(self):
        chunk = TraceRecords.from_addresses(np.array([64, 128], dtype=np.uint64), start_cycle=10)
        assert chunk.kinds.tolist() == [0, 0]
        assert chunk.cycles.tolist() == [10, 11]
        assert len(chunk) == 2

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(TraceFormatError):
            TraceRecords(
                np.zeros(2, np.uint64), np.zeros(1, np.uint8), np.zeros(2, np.uint64)
            )

    def test_invalid_kind_codes_rejected(self):
        with pytest.raises(TraceFormatError):
            TraceRecords(
                np.zeros(1, np.uint64), np.array([3], np.uint8), np.zeros(1, np.uint64)
            )

    def test_concat_and_equality(self):
        full = golden_records()
        parts = [
            TraceRecords(full.addresses[:500], full.kinds[:500], full.cycles[:500]),
            TraceRecords(full.addresses[500:], full.kinds[500:], full.cycles[500:]),
        ]
        assert records_equal(concat_records(parts), full)
        assert not records_equal(full, TraceRecords.from_addresses(full.addresses))


# ---------------------------------------------------------------------------
# registry and detection
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_all_adapters_registered(self):
        assert {"k6", "mase", "bin", "raw"} <= set(format_names())

    def test_unknown_format_error_lists_registered(self):
        with pytest.raises(ConfigurationError, match="k6"):
            get_format("elf")

    @pytest.mark.parametrize(
        "name, expected",
        [
            ("k6_mcf.trc", "k6"),
            ("trace.k6.gz", "k6"),
            ("mase_run.trc", "mase"),
            ("out.mase.trc.gz", "mase"),
            ("dump.bin", "bin"),
            ("trace.bin.gz", "bin"),
            ("packets.dump", "bin"),
            ("trace.raw", "raw"),
            ("trace.addr.gz", "raw"),
            ("mystery.txt", None),
        ],
    )
    def test_detection_rules(self, name, expected):
        assert detect_format(name) == expected


# ---------------------------------------------------------------------------
# text adapters
# ---------------------------------------------------------------------------
_K6_MIXED_EXPECTED = TraceRecords(
    np.array(
        [0x10000, 0x10040, 0x10080, 0xDEADBEEF, 0xDEADBF2F, 0x0,
         0xFFFFFFFFFFFFFFFF, 0x7F0000001230],
        dtype=np.uint64,
    ),
    np.array([0, 1, 2, 0, 1, 2, 0, 2], dtype=np.uint8),
    np.array([10, 11, 12, 20, 21, 0, 18446744073709551615, 99], dtype=np.uint64),
)


class TestTextAdapters:
    def test_k6_mixed_fixture_parses_to_the_expected_records(self):
        with open(TRACES / "k6_mixed.trc", "rb") as handle:
            assert records_equal(_read_all(iter_k6_records(handle)), _K6_MIXED_EXPECTED)

    def test_k6_fixture_ends_without_a_trailing_newline(self):
        # The fixture intentionally covers the unterminated-final-line path.
        assert not (TRACES / "k6_mixed.trc").read_bytes().endswith(b"\n")

    def test_mase_mixed_fixture_matches_the_k6_one(self):
        with open(TRACES / "mase_mixed.trc", "rb") as handle:
            assert records_equal(_read_all(iter_mase_records(handle)), _K6_MIXED_EXPECTED)

    @pytest.mark.parametrize("chunk_records", [1, 7, 4096])
    def test_chunk_size_never_changes_the_parse(self, chunk_records):
        payload = (TRACES / "k6_mixed.trc").read_bytes()
        chunks = list(iter_k6_records(io.BytesIO(payload), chunk_records=chunk_records))
        assert all(len(chunk) for chunk in chunks)
        assert records_equal(concat_records(chunks), _K6_MIXED_EXPECTED)

    def test_writer_output_is_canonical(self, tmp_path):
        path = tmp_path / "out.trc"
        assert write_k6_records(path, [_K6_MIXED_EXPECTED]) == len(_K6_MIXED_EXPECTED)
        text = path.read_text()
        assert text.splitlines()[0] == "0x10000 P_MEM_RD 10"
        assert text.endswith("\n")
        with open(path, "rb") as handle:
            assert records_equal(_read_all(iter_k6_records(handle)), _K6_MIXED_EXPECTED)

    def test_mase_round_trip_through_gz(self, tmp_path):
        path = tmp_path / "out.mase.trc.gz"
        write_mase_records(path, [golden_records()])
        assert records_equal(_read_all(iter_mase_records(path)), golden_records())

    def test_gz_writes_are_byte_deterministic(self, tmp_path):
        first, second = tmp_path / "a.trc.gz", tmp_path / "b.trc.gz"
        write_k6_records(first, [golden_records()])
        write_k6_records(second, [golden_records()])
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "line, message",
        [
            (b"0x40 P_MEM_RD\n", "expected '<address> <command> <cycle>'"),
            (b"zz P_MEM_RD 1\n", "bad hexadecimal address"),
            (b"0x40 SNOOP 1\n", "unknown command"),
            (b"0x40 P_MEM_RD x\n", "bad decimal cycle"),
            (b"10000000000000000 P_MEM_RD 1\n", "does not fit in 64 bits"),
            (b"0x40 P_MEM_RD 99999999999999999999\n", "does not fit in 64 bits"),
            ("0x4é P_MEM_RD 1\n".encode("utf-8"), "non-ASCII"),
        ],
    )
    def test_parse_errors_carry_the_line_number(self, line, message):
        payload = b"# header\n0x40 P_MEM_RD 1\n" + line
        with pytest.raises(TraceFormatError, match=message) as excinfo:
            _read_all(iter_k6_records(io.BytesIO(payload)))
        if "non-ASCII" not in message:
            assert "line 3" in str(excinfo.value)


# ---------------------------------------------------------------------------
# binary adapter
# ---------------------------------------------------------------------------
class TestBinaryAdapter:
    def test_default_layout_round_trip(self, tmp_path):
        path = tmp_path / "trace.bin"
        addresses = golden_records().addresses
        assert write_binary_records(path, [golden_records()]) == addresses.size
        with open(path, "rb") as handle:
            parsed = _read_all(iter_binary_records(handle))
        assert np.array_equal(parsed.addresses, addresses)
        # Kinds/cycles are synthesized: reads with ordinal cycles.
        assert parsed.kinds.max() == 0
        assert np.array_equal(parsed.cycles, np.arange(addresses.size, dtype=np.uint64))

    def test_committed_wide_dump_fixture(self):
        with open(TRACES / "wide.dump", "rb") as handle:
            parsed = _read_all(iter_binary_records(handle, layout=_WIDE_LAYOUT))
        assert np.array_equal(parsed.addresses, golden_records().addresses)

    def test_wide_layout_writer_reproduces_the_fixture(self, tmp_path):
        path = tmp_path / "wide.dump"
        write_binary_records(path, [golden_records()], layout=_WIDE_LAYOUT)
        assert path.read_bytes() == (TRACES / "wide.dump").read_bytes()

    def test_trailing_partial_record_raises_after_full_records(self):
        payload = (64).to_bytes(8, "little") + b"\x01\x02\x03"
        chunks = iter_binary_records(io.BytesIO(payload))
        first = next(chunks)
        assert first.addresses.tolist() == [64]
        with pytest.raises(TraceFormatError, match="partial 8-byte record"):
            next(chunks)

    def test_address_overflow_on_write(self, tmp_path):
        narrow = BinaryLayout(record_bytes=4, address_offset=0, address_bytes=2)
        with pytest.raises(TraceFormatError, match="does not fit in 2 byte"):
            write_binary_records(
                tmp_path / "n.bin",
                [TraceRecords.from_addresses(np.array([0x1_0000], dtype=np.uint64))],
                layout=narrow,
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"record_bytes": 0},
            {"address_bytes": 0},
            {"address_bytes": 9},
            {"record_bytes": 8, "address_offset": 4, "address_bytes": 6},
            {"byteorder": "middle"},
        ],
    )
    def test_invalid_layouts_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            BinaryLayout(**kwargs)


# ---------------------------------------------------------------------------
# short reads (pipes / gzip members may split anywhere)
# ---------------------------------------------------------------------------
class ShortReadFile:
    """A file object that never returns more than ``limit`` bytes per read."""

    def __init__(self, payload: bytes, limit: int) -> None:
        self._buffer = io.BytesIO(payload)
        self._limit = limit

    def read(self, size: int = -1) -> bytes:
        if size is None or size < 0:
            size = self._limit
        return self._buffer.read(min(size, self._limit))

    def close(self) -> None:
        self._buffer.close()


_records_strategy = st.integers(min_value=0, max_value=60).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n),
        st.lists(st.integers(0, 2), min_size=n, max_size=n),
        st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n),
    )
)


def _as_records(data) -> TraceRecords:
    addresses, kinds, cycles = data
    return TraceRecords(
        np.array(addresses, dtype=np.uint64),
        np.array(kinds, dtype=np.uint8),
        np.array(cycles, dtype=np.uint64),
    )


class TestShortReadReassembly:
    @settings(max_examples=25, deadline=None)
    @given(data=_records_strategy, chunk_records=st.sampled_from([1, 7, 4096]),
           limit=st.sampled_from([1, 13]))
    def test_k6_reader_survives_any_read_fragmentation(self, data, chunk_records, limit):
        records = _as_records(data)
        sink = io.BytesIO()
        write_k6_records(sink, [records])
        parsed = _read_all(
            iter_k6_records(ShortReadFile(sink.getvalue(), limit), chunk_records=chunk_records)
        )
        assert records_equal(parsed, records)

    @settings(max_examples=25, deadline=None)
    @given(data=_records_strategy, chunk_records=st.sampled_from([1, 7, 4096]),
           limit=st.sampled_from([1, 13]))
    def test_binary_reader_survives_any_read_fragmentation(self, data, chunk_records, limit):
        records = _as_records(data)
        sink = io.BytesIO()
        write_binary_records(sink, [records], layout=BinaryLayout())
        parsed = _read_all(
            iter_binary_records(ShortReadFile(sink.getvalue(), limit), chunk_records=chunk_records)
        )
        assert np.array_equal(parsed.addresses, records.addresses)


# ---------------------------------------------------------------------------
# the command/cycle sidecar
# ---------------------------------------------------------------------------
class TestSidecar:
    def _round_trip(self, tmp_path, kinds, cycles, frames=1):
        path = tmp_path / "SIDECAR.bz2"
        with SidecarWriter(path) as writer:
            for part in np.array_split(np.arange(len(kinds)), max(frames, 1)):
                if part.size:
                    writer.append(kinds[part], cycles[part])
        with SidecarReader(path) as reader:
            got_kinds, got_cycles = reader.take(len(kinds))
            reader.verify_exhausted()
        return got_kinds, got_cycles

    def test_exact_round_trip_across_frames(self, tmp_path):
        records = golden_records()
        kinds, cycles = self._round_trip(tmp_path, records.kinds, records.cycles, frames=7)
        assert np.array_equal(kinds, records.kinds)
        assert np.array_equal(cycles, records.cycles)

    def test_wrapping_and_non_monotonic_cycles_are_exact(self, tmp_path):
        cycles = np.array([2**64 - 1, 0, 5, 2, 2**63], dtype=np.uint64)
        kinds = np.array([0, 1, 2, 1, 0], dtype=np.uint8)
        got_kinds, got_cycles = self._round_trip(tmp_path, kinds, cycles, frames=2)
        assert np.array_equal(got_cycles, cycles)
        assert np.array_equal(got_kinds, kinds)

    def test_reader_rechunks_at_any_boundary(self, tmp_path):
        records = golden_records()
        path = tmp_path / "SIDECAR.bz2"
        with SidecarWriter(path) as writer:
            writer.append(records.kinds, records.cycles)
        with SidecarReader(path) as reader:
            pieces = [reader.take(7)[1] for _ in range(3)]
            rest = reader.take(len(records) - 21)[1]
            reader.verify_exhausted()
        assert np.array_equal(np.concatenate(pieces + [rest]), records.cycles)

    def test_underrun_and_overrun_are_detected(self, tmp_path):
        records = golden_records()
        path = tmp_path / "SIDECAR.bz2"
        with SidecarWriter(path) as writer:
            writer.append(records.kinds, records.cycles)
        with SidecarReader(path) as reader:
            with pytest.raises(TraceFormatError, match="ends before"):
                reader.take(len(records) + 1)
        with SidecarReader(path) as reader:
            reader.take(10)
            with pytest.raises(TraceFormatError, match="more records"):
                reader.verify_exhausted()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "SIDECAR.bz2"
        import bz2 as _bz2

        path.write_bytes(_bz2.compress(b"NOTASIDE" + b"\x00" * 16))
        with pytest.raises(TraceFormatError, match="magic"):
            SidecarReader(path)

    def test_truncated_stream_rejected(self, tmp_path):
        import bz2 as _bz2

        full = tmp_path / "SIDECAR.bz2"
        with SidecarWriter(full) as writer:
            writer.append(np.zeros(4, np.uint8), np.arange(4, dtype=np.uint64))
        payload = _bz2.decompress(full.read_bytes())
        cut = tmp_path / "CUT.bz2"
        cut.write_bytes(_bz2.compress(payload[:-3]))
        with SidecarReader(cut) as reader:
            with pytest.raises(TraceFormatError, match="truncated"):
                reader.take(4)

    def test_synthetic_sidecar_defaults(self):
        sidecar = SyntheticSidecar(cycle_gap=10)
        kinds, cycles = sidecar.take(3)
        assert kinds.tolist() == [0, 0, 0]
        assert cycles.tolist() == [0, 10, 20]
        kinds, cycles = sidecar.take(2)
        assert cycles.tolist() == [30, 40]
        sidecar.verify_exhausted()


# ---------------------------------------------------------------------------
# conversion round-trips
# ---------------------------------------------------------------------------
class TestConvertRoundTrips:
    def _k6_source(self, tmp_path, name="source.k6.trc.gz"):
        path = tmp_path / name
        write_k6_records(path, [golden_records()])
        return path

    def test_k6_gz_to_atc_and_back_is_semantically_identical(self, tmp_path):
        source = self._k6_source(tmp_path)
        container = tmp_path / "container"
        summary = convert_to_atc(source, container, config=golden_config())
        assert summary["addresses"] == len(golden_records())
        assert summary["format"] == "k6"
        assert has_sidecar(container)

        back = tmp_path / "back.k6.trc.gz"
        out = export_from_atc(container, back)
        assert out["records"] == len(golden_records())
        assert records_equal(_read_all(iter_k6_records(back)), golden_records())

    def test_export_twice_is_byte_identical(self, tmp_path):
        container = tmp_path / "container"
        convert_to_atc(self._k6_source(tmp_path), container, config=golden_config())
        first, second = tmp_path / "a.k6.trc.gz", tmp_path / "b.k6.trc.gz"
        export_from_atc(container, first)
        export_from_atc(container, second)
        assert first.read_bytes() == second.read_bytes()

    def test_export_is_byte_identical_at_every_worker_count(self, tmp_path):
        container = tmp_path / "container"
        convert_to_atc(self._k6_source(tmp_path), container, config=golden_config())
        inline, pooled = tmp_path / "a.k6.trc", tmp_path / "b.k6.trc"
        export_from_atc(container, inline, chunk_addresses=7, workers=1)
        export_from_atc(container, pooled, chunk_addresses=7, workers=3)
        assert inline.read_bytes() == pooled.read_bytes()

    def test_cross_format_export_k6_to_mase(self, tmp_path):
        container = tmp_path / "container"
        convert_to_atc(self._k6_source(tmp_path), container, config=golden_config())
        out = tmp_path / "out.mase.trc"
        export_from_atc(container, out)
        with open(out, "rb") as handle:
            assert records_equal(_read_all(iter_mase_records(handle)), golden_records())

    def test_lossy_mode_keeps_kinds_and_cycles_exact(self, tmp_path):
        container = tmp_path / "container"
        convert_to_atc(
            self._k6_source(tmp_path), container, mode=MODE_LOSSY, config=golden_config()
        )
        assert AtcDecoder(container).is_lossy
        back = tmp_path / "back.k6.trc"
        export_from_atc(container, back)
        with open(back, "rb") as handle:
            parsed = _read_all(iter_k6_records(handle))
        expected = golden_records()
        assert len(parsed) == len(expected)  # lossy keeps the length...
        assert np.array_equal(parsed.kinds, expected.kinds)  # ...and the sidecar stays exact
        assert np.array_equal(parsed.cycles, expected.cycles)

    def test_no_sidecar_exports_synthesized_defaults(self, tmp_path):
        container = tmp_path / "container"
        convert_to_atc(
            self._k6_source(tmp_path), container, config=golden_config(), write_sidecar=False
        )
        assert not has_sidecar(container)
        back = tmp_path / "back.k6.trc"
        export_from_atc(container, back, cycle_gap=4)
        with open(back, "rb") as handle:
            parsed = _read_all(iter_k6_records(handle))
        assert np.array_equal(parsed.addresses, golden_records().addresses)
        assert parsed.kinds.max() == 0
        assert np.array_equal(
            parsed.cycles, np.arange(len(parsed), dtype=np.uint64) * np.uint64(4)
        )

    def test_binary_source_and_destination(self, tmp_path):
        source = tmp_path / "wide.dump"
        write_binary_records(source, [golden_records()], layout=_WIDE_LAYOUT)
        container = tmp_path / "container"
        convert_to_atc(source, container, config=golden_config(), layout=_WIDE_LAYOUT)
        out = tmp_path / "out.bin"
        export_from_atc(container, out)
        with open(out, "rb") as handle:
            parsed = _read_all(iter_binary_records(handle))
        assert np.array_equal(parsed.addresses, golden_records().addresses)

    def test_undetectable_format_points_at_the_flag(self, tmp_path):
        path = tmp_path / "mystery.txt"
        path.write_bytes(b"")
        with pytest.raises(TraceFormatError, match="pass the format explicitly"):
            convert_to_atc(path, tmp_path / "container", config=golden_config())

    @staticmethod
    def _convert_peaks(tmp_path, length):
        addresses = (np.arange(length, dtype=np.uint64) * np.uint64(2654435761)) % np.uint64(1 << 30)
        source = tmp_path / f"big_{length}.k6.trc"
        write_k6_records(source, [TraceRecords.from_addresses(addresses)])
        config = LossyConfig(
            interval_length=25_000, chunk_buffer_addresses=25_000, backend="zlib"
        )
        container = tmp_path / f"container_{length}"
        tracemalloc.start()
        try:
            convert_to_atc(source, container, config=config, chunk_records=4096)
            _, encode_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            export_from_atc(container, tmp_path / f"back_{length}.k6.trc", chunk_addresses=4096)
            _, export_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return source.stat().st_size, encode_peak, export_peak

    def test_convert_is_flat_memory(self, tmp_path):
        # The real flat-memory property: tripling the trace must not grow
        # the peak (streaming chunks + fixed codec buffers), even though the
        # large file is several times bigger than the whole footprint.
        small_size, small_encode, small_export = self._convert_peaks(tmp_path, 100_000)
        large_size, large_encode, large_export = self._convert_peaks(tmp_path, 300_000)
        assert large_size > 3 * small_size - 1_000_000
        assert large_encode < 1.3 * small_encode, (small_encode, large_encode)
        assert large_export < 1.3 * small_export, (small_export, large_export)
        assert large_encode < large_size, "peak stays below the file size"
        assert large_encode < 8_000_000, f"convert peak {large_encode} bytes"
        assert large_export < 8_000_000, f"export peak {large_export} bytes"


# ---------------------------------------------------------------------------
# the committed golden container (byte-pinned, sidecar included)
# ---------------------------------------------------------------------------
class TestGoldenK6Container:
    def test_fixtures_are_committed(self):
        for path in (GOLDEN_K6, TRACES / "k6_golden.trc.gz", TRACES / "wide.dump"):
            assert path.exists(), (
                f"missing fixture {path}; regenerate with "
                "PYTHONPATH=src python tests/traces/test_formats.py --regen"
            )

    def test_committed_source_parses_to_the_golden_records(self):
        assert records_equal(
            _read_all(iter_k6_records(TRACES / "k6_golden.trc.gz")), golden_records()
        )

    def test_fresh_convert_reproduces_the_container_byte_for_byte(self, tmp_path):
        fresh = tmp_path / "lossless_k6"
        convert_to_atc(TRACES / "k6_golden.trc.gz", fresh, config=golden_config())
        expected = _files_of(GOLDEN_K6)
        actual = _files_of(fresh)
        assert actual.keys() == expected.keys()
        for name in expected:
            assert actual[name] == expected[name], (
                f"lossless_k6/{name} drifted from the committed golden bytes"
            )

    def test_sidecar_is_committed_and_counted(self):
        assert has_sidecar(GOLDEN_K6)
        decoder = AtcDecoder(GOLDEN_K6)
        sidecar_bytes = sidecar_path(GOLDEN_K6).stat().st_size
        assert decoder.compressed_bytes() >= sidecar_bytes, (
            "sidecar bytes must count toward the container's size"
        )

    def test_export_matches_the_committed_source_bytes(self, tmp_path):
        out = tmp_path / "k6_golden.trc.gz"
        export_from_atc(GOLDEN_K6, out)
        assert gzip.decompress(out.read_bytes()) == gzip.decompress(
            (TRACES / "k6_golden.trc.gz").read_bytes()
        )

    def test_library_decoder_reads_the_addresses(self):
        assert np.array_equal(AtcDecoder(GOLDEN_K6).read_all(), golden_records().addresses)


# ---------------------------------------------------------------------------
# --regen
# ---------------------------------------------------------------------------
def _regenerate() -> None:
    TRACES.mkdir(parents=True, exist_ok=True)
    write_k6_records(TRACES / "k6_golden.trc.gz", [golden_records()])
    print(f"wrote {TRACES / 'k6_golden.trc.gz'}")
    write_binary_records(TRACES / "wide.dump", [golden_records()], layout=_WIDE_LAYOUT)
    print(f"wrote {TRACES / 'wide.dump'}")
    if GOLDEN_K6.exists():
        shutil.rmtree(GOLDEN_K6)
    convert_to_atc(TRACES / "k6_golden.trc.gz", GOLDEN_K6, config=golden_config())
    print(f"wrote {GOLDEN_K6}")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
