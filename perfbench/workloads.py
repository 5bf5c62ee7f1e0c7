"""The four benchmark workloads.

Each in-process workload has ``setup(seed, workdir)`` (generate inputs from
the seed), ``op(state, program, index, workdir)`` (one timed round trip of
one program, returning an :class:`OpResult`) and ``verify(state, results,
workdir)`` (checks that need reference outputs, run after the timed
section).  The service workload drives ``repro serve`` in a child process
and lives in :mod:`service_load`.

The system is driven only through its public functions, always looked up
on their module at call time so the traced run's wrappers see the calls.
"""

from __future__ import annotations

import filecmp
import functools
import gzip
import hashlib
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import List

import numpy as np

import repro.core.atc as atc
import repro.traces.filter as filt
import repro.traces.formats.base as formats_base
import repro.traces.formats.convert as convert
import repro.traces.spec_like as spec_like
import repro.traces.trace as trace_io
from repro.cache.stackdist import simulate_miss_curve
from repro.core.lossy import LossyConfig
from tracer import now

#: Table 1's bs1 regime: one bytesort buffer of B = 1M addresses, bz2.
BS1_CONFIG = LossyConfig(chunk_buffer_addresses=1_000_000, backend="bz2", workers=1)
#: The online lossy path: L = 20k intervals, B = 1M, bz2.
LOSSY_CONFIG = LossyConfig(
    interval_length=20_000, chunk_buffer_addresses=1_000_000, backend="bz2", workers=1
)
#: Reference-stream chunk fed to the streaming filter.
STREAM_CHUNK = 65536

#: 429.mcf walks the cycle through node 0 of a random successor permutation
#: of this many nodes (``synthetic.pointer_chase``).  That cycle is the
#: program's working set, and its length is uniform over seeds, which moves
#: bits/address by 3x.  The benchmark holds the working set at about half
#: the nodes, so seeds vary the addresses, not the program's footprint.
MCF_NODES = 200_000
MCF_CYCLE_BAND = (0.48, 0.52)


def mcf_cycle_fraction(generator_seed: int, limit: float = 1.0) -> float:
    """Fraction of nodes on the cycle through node 0 (capped at ``limit``)."""
    successor = np.random.default_rng(generator_seed).permutation(MCF_NODES).tolist()
    node, length, cap = successor[0], 1, int(limit * MCF_NODES)
    while node != 0 and length <= cap:
        node, length = successor[node], length + 1
    return length / MCF_NODES


@functools.lru_cache(maxsize=64)
def program_seed(program: str, seed: int) -> int:
    """Generator seed for ``program`` under benchmark seed ``seed``.

    The seed itself, except for 429.mcf: the first of ``seed * 10000 + k``
    whose working set lies in :data:`MCF_CYCLE_BAND`.  Cached: it is the
    benchmark's seed rule, not part of the system's set-up.
    """
    if program != "429.mcf":
        return seed
    low, high = MCF_CYCLE_BAND
    for candidate in range(seed * 10000, seed * 10000 + 10000):
        if low <= mcf_cycle_fraction(candidate, high) <= high:
            return candidate
    raise RuntimeError(f"no 429.mcf generator seed in band for seed {seed}")


@dataclass
class OpResult:
    """One timed round trip of one program."""

    program: str
    encode_s: float
    decode_s: float
    addrs_in: int  # input addresses (the encode-rate numerator)
    addrs_out: int  # decoded addresses (the decode-rate numerator)
    coded: int  # addresses in the container (bits-per-address base)
    bits: int  # on-disk container bits
    errors: List[str] = field(default_factory=list)
    digest: str = ""

    @property
    def wall_s(self) -> float:
        return self.encode_s + self.decode_s


def directory_bytes(path: Path) -> int:
    return sum(item.stat().st_size for item in Path(path).rglob("*") if item.is_file())


def directory_digest(path: Path) -> str:
    digest = hashlib.sha256()
    for item in sorted(Path(path).rglob("*")):
        if item.is_file():
            digest.update(item.relative_to(path).as_posix().encode() + b"\0")
            digest.update(item.read_bytes())
    return digest.hexdigest()


class Bs1Lossless:
    """Raw file -> lossless ATC at B = 1M -> raw file, byte-compared."""

    name = "bs1_lossless"
    programs = ("429.mcf", "403.gcc")

    def __init__(self, scale: float = 1.0) -> None:
        self.references = max(int(1_000_000 * scale), 2000)

    def setup(self, seed: int, workdir: Path):
        inputs = []
        for program in self.programs:
            trace = filt.filtered_spec_like_trace(
                program, self.references, seed=program_seed(program, seed)
            )
            path = workdir / f"{program}.raw"
            trace_io.write_raw_trace(trace.addresses, path)
            inputs.append((program, path, len(trace)))
        return inputs

    def op(self, state, program: int, index: int, workdir: Path) -> OpResult:
        program, path, count = state[program]
        container, output = workdir / f"op{index}", workdir / f"op{index}.raw"
        start = now()
        decoder = atc.compress_stream(
            trace_io.iter_raw_chunks(path), container, mode="c", config=BS1_CONFIG
        )
        encoded = now()
        decoded = 0
        with open(output, "wb") as sink:
            for chunk in atc.decompress_stream(container):
                trace_io.write_raw_trace(chunk, sink)
                decoded += int(chunk.size)
        done = now()
        errors = []
        if not filecmp.cmp(path, output, shallow=False):
            errors.append(f"{program}: decoded raw file differs from the input")
        recorded = int(decoder.metadata["original_length"])
        if not decoded == recorded == count:
            errors.append(f"{program}: decoded {decoded}, INFO {recorded}, input {count}")
        result = OpResult(
            program, encoded - start, done - encoded, count, decoded, count,
            8 * decoder.compressed_bytes(), errors,
        )
        shutil.rmtree(container)
        output.unlink()
        return result

    def verify(self, state, results, workdir: Path) -> dict:
        return {}


class OnlineLossy:
    """Reference stream -> streaming L1 filter -> lossy ATC -> decoder."""

    name = "online_lossy"
    programs = ("401.bzip2", "403.gcc", "429.mcf")

    def __init__(self, scale: float = 1.0) -> None:
        self.references = max(int(1_000_000 * scale), 2000)

    def setup(self, seed: int, workdir: Path):
        self.first_decoded = {}  # program -> decoded trace of its first op
        return [
            (
                program,
                spec_like.generate_reference_stream(
                    program, self.references, seed=program_seed(program, seed)
                ),
            )
            for program in self.programs
        ]

    def op(self, state, program: int, index: int, workdir: Path) -> OpResult:
        program, stream = state[program]
        container = workdir / f"op{index}"
        start = now()
        streaming = filt.StreamingCacheFilter()
        decoder = atc.compress_stream(
            streaming.filter_chunks(stream.iter_chunks(STREAM_CHUNK)),
            container,
            mode="k",
            config=LOSSY_CONFIG,
        )
        encoded = now()
        decoded = atc.AtcDecoder(container).read_all()
        done = now()
        coded = int(decoder.metadata["original_length"])
        errors = []
        if int(decoded.size) != coded:
            errors.append(f"{program}: decoded {decoded.size} addresses, INFO records {coded}")
        result = OpResult(
            program, encoded - start, done - encoded, len(stream), int(decoded.size), coded,
            8 * decoder.compressed_bytes(), errors, directory_digest(container),
        )
        self.first_decoded.setdefault(program, decoded)
        shutil.rmtree(container)
        return result

    def verify(self, state, results, workdir: Path) -> dict:
        """Offline references: the exact filtered trace and its whole-trace
        container.  Every streamed container must equal it byte for byte, and
        the first decode of each program gives the miss-ratio error."""
        errors, mr_errors = [], []
        for program, stream in state:
            exact = filt.CacheFilter().filter(stream).trace.addresses
            reference = workdir / f"reference-{program}"
            atc.compress_trace(exact, reference, mode="k", config=LOSSY_CONFIG)
            expected = directory_digest(reference)
            shutil.rmtree(reference)
            for result in results:
                if result.program != program:
                    continue
                if result.digest != expected:
                    errors.append(f"{program}: streamed container differs from compress_trace")
                if result.coded != exact.size:
                    errors.append(f"{program}: coded {result.coded}, filtered {exact.size}")
            if program in self.first_decoded:
                mr_errors.append(miss_ratio_error(exact, self.first_decoded[program]))
        return {"errors": errors, "lossy_mr_err": float(np.mean(mr_errors)) if mr_errors else None}


def miss_ratio_error(exact: np.ndarray, approximate: np.ndarray) -> float:
    """Mean absolute miss-ratio error, in percentage points, over one
    Figure 3 column (128 sets, associativity 1..32)."""
    truth = simulate_miss_curve(exact, num_sets=128, max_associativity=32).as_series()
    guess = simulate_miss_curve(approximate, num_sets=128, max_associativity=32).as_series()
    return 100.0 * float(np.mean(np.abs(np.asarray(truth) - np.asarray(guess))))


class K6Interop:
    """gz k6 text -> convert_to_atc (lossless + sidecar) -> export_from_atc."""

    name = "k6_interop"
    programs = ("429.mcf",)

    def __init__(self, scale: float = 1.0) -> None:
        self.references = max(int(250_000 * scale), 2000)

    def setup(self, seed: int, workdir: Path):
        addresses = filt.filtered_spec_like_trace(
            "429.mcf", self.references, seed=program_seed("429.mcf", seed)
        ).addresses
        rng = np.random.default_rng([seed, 6])
        kinds = rng.choice(3, size=addresses.size, p=[0.7, 0.2, 0.1]).astype(np.uint8)
        cycles = np.cumsum(rng.integers(1, 40, size=addresses.size)).astype(np.uint64)
        path = workdir / "input.k6.gz"
        records = formats_base.TraceRecords(addresses, kinds, cycles)
        formats_base.get_format("k6").write(path, [records])
        text_digest = hashlib.sha256(gzip.decompress(path.read_bytes())).hexdigest()
        return path, int(addresses.size), text_digest

    def op(self, state, program: int, index: int, workdir: Path) -> OpResult:
        path, count, text_digest = state
        container, output = workdir / f"op{index}", workdir / f"op{index}.k6.gz"
        start = now()
        summary = convert.convert_to_atc(path, container, format="k6")
        encoded = now()
        exported = convert.export_from_atc(container, output, format="k6")
        done = now()
        errors = []
        if hashlib.sha256(gzip.decompress(output.read_bytes())).hexdigest() != text_digest:
            errors.append("exported k6 text differs from the input")
        if not summary["addresses"] == exported["records"] == count:
            errors.append(
                f"converted {summary['addresses']}, exported {exported['records']}, input {count}"
            )
        result = OpResult(
            "429.mcf", encoded - start, done - encoded, count, exported["records"], count,
            8 * directory_bytes(container), errors,
        )
        shutil.rmtree(container)
        output.unlink()
        return result

    def verify(self, state, results, workdir: Path) -> dict:
        return {}


IN_PROCESS = {cls.name: cls for cls in (Bs1Lossless, OnlineLossy, K6Interop)}
