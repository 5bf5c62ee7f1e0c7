"""Byte-level pins of the reference-stream generator, and its length contract.

The synthetic generators seed the golden containers and every benchmark
input, so a rewrite of their internals must reproduce their output bit for
bit.  ``PINS`` holds, for every spec-like workload and every zoo entry, a
64-bit prefix of the SHA-256 over the stream's ``addresses``,
``is_instruction`` and ``is_write`` arrays, at each seed in ``SEEDS`` and
each length in ``LENGTHS``.  The table was computed with the generator as
it stood before its interleave and pointer chase were made array-native
(the scalar ``pointer_chase`` walk and the ``np.unique`` interleave), so
passing it shows the array-native generator is byte-identical to that one.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.traces.spec_like import SPEC_LIKE_NAMES, generate_reference_stream, get_workload
from repro.traces.zoo import ZOO_NAMES

SEEDS = (0, 1, 7)
LENGTHS = (64, 1000, 100_003)

#: name -> digests in (seed, length) order: seed-major over ``SEEDS``, then
#: ``LENGTHS``.
PINS = {
    "400.perlbench": (
        "c4b61baad5b09954", "c78e6f7c60bf4c95", "c02254bfc41cc30b",
        "8cd879ba8dfccbec", "d4e61d1ef68194cb", "3a417abafd092a5f",
        "819ade56c1aa70a8", "1245690010eab963", "6624ef3563b2e1f2",
    ),
    "401.bzip2": (
        "8454db718bc153bd", "2ea6872bca27bbc6", "2cc501f2dd08d1a6",
        "d386ccc6ed74ab86", "ab6e984f5b377e5f", "302374ad6fcf1c27",
        "dae7eef79a86ff13", "2767b51b044d30eb", "108fe3c58e739d66",
    ),
    "403.gcc": (
        "f0227f4fb24902c3", "1af3c302ce48c76f", "7ce5ada74061e436",
        "b4f46e80d922fd51", "48259ed09f0c0b9f", "1ea6ebd44236c695",
        "801f1e7f9009802c", "927379afe07101a5", "891c9e292d0f61ac",
    ),
    "410.bwaves": (
        "1fb474fb5523718c", "35d46c9eaed0aa9f", "22342c752a999120",
        "d822b5ad17dfe5a8", "0a6017229b19bf7e", "3fb08146341dee6e",
        "36a603dddf494091", "cc013cdde7246a97", "ac9e608d3bb66938",
    ),
    "429.mcf": (
        "c1adc0861e2192c8", "4ffc1b3d65dfc4b1", "4915f985abe194d5",
        "c98089119adf49c0", "d8219f0031664703", "f591a67eb82a3721",
        "7602cd12d8a9e5fd", "d021da8dfb7e7d8f", "3700c687153e265c",
    ),
    "433.milc": (
        "c846e3be563171eb", "014d1f2af8c22da1", "d19e3bc938e4bc82",
        "b81d0a0a94bb0ecf", "7e3c3f63cd7aa549", "3c7a0d01078d99a3",
        "d177afbfb6baa9fa", "4ab0348623f24069", "bc48acd6fa85181c",
    ),
    "434.zeusmp": (
        "f2c73d5ba88f817a", "d8b182c750bfb22c", "9b6909a7dd7bcae7",
        "7dfc8b5e2b97527f", "d8615e15b80bc79d", "0f8014d8c9b6139b",
        "a3822fbba2c74327", "f0c24eea9b5d91f9", "072556b685c6dd9d",
    ),
    "435.gromacs": (
        "f0db9be5ae1cb78a", "8cf71adab8451002", "95525957037fbcd2",
        "d5f199ef34e99b6b", "e75631040cbfdd17", "64c4a87f1f25960a",
        "cf2c0c72e33c993d", "1086046a896be1b3", "2063fdff08b88ade",
    ),
    "444.namd": (
        "1fbe9a000f6ca112", "07ded41e3cdaf5f7", "bd0fd736f637487a",
        "66ab10b8ce9b0ee5", "5f1d9fe311a606f8", "f4cddbd6e8ea8a19",
        "66fb4cda7ff6cecf", "77a390700b43c216", "3109bfb40ed5976c",
    ),
    "445.gobmk": (
        "bf5236d4fd8aeee7", "473f1194ad91f413", "3152ed91865d2a89",
        "eea91a7c79dec60b", "2c31504487232876", "0c1d22e75daa2598",
        "330c1a0c8428ed69", "52d82d82847526f4", "7976a8be756c8aa5",
    ),
    "447.dealII": (
        "1b89eddb2427b7bc", "7966008ed63f60b0", "25d7fe4bf3e70c7d",
        "b6ed5905654ef088", "42cc412249288f09", "9ae13f3cbf798e25",
        "5e67b5bd232b66fa", "75c8320a49611943", "ef876b99c5aeeaa3",
    ),
    "450.soplex": (
        "20c77b363c2d2b92", "e1850fc626c51263", "271a1973b25a78f5",
        "6ab557c5877727b7", "11a2756b866277fd", "786fd9bcecfbfba1",
        "45683b81fa440773", "e4e4bdfa7c72e731", "58d77311f220bb6e",
    ),
    "453.povray": (
        "68287815b0db19c2", "4d9ea03c43fb3233", "0faa274599bc1103",
        "58033f7e4c2092a7", "2783402acf17fb4b", "2a34c1af48aeafce",
        "09544de4735329c8", "4f4e56a3e541eafc", "883aa2a212123940",
    ),
    "456.hmmer": (
        "ae5b5fd19c807042", "847845b518abd040", "59b55cc6a1336083",
        "563eadc42813555e", "ae68f86bdbd7cf58", "65d2553f8d2d93b7",
        "d3eafc8adb54b78c", "5ce71f33079941ee", "ec5b13a8aa7cea92",
    ),
    "458.sjeng": (
        "41998f0268dd49aa", "235ab8a60fe94e3c", "1e599301e1b4bf3e",
        "0b323b73a8056305", "e39e92b9faa64fbf", "a5067f1178b18195",
        "6130bb6f375704f7", "5e02bfa05a1ad847", "534aeae2278f489e",
    ),
    "462.libquantum": (
        "c1bc407c4f365daf", "77069a5ac702bb08", "f8b25842be9917a5",
        "2975ccc8d45e758a", "b87e1da705b67ce8", "ea34cceb3f88139e",
        "a5a0bc4c31d7e297", "521024a9e12e8c5f", "f312fa8f5d37092d",
    ),
    "464.h264ref": (
        "79470c6da2bea9c4", "f6272a1eb59d1ed2", "d4667fa6c303a1dd",
        "d2dbf7b88961ee7f", "e1dd05fce5cd0396", "1ecade5f5ef6b4c3",
        "7317752de40aca0a", "abe3c79fd9a7bde0", "a9d04211bb36ca2b",
    ),
    "470.lbm": (
        "c17e16900ba3c03a", "be320bbfcf66295c", "6f08e1117484db44",
        "c1db9d623ba17a53", "fee8630ee54da0dd", "06329a22dc76da04",
        "82a072b68226e4fc", "9962deccce3140e6", "9e86bf4f489680d5",
    ),
    "471.omnetpp": (
        "073ba4986f6aa508", "b0b65a2d0b59f3db", "14ff3f60aee6fb3a",
        "f2deab8638ea2f1d", "ad12caf63c4d4ea0", "c3a195a2aa73e954",
        "2bcdab596484a2f5", "fcdd4bf22c149515", "5eccce5f59a91285",
    ),
    "473.astar": (
        "6d0992eb0e19eab6", "3332a858b8fc046a", "8014a76b564274c9",
        "058e6f8b38cdcfa7", "a883520d06890576", "72249ce170b245a3",
        "4a92e97c4ec99e01", "9581cfaaa551c4e4", "626caa74c41c7586",
    ),
    "482.sphinx3": (
        "b3b2219de229ff5e", "707ab545f51c4c32", "86b845de450ef011",
        "e39c7bbb266216da", "253722c25655d2c7", "bd67b620a8aaaa6f",
        "447de719250c4bdb", "4db36c721e81ced7", "f13edd700f014295",
    ),
    "483.xalancbmk": (
        "e350a03600d4725b", "1ccdd3acad41e804", "ac3d81d78d73088a",
        "2bf61afe689b0cd6", "da525c91c749828c", "f3be7a5f38c7e12f",
        "6277a7cb4a13039e", "f7e6b98883851025", "fb41a994b082d8c9",
    ),
    "mix1": (
        "43c09adae7eab6e7", "6275d37e9da2d2bf", "27111ae0c1907bc1",
        "d2da5b56597c8b9c", "a4c9a1c6b8f454d8", "02ad8ee5205c8b17",
        "a8e4f24728cfbfa6", "7c79c3c62e0680f4", "5386a6b89539c09d",
    ),
    "mix2": (
        "4cdd99bcdb959a71", "1f2c1b1f75903b89", "05ee8f33346dd06d",
        "4ee76afcaaeaa9ac", "0da38d7627bd257c", "253e769bb82c2d50",
        "388534af97f0cf35", "21372a0d50248ad5", "e9ac395283f64c21",
    ),
    "mix3": (
        "1b205f32efdfe60d", "0f760ac010709b9b", "3b6798f23d4f9d99",
        "3b6262d6a3305b49", "2b687a0689062572", "696fa45f4abba93b",
        "34770bf269ba0c5a", "907c4fb5aeb953d1", "8dcada23b39ae5ae",
    ),
    "mix4": (
        "ab6cc8139bc0c103", "a965146604a3d6a9", "dd2350d45d207f5f",
        "e22c23e6299c40c6", "731e8310ea7fb643", "e2bc10efc2a8f333",
        "c4c2f97af40b74be", "2655fc33bdf858b4", "40fe1ca519a98001",
    ),
    "mix5": (
        "27ffb92f4181e19d", "8c76524c4d80fd9f", "5fe496fa124ef902",
        "ab28f9f98c6f5da8", "d28d9791ae38daa7", "fca7698755339ac4",
        "60e29391f6489f48", "8b4fff1a3be0870e", "e027ac1689904284",
    ),
    "mix6": (
        "7d0364ac688eaf55", "ecbb06f2b787ba2a", "c30fb5ac68fa69df",
        "fcb553fa6b166a06", "aba44ddc9db92ca5", "cafb26f3cb6c5f9c",
        "5913be9049dd5403", "b87dbc3a9bde03be", "648d9a0fcdbd45fc",
    ),
    "mix7": (
        "a981b4ee5e908de6", "0a5a58fcda084d3e", "3c2ca0e6734cc64b",
        "14ff4e70b5329bb6", "5adf423a32789cb0", "cb6d9375c8df7c80",
        "79a50ee87621aea8", "82e51f3eefeea1f6", "8a8e06beb60f915d",
    ),
    "gap.bfs": (
        "dd9c722e9f397735", "08e13015933ccd57", "8592b800fc277e54",
        "db11b9117aa991ca", "1789484bfd4e1a1e", "3cd6ee6db01240c2",
        "7971595ff27b7b9e", "b6a06465912734fe", "2c2cf73dd12172e4",
    ),
    "gap.sssp": (
        "016faa93a44a1a22", "4e68d7c3545265f4", "0185f397222725b8",
        "c6e2dbb1f402e448", "db5a7683ddb3fc15", "227b39d243413de0",
        "5831541304b9b8d3", "ff515ba5765611e3", "b33323b8adf86c86",
    ),
    "gap.cc": (
        "fb16bc769a0d0b69", "3311217ed20630b4", "bb5fd1f0be253f20",
        "ff0e323d9e36215b", "c7e05bb67f3b398b", "1fe5c9b2425f096c",
        "856f018c7dfb2561", "33e5ab9d35040a34", "823a4288dc548ef5",
    ),
    "stream.add": (
        "860e803147288632", "825baf80ee59ac9d", "2a368d3b0534d80d",
        "0cbb378a7b042a47", "525ec7779e56f429", "3fa63d04b609d3e2",
        "9cf8d461640e44a4", "c48d0404ec9c1258", "7f2e687448eb6cbc",
    ),
    "stream.copy": (
        "328cc4aeb2011c64", "2f7ae5eb59a3bae9", "b71ec322daf802cc",
        "a02d3d2ae65bf27d", "5c50e90a5cbf2d76", "43d3f64c189b317d",
        "08f9cd93666a4620", "46bb2aa58fae5933", "eada3c14d8ec22d9",
    ),
    "stream.scale": (
        "2567b49b890c3346", "9264f53c998a5124", "3afa583abbd32502",
        "4059ecc4196ec508", "df482721ed0ace2e", "bc6f1ae5ba2994cb",
        "aaaca4da06bc3ad1", "7bbafb8497a4ba16", "8bd42efa2461680d",
    ),
    "stream.triad": (
        "4ab11e9fc5723d22", "f43c25a7da14149d", "83477ad6ec607112",
        "8556c828a2772b86", "fc138ae262a14d02", "62a785fb1eb8039f",
        "3308af27959bab31", "796fd0183426b94e", "3f6ac875ab565ea3",
    ),
}


def stream_digest(stream) -> str:
    """64-bit SHA-256 prefix over a stream's address, instruction and write arrays."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(stream.addresses, dtype="<u8").tobytes())
    digest.update(np.ascontiguousarray(stream.is_instruction, dtype=np.uint8).tobytes())
    digest.update(np.ascontiguousarray(stream.is_write, dtype=np.uint8).tobytes())
    return digest.hexdigest()[:16]


def test_table_covers_every_workload():
    assert tuple(PINS) == SPEC_LIKE_NAMES + ZOO_NAMES


@pytest.mark.parametrize("name", SPEC_LIKE_NAMES + ZOO_NAMES)
def test_generator_output_is_pinned(name):
    observed = tuple(
        stream_digest(generate_reference_stream(name, length, seed=seed))
        for seed in SEEDS
        for length in LENGTHS
    )
    assert observed == PINS[name]


@pytest.mark.parametrize("name", SPEC_LIKE_NAMES + ZOO_NAMES)
def test_builder_returns_exactly_length_data_refs(name):
    # Lengths below a phased builder's phase count leave some phases empty;
    # zoo mixes interleave their cores only if each returns exactly its share.
    workload = get_workload(name)
    for length in range(1, 65):
        assert workload.build_data(length, 3).size == length
        stream = workload.reference_stream(length, seed=3)
        assert int((~stream.is_instruction).sum()) == length
