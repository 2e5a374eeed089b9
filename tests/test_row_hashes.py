"""Pinned row hashes: ``row_hashes`` and ``checksum_table`` must give the
same digests for fixed seeded token tables across every column layout the
engine meets — one chunk, many chunks, sliced (nonzero offset) arrays,
large_list and int64 tokens, dictionary strings, empty rows and strings, no
rows at all, and a row longer than two hash tiles. perfbench and the
round-trip checks compare these hashes against stored ones, so a change to
the kernel that moves a single bit shows up here."""

import hashlib
import json

import numpy as np
import pyarrow as pa
import pytest

from orc_ray.pipelines.verify import checksum_table, row_hashes
from orc_ray.sources.tokens import synthesize_tokens


def _base() -> pa.Table:
    return synthesize_tokens(300, seed=11, mean_log=4.0)


def _chunked() -> pa.Table:
    t = _base()
    out = pa.concat_tables([t.slice(0, 70), t.slice(70, 1), t.slice(71, 150),
                            t.slice(221)])
    assert out.column("tokens").num_chunks >= 3
    return out


def _cast_tokens(t: pa.Table, typ: pa.DataType) -> pa.Table:
    i = t.column_names.index("tokens")
    return t.set_column(i, "tokens", t.column("tokens").cast(typ))


def _dict_source() -> pa.Table:
    t = _base()
    i = t.column_names.index("source")
    return t.set_column(i, "source", t.column("source").dictionary_encode())


def _empties() -> pa.Table:
    return pa.table({
        "doc_id": pa.array(["", "a", "", "bc", ""], type=pa.string()),
        "tokens": pa.array([[], [1, -2, 3], [], [], [70_000]],
                           type=pa.list_(pa.int32())),
        "n_tok": pa.array([0, 3, 0, 0, 1], type=pa.int32()),
        "source": pa.array(["web", "", "code", "", "web"], type=pa.string()),
    })


def _long_row() -> pa.Table:
    rng = np.random.default_rng(5)
    lens = np.array([3, 2 * 65_536 + 123, 0, 17], dtype=np.int32)
    offsets = np.zeros(len(lens) + 1, dtype=np.int32)
    np.cumsum(lens, out=offsets[1:])
    vals = rng.integers(-2**31, 2**31, int(offsets[-1])).astype(np.int32)
    return pa.table({
        "doc_id": pa.array(["x", "y" * 300, "z", ""], type=pa.string()),
        "tokens": pa.ListArray.from_arrays(pa.array(offsets), pa.array(vals)),
        "n_tok": pa.array(lens, type=pa.int32()),
        "source": pa.array(["web", "books", "code", "web"], type=pa.string()),
    })


CASES = {
    "one_chunk": _base,
    "three_chunks": _chunked,
    "sliced": lambda: _base().slice(37, 150),
    "large_list": lambda: _cast_tokens(_base(), pa.large_list(pa.int32())),
    "list_int64": lambda: _cast_tokens(_base(), pa.list_(pa.int64())),
    "dict_source": _dict_source,
    "empty_rows": _empties,
    "no_rows": lambda: _base().slice(0, 0),
    "long_row": _long_row,
}

# (sha256 of row_hashes(t).tobytes(), sha256 of checksum_table(t) as JSON)
# every layout of the base table hashes like its one-chunk form
_BASE = ("6c601fadc9e624fdbe06300d2b974161967bb44d33a179e8213b76bc9e2ae9c3",
         "a2840cbd2eeb54979a94a7c7c129b5345167ac1af14dd1b2c3ee6606a094162e")
PINNED = {
    "one_chunk": _BASE,
    "three_chunks": _BASE,
    "large_list": _BASE,
    "list_int64": _BASE,
    "dict_source": _BASE,
    "sliced": (
        "9f0d141a4d48134a653bdeb843aa51caf99bfc7bf089ddb0a43b7af73effdfc1",
        "58d621ba63742c8d925d3c1862b012f6ea5f8172fac5062f45f8b487f7572116"),
    "empty_rows": (
        "7ea54b50b963a20ded31ddd522e8958cf34c2e3a848fef0091e053ef3a03af5f",
        "17f5d972d598e41b461d46c6fb5950c8f36a7c2139b293b6726925553b435e9d"),
    "no_rows": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "3718b88e1cad630030d8c67049dc35a6b4e7dc808b3fb1c5b611f12af9686ae7"),
    "long_row": (
        "90c923ab5706fe5509c6b98cf341bf4323767cde60a80b0ae22ca1a4af2bb8c7",
        "937d03d4945f55ba470c4367dbc57f541894582a363da6872249bd047340c8ed"),
}


def _digests(t: pa.Table) -> tuple[str, str]:
    rows = hashlib.sha256(row_hashes(t).tobytes()).hexdigest()
    total = hashlib.sha256(
        json.dumps(checksum_table(t), sort_keys=True).encode()).hexdigest()
    return rows, total


@pytest.mark.parametrize("name", sorted(CASES))
def test_row_hashes_pinned(name):
    assert _digests(CASES[name]()) == PINNED[name]


def test_layouts_hash_like_one_chunk():
    """Chunking, slicing and column types are layout, not content: they
    must not change any row's hash."""
    full = row_hashes(_base())
    assert np.array_equal(row_hashes(_chunked()), full)
    assert np.array_equal(row_hashes(_base().slice(37, 150)), full[37:187])


def _reference(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Plain O(m) form: global powers, one reduceat, inverse-power scaling."""
    from orc_ray.pipelines.verify import _K, _P, _PINV, _pow_mod64

    out = np.zeros(len(offsets) - 1, dtype=np.uint64)
    pw = _pow_mod64(_P, np.arange(len(values)))
    terms = np.multiply(values, pw, dtype=np.uint64, casting="unsafe")
    terms += _K * pw
    nz = np.diff(offsets) > 0
    starts = offsets[:-1][nz]
    if len(starts):
        out[nz] = np.add.reduceat(terms, starts) * _pow_mod64(_PINV, starts)
    return out


def _segmentations(m: int, rng) -> list[np.ndarray]:
    from orc_ray.pipelines.verify import _T

    edges = list(range(_T, m, _T))
    cuts = rng.integers(0, m + 1, size=min(m, 40))
    return [
        np.array([0, m]),                          # one segment, every tile
        np.array([0, 0, m, m]),                    # empty at both ends
        np.sort(np.r_[0, m, cuts]),                # random, repeats = empty
        np.sort(np.r_[0, m, edges, edges, cuts]),  # starts on tile edges
        np.sort(np.r_[0, m, [e - 1 for e in edges], [e + 1 for e in edges]]),
    ]


@pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.int64])
def test_kernel_matches_reference_at_tile_edges(dtype):
    from orc_ray.pipelines.verify import _T, _poly_hash_segments

    rng = np.random.default_rng(21)
    info = np.iinfo(dtype)
    for m in (0, 1, _T - 1, _T, _T + 1, 3 * _T + 7):
        values = rng.integers(info.min, info.max, m, endpoint=True,
                              dtype=dtype)
        for offsets in _segmentations(m, rng):
            offsets = offsets.astype(np.int64)
            assert np.array_equal(_poly_hash_segments(values, offsets),
                                  _reference(values, offsets)), (m, offsets)


def test_row_hashes_memory_is_tile_sized():
    """Hashing a single-chunk ~2.4M-token table allocates no token-sized
    numpy buffer and caches nothing afterwards (numpy reports its buffers
    to tracemalloc)."""
    import tracemalloc

    t = synthesize_tokens(8_000, seed=3)
    assert t.column("tokens").num_chunks == 1
    assert len(t.column("tokens").chunk(0).values) > 2_000_000
    tracemalloc.start()
    try:
        h = row_hashes(t)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(h) == t.num_rows
    assert peak < 8 << 20, peak
    assert held < 1 << 20, held
