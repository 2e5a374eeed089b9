"""Unit tests for the non-RLEv2 codec kernels: byte RLE, boolean bitstream,
frame-of-reference, chunked zlib, dictionary, FSST.

Byte vectors ported from the reference tests:
booleanwriter_test.go:10-42, compressioncodec_test.go:21-46."""

import numpy as np
import pyarrow as pa
import pytest

from orc_ray.codecs import (bitpack, byterle, chunked, dictionary, forpack,
                            fsst, zlibchunk, zstdchunk)


# --- bit packing -------------------------------------------------------------

@pytest.mark.parametrize("width", range(1, 65))
def test_unpack_rows_both_paths(width):
    """unpack_rows inverts pack_bits at every width, on matrices below the
    bitwise path's cutoff (a few values, one row) and above it (the group
    loop: many rows of 200 values)."""
    rng = np.random.default_rng(width)
    top = (1 << width) - 1
    for k, count in [(1, 1), (1, 5), (3, 37), (400, 200)]:
        vals = rng.integers(0, top, (k, count), dtype=np.uint64,
                            endpoint=True)
        data = np.frombuffer(b"".join(bitpack.pack_bits(v, width)
                                      for v in vals), dtype=np.uint8)
        got = bitpack.unpack_rows(data.reshape(k, -1), width, count)
        np.testing.assert_array_equal(got, vals)


# --- byte RLE / boolean ----------------------------------------------------

def test_boolean_vector():
    # {T,F,F,F,F,F,F,F} -> 0xff 0x80 (booleanwriter_test.go:15-23)
    bits = np.array([True] + [False] * 7)
    assert byterle.encode_bools(bits) == bytes([0xFF, 0x80])
    np.testing.assert_array_equal(byterle.decode_bools(bytes([0xFF, 0x80]), 8), bits)


def test_byte_rle_runs():
    arr = np.array([7] * 100, dtype=np.uint8)
    buf = byterle.encode_bytes(arr)
    assert buf == bytes([100 - 3, 7])
    np.testing.assert_array_equal(byterle.decode_bytes(buf), arr)


def test_byte_rle_literals():
    arr = np.arange(200, dtype=np.uint8)
    buf = byterle.encode_bytes(arr)
    # two literal groups: 128 + 72
    assert buf[0] == 256 - 128 and buf[129] == 256 - 72
    np.testing.assert_array_equal(byterle.decode_bytes(buf), arr)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_byte_rle_random_roundtrip(seed):
    rng = np.random.default_rng(seed)
    parts = []
    for _ in range(100):
        parts.append(rng.integers(0, 256, size=rng.integers(1, 50), dtype=np.uint8))
        parts.append(np.full(rng.integers(1, 300), rng.integers(0, 256), dtype=np.uint8))
    arr = np.concatenate(parts)
    np.testing.assert_array_equal(byterle.decode_bytes(byterle.encode_bytes(arr)), arr)


def test_bool_random_roundtrip():
    rng = np.random.default_rng(42)
    bits = rng.random(100_000) < 0.9
    buf = byterle.encode_bools(bits)
    np.testing.assert_array_equal(byterle.decode_bools(buf, len(bits)), bits)


# --- frame of reference ----------------------------------------------------

@pytest.mark.parametrize("lo,hi", [(0, 50257), (-1000, 1000), (10**12, 10**12 + 5),
                                   (-(2**62), 2**62)])
def test_forpack_roundtrip(lo, hi):
    rng = np.random.default_rng(1)
    arr = rng.integers(lo, hi + 1, size=10_000, dtype=np.int64)
    np.testing.assert_array_equal(forpack.decode(forpack.encode(arr)), arr)


def test_forpack_constant_and_empty():
    arr = np.full(100, 42, dtype=np.int64)
    buf = forpack.encode(arr)
    assert len(buf) < 20
    np.testing.assert_array_equal(forpack.decode(buf), arr)
    assert len(forpack.decode(forpack.encode(np.empty(0, np.int64)))) == 0


def test_forpack_int64_extremes():
    arr = np.array([2**63 - 1, -(2**63), 0], dtype=np.int64)
    np.testing.assert_array_equal(forpack.decode(forpack.encode(arr)), arr)


# --- chunked zlib ----------------------------------------------------------

def test_zlib_chunk_headers():
    # compressioncodec_test.go:21-46: len 100000 compressed -> 40 0d 03;
    # len 5 original -> 0b 00 00
    assert chunked.header(100_000, False) == bytes([0x40, 0x0D, 0x03])
    assert chunked.header(5, True) == bytes([0x0B, 0x00, 0x00])


def test_zlib_roundtrip_compressible():
    data = b"hello world " * 50_000
    comp = zlibchunk.compress(data)
    assert len(comp) < len(data) // 10
    assert zlibchunk.decompress(comp) == data


def test_zlib_roundtrip_incompressible():
    rng = np.random.default_rng(9)
    data = rng.integers(0, 256, size=300_000, dtype=np.uint8).tobytes()
    comp = zlibchunk.compress(data)
    # stored chunks: 3-byte header per 256 KiB chunk only
    assert len(comp) <= len(data) + 3 * 3
    assert zlibchunk.decompress(comp) == data


# --- dictionary ------------------------------------------------------------

def test_dictionary_sorted_roundtrip():
    arr = pa.array(["web", "books", "code", "web", "web", "books", "", "zzz"])
    idx, blob, lengths = dictionary.dictionary_encode(arr)
    # dictionary sorted lexicographically: "", books, code, web, zzz
    dict_arr = dictionary.strings_from_blob(blob, lengths)
    assert dict_arr.to_pylist() == ["", "books", "code", "web", "zzz"]
    out = dictionary.dictionary_decode(idx, blob, lengths)
    assert out.to_pylist() == arr.to_pylist()


def test_string_blob_sliced_array():
    arr = pa.array(["aa", "bbb", "c", "dddd"]).slice(1, 2)
    blob, lengths = dictionary.string_blob(arr)
    assert blob == b"bbbc"
    np.testing.assert_array_equal(lengths, [3, 1])


# --- FSST ------------------------------------------------------------------

def _strs_to_blob(strs):
    data = [s.encode() for s in strs]
    blob = np.frombuffer(b"".join(data), dtype=np.uint8)
    offsets = np.zeros(len(data) + 1, dtype=np.int64)
    np.cumsum([len(d) for d in data], out=offsets[1:])
    return blob, offsets


def test_fsst_roundtrip_docids():
    strs = [f"src{i % 20}-{i:012d}" for i in range(5000)]
    blob, offsets = _strs_to_blob(strs)
    comp, comp_lens = fsst.compress_auto(blob, offsets)
    assert len(comp) < len(blob) * 0.7  # must actually compress
    out_blob, out_lens = fsst.decompress(comp, comp_lens)
    assert out_blob == blob.tobytes()
    np.testing.assert_array_equal(out_lens, np.diff(offsets))


def test_fsst_roundtrip_empty_and_binary():
    data = [b"", b"\xff\xff\x00", b"abc", b"", b"\xff" * 20]
    blob = np.frombuffer(b"".join(data), dtype=np.uint8)
    offsets = np.zeros(len(data) + 1, dtype=np.int64)
    np.cumsum([len(d) for d in data], out=offsets[1:])
    comp, comp_lens = fsst.compress_auto(blob, offsets)
    out_blob, out_lens = fsst.decompress(comp, comp_lens)
    assert out_blob == blob.tobytes()
    np.testing.assert_array_equal(out_lens, [len(d) for d in data])


def test_fsst_random_ascii_roundtrip():
    rng = np.random.default_rng(3)
    words = ["alpha", "beta", "gamma", "delta", "tok", "en", "stream"]
    strs = [" ".join(rng.choice(words, size=rng.integers(0, 12))) for _ in range(2000)]
    blob, offsets = _strs_to_blob(strs)
    comp, comp_lens = fsst.compress_auto(blob, offsets)
    out_blob, out_lens = fsst.decompress(comp, comp_lens)
    assert out_blob == blob.tobytes()
    np.testing.assert_array_equal(out_lens, np.diff(offsets))


def test_fsst_empty_table_passthrough():
    # empty symbol table -> everything escaped, still round-trips
    table = fsst.SymbolTable([])
    blob, offsets = _strs_to_blob(["ab", "c"])
    comp, comp_lens = fsst.compress(table, blob, offsets)
    out_blob, out_lens = fsst.decompress(comp, comp_lens)
    assert out_blob == b"abc"
    np.testing.assert_array_equal(out_lens, [2, 1])


def _limit_cases():
    """Seeded string sets for the size-limited compress: empty strings, a
    single string, no strings, an untrained table, and more strings than
    one chunk holds."""
    rng = np.random.default_rng(17)
    words = ["doc", "-", "0000", "web", "books", "x", "zz"]
    many = ["".join(rng.choice(words, size=rng.integers(0, 6)))
            for _ in range(2 * fsst.CHUNK_STRINGS + 37)]
    noise = [bytes(rng.integers(0, 256, rng.integers(0, 40)).astype(np.uint8))
             .decode("latin-1") for _ in range(fsst.CHUNK_STRINGS + 5)]
    return {"empty_strings": [""] * 7, "single": ["web-000000000042"],
            "no_strings": [], "many": many, "noise": noise,
            "mixed": ["", "abc", ""] + many[:50]}


@pytest.mark.parametrize("name", sorted(_limit_cases()))
def test_fsst_limit_is_exact(name):
    """A size-limited compress returns the unlimited output or None, and
    None exactly when that output is larger than the limit; the chunked
    output equals one encode of every string at once."""
    blob, offsets = _strs_to_blob(_limit_cases()[name])
    for table in (fsst.train(blob, offsets) if len(blob) else
                  fsst.SymbolTable([b"ab"]), fsst.SymbolTable([])):
        comp, comp_lens = fsst.compress(table, blob, offsets)
        whole, whole_lens = fsst._compress_chunk(table, blob, offsets)
        assert comp == table.serialize() + whole
        np.testing.assert_array_equal(comp_lens, whole_lens)
        size = len(comp)
        rng = np.random.default_rng(size)
        limits = {0, size - 1, size, size + 1, 2 * size,
                  *rng.integers(0, 2 * size + 2, 20).tolist()}
        for limit in sorted(limits):
            got = fsst.compress(table, blob, offsets, limit=limit)
            if size > limit:
                assert got is None, (limit, size)
            else:
                assert got is not None, (limit, size)
                assert got[0] == comp
                np.testing.assert_array_equal(got[1], comp_lens)


def _parent_encode_blob(blob, lengths, candidates):
    """The string-blob selection before size-limited FSST: every candidate
    encoded in full, in list order, a later one replacing the best only
    when strictly smaller. The chunked kinds compress in the encoder's
    string payload chunks."""
    from orc_ray.codecs import BLOB_CHUNK, CHUNKED_KINDS

    arr = np.frombuffer(blob, dtype=np.uint8)
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    best = ("none", blob, lengths, len(blob))
    for cand in candidates:
        if cand in CHUNKED_KINDS:
            z = CHUNKED_KINDS[cand].module.compress(blob, BLOB_CHUNK)
            if len(z) < best[3]:
                best = (cand, z, lengths, len(z))
        elif cand == "fsst":
            comp, comp_lens = fsst.compress(fsst.train(arr, offsets), arr,
                                            offsets)
            if len(comp) < best[3]:
                best = ("fsst", comp, comp_lens, len(comp))
    return best[0], best[1], best[2]


def _blob_cases():
    from orc_ray.sources.tokens import synthesize_tokens

    rng = np.random.default_rng(5)
    table = synthesize_tokens(6000, seed=3, mean_log=1.5)
    vocab = ["".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz"), 8))
             for _ in range(50)]
    return {
        # zstd wins
        "doc_id": table.column("doc_id").to_pylist(),
        # FSST wins: three of 50 random 8-letter words per string
        "words": ["".join(rng.choice(vocab, 3)) for _ in range(2000)],
        # raw wins
        "noise": [bytes(rng.integers(0, 256, 9).astype(np.uint8))
                  .decode("latin-1") for _ in range(40)],
        "one": ["a"],
    }


@pytest.mark.parametrize("candidates", [("fsst", "zstd", "none"),
                                        ("zstd", "fsst", "none"),
                                        ("fsst",)])
def test_encode_blob_matches_full_trial(candidates):
    """_encode_blob, which runs the chunked kinds first and stops FSST once
    it cannot win, chooses the same codec, payload and lengths as encoding
    every candidate in full."""
    from orc_ray.codecs.dictionary import string_blob
    from orc_ray.config import EncoderConfig
    from orc_ray.stripe import _encode_blob

    config = EncoderConfig(string_blob_candidates=candidates)
    winners = set()
    for strs in _blob_cases().values():
        blob, lengths = string_blob(pa.array(strs, pa.string()))
        got = _encode_blob(blob, lengths, config)
        want = _parent_encode_blob(blob, lengths, candidates)
        assert got[0] == want[0] and got[1] == want[1]
        np.testing.assert_array_equal(got[2], want[2])
        winners.add(got[0])
    assert winners == ({"fsst", "none"} if candidates == ("fsst",)
                       else {"fsst", "zstd", "none"})


def test_fsst_trial_stops_within_one_chunk(monkeypatch):
    """On a doc_id column where zstd wins, the FSST trial tokenizes at most
    one chunk of strings outside training."""
    from orc_ray.codecs.dictionary import string_blob
    from orc_ray.config import EncoderConfig
    from orc_ray.sources.tokens import synthesize_tokens
    from orc_ray.stripe import _encode_blob

    stripe = synthesize_tokens(50_000, seed=1, mean_log=1.5)
    blob, lengths = string_blob(stripe.column("doc_id"))
    training, seen = [False], []
    train, tokenize = fsst.train, fsst._tokenize

    def counting_train(*args, **kwargs):
        training[0] = True
        try:
            return train(*args, **kwargs)
        finally:
            training[0] = False

    def counting_tokenize(table, blob, offsets):
        if not training[0]:
            seen.append(len(offsets) - 1)
        return tokenize(table, blob, offsets)

    monkeypatch.setattr(fsst, "train", counting_train)
    monkeypatch.setattr(fsst, "_tokenize", counting_tokenize)
    codec, _, _ = _encode_blob(blob, lengths, EncoderConfig())
    assert codec == "zstd"
    assert sum(seen) <= fsst.CHUNK_STRINGS, seen


# --- cardinality sketch ----------------------------------------------------

def test_cardinality_sketch_accuracy():
    import pyarrow as pa

    from orc_ray.codecs.dictionary import string_hashes64
    from orc_ray.selector import CardinalitySketch

    for true_n in (5, 100, 3000, 40000):
        sk = CardinalitySketch()
        vals = [f"value-{i % true_n:08d}" for i in range(true_n * 2)]
        # feed in two batches (cross-batch merge is the point)
        for half in (vals[: true_n], vals[true_n:]):
            sk.add_hashes(string_hashes64(pa.array(half)))
        est = sk.estimate()
        assert abs(est - true_n) / true_n < 0.15, (true_n, est)


# --- snappy blocks (pyarrow's native codec) in ORC chunk framing --------
# The handcrafted blocks below hold tag forms pyarrow's encoder may never
# write, but old or foreign streams may.

def _snappy_varint(n):
    out = bytearray()
    while True:
        b = n & 0x7F
        n >>= 7
        out.append(b | (0x80 if n else 0))
        if not n:
            return out


def test_snappy_literal_only():
    from orc_ray.codecs import snappyblock

    payload = b"hello world"
    # varint len + literal tag ((len-1)<<2) + bytes
    raw = bytes([len(payload)]) + bytes([(len(payload) - 1) << 2]) + payload
    assert bytes(snappyblock._decompress_block(raw, None)) == payload


def test_snappy_copy_with_overlap():
    from orc_ray.codecs import snappyblock

    # "abcabcabcabc": literal "abc" then overlapping copy len=9 offset=3
    # copy-1-byte-offset tag: kind 01, len 4..11 -> (len-4)<<2 | 1,
    # offset high 3 bits in tag<<5, low byte follows
    out = b"abc" + b"abcabcabc"
    raw = bytes([len(out)])
    raw += bytes([(3 - 1) << 2]) + b"abc"
    raw += bytes([((9 - 4) << 2) | 1 | ((3 >> 8) << 5), 3 & 0xFF])
    assert bytes(snappyblock._decompress_block(raw, None)) == out


def test_snappy_two_byte_offset_and_long_literal():
    from orc_ray.codecs import snappyblock

    lit = bytes(range(256)) * 2  # 512-byte literal needs the 60+ length form
    out = lit + lit[:64]
    raw = _snappy_varint(len(out))
    raw.append((61 << 2))  # literal, 2 extra length bytes
    raw += (len(lit) - 1).to_bytes(2, "little")
    raw += lit
    raw.append(((64 - 1) << 2) | 2)  # copy, 2-byte offset (max len 64)
    raw += (512).to_bytes(2, "little")
    assert bytes(snappyblock._decompress_block(bytes(raw), None)) == out


def test_snappy_four_byte_offset_copy():
    from orc_ray.codecs import snappyblock

    # tag kind 3: copy with a 4-byte little-endian offset, reaching past
    # the 64 KiB a 2-byte offset can address
    head = b"0123456789abcdef"
    filler = bytes(range(256)) * 300  # 76,800 literal bytes
    out = head + filler + head
    raw = _snappy_varint(len(out))
    raw.append(15 << 2)  # literal of 16
    raw += head
    raw.append(62 << 2)  # literal, 3 extra length bytes
    raw += (len(filler) - 1).to_bytes(3, "little")
    raw += filler
    raw.append(((16 - 1) << 2) | 3)
    raw += (len(head) + len(filler)).to_bytes(4, "little")
    assert bytes(snappyblock._decompress_block(bytes(raw), None)) == out
    framed = chunked.header(len(raw), False) + bytes(raw)
    assert bytes(snappyblock.decompress(framed)) == out
    assert bytes(snappyblock.decompress(framed, len(out), 2 ** 17)) == out


def test_snappy_orc_framing():
    from orc_ray.codecs import snappyblock

    payload = b"framed bytes"
    # original (uncompressed) chunk: header (len<<1)|1
    h = (len(payload) << 1) | 1
    framed = bytes([h & 0xFF, (h >> 8) & 0xFF, (h >> 16) & 0xFF]) + payload
    assert snappyblock.decompress(framed) == payload


def test_snappy_corrupt_chunk_raises():
    from orc_ray.codecs import snappyblock

    data = b"The quick brown fox " * 200
    framed = snappyblock.compress(data)
    length, original = chunked._read_header(memoryview(framed), 0)
    assert not original and 3 + length == len(framed)
    block = framed[3:]
    assert block[:2] == bytes(_snappy_varint(len(data)))
    for bad in (block[:-5],                                # truncated
                block[:2] + b"\xff" * (len(block) - 2),    # garbled tags
                b"\xff" * 9 + b"\x01" + block[2:]):        # garbled size
        bad_framed = chunked.header(len(bad), False) + bad
        with pytest.raises((OSError, ValueError)):
            snappyblock.decompress(bad_framed, len(data))
        with pytest.raises((OSError, ValueError)):
            snappyblock.decompress(bad_framed)


def test_snappy_raw_length_mismatch_raises():
    from orc_ray.codecs import snappyblock

    # pyarrow pads a snappy block to any size it is asked for; a stream
    # whose recorded raw_length disagrees with its blocks must fail, not
    # read as padded bytes
    data = b"hello world, hello world! " * 40
    framed = snappyblock.compress(data)
    assert bytes(snappyblock.decompress(framed, len(data))) == data
    with pytest.raises(ValueError):
        snappyblock.decompress(framed, len(data) + 10)
    two = snappyblock.compress(data * 30, 4096)  # several chunks
    with pytest.raises(ValueError):
        snappyblock.decompress(two, len(data) * 30 + 10, 4096)


def test_snappy_encoder_roundtrips():
    import numpy as np

    from orc_ray.codecs import snappyblock as sb

    rng = np.random.default_rng(5)
    cases = [
        b"",
        b"abc",
        b"aaaa",
        b"abcd" * 1000,                      # long match chains, 64+ splits
        bytes(rng.integers(0, 256, 5000, dtype=np.uint8)),   # incompressible
        b"x" * 67,                           # the 65..67 copy-split edge
        b"The quick brown fox " * 37,
        # far-back match (> 64 KiB offset)
        b"PATTERN-0123456789" * 4
        + bytes(rng.integers(0, 256, 70000, dtype=np.uint8))
        + b"PATTERN-0123456789" * 4,
    ]
    for data in cases:
        assert bytes(sb.decompress(sb.compress(data))) == data
        assert bytes(sb.decompress(sb.compress(data), len(data))) == data
    rep = b"hello world, hello world, hello world! " * 500
    assert len(sb.compress(rep)) < len(rep) // 2
    # multi-chunk framing
    big = (b"seed" + bytes(rng.integers(0, 256, 300_000, dtype=np.uint8))) * 2
    assert sb.decompress(sb.compress(big)) == big
    assert sb.decompress(sb.compress(big), len(big)) == big


def test_snappy_outer_stripe_roundtrip():
    from orc_ray.config import EncoderConfig
    from orc_ray.sources.tokens import synthesize_tokens
    from orc_ray.stripe import decode_blob, encode_table

    t = synthesize_tokens(400, seed=31)
    blob, meta = encode_table(t, EncoderConfig(outer_compression="snappy"))
    assert any(s["outer"] == "snappy" for s in meta["streams"])
    got = decode_blob(blob, meta)
    assert got.equals(t) or got.cast(t.schema).equals(t)


def test_chunked_kinds_share_framing():
    """Every chunked kind frames the same way: compress_parts equals
    compress of the joined parts, each chunk found through chunk_offsets
    decodes on its own, and a sized decompress equals an unsized one."""
    from orc_ray.codecs import CHUNKED_KINDS

    rng = np.random.default_rng(4)
    parts = [b"head", bytes(rng.integers(0, 8, 150_000, dtype=np.uint8)),
             b"x" * 70_000]
    data = b"".join(parts)
    csize = 64 * 1024
    for name, kind in CHUNKED_KINDS.items():
        comp = kind.module.compress(data, csize)
        assert kind.module.compress_parts(parts, csize) == comp, name
        assert kind.module.decompress(comp, len(data), csize) == data, name
        offs = chunked.chunk_offsets(comp)
        assert len(offs) == -(-len(data) // csize)
        one = comp[offs[1]: offs[2]]
        assert kind.module.decompress(one, csize, csize) == \
            data[csize: 2 * csize], name
    assert zlibchunk.decompress(zlibchunk.compress(data)) == data
    zcomp = zstdchunk.compress(data, csize)
    c2 = chunked.chunk_offsets(zcomp)[2]
    assert zstdchunk.decompress_chunks(
        zcomp[c2:], [csize, len(data) - 3 * csize]) == data[2 * csize:]


# --- pinned hash and pack kernels -------------------------------------------

def _pin_strings() -> pa.Array:
    rng = np.random.default_rng(14)
    alph = np.array(list("abcdefghij klmnop-_0123456789") + ["é", "中", "ß"])
    vals = ["".join(rng.choice(alph, size=int(n)))
            for n in rng.integers(0, 40, 400)]
    vals[3] = None
    vals[17] = ""
    return pa.array(vals, pa.string())


def _pin_texts() -> pa.Array:
    rng = np.random.default_rng(15)
    words = [f"w{j}" for j in range(60)] + ["", "alpha", "beta"]
    texts = [" ".join(rng.choice(words, int(n))) for n in
             rng.integers(0, 30, 200)]
    texts[:3] = ["", "one", "one two"]
    return pa.array(texts, pa.string())


def _pin_long() -> pa.Array:
    rng = np.random.default_rng(16)
    big = [bytes(rng.integers(97, 123, n, dtype=np.uint8)).decode()
           for n in (70_000, 2 * 65_536 + 5, 65_536)]
    return pa.array(["x", big[0], "", big[1], "yz", big[2]], pa.string())


def _pin_cases():
    from orc_ray.codecs import bloom
    from orc_ray.functions import dedup, texthash
    from orc_ray.functions.text import fingerprint_batch
    from orc_ray.sources.tokens import tokenize_text_column

    s = _pin_strings()
    texts = _pin_texts()
    docs = pa.table({"doc_id": pa.array(np.arange(len(texts)), pa.int64()),
                     "text": texts})
    h64 = dictionary.string_hashes64
    rng = np.random.default_rng(17)
    ints = rng.integers(-2**63, 2**63, 3000, dtype=np.int64,
                        endpoint=False)
    return {
        "hash_empty": lambda: (h64(pa.array([], pa.string())),
                               h64(pa.chunked_array([], pa.string())),
                               h64(pa.array(["", None, ""], pa.string()))),
        "hash_plain": lambda: h64(s),
        "hash_sliced": lambda: h64(s.slice(7, 300)),
        "hash_chunked": lambda: h64(pa.chunked_array(
            [s.slice(0, 50), s.slice(50, 1), s.slice(51)])),
        "hash_large_string": lambda: h64(s.cast(pa.large_string())),
        "hash_over_64k": lambda: h64(_pin_long()),
        "hash_long_sliced": lambda: h64(_pin_long().slice(1, 4)),
        "bloom_strings": lambda: bloom.build(bloom.hash_strings(s)),
        "bloom_ints": lambda: bloom.build(bloom.hash_ints(ints)),
        "shingle_sets": lambda: texthash.shingle_sets(texts),
        "word_hashes31": lambda: texthash.word_hashes31(s),
        "bpe_token_counts": lambda: texthash.bpe_token_counts(texts),
        "band_rows": lambda: dedup.band_rows_batch(docs).column("bucket"),
        "band_rows_sketched": lambda: dedup.band_rows_batch(
            dedup.shingle_sketch_batch(docs)).column("bucket"),
        "simhash_parts": lambda: dedup.simhash_chunk_rows(pa.table({
            "doc_id": docs.column("doc_id"),
            "simhash": pa.array(texthash.simhash_signatures(texts)
                                .view(np.int64))})).column("part"),
        "tokenize": lambda: tokenize_text_column(texts.slice(5)),
        "rolling64": lambda: fingerprint_batch(docs).column("rolling64"),
    }


def _pin_bytes(x) -> bytes:
    if isinstance(x, (bytes, bytearray)):
        return bytes(x)
    if isinstance(x, tuple):
        return b"|".join(_pin_bytes(p) for p in x)
    if isinstance(x, (pa.Array, pa.ChunkedArray)):
        x = x.to_numpy(zero_copy_only=False)
    return np.ascontiguousarray(x).tobytes()


_KERNEL_PINS = {
    "band_rows":
        "38a5df44c49d1acdea4d42f96be3ca2a056c8b2d7b8ab879a8a0d90e1bf2bfc3",
    "band_rows_sketched":
        "38a5df44c49d1acdea4d42f96be3ca2a056c8b2d7b8ab879a8a0d90e1bf2bfc3",
    "bloom_ints":
        "2bfd8fe72f7363a2ed56cfe1d02612c101a61f828b56cf5fc4e06ba57a31a179",
    "bloom_strings":
        "f79381027457a0ab441b9c63f93e8eaf2c361206d91f3e2f82845bdb5327fd20",
    "bpe_token_counts":
        "86770332d18b2cd9fa1b288953aaaeae5345f84f49c67be56db40bf5c4f949cb",
    "hash_chunked":
        "0b69f9a6638d4f76b0e2116177e9774a686eb91c1af25d24af4873095d8d3424",
    "hash_empty":
        "115a8903e664ecb7b4239c02ddb86b1f2264737a77a810cd156031f9ae676149",
    "hash_large_string":
        "0b69f9a6638d4f76b0e2116177e9774a686eb91c1af25d24af4873095d8d3424",
    "hash_long_sliced":
        "3fca99d2137f3a84bc2eec3f949520e19a5e2702e7d5a739f9e55e8c0a292cb6",
    "hash_over_64k":
        "539a0dae6731df4a2307b1cc9b845efd4eb1b27aac19193d45f7d84807ff8056",
    "hash_plain":
        "0b69f9a6638d4f76b0e2116177e9774a686eb91c1af25d24af4873095d8d3424",
    "hash_sliced":
        "fea3e08b779029fbe163276aa9a6767ae6362542c262e7d60b9ab75daf13de43",
    "pack_int64":
        "9abc01d0a8bc8385af7f7bcaa131b727315788bd9c8e2df5325402d80a34d147",
    "pack_uint32":
        "6002f7ade10411415b32d946f74acdd39e618e18a62a960f4e6c623aa03cf6c6",
    "pack_uint64":
        "9abc01d0a8bc8385af7f7bcaa131b727315788bd9c8e2df5325402d80a34d147",
    "rolling64":
        "8d7c355f8679429261627f8ef1b0db00214c1d1291fa82b52d378454e278c966",
    "shingle_sets":
        "c7691ffe825b81dd5c394a35ace3aa8feb1699116ac92e53e57879fa87bc9f4f",
    "simhash_parts":
        "9d88ae8b89c1ccb6da9667f27467a8833cf5ffce0b55ce0e1638c54e0e407e3b",
    "tokenize":
        "d37ae48c2f293be2bc5d7c4e81a1c95a3b3ea595b1f8ccf53eb60bcdce19bcfc",
    "word_hashes31":
        "349f270b14f46ef848805c9e60a01bc5d1e4f6c03c6fe6e22b036e34783c514c",
}


@pytest.mark.parametrize("name", sorted(_KERNEL_PINS))
def test_hash_and_pack_kernels_pinned(name):
    """sha256 pins of the string hash (bloom filters written into blobs
    depend on it), the bloom, shingle, band and simhash keys built on it
    and the other byte-segment kernels, and pack_bits at every width. A
    refactor of any of these kernels must leave every digest as it is."""
    import hashlib

    if name.startswith("pack_"):
        dtype = np.dtype(name.split("_")[1])
        rng = np.random.default_rng(18)
        vals = rng.integers(0, 2**64, 1001, dtype=np.uint64,
                            endpoint=False).astype(dtype)
        got = b"".join(bitpack.pack_bits(vals[:n], w)
                       for w in range(1, 65) for n in (0, 1, 7, 1001))
    else:
        got = _pin_bytes(_pin_cases()[name]())
    assert hashlib.sha256(got).hexdigest() == _KERNEL_PINS[name]
