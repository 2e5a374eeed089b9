"""Pinned RLEv2 bytes for the run kinds the encoder emits in array passes:
PATCHED_BASE scopes (255-gap escapes, a 511 gap, a 64-bit patch width cut
to 56, negative bases, many widths in one stream) and SHORT_REPEAT and
fixed-DELTA runs at every value byte width. Every case also round-trips
and is checked to reach the run kind it pins."""

import hashlib

import numpy as np
import pytest

from orc_ray.codecs import rle2

SCOPE = rle2.MAX_SCOPE


def _base(n, lo=0):
    """``n`` values in [lo, lo + 100]: no two neighbours equal, neither
    monotone nor fixed-delta, so one scope of them is variable."""
    return lo + (np.arange(n, dtype=np.int64) * 37) % 101


def _outlier_scopes(layouts, lo=0, big=1_000_000):
    """One 512-value scope per layout, ``big`` (plus the position) at the
    layout's positions."""
    parts = []
    for pos in layouts:
        v = _base(SCOPE, lo)
        v[list(pos)] = big + np.asarray(pos)
        parts.append(v)
    return np.concatenate(parts)


def _many_widths(signed):
    """64 PATCHED_BASE-prone scopes: base width 1-24 bits, 1-20 outliers
    each, outlier width up to 63 bits; signed scopes sit below zero."""
    rng = np.random.default_rng(20)
    parts = []
    for j in range(64):
        w = 1 + j % 24
        v = rng.integers(0, 1 << w, SCOPE)
        pos = rng.choice(SCOPE, 1 + j % 20, replace=False)
        ow = min(w + 2 + (j * 7) % 40, 63)
        v[pos] = (1 << (ow - 1)) + rng.integers(0, 1 << (ow - 2), len(pos))
        if signed:
            v = v - (1 << (w + 1))
        parts.append(v)
    return np.concatenate(parts)


def _fixed_runs(signed, top_bit):
    """Per bit length b <= ``top_bit`` (and per sign when signed): a
    3-10-value run and an 11-1100-value run of 2^b - 1, so SHORT_REPEAT
    values take 1-8 bytes and fixed-DELTA first values 1-10 varint bytes,
    and a fixed-delta ramp; 3-value runs keep the ramp its own scope."""
    parts = []
    long_runs = (11, 12, 100, 511, 512, 513, 515, 1100)
    for b in range(top_bit + 1):
        for sign in ((1, -1) if signed else (1,)):
            val = sign * ((1 << b) - 1)
            step = (b % 5 + 1) * (-1 if signed and val > 0 else 1)
            sep = np.full(3, b + 7)
            parts += [np.full(3 + b % 8, val), sep,
                      np.full(long_runs[b % 8], val),
                      val + step * np.arange(1, (4, 5, 50, 511)[b % 4] + 1),
                      sep]
    return np.concatenate(parts)


# name -> (values, signed)
CASES = {
    "pb_gap_over_255": lambda: (
        _outlier_scopes([(10, 300), (5, 260, 510), (0, 256, 400)]), False),
    "pb_max_gap_511": lambda: (_outlier_scopes([(0, 511)]), False),
    "pb_patch_width_64": lambda: (
        _outlier_scopes([(3, 40, 41, 200)], big=1 << 62), False),
    "pb_negative_base": lambda: (
        _outlier_scopes([(10, 300), (0, 511), (7,)], lo=-1000), True),
    "pb_many_widths_unsigned": lambda: (_many_widths(False), False),
    "pb_many_widths_signed": lambda: (_many_widths(True), True),
    "fixed_runs_unsigned": lambda: (_fixed_runs(False, 62), False),
    "fixed_runs_signed": lambda: (_fixed_runs(True, 63), True),
}
# int32 input whose value range fits 32-bit delta arithmetic takes the
# encoder's narrow path
NARROW = {
    "pb_gap_over_255_int32": "pb_gap_over_255",
    "pb_max_gap_511_int32": "pb_max_gap_511",
    "pb_negative_base_int32": "pb_negative_base",
}


def _case(name):
    if name in NARROW:
        values, signed = CASES[NARROW[name]]()
        return values.astype(np.int32), signed
    if name == "fixed_runs_unsigned_int32":
        return _fixed_runs(False, 30).astype(np.int32), False
    if name == "fixed_runs_signed_int32":
        return _fixed_runs(True, 29).astype(np.int32), True
    values, signed = CASES[name]()
    return values.astype(np.int64), signed


# run kinds each case must reach
_PB = {rle2.PATCHED_BASE}
_FIXED = {rle2.SHORT_REPEAT, rle2.DELTA}
TAGS = {
    "pb_gap_over_255": _PB, "pb_gap_over_255_int32": _PB,
    "pb_max_gap_511": _PB, "pb_max_gap_511_int32": _PB,
    "pb_patch_width_64": _PB,
    "pb_negative_base": _PB, "pb_negative_base_int32": _PB,
    "pb_many_widths_unsigned": _PB | {rle2.DIRECT},
    "pb_many_widths_signed": _PB | {rle2.DIRECT},
    "fixed_runs_unsigned": _FIXED, "fixed_runs_signed": _FIXED,
    "fixed_runs_unsigned_int32": _FIXED, "fixed_runs_signed_int32": _FIXED,
}

# sha256 of each case's encoding; an int32 case equals its int64 twin
PINNED = {
    "fixed_runs_signed":
        "e0d4c374eb06a07c147dd88100822997c38dca71794270bb8e03341404cafe0b",
    "fixed_runs_signed_int32":
        "bcd3013174f6f4b5cbcbf55e74041c8eda3f781ffff703c874539468b359d9e3",
    "fixed_runs_unsigned":
        "8a9397adbf98ad4c7f12310919afe8a31d57da01380448faa2e2d452568b829d",
    "fixed_runs_unsigned_int32":
        "df55e53585a89283e22bd7042af63f5dc7b72e77383649e7bb4657559a362d94",
    "pb_gap_over_255":
        "c8779a161573f50e8fcc4e7f33262836d2e2edabc81539b74e860113721c09d9",
    "pb_gap_over_255_int32":
        "c8779a161573f50e8fcc4e7f33262836d2e2edabc81539b74e860113721c09d9",
    "pb_many_widths_signed":
        "044c95cbc3e535e40cf4e5993dc98a1e53b40c71306a26f88ea90621baa04796",
    "pb_many_widths_unsigned":
        "ae18540fab33b49a661da5eb1fdce1ba510aa4ae1e8bfc9485c08b97fd41195a",
    "pb_max_gap_511":
        "72e5e8c42699f223c91f4061f82f4bc9411042b106f8d435193069cdaf9d4770",
    "pb_max_gap_511_int32":
        "72e5e8c42699f223c91f4061f82f4bc9411042b106f8d435193069cdaf9d4770",
    "pb_negative_base":
        "be85576b2b7d6933cdabd409f6ed0791a76be6211c1a28f6ec6e640197a44659",
    "pb_negative_base_int32":
        "be85576b2b7d6933cdabd409f6ed0791a76be6211c1a28f6ec6e640197a44659",
    "pb_patch_width_64":
        "d4841e7436e48b017ee2eee8755bb7ad50aee6e402e69323b3f7c70930bf4261",
}


def _encode_checked(values, signed):
    buf = rle2.encode(values, signed)
    np.testing.assert_array_equal(rle2.decode(buf, signed), values)
    return buf


def _runs(buf):
    tags, pos, _, widths, _, _ = rle2._scan_runs(buf)
    return tags, pos, widths


@pytest.mark.parametrize("name", sorted(PINNED))
def test_emission_pinned(name):
    values, signed = _case(name)
    if values.dtype == np.int32:
        assert int(values.max()) - int(values.min()) <= 2**31 - 1
    buf = _encode_checked(values, signed)
    tags, _, _ = _runs(buf)
    assert TAGS[name] <= set(tags.tolist())
    assert hashlib.sha256(buf).hexdigest() == PINNED[name]


def test_patched_base_headers():
    """The PATCHED_BASE header fields the pins rely on: a 255-gap escape,
    two escapes for a 511 gap, a 56-bit patch width from a 64-bit one,
    and a sign-flagged base."""
    def pb_headers(name):
        values, signed = _case(name)
        buf = rle2.encode(values, signed)
        tags, pos, _ = _runs(buf)
        out = []
        for p in pos[tags == rle2.PATCHED_BASE].tolist():
            third, fourth = buf[p + 2], buf[p + 3]
            base_bytes = (third >> 5) + 1
            out.append((rle2.decode_bit_width(third & 0x1F),  # patch width
                        (fourth >> 5) + 1,                   # gap width
                        fourth & 0x1F,                       # patch list
                        buf[p + 4] >> 7, base_bytes))        # base sign
        return out

    gap = pb_headers("pb_gap_over_255")
    assert [h[2] for h in gap] == [3, 3, 4]  # 2 patches + 1 escape, ...
    assert all(h[1] == 8 for h in gap)
    assert [h[2] for h in pb_headers("pb_max_gap_511")] == [4]
    assert [h[0] for h in pb_headers("pb_patch_width_64")] == [56]
    assert all(h[3] == 1 for h in pb_headers("pb_negative_base"))
    for name in ("pb_many_widths_unsigned", "pb_many_widths_signed"):
        values, signed = _case(name)
        tags, _, widths = _runs(rle2.encode(values, signed))
        assert len(set(widths[tags == rle2.PATCHED_BASE].tolist())) >= 10
        assert len({h[:2] for h in pb_headers(name)}) >= 10


def test_fixed_runs_every_byte_width():
    """SHORT_REPEAT values of 1-8 bytes and fixed-DELTA first values of
    1-10 varint bytes all occur."""
    for signed in (False, True):
        values, _ = _case("fixed_runs_signed" if signed
                          else "fixed_runs_unsigned")
        buf = rle2.encode(values, signed)
        tags, pos, widths = _runs(buf)
        assert set(widths[tags == rle2.SHORT_REPEAT].tolist()) == set(range(1, 9))
        first_len = set()
        for p in pos[(tags == rle2.DELTA) & (widths == 0)].tolist():
            e = p + 2
            while buf[e] >= 0x80:
                e += 1
            first_len.add(e - p - 1)
        # an unsigned first value has at most 63 bits: 9 varint bytes
        assert first_len == set(range(1, 11 if signed else 10))


@pytest.mark.parametrize("min_bits, tag", [(55, rle2.PATCHED_BASE),
                                           (56, rle2.DIRECT)])
def test_patched_base_base_limit(tmp_path, min_bits, tag):
    """A PATCHED_BASE base takes at most 8 bytes, sign bit included: a
    scope whose minimum is -2^55 still patches (8-byte base), one whose
    minimum is -2^56 goes DIRECT, as ORC's Java writer does
    (BASE_VALUE_LIMIT). pyarrow's C++ ORC reader reads both back."""
    import pyarrow as pa
    import pyarrow.orc as paorc

    from orc_ray.sources.orcwriter import write_orc_file

    rng = np.random.default_rng(min_bits)
    v = -rng.integers(1, 1 << (min_bits - 2), SCOPE)
    v[5] = -(1 << min_bits)
    v[[100, 300]] = [1 << 62, (1 << 62) + 5]
    buf = _encode_checked(v, True)
    tags, _, _ = _runs(buf)
    assert tags.tolist() == [tag]
    if tag == rle2.PATCHED_BASE:
        assert (buf[2] >> 5) + 1 == 8
    table = pa.table({"x": v})
    path = str(tmp_path / "base.orc")
    write_orc_file(table, path, compression="none")
    assert paorc.read_table(path).equals(table)
