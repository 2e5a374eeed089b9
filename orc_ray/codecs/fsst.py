"""FSST: Fast Static Symbol Table string compression.

From-scratch implementation of the published FSST scheme (Boncz, Neumann,
Leis, "FSST: Fast Random Access String Compression", VLDB 2020 — see
PAPERS.md): a table of up to 255 symbols of 1-8 bytes each; every input byte
sequence is greedily replaced by the longest matching symbol code; bytes not
covered by any symbol are escaped as (255, byte). The table is trained by a
few bottom-up iterations that promote frequent adjacent token pairs into
longer symbols.

This codec has no counterpart in the reference repo; the north-star spec
adds it for doc_id/source and dictionary blobs. It is NOT a port: both the
encoder and decoder are vectorized numpy kernels that advance all strings of
a column in lock-step (one fused gather/scatter round per output token
position) instead of per-byte loops.

Wire format of a compressed blob:
  u8 n_symbols | n_symbols x u8 symbol_len | concatenated symbol bytes |
  compressed token bytes
Per-string compressed lengths travel in the column's LENGTH stream.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_U8 = np.uint8
ESCAPE = 255
MAX_SYMBOLS = 255
MAX_SYM_LEN = 8
# strings per compress step: bounds the tokenizer's working arrays and how
# much of an abandoned size-limited trial runs
CHUNK_STRINGS = 2048


class SymbolTable:
    """Immutable trained symbol table."""

    __slots__ = ("symbols", "sym_keys", "sym_codes", "sym_bytes8", "sym_lens")

    def __init__(self, symbols: list[bytes]):
        assert len(symbols) <= MAX_SYMBOLS
        self.symbols = symbols
        # per length L: sorted array of 64-bit big-endian prefix keys + codes
        self.sym_keys: dict[int, np.ndarray] = {}
        self.sym_codes: dict[int, np.ndarray] = {}
        by_len: dict[int, list[tuple[int, int]]] = {}
        for code, s in enumerate(symbols):
            key = int.from_bytes(s.ljust(8, b"\0"), "big") >> (8 * (8 - len(s)))
            by_len.setdefault(len(s), []).append((key, code))
        for L, pairs in by_len.items():
            pairs.sort()
            self.sym_keys[L] = np.array([k for k, _ in pairs], dtype=_U64)
            self.sym_codes[L] = np.array([c for _, c in pairs], dtype=np.int64)
        # decode tables: (256, 8) byte matrix + lengths (escape row unused)
        self.sym_bytes8 = np.zeros((256, MAX_SYM_LEN), dtype=_U8)
        self.sym_lens = np.ones(256, dtype=np.int64)
        for code, s in enumerate(symbols):
            self.sym_bytes8[code, : len(s)] = np.frombuffer(s, dtype=_U8)
            self.sym_lens[code] = len(s)

    def serialize(self) -> bytes:
        out = bytearray([len(self.symbols)])
        out.extend(len(s) for s in self.symbols)
        for s in self.symbols:
            out.extend(s)
        return bytes(out)

    @classmethod
    def deserialize(cls, buf, pos: int = 0) -> tuple["SymbolTable", int]:
        n = buf[pos]
        pos += 1
        lens = list(buf[pos: pos + n])
        pos += n
        symbols = []
        for l in lens:
            symbols.append(bytes(buf[pos: pos + l]))
            pos += l
        return cls(symbols), pos


def _rolling_keys(blob: np.ndarray) -> np.ndarray:
    """64-bit big-endian value of the 8 bytes starting at each position
    (zero-padded past the end)."""
    n = len(blob)
    pad = np.zeros(n + 7, dtype=_U8)
    pad[:n] = blob
    key = np.zeros(n, dtype=_U64)
    for j in range(8):
        key |= pad[j: j + n].astype(_U64) << _U64(8 * (7 - j))
    return key


def _match(table: SymbolTable, blob: np.ndarray, remaining: np.ndarray):
    """Longest-match per position: returns (best_len int64[n] — 0 means no
    symbol, escape — and best_code int64[n])."""
    n = len(blob)
    key = _rolling_keys(blob)
    best_len = np.zeros(n, dtype=np.int64)
    best_code = np.zeros(n, dtype=np.int64)
    for L in range(MAX_SYM_LEN, 0, -1):
        keys = table.sym_keys.get(L)
        if keys is None or not len(keys):
            continue
        kL = key >> _U64(8 * (8 - L))
        idx = np.searchsorted(keys, kL)
        idx[idx == len(keys)] = 0
        hit = (keys[idx] == kL) & (best_len == 0) & (remaining >= L)
        best_len[hit] = L
        best_code[hit] = table.sym_codes[L][idx[hit]]
    return best_len, best_code


def _tokenize(table: SymbolTable, blob: np.ndarray, offsets: np.ndarray):
    """Greedy-encode all strings in lock-step. Returns token arrays sorted by
    (string, position): (tok_str, tok_code, tok_lit, tok_is_esc)."""
    nstr = len(offsets) - 1
    lengths = np.diff(offsets)
    ends_per_pos = np.repeat(offsets[1:], lengths)
    remaining = ends_per_pos - np.arange(len(blob), dtype=np.int64)
    best_len, best_code = _match(table, blob, remaining)

    active = offsets[:-1].astype(np.int64).copy()
    strid = np.arange(nstr, dtype=np.int64)
    ends = offsets[1:].astype(np.int64)
    alive = active < ends
    active, strid, ends = active[alive], strid[alive], ends[alive]

    rounds_str, rounds_code, rounds_lit, rounds_esc, rounds_k = [], [], [], [], []
    k = 0
    while len(active):
        bl = best_len[active]
        esc = bl == 0
        rounds_str.append(strid.copy())
        rounds_code.append(best_code[active])
        rounds_lit.append(blob[active].astype(np.int64))
        rounds_esc.append(esc)
        rounds_k.append(np.full(len(active), k, dtype=np.int64))
        active = active + np.where(esc, 1, bl)
        keep = active < ends
        active, strid, ends = active[keep], strid[keep], ends[keep]
        k += 1
    if not rounds_str:
        z = np.empty(0, dtype=np.int64)
        return z, z, z, z.astype(bool)
    tok_str = np.concatenate(rounds_str)
    tok_code = np.concatenate(rounds_code)
    tok_lit = np.concatenate(rounds_lit)
    tok_esc = np.concatenate(rounds_esc)
    tok_k = np.concatenate(rounds_k)
    order = np.lexsort((tok_k, tok_str))
    return tok_str[order], tok_code[order], tok_lit[order], tok_esc[order]


def compress(table: SymbolTable, blob: np.ndarray, offsets: np.ndarray,
             limit: int | None = None):
    """Compress strings (concatenated `blob` uint8 + int64 `offsets`).
    Returns (compressed bytes incl. serialized table, per-string compressed
    lengths int64), or None once the output is certain to exceed `limit`
    bytes.

    Strings encode independently, so they are encoded CHUNK_STRINGS at a
    time and the chunks concatenated; the bytes equal a one-shot encode.
    Before each chunk the final size is bounded from below by the exact
    bytes so far plus one token byte per longest-symbol span of every
    string still to do, and the trial is abandoned when that bound
    exceeds `limit`."""
    blob = np.ascontiguousarray(blob, dtype=_U8)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    header = table.serialize()
    nstr = len(offsets) - 1
    limit = np.inf if limit is None else limit
    # rest[i]: fewest token bytes strings i.. can take (a token byte covers
    # at most the longest symbol; an escape takes two bytes for one)
    longest = max((len(sym) for sym in table.symbols), default=1)
    rest = np.zeros(nstr + 1, dtype=np.int64)
    np.cumsum((-(-np.diff(offsets) // longest))[::-1], out=rest[-2::-1])
    parts, part_lengths = [header], []
    done = len(header)
    for lo in range(0, nstr, CHUNK_STRINGS):
        if done + rest[lo] > limit:
            return None
        hi = min(lo + CHUNK_STRINGS, nstr)
        out, comp_lengths = _compress_chunk(
            table, blob[offsets[lo]: offsets[hi]], offsets[lo: hi + 1] - offsets[lo])
        parts.append(out)
        part_lengths.append(comp_lengths)
        done += len(out)
    if done > limit:
        return None
    return (b"".join(parts),
            np.concatenate(part_lengths) if part_lengths
            else np.zeros(0, dtype=np.int64))


def _compress_chunk(table: SymbolTable, blob: np.ndarray, offsets: np.ndarray):
    """Token bytes and per-string compressed lengths of one run of strings
    (`offsets` starting at 0)."""
    tok_str, tok_code, tok_lit, tok_esc = _tokenize(table, blob, offsets)
    nstr = len(offsets) - 1
    tok_bytes = 1 + tok_esc.astype(np.int64)
    comp_lengths = np.bincount(tok_str, weights=tok_bytes, minlength=nstr).astype(np.int64)
    total = int(tok_bytes.sum())
    out = np.empty(total, dtype=_U8)
    starts = np.zeros(len(tok_str), dtype=np.int64)
    if len(starts) > 1:
        np.cumsum(tok_bytes[:-1], out=starts[1:])
    first = np.where(tok_esc, ESCAPE, tok_code)
    out[starts] = first.astype(_U8)
    esc_idx = np.flatnonzero(tok_esc)
    out[starts[esc_idx] + 1] = tok_lit[esc_idx].astype(_U8)
    return out.tobytes(), comp_lengths


def decompress(buf: bytes, comp_lengths: np.ndarray):
    """Inverse of compress. Returns (decoded blob bytes, per-string decoded
    lengths int64)."""
    table, pos = SymbolTable.deserialize(buf, 0)
    data = np.frombuffer(buf, dtype=_U8, offset=pos)
    return decompress_with_table(table, data, comp_lengths)


def decompress_with_table(table: SymbolTable, data: np.ndarray,
                          comp_lengths: np.ndarray):
    """Decode compressed token bytes (header already stripped/parsed) —
    the entry point for byte-range reads, where the symbol table and an
    arbitrary slice of the token stream are fetched separately."""
    data = np.ascontiguousarray(data, dtype=_U8)
    comp_lengths = np.ascontiguousarray(comp_lengths, dtype=np.int64)
    nstr = len(comp_lengths)
    offsets = np.zeros(nstr + 1, dtype=np.int64)
    np.cumsum(comp_lengths, out=offsets[1:])

    active = offsets[:-1].copy()
    strid = np.arange(nstr, dtype=np.int64)
    ends = offsets[1:].copy()
    alive = active < ends
    active, strid, ends = active[alive], strid[alive], ends[alive]

    rounds = []
    k = 0
    pad = np.zeros(len(data) + 1, dtype=_U8)
    pad[: len(data)] = data
    while len(active):
        code = data[active].astype(np.int64)
        esc = code == ESCAPE
        lit = pad[active + 1].astype(np.int64)
        rounds.append((strid.copy(), np.full(len(active), k, np.int64), code, lit, esc))
        active = active + np.where(esc, 2, 1)
        keep = active < ends
        active, strid, ends = active[keep], strid[keep], ends[keep]
        k += 1
    if not rounds:
        return b"", np.zeros(nstr, dtype=np.int64)
    tok_str = np.concatenate([r[0] for r in rounds])
    tok_k = np.concatenate([r[1] for r in rounds])
    tok_code = np.concatenate([r[2] for r in rounds])
    tok_lit = np.concatenate([r[3] for r in rounds])
    tok_esc = np.concatenate([r[4] for r in rounds])
    order = np.lexsort((tok_k, tok_str))
    tok_str, tok_code, tok_lit, tok_esc = (
        tok_str[order], tok_code[order], tok_lit[order], tok_esc[order])

    out_len = np.where(tok_esc, 1, table.sym_lens[tok_code])
    out_lengths = np.bincount(tok_str, weights=out_len, minlength=nstr).astype(np.int64)
    total = int(out_len.sum())
    out = np.empty(total + MAX_SYM_LEN, dtype=_U8)  # slack for 8-byte scatter
    starts = np.zeros(len(tok_str), dtype=np.int64)
    if len(starts) > 1:
        np.cumsum(out_len[:-1], out=starts[1:])
    # escaped literals: write directly
    esc_idx = np.flatnonzero(tok_esc)
    out[starts[esc_idx]] = tok_lit[esc_idx].astype(_U8)
    # symbol tokens: masked scatter, one round per symbol byte position
    sym_idx = np.flatnonzero(~tok_esc)
    sym_starts = starts[sym_idx]
    sym_codes = tok_code[sym_idx]
    sym_lens = out_len[sym_idx]
    for j in range(MAX_SYM_LEN):
        m = sym_lens > j
        if not m.any():
            break
        out[sym_starts[m] + j] = table.sym_bytes8[sym_codes[m], j]
    return out[:total].tobytes(), out_lengths


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def train_sample(blob: np.ndarray, offsets: np.ndarray,
                 sample_bytes: int = 1 << 16):
    """The strings ``train`` learns from: the first ones covering at most
    ``sample_bytes`` (at least one), copied so the rest of ``blob`` can
    be freed. Returns (blob, offsets)."""
    blob = np.ascontiguousarray(blob, dtype=_U8)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    if offsets[-1] > sample_bytes:
        offsets = offsets[: max(int(np.searchsorted(offsets, sample_bytes)), 2)]
    return blob[: offsets[-1]].copy(), offsets.copy()


def may_fit(blob: np.ndarray, offsets: np.ndarray, limit: int) -> bool:
    """False when ``compress`` returns None under every symbol table, so
    a size-limited trial need not train one. Two lower bounds on the
    output size hold for any table. A token byte covers at most
    MAX_SYM_LEN string bytes, and the header takes at least one byte.
    And a symbol stores its own bytes in the header, so it saves bytes
    only by repeating: the output is at least the input plus one byte,
    less one byte per string position whose byte pair (both bytes in the
    string) occurs at two or more positions."""
    lengths = np.diff(offsets)
    if 1 + int((-(-lengths // MAX_SYM_LEN)).sum()) > limit:
        return False
    pairs = (blob[:-1].astype(np.int32) << 8) | blob[1:]
    inner = np.ones(len(pairs), dtype=bool)  # both bytes in one string
    cut = offsets[1:-1]
    inner[cut[(cut > 0) & (cut < len(blob))] - 1] = False
    counts = np.bincount(pairs[inner], minlength=1 << 16)
    return len(blob) + 1 - int(counts[counts > 1].sum()) <= limit


def train(blob: np.ndarray, offsets: np.ndarray, iterations: int = 5,
          sample_bytes: int = 1 << 16) -> SymbolTable:
    """Train a symbol table bottom-up on ``train_sample``: encode the
    sample with the current table, promote frequent tokens and frequent
    adjacent token pairs (concat <= 8 bytes) into the next table, keep
    the top 255 by gain = freq * len."""
    blob, offsets = train_sample(blob, offsets, sample_bytes)
    table = SymbolTable([])
    for _ in range(iterations):
        tok_str, tok_code, tok_lit, tok_esc = _tokenize(table, blob, offsets)
        if not len(tok_str):
            break
        # token identity: symbols get their code, literals 256+byte
        ident = np.where(tok_esc, 256 + tok_lit, tok_code)
        gains: dict[bytes, int] = {}

        # single-token frequencies
        uniq, counts = np.unique(ident, return_counts=True)
        for u, c in zip(uniq.tolist(), counts.tolist()):
            s = bytes([u - 256]) if u >= 256 else table.symbols[u]
            gains[s] = gains.get(s, 0) + int(c) * len(s)
        # adjacent pairs within the same string
        same = tok_str[1:] == tok_str[:-1]
        pair_key = ident[:-1].astype(np.int64) * 512 + ident[1:].astype(np.int64)
        pk = pair_key[same]
        if len(pk):
            puniq, pcounts = np.unique(pk, return_counts=True)
            # only consider reasonably frequent pairs
            keep = pcounts >= 2
            for key, c in zip(puniq[keep].tolist(), pcounts[keep].tolist()):
                a, b = key // 512, key % 512
                sa = bytes([a - 256]) if a >= 256 else table.symbols[a]
                sb = bytes([b - 256]) if b >= 256 else table.symbols[b]
                cat = sa + sb
                if len(cat) <= MAX_SYM_LEN:
                    gains[cat] = gains.get(cat, 0) + int(c) * len(cat)
        best = sorted(gains.items(), key=lambda kv: (-kv[1], kv[0]))[:MAX_SYMBOLS]
        table = SymbolTable([s for s, _ in best])
    return table


def compress_auto(blob: np.ndarray, offsets: np.ndarray, iterations: int = 5):
    """Train + compress in one call. No engine path calls it (the string
    blob selector trains through its table cache); perfbench's tracer
    wraps it by name."""
    table = train(blob, offsets, iterations=iterations)
    return compress(table, blob, offsets)
