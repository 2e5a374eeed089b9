"""Conformance: decode the reference's golden Apache-ORC corpus.

Mirrors /root/reference/orc_test.go:14-131 (TestReadExamples): decode
examples/*.orc with the foreign-ORC reader and compare every row against
examples/expected/*.jsn.gz.  The reference only enables 7 of the files in
its own suite; this harness compares ALL 23 that have golden JSON
(including LZO, via the pure-python lzo1x decoder), plus a v11-vs-v12
cross-check of the two demo files and the version-rejection test for
version1999.orc.

No Ray needed — decode is in-process (the distributed path is covered by
test_read_orc_dataset in test_orc_import.py).
"""

from __future__ import annotations

import gzip
import json
import math
import os
from datetime import date, datetime, timezone
from decimal import Decimal

import numpy as np
import pyarrow as pa
import pytest

from orc_ray.sources.orcfile import ORCFile, OrcType, OrcUnsupportedError

EXAMPLES = "/root/reference/examples"
needs_examples = pytest.mark.skipif(
    not os.path.exists(EXAMPLES),
    reason=f"golden ORC corpus {EXAMPLES} not present")

GOLDEN_FILES = [
    "TestOrcFile.columnProjection",
    "TestOrcFile.emptyFile",
    "TestOrcFile.metaData",
    "TestOrcFile.test1",
    "TestOrcFile.testDate1900",
    "TestOrcFile.testDate2038",
    "TestOrcFile.testMemoryManagementV11",
    "TestOrcFile.testMemoryManagementV12",
    "TestOrcFile.testPredicatePushdown",
    "TestOrcFile.testSeek",
    "TestOrcFile.testSnappy",
    "TestOrcFile.testStringAndBinaryStatistics",
    "TestOrcFile.testStripeLevelStats",
    "TestOrcFile.testTimestamp",
    "TestOrcFile.testUnionAndTimestamp",
    "TestOrcFile.testWithoutIndex",
    "TestVectorOrcFile.testLz4",
    "TestVectorOrcFile.testLzo",
    "decimal",
    "nulls-at-end-snappy",
    "orc-file-11-format",
    "orc_split_elim",
    "over1k_bloom",
]


def _load_golden(name: str) -> list:
    rows = []
    with gzip.open(os.path.join(EXAMPLES, "expected", name + ".jsn.gz"), "rt") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line, parse_float=Decimal))
    return rows


_GOLDEN_TZ = timezone.utc  # set per-file from StripeFooter.writerTimezone


def _parse_ts(s: str) -> int:
    """Golden timestamp string (writer-local wall clock) -> epoch ns."""
    if "." in s:
        main, frac = s.split(".")
    else:
        main, frac = s, "0"
    dt = datetime.strptime(main, "%Y-%m-%d %H:%M:%S").replace(tzinfo=_GOLDEN_TZ)
    return int(dt.timestamp()) * 10 ** 9 + int(frac.ljust(9, "0"))


def _mine_ts_ns(v) -> int:
    if hasattr(v, "value"):  # pandas.Timestamp
        return int(v.value)
    return int(v.replace(tzinfo=timezone.utc).timestamp() * 10 ** 9)


def _compare(mine, golden, t: OrcType, path: str):
    """Schema-driven semantic comparison of one value."""
    if golden is None or mine is None:
        assert golden is None and mine is None, \
            f"{path}: null mismatch mine={mine!r} golden={golden!r}"
        return
    k = t.kind
    if k == 0:
        assert bool(mine) == bool(golden), f"{path}: {mine} != {golden}"
    elif k in (1, 2, 3, 4):
        assert int(mine) == int(golden), f"{path}: {mine} != {golden}"
    elif k == 5:
        g = float(golden)
        assert math.isclose(float(mine), g, rel_tol=1e-6, abs_tol=1e-30), \
            f"{path}: {mine} != {golden}"
    elif k == 6:
        g = float(golden)
        assert math.isclose(float(mine), g, rel_tol=1e-9, abs_tol=1e-300), \
            f"{path}: {mine} != {golden}"
    elif k in (7, 16, 17):
        assert str(mine) == str(golden), f"{path}: {mine!r} != {golden!r}"
    elif k == 8:
        assert list(mine) == [int(x) for x in golden], f"{path}: binary mismatch"
    elif k == 9:
        assert _mine_ts_ns(mine) == _parse_ts(golden), \
            f"{path}: ts {mine} != {golden}"
    elif k == 15:
        d = mine if isinstance(mine, date) else mine.date()
        assert d.isoformat() == golden, f"{path}: date {mine} != {golden}"
    elif k == 14:
        assert Decimal(mine) == Decimal(golden), f"{path}: {mine} != {golden}"
    elif k == 10:
        assert len(mine) == len(golden), f"{path}: list len {len(mine)} != {len(golden)}"
        for i, (m, g) in enumerate(zip(mine, golden)):
            _compare(m, g, t.children[0], f"{path}[{i}]")
    elif k == 11:
        assert len(mine) == len(golden), f"{path}: map len {len(mine)} != {len(golden)}"
        for i, ((mk, mv), g) in enumerate(zip(mine, golden)):
            _compare(mk, g["key"], t.children[0], f"{path}[{i}].key")
            _compare(mv, g.get("value"), t.children[1], f"{path}[{i}].value")
    elif k == 12:
        for name, ch in zip(t.field_names, t.children):
            _compare(mine.get(name), golden.get(name), ch, f"{path}.{name}")
    elif k == 13:
        tag, val = mine
        assert tag == int(golden["tag"]), f"{path}: union tag {tag} != {golden['tag']}"
        _compare(val, golden.get("value"), t.children[tag], f"{path}.value")
    else:
        raise AssertionError(f"unhandled kind {k}")


def _pylist(arr: pa.Array, t: OrcType) -> list:
    """to_pylist that preserves union tags as (tag, value) and map entry
    order as (key, value) tuples."""
    if isinstance(arr, pa.ChunkedArray):
        out = []
        for c in arr.chunks:
            out.extend(_pylist(c, t))
        return out
    k = t.kind
    if k == 13:
        tags = arr.type_codes.to_numpy(zero_copy_only=False)
        offs = np.asarray(arr.offsets)
        null_code = len(t.children)  # trailing "_null" child, see orcfile.py
        kids = [_pylist(arr.field(i), ch) for i, ch in enumerate(t.children)]
        out = []
        for tg, off in zip(tags, offs):
            out.append(None if tg == null_code else (int(tg), kids[tg][off]))
        return out
    if _has_union(t):
        if k == 12:
            cols = [_pylist(arr.field(i), ch) for i, ch in enumerate(t.children)]
            valid = arr.is_valid().to_pylist()
            return [
                dict(zip(t.field_names, vals)) if ok else None
                for ok, vals in zip(valid, zip(*cols))
            ]
        if k == 10:
            child = _pylist(arr.values, t.children[0])
            offs = arr.offsets.to_pylist()
            return [
                child[offs[i]: offs[i + 1]] if v else None
                for i, v in enumerate(arr.is_valid().to_pylist())
            ]
        raise AssertionError("union under unsupported nesting")
    if k == 11:
        return arr.to_pylist()  # map -> list[(k, v)]
    return arr.to_pylist()


def _has_union(t: OrcType) -> bool:
    return t.kind == 13 or any(_has_union(c) for c in t.children)


@needs_examples
@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_golden_corpus(name):
    global _GOLDEN_TZ
    golden = _load_golden(name)
    f = ORCFile(os.path.join(EXAMPLES, name + ".orc"))
    tzname = f.writer_timezone(0)
    if tzname:
        from zoneinfo import ZoneInfo
        _GOLDEN_TZ = ZoneInfo(tzname)
    else:
        _GOLDEN_TZ = timezone.utc
    table = f.read()
    assert table.num_rows == len(golden), \
        f"{name}: {table.num_rows} rows != golden {len(golden)}"
    root = f.schema
    if root.kind == 12:
        cols = {
            nm: _pylist(table.column(nm), ch)
            for nm, ch in zip(root.field_names, root.children)
        }
        for i, grow in enumerate(golden):
            for nm, ch in zip(root.field_names, root.children):
                _compare(cols[nm][i], grow.get(nm), ch, f"{name} row{i} {nm}")
    else:
        mine = _pylist(table.column("_value"), root)
        for i, gval in enumerate(golden):
            _compare(mine[i], gval, root, f"{name} row{i}")


@needs_examples
def test_version1999_rejected():
    with pytest.raises(OrcUnsupportedError):
        ORCFile(os.path.join(EXAMPLES, "version1999.orc"))


def test_unknown_compression_kind_is_clean():
    from orc_ray.sources.orcfile import _decompress

    with pytest.raises(OrcUnsupportedError):
        _decompress(b"\x06\x00\x00abc", 6)


@needs_examples
def test_demo_v11_equals_v12():
    """demo-11 (Hive 0.11 encodings: RLEv1, v1 dictionary) and demo-12
    (Hive 0.12: RLEv2) hold the same 1.9M-row table — decoding both and
    getting identical columns exercises every legacy/modern int+string
    path against each other."""
    a = ORCFile(os.path.join(EXAMPLES, "demo-11-zlib.orc")).read()
    b = ORCFile(os.path.join(EXAMPLES, "demo-12-zlib.orc")).read()
    assert a.num_rows == b.num_rows == 1920800
    assert a.schema.names == b.schema.names
    for col in a.schema.names:
        assert a.column(col).equals(b.column(col)), f"demo col {col} differs"
