"""Foreign-ORC row-group seek (ORC ROW_INDEX positions).

read_rows() must equal a full-stripe decode + slice for every supported
type, with and without nulls, across compression kinds, at row-group
boundaries and mid-group offsets — and fall back transparently for
nested types and index-less files (golden corpus anchors)."""

import decimal
import os

import numpy as np
import pyarrow as pa
import pyarrow.orc as paorc
import pytest

from orc_ray.sources.orcfile import ORCFile

N = 25000


def _base():
    rng = np.random.default_rng(3)
    n = N
    return {
        "i8": pa.array((np.arange(n) % 120 - 60).astype(np.int8)),
        "i16": pa.array((rng.integers(-3000, 3000, n)).astype(np.int16)),
        "i32": pa.array(rng.integers(-2**30, 2**30, n).astype(np.int32)),
        "i64": pa.array(np.arange(n) * 37, pa.int64()),
        "f32": pa.array(rng.random(n).astype(np.float32)),
        "f64": pa.array(rng.random(n)),
        "b": pa.array((np.arange(n) % 7 < 3)),
        "sdict": pa.array([f"v{j%53}" for j in range(n)]),
        "sdirect": pa.array([f"unique-{j}-{j*j%997}" for j in range(n)]),
        "bin": pa.array([f"B{j%211}".encode() for j in range(n)], pa.binary()),
        "ts": pa.array((1_500_000_000_000_000
                        + np.arange(n) * 1_000_003).astype("datetime64[us]")),
        "date": pa.array((np.arange(n) % 20000).astype("datetime64[D]")),
        "dec": pa.array([decimal.Decimal(int(x)) / 100
                         for x in rng.integers(-10**6, 10**6, n)],
                        pa.decimal128(12, 2)),
    }


def _with_nulls(t):
    cols = {}
    for nm in t.column_names:
        col = t.column(nm)
        mask = (np.arange(N) * 7919 + hash(nm)) % 5 == 0
        cols[nm] = pa.array(
            [None if m else v for v, m in zip(col.to_pylist(), mask)],
            col.type)
    return pa.table(cols)


WINDOWS = [(10000, 20000), (20000, 25000), (10007, 19993), (24990, 25000),
           (0, 5), (9999, 10001), (20000, 20001)]


@pytest.mark.parametrize("nulls,comp", [
    (False, "zlib"), (True, "zlib"),
    (False, "uncompressed"), (True, "snappy"),
])
def test_read_rows_matches_slice(tmp_path, nulls, comp):
    tbl = pa.table(_base())
    if nulls:
        tbl = _with_nulls(tbl)
    dst = str(tmp_path / f"seek_{nulls}_{comp}.orc")
    paorc.write_table(tbl, dst, compression=comp, stripe_size=50_000_000)
    f = ORCFile(dst)
    assert f.row_index_stride == 10000 and len(f.stripes) == 1
    full = f.read_stripe(0)
    for lo, hi in WINDOWS:
        assert f.read_rows(0, lo, hi).equals(full.slice(lo, hi - lo)), \
            (nulls, comp, lo, hi)
    got = f.read_rows(0, 20000, 20010, columns=["i64", "sdirect", "b"])
    cols = sorted(got.column_names)
    assert got.select(cols).equals(full.select(cols).slice(20000, 10))


def test_read_rows_seek_plan_used(tmp_path):
    """Mid-stripe reads must actually take the seek path (positions with
    nonzero skips), not the fallback."""
    tbl = pa.table(_base())
    dst = str(tmp_path / "plan.orc")
    paorc.write_table(tbl, dst, compression="zlib", stripe_size=50_000_000)
    f = ORCFile(dst)
    seek, skips = f._seek_plan(0, None, 2)
    assert seek and any(v for v in skips.values())
    # every positioned stream starts past byte 0 or carries a skip
    assert any(c or d for (c, d) in seek.values())


def test_read_rows_fallback_nested_and_golden():
    """Nested golden file: read_rows falls back to full decode + slice and
    stays row-identical; flat golden split-elim file seeks stripes with a
    single row group."""
    src = "/root/reference/examples/TestOrcFile.testSeek.orc"
    if not os.path.exists(os.path.dirname(src)):
        pytest.skip(f"golden ORC corpus {os.path.dirname(src)} not present")
    f = ORCFile(src)
    full = f.read_stripe(0)
    got = f.read_rows(0, 11000, 11020)
    assert got.equals(full.slice(11000, 20))

    f2 = ORCFile("/root/reference/examples/orc_split_elim.orc")
    full2 = f2.read_stripe(1)
    assert f2.read_rows(1, 2, 5).equals(full2.slice(2, 3))


def test_read_orc_rowgroup_pushdown(ray_session, tmp_path):
    """Predicate reads through read_orc prune row groups inside surviving
    stripes: a sorted key means a narrow range decodes one group span,
    and results stay exactly equal to the full-scan filter."""
    import pyarrow.compute as pc

    from orc_ray.sources.orcfile import read_orc

    n = 60000
    t = pa.table({
        "k": pa.array(range(n), pa.int64()),
        "v": pa.array([j % 1009 for j in range(n)], pa.int64()),
        "s": pa.array([f"row{j}" for j in range(n)]),
    })
    dst = str(tmp_path / "big.orc")
    paorc.write_table(t, dst, compression="zlib", stripe_size=500_000_000)
    f = ORCFile(dst)
    assert len(f.stripes) == 1 and f.row_index_stride == 10000

    for lo, hi in [(25000, 26000), (0, 3), (59990, 59999), (10000, 39999)]:
        ds = read_orc(dst, columns=["v", "s"], predicate=("k", lo, hi))
        got = pa.concat_tables(
            ds.iter_batches(batch_format="pyarrow", batch_size=None))
        want = t.filter(pc.and_(pc.greater_equal(t.column("k"), lo),
                                pc.less_equal(t.column("k"), hi)))
        assert got.num_rows == want.num_rows
        assert sorted(got.column("s").to_pylist()) == \
            sorted(want.column("s").to_pylist())

    # all groups pruned inside the surviving stripe -> typed empty
    ds0 = read_orc(dst, columns=["v"], predicate=("k", 10**9, 10**9))
    assert ds0.count() == 0


def test_timestamp_predicate_never_pruned_wrong(ray_session, tmp_path):
    """Timestamp stats are epoch-ms while predicates arrive in the
    column's own unit; kind-9 pruning goes through the explicit
    unit/timezone converter and must never lose rows."""
    import pyarrow.compute as pc

    from orc_ray.sources.orcfile import read_orc

    n = 30000
    ts = (1_600_000_000_000_000 + np.arange(n) * 1_000_000)  # us
    t = pa.table({"ts": pa.array(ts.astype("datetime64[us]")),
                  "v": pa.array(range(n), pa.int64())})
    dst = str(tmp_path / "ts.orc")
    paorc.write_table(t, dst, compression="zlib", stripe_size=64 * 1024)
    f = ORCFile(dst)
    assert sum(st.number_of_rows for st in f.stripes) == n  # 3 row groups
    lo = pa.scalar(int(ts[15000]) * 1000, pa.timestamp("ns"))
    hi = pa.scalar(int(ts[15099]) * 1000, pa.timestamp("ns"))
    ds = read_orc(dst, columns=["v"], predicate=("ts", lo, hi))
    got = pa.concat_tables(ds.iter_batches(batch_format="pyarrow",
                                           batch_size=None))
    assert sorted(got.column("v").to_pylist()) == list(range(15000, 15100))


def test_timestamp_stripe_pushdown(ray_session, tmp_path):
    """VERDICT r4 #8: timestamp predicates must PRUNE, not just filter —
    stripe statistics (epoch-ms, UTC fields from modern writers) are
    converted into the predicate's decode-frame ns so provably-empty
    stripes are skipped with zero row loss."""
    import pyarrow.compute as pc

    from orc_ray.sources.orcfile import (_TsMs, _ts_pred_ns,
                                         _ts_stat_bounds_ns, read_orc)

    rng = np.random.default_rng(17)
    n = 120000
    ts = (1_600_000_000_000_000 + np.arange(n, dtype=np.int64) * 1_000_000)
    t = pa.table({
        "ts": pa.array(ts.astype("datetime64[us]")),
        "v": pa.array(np.arange(n), pa.int64()),
        "pad": pa.array(rng.integers(0, 2**62, n)),  # incompressible
    })
    dst = str(tmp_path / "ts_multi.orc")
    paorc.write_table(t, dst, compression="zlib", stripe_size=64 * 1024)
    f = ORCFile(dst)
    assert len(f.stripes) > 2
    ss = f.stripe_statistics()
    tzname = f.writer_timezone(0)

    # modern writer: UTC-frame ms stats, tagged
    s0 = ss[0]["ts"]
    assert isinstance(s0[0], _TsMs) and s0[0].utc

    # predicate wholly inside stripe 1: every other stripe's converted
    # bounds must exclude it (the exact decision _plan_one makes)
    s1 = ss[1]["ts"]
    plo = pa.scalar((int(s1[0]) + 1000) * 10**6, pa.timestamp("ns"))
    phi = pa.scalar((int(s1[0]) + 2000) * 10**6, pa.timestamp("ns"))
    plo_ns, phi_ns = _ts_pred_ns(plo), _ts_pred_ns(phi)
    pruned = 0
    for i, s in enumerate(ss):
        lo_ns, hi_ns = _ts_stat_bounds_ns(s["ts"][0], s["ts"][1], tzname)
        excl = (hi_ns is not None and hi_ns < plo_ns) or \
               (lo_ns is not None and lo_ns > phi_ns)
        if i == 1:
            assert not excl  # the matching stripe must survive
        pruned += excl
    assert pruned == len(ss) - 1  # all other stripes provably empty

    # end-to-end: zero row loss vs the exact filter
    ds = read_orc(dst, columns=["v"], predicate=("ts", plo, phi))
    got = pa.concat_tables(ds.iter_batches(batch_format="pyarrow",
                                           batch_size=None))
    col = t.column("ts")
    want = t.filter(pc.and_(pc.greater_equal(col, plo),
                            pc.less_equal(col, phi)))
    assert sorted(got.column("v").to_pylist()) == \
        sorted(want.column("v").to_pylist())
    assert got.num_rows > 0

    # disjoint predicate -> everything pruned, typed-empty result
    far = pa.scalar(10**18, pa.timestamp("ns"))
    ds0 = read_orc(dst, columns=["v"], predicate=("ts", far, far))
    assert ds0.count() == 0


def test_timestamp_rowgroup_pushdown(ray_session, tmp_path):
    """Row-group (ROW_INDEX) pruning for timestamp predicates: inside a
    surviving stripe only the candidate group span decodes — proven by
    making the full-stripe path raise."""
    import pyarrow.compute as pc

    from orc_ray.sources.orcfile import _read_stripe_pruned

    n = 60000
    ts = (1_500_000_000_000_000 + np.arange(n, dtype=np.int64) * 2_000_000)
    t = pa.table({
        "ts": pa.array(ts.astype("datetime64[us]")),
        "v": pa.array(np.arange(n), pa.int64()),
    })
    dst = str(tmp_path / "ts_groups.orc")
    paorc.write_table(t, dst, compression="zlib", stripe_size=500_000_000)
    f = ORCFile(dst)
    assert len(f.stripes) == 1 and f.row_index_stride == 10000

    lo = pa.scalar(int(ts[25000]) * 1000, pa.timestamp("ns"))
    hi = pa.scalar(int(ts[26000]) * 1000, pa.timestamp("ns"))
    # prove the seeked path ran: full-stripe decode must not be reachable
    orig = f.read_stripe
    f.read_stripe = lambda *a, **k: (_ for _ in ()).throw(
        AssertionError("full-stripe decode on a prunable predicate"))
    try:
        got = _read_stripe_pruned(f, 0, ["ts", "v"], ("ts", lo, hi))
    finally:
        f.read_stripe = orig
    col = t.column("ts")
    want = t.filter(pc.and_(pc.greater_equal(col, lo),
                            pc.less_equal(col, hi)))
    mask = pc.and_(pc.greater_equal(got.column("ts"), lo),
                   pc.less_equal(got.column("ts"), hi))
    exact = got.filter(mask).sort_by("v")
    assert exact.column("v").to_pylist() == want.column("v").to_pylist()
    assert exact.column("ts").cast(pa.timestamp("us")).combine_chunks() \
        .equals(want.column("ts").combine_chunks())

    # all groups excluded -> typed empty without decoding
    far = pa.scalar(10**18, pa.timestamp("ns"))
    f.read_stripe = lambda *a, **k: (_ for _ in ()).throw(
        AssertionError("full-stripe decode on an all-pruned predicate"))
    try:
        empty = _read_stripe_pruned(f, 0, ["v"], ("ts", far, far))
    finally:
        f.read_stripe = orig
    assert empty.num_rows == 0 and empty.column_names == ["v"]


def test_timestamp_local_frame_stats_safe():
    """Legacy writer-local (fields 1/2) timestamp stats convert through
    writerTimezone with fold + slack widening: bounds must always contain
    the true instant, and unknown zones must never prune."""
    from orc_ray.sources.orcfile import _TsMs, _ts_stat_bounds_ns

    # 2020-06-15 12:00:00 wall clock in LA == 19:00 UTC (PDT, -7h)
    wall_ms = 1592222400000  # 2020-06-15T12:00:00 as if-UTC epoch ms
    true_utc_ns = (wall_ms + 7 * 3600 * 1000) * 10**6
    lo, hi = _TsMs(wall_ms, False), _TsMs(wall_ms, False)
    lo_ns, hi_ns = _ts_stat_bounds_ns(lo, hi, "America/Los_Angeles")
    assert lo_ns is not None and hi_ns is not None
    assert lo_ns <= true_utc_ns <= hi_ns

    # no timezone / unknown zone: cannot bound -> never prune
    assert _ts_stat_bounds_ns(lo, hi, None) == (None, None)
    assert _ts_stat_bounds_ns(lo, hi, "Not/AZone") == (None, None)

    # UTC-tagged stats don't need a zone and bound tightly (± slack)
    lo_u, hi_u = _TsMs(wall_ms, True), _TsMs(wall_ms, True)
    lo_ns, hi_ns = _ts_stat_bounds_ns(lo_u, hi_u, None)
    assert lo_ns == wall_ms * 10**6 - 10**9
    assert hi_ns == (wall_ms + 1) * 10**6 + 10**9


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_timestamp_pushdown_randomized_no_row_loss(ray_session, tmp_path,
                                                   seed):
    """Property: for random timestamp data (pre-1970 included, sub-ms
    precision, unsorted) and random range/point predicates, read_orc with
    pushdown returns EXACTLY the rows of a full-scan filter."""
    import pyarrow.compute as pc

    from orc_ray.sources.orcfile import read_orc

    rng = np.random.default_rng(seed)
    n = 30000
    base = int(rng.integers(-2_000_000_000, 2_000_000_000)) * 1_000_000
    vals = base + rng.integers(-10**15, 10**15, n)  # us, +-~30y spread
    t = pa.table({"ts": pa.array(vals.astype("datetime64[us]")),
                  "v": pa.array(np.arange(n), pa.int64())})
    dst = str(tmp_path / f"rand{seed}.orc")
    paorc.write_table(t, dst, compression="zlib", stripe_size=256 * 1024)

    qs = np.quantile(vals, [0.2, 0.4, 0.6, 0.8]).astype(np.int64)
    cases = [
        (int(qs[0]), int(qs[1])),             # interior range
        (int(qs[2]), int(qs[2])),             # point (likely absent)
        (int(vals[123]), int(vals[123])),     # present point
        (int(vals.min()) - 10**9, int(qs[0])),  # left-open-ish
        (int(qs[3]), int(vals.max()) + 10**9),  # right-open-ish
        (int(vals.max()) + 10**10, int(vals.max()) + 10**10),  # empty
    ]
    for lo_us, hi_us in cases:
        lo = pa.scalar(lo_us * 1000, pa.timestamp("ns"))
        hi = pa.scalar(hi_us * 1000, pa.timestamp("ns"))
        ds = read_orc(dst, columns=["v"], predicate=("ts", lo, hi))
        got = sorted(pa.concat_tables(
            ds.iter_batches(batch_format="pyarrow", batch_size=None)
        ).column("v").to_pylist()) if ds.count() else []
        col = t.column("ts")
        want = t.filter(pc.and_(pc.greater_equal(col, lo),
                                pc.less_equal(col, hi)))
        assert got == sorted(want.column("v").to_pylist()), \
            (seed, lo_us, hi_us)
