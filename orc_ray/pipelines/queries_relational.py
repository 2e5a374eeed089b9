"""Relational analytics over the TPC-H-shaped driver tables (lineitem,
orders, customer, nation, region): distributed groupby-aggregate, keyed
co-group join, broadcast dimension join, anti-join and join+top-k — the classic
warehouse query shapes a data-processing engine must cover, each expressed
Ray-Data-first with its DuckDB oracle.

Scale notes baked into each query:
- fact tables only ever move AFTER a per-batch partial aggregation or a
  pushed-down filter — raw fact rows never enter a shuffle;
- dimension tables (nation 25 rows, region 5) broadcast in a stage's
  ``fn_kwargs`` and resolve inside ``map_batches`` — never a shuffle join;
- two fact-sized sides join as a co-group: each side maps to one tagged
  schema, the union goes through ``by_key`` and each partition joins its
  keys vectorized;
- money sums use per-row integer cents (round half-away, matching DuckDB
  ``round()``) so the SQL mirror is bit-exact, never float accumulation
  whose value depends on reduction order.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from .encode import by_key

_JOIN_DATE = "1998-01-01"
_RECENT_DATE = "2000-01-01"


def _read(sf_dir: str, table: str, columns):
    import ray.data

    return ray.data.read_parquet(os.path.join(sf_dir, f"{table}.parquet"),
                                 columns=list(columns))


def _cents(arr) -> pa.Array:
    """Per-row integer cents with DuckDB round() tie semantics."""
    import pyarrow.compute as pc

    return pc.cast(pc.round(pc.multiply(arr, 100.0),
                            round_mode="half_towards_infinity"), pa.int64())


# --- pricing summary (TPC-H Q1 shape: wide scan + tiny-group aggregate) ----

def q_pricing_summary(sf_dir: str):
    """Pricing summary over lineitem: per-batch partial aggregation down
    to the 6-group (returnflag, linestatus) key set, tiny final merge —
    raw fact rows never shuffle, the exchange carries O(groups x blocks)
    partial rows. The canonical combiner pattern for low-cardinality
    groupbys at any scale."""
    import pyarrow.compute as pc

    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity",
                "l_extendedprice", "l_discount", "l_shipdate"])

    def partial(b: pa.Table) -> pa.Table:
        keep = pc.less(b.column("l_shipdate"),
                       pa.scalar(np.datetime64(_JOIN_DATE, "us")))
        t = b.filter(keep)
        disc_price = pc.multiply(
            t.column("l_extendedprice"),
            pc.subtract(pa.scalar(1.0), t.column("l_discount")))
        g = pa.table({
            "l_returnflag": t.column("l_returnflag"),
            "l_linestatus": t.column("l_linestatus"),
            "qty100": _cents(t.column("l_quantity")),
            "price100": _cents(t.column("l_extendedprice")),
            "disc100": _cents(disc_price),
        })
        return g.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("qty100", "sum"), ("price100", "sum"), ("disc100", "sum"),
             ("qty100", "count")])

    parts = ds.map_batches(partial, batch_format="pyarrow")

    def merge(b: pa.Table) -> pa.Table:
        agg = b.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("qty100_sum", "sum"), ("price100_sum", "sum"),
             ("disc100_sum", "sum"), ("qty100_count", "sum")])
        return pa.table({
            "l_returnflag": agg.column("l_returnflag"),
            "l_linestatus": agg.column("l_linestatus"),
            "sum_qty_x100": agg.column("qty100_sum_sum").cast(pa.int64()),
            "sum_base_price_x100":
                agg.column("price100_sum_sum").cast(pa.int64()),
            "sum_disc_price_x100":
                agg.column("disc100_sum_sum").cast(pa.int64()),
            "count_order": agg.column("qty100_count_sum").cast(pa.int64()),
        })

    return parts.repartition(1).map_batches(merge, batch_format="pyarrow")


SQL_Q_PRICING_SUMMARY = (
    "SELECT l_returnflag, l_linestatus, "
    "CAST(sum(CAST(round(l_quantity * 100) AS BIGINT)) AS BIGINT) "
    "AS sum_qty_x100, "
    "CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT) "
    "AS sum_base_price_x100, "
    "CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 100) "
    "AS BIGINT)) AS BIGINT) AS sum_disc_price_x100, "
    "count(*) AS count_order "
    f"FROM lineitem WHERE l_shipdate < TIMESTAMP '{_JOIN_DATE}' "
    "GROUP BY l_returnflag, l_linestatus"
)


# --- order revenue (TPC-H Q3 shape: filter + join + agg + top-k) -----------

def q_order_revenue(sf_dir: str):
    """Top-10 open orders by revenue: both sides filtered AT THE READ,
    lineitem pre-aggregated per batch to (orderkey, revenue) partials,
    then BOTH streams tagged, unioned and co-grouped through ONE keyed
    exchange (``by_key`` on the order key) — the join AND the
    final sum happen together in a vectorized merge inside each
    partition. One wide op where groupby-then-hash-join would cost two;
    only partial rows (not raw lineitem) and the filtered orders move.
    A key-column-only sort then takes the top 10."""
    import pyarrow.compute as pc
    import ray.data

    cut = pa.scalar(np.datetime64(_JOIN_DATE, "us"))
    ts_t = pa.timestamp("us")

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"])

    def li_partial(b: pa.Table) -> pa.Table:
        t = b.filter(pc.greater(b.column("l_shipdate"), cut))
        rev = pc.multiply(
            t.column("l_extendedprice"),
            pc.subtract(pa.scalar(1.0), t.column("l_discount")))
        g = pa.table({"key": t.column("l_orderkey").cast(pa.int64()),
                      "rev100": _cents(rev)}) \
            .group_by(["key"]).aggregate([("rev100", "sum")])
        return pa.table({
            "key": g.column("key"),
            "rev100": g.column("rev100_sum").cast(pa.int64()),
            "odate": pa.nulls(g.num_rows, type=ts_t),
            "tag": pa.array(np.zeros(g.num_rows, dtype=np.int8)),
        })

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"])

    def o_rows(b: pa.Table) -> pa.Table:
        t = b.filter(pc.less(b.column("o_orderdate"), cut))
        return pa.table({
            "key": t.column("o_orderkey").cast(pa.int64()),
            "rev100": pa.array(np.zeros(t.num_rows, dtype=np.int64)),
            "odate": t.column("o_orderdate").cast(ts_t),
            "tag": pa.array(np.ones(t.num_rows, dtype=np.int8)),
        })

    tagged = li.map_batches(li_partial, batch_format="pyarrow").union(
        orders.map_batches(o_rows, batch_format="pyarrow"))

    def rev_partition(g: pa.Table) -> pa.Table:
        empty = pa.table({"l_orderkey": pa.array([], type=pa.int64()),
                          "o_orderdate": pa.array([], type=ts_t),
                          "revenue_x100": pa.array([], type=pa.int64())})
        if g.num_rows == 0:
            return empty
        tag = g.column("tag").to_numpy(zero_copy_only=False)
        key = g.column("key").to_numpy(zero_copy_only=False)
        om = tag == 1
        okeys = key[om]
        if okeys.size == 0:
            return empty
        odates = g.column("odate").to_numpy(zero_copy_only=False)[om]
        lk = key[~om]
        lr = g.column("rev100").to_numpy(zero_copy_only=False)[~om]
        if lk.size == 0:
            return empty
        lo = np.argsort(lk, kind="stable")
        sk, sr = lk[lo], lr[lo]
        starts = np.flatnonzero(np.r_[True, sk[1:] != sk[:-1]])
        uk = sk[starts]
        sums = np.add.reduceat(sr, starts)
        oo = np.argsort(okeys, kind="stable")
        sok, sod = okeys[oo], odates[oo]
        pos = np.clip(np.searchsorted(sok, uk), 0, sok.size - 1)
        hit = sok[pos] == uk
        jk, jd, js = uk[hit], sod[pos[hit]], sums[hit]
        # local top-10: the global top-10 is a subset of the per-partition
        # top-10s, so only 10 rows per partition leave this task
        top = np.lexsort((jk, -js))[:10]
        return pa.table({
            "l_orderkey": pa.array(jk[top], type=pa.int64()),
            "o_orderdate": pa.array(jd[top], type=ts_t),
            "revenue_x100": pa.array(js[top], type=pa.int64()),
        })

    def final_top10(b: pa.Table) -> pa.Table:
        k = b.column("l_orderkey").to_numpy(zero_copy_only=False)
        s = b.column("revenue_x100").to_numpy(zero_copy_only=False)
        top = np.lexsort((k, -s))[:10]
        return pa.table({
            "l_orderkey": b.column("l_orderkey").take(pa.array(top)),
            "o_orderdate": b.column("o_orderdate").take(pa.array(top)),
            "revenue_x100": b.column("revenue_x100").take(pa.array(top)),
        })

    return by_key(tagged, "key", rev_partition) \
        .repartition(1).map_batches(final_top10, batch_format="pyarrow")


SQL_Q_ORDER_REVENUE = (
    "SELECT l_orderkey, o_orderdate, "
    "CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 100) "
    "AS BIGINT)) AS BIGINT) AS revenue_x100 "
    "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
    f"WHERE o_orderdate < TIMESTAMP '{_JOIN_DATE}' "
    f"AND l_shipdate > TIMESTAMP '{_JOIN_DATE}' "
    "GROUP BY l_orderkey, o_orderdate "
    "ORDER BY revenue_x100 DESC, l_orderkey LIMIT 10"
)


# --- region rollup (TPC-H Q5 shape: broadcast dimension snowflake) ---------

def q_region_rollup(sf_dir: str):
    """Customer balance rolled up to region through the
    customer -> nation -> region snowflake. The two dimension tables are
    tiny at EVERY scale factor (25 / 5 rows), so they broadcast once in
    the stage's ``fn_kwargs`` and resolve inside ``map_batches`` with a
    vectorized int-indexed take — the pattern that replaces two shuffle
    joins with zero exchanges; only the final 5-group partial aggregate moves."""
    import pyarrow.parquet as pq

    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                           columns=["n_nationkey", "n_regionkey"])
    region = pq.read_table(os.path.join(sf_dir, "region.parquet"),
                           columns=["r_regionkey", "r_name"])
    # nation/region keys are dense 0..N-1; build a nationkey -> region-name
    # dictionary-code lookup table (int -> small int + one name list)
    nk = nation.column("n_nationkey").to_numpy()
    rk_of_nation = nation.column("n_regionkey").to_numpy()
    n2r = np.zeros(int(nk.max()) + 1, dtype=np.int64)
    n2r[nk] = rk_of_nation
    rk = region.column("r_regionkey").to_numpy()
    rnames_arr = [""] * (int(rk.max()) + 1)
    for k, nm in zip(rk, region.column("r_name").to_pylist()):
        rnames_arr[int(k)] = nm

    cust = _read(sf_dir, "customer", ["c_nationkey", "c_acctbal"])

    def rollup(b: pa.Table, n2r: np.ndarray, rnames: pa.Array) -> pa.Table:
        nkey = b.column("c_nationkey").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        g = pa.table({
            "r_name": rnames.take(pa.array(n2r[nkey])),
            "bal100": _cents(b.column("c_acctbal")),
        })
        return g.group_by(["r_name"]).aggregate(
            [("bal100", "sum"), ("bal100", "count")])

    parts = cust.map_batches(
        rollup,
        fn_kwargs={"n2r": n2r, "rnames": pa.array(rnames_arr, pa.string())},
        batch_format="pyarrow")

    def merge(b: pa.Table) -> pa.Table:
        agg = b.group_by(["r_name"]).aggregate(
            [("bal100_sum", "sum"), ("bal100_count", "sum")])
        return pa.table({
            "r_name": agg.column("r_name"),
            "num_customers": agg.column("bal100_count_sum").cast(pa.int64()),
            "sum_acctbal_x100": agg.column("bal100_sum_sum").cast(pa.int64()),
        })

    return parts.repartition(1).map_batches(merge, batch_format="pyarrow")


SQL_Q_REGION_ROLLUP = (
    "SELECT r_name, count(*) AS num_customers, "
    "CAST(sum(CAST(round(c_acctbal * 100) AS BIGINT)) AS BIGINT) "
    "AS sum_acctbal_x100 "
    "FROM customer JOIN nation ON c_nationkey = n_nationkey "
    "JOIN region ON n_regionkey = r_regionkey GROUP BY r_name"
)


# --- dormant customers (anti-join) -----------------------------------------

def q_dormant_customers(sf_dir: str):
    """Customers with NO order since 2000-01-01, counted per market
    segment: the right side is filtered at the read and pre-shrunk to its
    distinct keys per batch (bounded by key cardinality, not order count),
    then both sides co-group on the customer key; each partition drops
    every customer with a recent order (the anti-join) and counts its
    survivors per segment, and a tiny combiner sums the counts."""
    import pyarrow.compute as pc

    cut = pa.scalar(np.datetime64(_RECENT_DATE, "us"))

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"])

    def cust_rows(b: pa.Table) -> pa.Table:
        return pa.table({
            "key": b.column("c_custkey").cast(pa.int64()),
            "c_mktsegment": b.column("c_mktsegment").cast(pa.string()),
            "tag": pa.array(np.zeros(b.num_rows, dtype=np.int8)),
        })

    def recent_keys(b: pa.Table) -> pa.Table:
        t = b.filter(pc.greater_equal(b.column("o_orderdate"), cut))
        k = pa.table({"key": t.column("o_custkey").cast(pa.int64())}) \
            .group_by(["key"]).aggregate([])
        return pa.table({
            "key": k.column("key"),
            "c_mktsegment": pa.nulls(k.num_rows, type=pa.string()),
            "tag": pa.array(np.ones(k.num_rows, dtype=np.int8)),
        })

    tagged = cust.map_batches(cust_rows, batch_format="pyarrow").union(
        orders.map_batches(recent_keys, batch_format="pyarrow"))

    def partial(g: pa.Table) -> pa.Table:
        tag = g.column("tag").to_numpy(zero_copy_only=False)
        key = g.column("key").to_numpy(zero_copy_only=False)
        dormant = (tag == 0) & ~np.isin(key, key[tag == 1])
        return pa.table({
            "c_mktsegment": g.column("c_mktsegment").filter(pa.array(dormant)),
        }).group_by(["c_mktsegment"]).aggregate([([], "count_all")])

    parts = by_key(tagged, "key", partial)

    def merge(b: pa.Table) -> pa.Table:
        agg = b.group_by(["c_mktsegment"]).aggregate([("count_all", "sum")])
        return pa.table({
            "c_mktsegment": agg.column("c_mktsegment"),
            "num_dormant": agg.column("count_all_sum").cast(pa.int64()),
        })

    return parts.repartition(1).map_batches(merge, batch_format="pyarrow")


SQL_Q_DORMANT_CUSTOMERS = (
    "SELECT c_mktsegment, count(*) AS num_dormant FROM customer "
    "WHERE c_custkey NOT IN (SELECT o_custkey FROM orders "
    f"WHERE o_orderdate >= TIMESTAMP '{_RECENT_DATE}') "
    "GROUP BY c_mktsegment"
)
