"""Driver-simulation: run entry() + every queries() entry vs its DuckDB
oracle on a given sf dir, comparing row count, sorted-column schema and an
order-insensitive value hash (mirrors the driver's CORRECTNESS check).

A query that does not finish within QUERY_TIMEOUT_S counts as FAIL.

Usage: python tools/check_oracle.py [sf_dir] [query ...]
"""

from __future__ import annotations

import hashlib
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# wall-clock limit per query; a query past it is reported as FAIL
QUERY_TIMEOUT_S = 300


class QueryTimeout(Exception):
    pass


def _raise_timeout(signum, frame):
    raise QueryTimeout


def to_table(result):
    import pandas as pd
    import pyarrow as pa

    if isinstance(result, pa.Table):
        return result
    if isinstance(result, pd.DataFrame):
        return pa.Table.from_pandas(result, preserve_index=False)
    # ray Dataset
    import ray.data

    if isinstance(result, ray.data.Dataset):
        tables = [b for b in result.iter_batches(batch_format="pyarrow", batch_size=None)]
        return pa.concat_tables(tables) if tables else None
    raise TypeError(type(result))


def value_hash(table) -> str:
    import pyarrow as pa

    cols = sorted(table.column_names)
    table = table.select(cols)
    rows = table.to_pylist()
    canon = sorted(repr(sorted(r.items())) for r in rows)
    h = hashlib.sha256()
    for r in canon:
        h.update(r.encode())
    return h.hexdigest()[:16]


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    import duckdb
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False)

    import __ray_entry__ as e

    print("== entry() ==")
    res = to_table(e.entry())
    print(f"entry rows={res.num_rows} schema={[f.name for f in res.schema]}")

    con = duckdb.connect()
    for name in ["region", "nation", "customer", "supplier", "part", "orders",
                 "lineitem", "events", "documents", "embeddings"]:
        path = os.path.join(sf_dir, f"{name}.parquet")
        if os.path.exists(path):
            con.sql(f"CREATE VIEW {name} AS SELECT * FROM read_parquet('{path}')")

    qs = e.queries()
    only = set(sys.argv[2:])  # optional query-name filter
    if only:
        qs = {k: v for k, v in qs.items() if k in only}
    oracles = e.oracle_sql()
    failures = 0
    signal.signal(signal.SIGALRM, _raise_timeout)
    for name, fn in qs.items():
        signal.alarm(QUERY_TIMEOUT_S)
        try:
            mine = to_table(fn(sf_dir))
        except QueryTimeout:
            failures += 1
            print(f"[FAIL] {name}: not finished in {QUERY_TIMEOUT_S} s")
            continue
        finally:
            signal.alarm(0)
        if name not in oracles:
            print(f"[rows-only] {name}: rows={mine.num_rows}")
            continue
        oracle = con.sql(oracles[name]).arrow()
        ok_rows = mine.num_rows == oracle.num_rows
        ms = sorted((f.name, str(f.type)) for f in mine.schema)
        os_ = sorted((f.name, str(f.type)) for f in oracle.schema)
        ok_schema = ms == os_
        hv_m, hv_o = value_hash(mine), value_hash(oracle)
        ok_hash = hv_m == hv_o
        status = "OK" if ok_rows and ok_schema and ok_hash else "FAIL"
        if status == "FAIL":
            failures += 1
        print(f"[{status}] {name}: rows {mine.num_rows}/{oracle.num_rows} "
              f"schema_match={ok_schema} hash {hv_m}/{hv_o}")
        if not ok_schema:
            print("   mine:  ", ms)
            print("   oracle:", os_)
    ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
