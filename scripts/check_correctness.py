"""Local replica of the driver's correctness gate: run every queries()
entry at a given SF dir, run the matching oracle_sql() in DuckDB over the
same parquet views, compare row count + column names + order-insensitive
value hash.  Usage:  python scripts/check_correctness.py [sf_dir] [names...]
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(res, pd.DataFrame):
        return res
    return res.to_pandas()  # pa.Table or ray Dataset


def value_hash(df: pd.DataFrame) -> int:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    df = df.sort_values(list(df.columns)).reset_index(drop=True)
    return int(pd.util.hash_pandas_object(df, index=False).sum())


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False)
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)

    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    import __ray_entry__ as entry

    qs = entry.queries()
    oracles = entry.oracle_sql()
    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    unknown = only - set(qs)
    if unknown:
        # a typo must not yield "0 pass, 0 fail" + exit 0
        raise SystemExit(f"unknown query name(s): {sorted(unknown)}; "
                         f"available: {sorted(qs)}")

    n_pass = n_fail = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            eng = to_pandas(fn(sf_dir))
        except Exception as e:
            print(f"FAIL {name}: engine error {type(e).__name__}: {str(e)[:200]}")
            n_fail += 1
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"ok(rows-only) {name}: {len(eng)} rows  [{dt:.1f}s]")
            n_pass += 1
            continue
        try:
            ora = con.sql(oracles[name]).df()
        except Exception as e:
            print(f"FAIL {name}: oracle error {e}")
            n_fail += 1
            continue
        problems = []
        if len(eng) != len(ora):
            problems.append(f"rows {len(eng)} != {len(ora)}")
        if sorted(eng.columns) != sorted(ora.columns):
            problems.append(f"cols {sorted(eng.columns)} != {sorted(ora.columns)}")
        if not problems:
            he, ho = value_hash(eng), value_hash(ora)
            if he != ho:
                problems.append("value-hash mismatch")
                # show first differing rows for debugging
                e2 = eng[sorted(eng.columns)].sort_values(
                    sorted(eng.columns)).reset_index(drop=True)
                o2 = ora[sorted(ora.columns)].sort_values(
                    sorted(ora.columns)).reset_index(drop=True)
                found = False
                for i in range(min(len(e2), len(o2))):
                    if not e2.iloc[i].equals(o2.iloc[i]):
                        problems.append(
                            f"first diff row {i}:\n  eng={e2.iloc[i].to_dict()}\n  ora={o2.iloc[i].to_dict()}")
                        found = True
                        break
                if not found:
                    # Series.equals treats -0.0 == 0.0 and NaN == NaN,
                    # but value_hash hashes bit patterns — say so instead
                    # of showing a mismatch with no differing row
                    problems.append(
                        "no value-differing row: bit-level difference "
                        "(-0.0 vs 0.0 or dtype width) — compare dtypes "
                        "and np.signbit of zero cells")
        if problems:
            print(f"FAIL {name}: " + "; ".join(problems))
            n_fail += 1
        else:
            print(f"PASS {name}: {len(eng)} rows  [{dt:.1f}s]")
            n_pass += 1
    print(f"\n{n_pass} pass, {n_fail} fail")
    ray.shutdown()
    return 1 if n_fail else 0


if __name__ == "__main__":
    sys.exit(main())
