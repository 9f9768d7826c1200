"""Relational operator coverage over the TPC-H-ish testdata tables —
sources/sinks, filters, projections, aggregations, joins, top-k, distinct
(SURVEY.md §2.1/2.2/2.4/2.5/2.7/2.8) expressed Ray-Data-first.

Conventions:
* reads prune columns at the source (``read_parquet(columns=[...])``);
* small dimension sides broadcast (in-task lookup), large joins use
  ``stages/join.py:hash_join`` on the task exchange;
* float aggregate outputs are rounded (default 6 dp) so DuckDB-oracle
  value-hash comparison is robust to summation order.
"""

from __future__ import annotations

import datetime
from typing import List, Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..stages.partition import (each_group, group_count, partitioned_map,
                                sum_partials, task_exchange)


def read(sf_dir: str, table: str, columns: Optional[List[str]] = None):
    return ray.data.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


def _round_cols(ds, cols: Sequence[str], nd: int = 6):
    cols = list(cols)

    def r(batch: pa.Table) -> pa.Table:
        # numpy rounding: pyarrow's pc.round returns a different nearest
        # double than numpy/DuckDB at large magnitudes (breaks value-hash)
        for c in cols:
            i = batch.column_names.index(c)
            v = batch[c].to_numpy(zero_copy_only=False).astype(np.float64)
            batch = batch.set_column(i, c, pa.array(np.round(v, nd)))
        return batch

    return ds.map_batches(r, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------


def pricing_summary(sf_dir: str):
    """TPC-H Q1-style groupby aggregate with derived columns.

    Low-cardinality aggregate shape: one vectorized partial aggregate per
    block (pandas groupby over ≤6 groups — LMFAO-style combiner), then a
    single gather task on the task exchange sums the tiny partials.  No
    Ray sort/hash-aggregate op runs at all: the only exchange moves
    ~blocks×6 partial rows."""
    ds = read(sf_dir, "lineitem",
              ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
               "l_discount", "l_tax"])

    def derive(batch: pa.Table) -> pa.Table:
        # exact integer units for the big money sums (2/4/6 dp inputs):
        # double summation at 1e9+ magnitude is not 4-dp-stable, int64 is
        price = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = batch["l_discount"].to_numpy(zero_copy_only=False)
        tax = batch["l_tax"].to_numpy(zero_copy_only=False)
        qty = batch["l_quantity"].to_numpy(zero_copy_only=False)
        batch = batch.append_column("qty_i", pa.array(np.round(qty * 100).astype(np.int64)))
        batch = batch.append_column("price_i", pa.array(np.round(price * 100).astype(np.int64)))
        batch = batch.append_column(
            "disc_price_i", pa.array(np.round(price * (1 - disc) * 1e4).astype(np.int64)))
        return batch.append_column(
            "charge_i", pa.array(np.round(price * (1 - disc) * (1 + tax) * 1e6).astype(np.int64)))

    ds = ds.map_batches(derive, batch_format="pyarrow", zero_copy_batch=True)

    GKEYS = ["l_returnflag", "l_linestatus"]
    SUMS = {"qty_i": "sum", "price_i": "sum", "disc_price_i": "sum",
            "charge_i": "sum", "l_quantity": "sum", "l_extendedprice": "sum",
            "l_discount": "sum"}

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select(GKEYS + list(SUMS)).to_pandas()
        g = df.groupby(GKEYS, as_index=False, sort=False).agg(
            **{c: (c, how) for c, how in SUMS.items()},
            n=("qty_i", "size"))
        return pa.Table.from_pandas(g, preserve_index=False
                                    ).replace_schema_metadata(None)

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def combine(t: pa.Table) -> pa.Table:
        df = t.select(GKEYS + list(SUMS) + ["n"]).to_pandas()
        # exact big-int totals: the combine table is tiny (groups x
        # blocks), so summing the integer-unit partials as Python ints
        # costs nothing and keeps the grand totals exact where int64
        # would wrap (charge_i ~ 3.7e10/row -> wraps near sf 40; DuckDB
        # promotes BIGINT sums to 128-bit, so the oracle would not) —
        # the single exact-total -> double conversion below then rounds
        # identically to DuckDB's hugeint -> double
        for c in ("qty_i", "price_i", "disc_price_i", "charge_i"):
            df[c] = df[c].astype(object)
        df = df.groupby(GKEYS, as_index=False, sort=False).sum()
        n = df["n"].to_numpy(dtype=np.float64)

        def scaled(name, s):
            return pa.array(np.round(
                df[name].to_numpy(dtype=np.float64) / s, 4))

        return pa.table({
            "l_returnflag": pa.array(df["l_returnflag"]),
            "l_linestatus": pa.array(df["l_linestatus"]),
            "sum_qty": scaled("qty_i", 100.0),
            "sum_base_price": scaled("price_i", 100.0),
            "sum_disc_price": scaled("disc_price_i", 1e4),
            "sum_charge": scaled("charge_i", 1e6),
            "avg_qty": pa.array(np.round(
                df["l_quantity"].to_numpy(dtype=np.float64) / n, 4)),
            "avg_price": pa.array(np.round(
                df["l_extendedprice"].to_numpy(dtype=np.float64) / n, 4)),
            "avg_disc": pa.array(np.round(
                df["l_discount"].to_numpy(dtype=np.float64) / n, 4)),
            "count_order": pa.array(df["n"].to_numpy(dtype=np.int64)),
        })

    return partitioned_map(partials, combine, key="l_returnflag",
                           sort_keys=GKEYS, num_partitions=1)


def filter_project_revenue(sf_dir: str, min_ship: str = "1995-01-01"):
    """Predicate pushdown-style filter + derived projection."""
    ds = read(sf_dir, "lineitem",
              ["l_orderkey", "l_linenumber", "l_extendedprice", "l_discount",
               "l_shipdate"])
    cut = datetime.date.fromisoformat(min_ship)

    def f(batch: pa.Table) -> pa.Table:
        mask = pc.greater_equal(batch["l_shipdate"], pa.scalar(cut))
        batch = batch.filter(mask)
        price = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = batch["l_discount"].to_numpy(zero_copy_only=False)
        out = batch.select(["l_orderkey", "l_linenumber"])
        return out.append_column("revenue", pa.array(np.round(price * (1 - disc), 6)))

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def top_customers(sf_dir: str, k: int = 10):
    """orders ⋈ customer (broadcast small side) → per-customer revenue →
    global top-k.  The revenue is one customer-keyed exchange whose
    gathers sum their partition with a one-key Arrow ``group_by``.  The dim
    table rides the object store ONCE (``broadcast_join``: ``ray.put`` +
    per-batch Arrow hash join inside the tasks — the driver never
    materializes or loops over it); at 100 TB with a large dim side swap
    for ``hash_join``."""
    from ..stages.join import broadcast_join
    from ..stages.rank import range_top

    def spend(t: pa.Table) -> pa.Table:
        s = t.group_by("o_custkey", use_threads=False).aggregate(
            [("o_totalprice", "sum")])
        return pa.table({"o_custkey": s["o_custkey"],
                         "total_spent": s["o_totalprice_sum"]})

    orders = read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    per_cust = partitioned_map(orders, spend, key="o_custkey",
                               sort_keys=[])
    cust = read(sf_dir, "customer", ["c_custkey", "c_name"])
    named = broadcast_join(per_cust, cust, on="o_custkey",
                           right_on="c_custkey")
    named = _round_cols(named, ["total_spent"], 4)
    # a NaN price makes a NaN total, and a customer whose every price is
    # NULL a NULL one: range_top ranks NaN below every number, NULL last
    return range_top(named, ["total_spent", "o_custkey"], [True, False], k)


def order_priority_revenue(sf_dir: str):
    """orders ⋈ lineitem (co-partitioned hash join, both sides large) →
    revenue by priority.  The combiner inside the join emits 5-row
    partials per partition; a single task-exchange gather sums them (no
    Ray hash-aggregate op)."""
    from ..stages.join import hash_join

    orders = read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    li = read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])

    def derive(batch: pa.Table) -> pa.Table:
        # revenue in exact 1e-4 units (int64): money sums at 1e9+ magnitude
        # exceed double summation accuracy at 4 dp, so both engine and
        # oracle sum integers and divide once at the end
        price = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = batch["l_discount"].to_numpy(zero_copy_only=False)
        out = batch.select(["l_orderkey"])
        rev_i = np.round(price * (1 - disc) * 10000.0).astype(np.int64)
        return out.append_column("revenue_i", pa.array(rev_i))

    li = li.map_batches(derive, batch_format="pyarrow", zero_copy_batch=True)

    def partial_by_priority(joined: pa.Table) -> pa.Table:
        # combiner: 5-row partial sums leave each join partition instead of
        # the full joined rowset
        df = joined.to_pandas().groupby("o_orderpriority", as_index=False)["revenue_i"].sum()
        return pa.Table.from_pandas(df, preserve_index=False)

    joined = hash_join(li, orders, on="l_orderkey", right_on="o_orderkey",
                       num_partitions=16, combine=partial_by_priority)

    def combine(t: pa.Table) -> pa.Table:
        df = (t.select(["o_orderpriority", "revenue_i"]).to_pandas()
              .groupby("o_orderpriority", as_index=False, sort=False).sum())
        s = df["revenue_i"].to_numpy(dtype=np.float64)
        return pa.table({
            "o_orderpriority": pa.array(df["o_orderpriority"]),
            "total_revenue": pa.array(np.round(s / 10000.0, 4)),
        })

    return partitioned_map(joined, combine, key="o_orderpriority",
                           sort_keys=["o_orderpriority"], num_partitions=1)


def distinct_users_per_type(sf_dir: str):
    """count(distinct user_id) per event_type: one user-keyed exchange
    whose gathers count their distinct ``(event_type, user_id)`` pairs
    per type (a user's rows all land in one partition), then one driver
    sum of the P partials — no driver-side set building.  A NULL user_id
    counts as one user of each type it appears with, and a NULL
    event_type is a type of its own."""
    def users(_p, t: pa.Table) -> pa.Table:
        pairs = group_count(t, ["event_type", "user_id"])
        return group_count(pairs, ["event_type"])

    ev = read(sf_dir, "events", ["event_type", "user_id"])
    parts = ray.get(task_exchange(ev, users, key="user_id",
                                  sort_keys=[],
                                  num_partitions=32))
    out = sum_partials(parts, keys=["event_type"], vals=["count_all"])
    if out is None:  # no events: an empty partial has the schema
        out = parts[0]
    return ray.data.from_arrow(out.rename_columns(["event_type", "n_users"]))


def group_stats_kernels(sf_dir: str):
    """Per-event_type pooled stats with reference PropertyStats semantics
    (population std, reference skew/kurt edge rules) — the §2.6 kernel
    library applied group-wise."""
    from ..functions import propstats as ps

    ev = read(sf_dir, "events", ["event_type", "value"])

    def stats(group: pa.Table) -> pa.Table:
        v = group["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        X = v[None, :]
        return pa.table({
            "event_type": pa.array([group["event_type"][0].as_py()]),
            "n": pa.array([len(v)], pa.int64()),
            "v_mean": pa.array(np.round(ps.mean(X), 6)),
            "v_std_pop": pa.array(np.round(ps.std_dev(X), 6)),
            "v_avg_dev": pa.array(np.round(ps.avg_dev(X), 6)),
            "v_skew": pa.array(np.round(ps.skewness(X), 6)),
            "v_kurt": pa.array(np.round(ps.kurtosis(X), 6)),
            "v_min": pa.array(np.round(ps.minimum(X), 6)),
            "v_max": pa.array(np.round(ps.maximum(X), 6)),
            "v_range": pa.array(np.round(ps.prange(X), 6)),
        })

    return partitioned_map(ev, each_group(stats, ["event_type"]),
                           key="event_type", sort_keys=["event_type"])


def corr_matrix(sf_dir: str, cols: Sequence[str] = ("l_quantity", "l_extendedprice", "l_discount", "l_tax")):
    """Pairwise Pearson correlations via one distributed pass of partial
    sums (n, Σx, Σxy) combined on the driver — SURVEY.md §2.5 corr
    (selection/corr.py:58-73) without materializing rows."""
    cols = list(cols)
    ds = read(sf_dir, "lineitem", cols)
    p = len(cols)

    def partial(batch: pa.Table) -> pa.Table:
        M = np.column_stack([
            batch[c].to_numpy(zero_copy_only=False).astype(np.float64)
            for c in cols
        ])
        n = len(M)
        s = M.sum(axis=0)
        xy = M.T @ M
        return pa.table({
            "n": pa.array([float(n)]),
            "s": pa.array([s.tolist()], pa.list_(pa.float64(), p)),
            "xy": pa.array([xy.ravel().tolist()], pa.list_(pa.float64(), p * p)),
        })

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True).take_all()
    n = sum(r["n"] for r in parts)
    s = np.sum([np.asarray(r["s"]) for r in parts], axis=0)
    xy = np.sum([np.asarray(r["xy"]).reshape(p, p) for r in parts], axis=0)
    mean = s / n
    cov = xy / n - np.outer(mean, mean)
    std = np.sqrt(np.diag(cov))
    corr = cov / np.outer(std, std)
    rows = []
    for i in range(p):
        for j in range(i + 1, p):
            rows.append({"col_a": cols[i], "col_b": cols[j],
                         "corr": round(float(corr[i, j]), 6)})
    import pandas as pd

    return pd.DataFrame(rows)


def top_docs_by_len(sf_dir: str, k: int = 20):
    from ..stages.rank import range_top

    ds = read(sf_dir, "documents", ["doc_id", "n_chars"])
    # n_chars may be NULL; range_top keeps it out of Ray's sort boundaries
    return range_top(ds, ["n_chars", "doc_id"], [True, False], k)


def union_all_keys(sf_dir: str):
    """Union: customer + supplier keys as one (kind, key, acctbal) table."""
    cust = read(sf_dir, "customer", ["c_custkey", "c_acctbal"])
    supp = read(sf_dir, "supplier", ["s_suppkey", "s_acctbal"])

    def c_side(batch: pa.Table) -> pa.Table:
        v = batch["c_acctbal"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({
            "kind": pa.array(["customer"] * batch.num_rows),
            "key": batch["c_custkey"].cast(pa.int64()),
            "acctbal": pa.array(np.round(v, 6)),
        })

    def s_side(batch: pa.Table) -> pa.Table:
        v = batch["s_acctbal"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({
            "kind": pa.array(["supplier"] * batch.num_rows),
            "key": batch["s_suppkey"].cast(pa.int64()),
            "acctbal": pa.array(np.round(v, 6)),
        })

    return cust.map_batches(c_side, batch_format="pyarrow").union(
        supp.map_batches(s_side, batch_format="pyarrow")
    )
