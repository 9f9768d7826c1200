"""Distributed ROLLUP aggregate — all prefix grouping levels of
``(g1, g2)`` in ONE pass over the data (ANSI ``GROUP BY ROLLUP``).

The naive plan runs one groupby per level (three passes at two columns);
this operator computes per-block partials at the FINEST level once, and
every coarser level re-aggregates those partials, never the data:

1. per-block partial ``(g1, g2, count, int-sums)`` rows;
2. ONE g1-keyed exchange: each partition holds every ``(g1, *)`` partial
   of its g1 values, so it emits COMPLETE ``(g1, g2)`` rows (lvl 0) and
   ``(g1)`` rollup rows (lvl 1), plus a single partition-local grand
   partial (lvl 3, incomplete);
3. the ≤ num_partitions grand partials meet in one tiny final combine.

``lvl`` mirrors SQL ``GROUPING(g1, g2)``: 0 = both grouped, 1 = g2
rolled up (its output value NULL), 3 = grand total (both NULL) — so a
DuckDB ``ROLLUP`` query replays the whole table including the marker.
Aggregates are restricted to order-independent-exact reducers (count +
int64 sums); see q65.

Reference analog: none (the reference aggregates one level at a time,
e.g. the GP logbook stats flow.py:202-211); this is an added-for-100-TB
reporting primitive in the relational family.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def rollup_counts(ds, *, g1: str, g2: str, int_sum_cols: Sequence[str],
                  num_partitions: int = 16, cube: bool = False):
    """ROLLUP(g1, g2) with ``count(*)`` and exact int64 sums of
    ``int_sum_cols`` (pass pre-scaled integer columns — money in cents —
    so results are independent of summation order).

    Returns ``(g1, g2, lvl:int64, n_rows:int64, <sum_<col>:int64 ...>)``
    with NULL group values on rolled-up levels, exactly like SQL.

    ``cube=True`` adds the ``(g2)``-only level (SQL ``GROUP BY CUBE``,
    ``lvl = GROUPING(g1,g2) = 2``): the g1-keyed exchange cannot
    complete it (a g2 value spans g1 partitions), so each partition
    emits tiny incomplete g2 partials and a SECOND exchange — over
    ≤ partitions × |g2| partial rows, never the data — completes them.
    """
    from .partition import partitioned_map, partitioned_refs

    sum_names = [f"sum_{c}" for c in int_sum_cols]

    def _codes_dic(col: pa.ChunkedArray):
        """Dictionary codes with a trailing null slot — group keys never
        round-trip through pandas values (an all-None block would infer
        the null type; int64-with-null keys would coerce to float64 and
        corrupt ids above 2^53)."""
        d = pc.dictionary_encode(col.combine_chunks())
        n_named = len(d.dictionary)
        idx = d.indices
        codes = (pc.fill_null(idx, n_named) if idx.null_count else idx
                 ).to_numpy(zero_copy_only=False).astype(np.int64)
        dic = d.dictionary
        if col.null_count:
            dic = pa.concat_arrays([dic, pa.nulls(1, dic.type)])
        return codes, dic

    def partial(b: pa.Table) -> pa.Table:
        c1, dic1 = _codes_dic(b[g1])
        c2, dic2 = _codes_dic(b[g2])
        df = pd.DataFrame({"c1": c1, "c2": c2,
                           "n_rows": np.ones(b.num_rows, np.int64)})
        for c, nm in zip(int_sum_cols, sum_names):
            df[nm] = b[c].to_numpy(zero_copy_only=False).astype(np.int64)
        out = df.groupby(["c1", "c2"], as_index=False).sum()
        cols = {
            g1: dic1.take(pa.array(out["c1"].to_numpy(np.int64))),
            g2: dic2.take(pa.array(out["c2"].to_numpy(np.int64))),
        }
        for nm in ["n_rows"] + sum_names:
            cols[nm] = pa.array(out[nm].to_numpy(np.int64))
        return pa.table(cols)

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)

    metric_cols = ["n_rows"] + sum_names

    def _lvl2_table(df, dic2, gt1) -> pa.Table:
        """(g2)-only rows (lvl 2) from a codes frame — shared by the
        cube-partial emit and the second-exchange completion so the two
        sides can never drift in shape."""
        agg = df.groupby(["c2"], as_index=False)[metric_cols].sum()
        return pa.table({
            g1: pa.nulls(len(agg), gt1),
            g2: dic2.take(pa.array(agg["c2"].to_numpy(np.int64))),
            "lvl": pa.array(np.full(len(agg), 2, np.int64)),
            **{m: pa.array(agg[m].to_numpy(np.int64))
               for m in metric_cols}})

    def combine(t: pa.Table) -> pa.Table:
        c1, dic1 = _codes_dic(t[g1])
        c2, dic2 = _codes_dic(t[g2])
        gt1 = t.schema.field(g1).type
        gt2 = t.schema.field(g2).type
        df = pd.DataFrame({"c1": c1, "c2": c2})
        for m in metric_cols:
            df[m] = t[m].to_numpy(zero_copy_only=False).astype(np.int64)
        fine = df.groupby(["c1", "c2"], as_index=False)[metric_cols].sum()
        mid = df.groupby(["c1"], as_index=False)[metric_cols].sum()
        grand = df[metric_cols].sum()

        def take1(codes_np):
            return dic1.take(pa.array(codes_np.to_numpy(np.int64)))

        parts = []
        parts.append(pa.table({
            g1: take1(fine["c1"]),
            g2: dic2.take(pa.array(fine["c2"].to_numpy(np.int64))),
            "lvl": pa.array(np.zeros(len(fine), np.int64)),
            **{m: pa.array(fine[m].to_numpy(np.int64))
               for m in metric_cols}}))
        parts.append(pa.table({
            g1: take1(mid["c1"]),
            g2: pa.nulls(len(mid), gt2),
            "lvl": pa.array(np.full(len(mid), 1, np.int64)),
            **{m: pa.array(mid[m].to_numpy(np.int64))
               for m in metric_cols}}))
        # incomplete grand partial: merged in the final pass (lvl 3)
        parts.append(pa.table({
            g1: pa.nulls(1, gt1), g2: pa.nulls(1, gt2),
            "lvl": pa.array([3], pa.int64()),
            **{m: pa.array([int(grand[m])], pa.int64())
               for m in metric_cols}}))
        if cube:
            # incomplete (g2)-only partials: a g2 value spans g1
            # partitions, so these are completed by a second (tiny)
            # g2-keyed exchange below (lvl 2).
            parts.append(_lvl2_table(df, dic2, gt1))
        return pa.concat_tables(parts)

    refs = partitioned_refs(partials, combine, key=g1,
                            sort_keys=[g1], num_partitions=num_partitions)

    # grand partials (one per partition) meet in one tiny final combine;
    # complete rows pass through untouched.
    import ray

    def split_done(b: pa.Table) -> pa.Table:
        lv = b["lvl"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array((lv != 3) & (lv != 2)))

    def split_grand(b: pa.Table) -> pa.Table:
        lv = b["lvl"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array(lv == 3))

    def split_cube(b: pa.Table) -> pa.Table:
        lv = b["lvl"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array(lv == 2))

    done = ray.data.from_arrow_refs(list(refs)).map_batches(
        split_done, batch_format="pyarrow", zero_copy_batch=True)
    grands = ray.data.from_arrow_refs(list(refs)).map_batches(
        split_grand, batch_format="pyarrow", zero_copy_batch=True)

    def final(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        cols = {g1: pa.nulls(1, t.schema.field(g1).type),
                g2: pa.nulls(1, t.schema.field(g2).type),
                "lvl": pa.array([3], pa.int64())}
        for m in metric_cols:
            cols[m] = pa.array([int(df[m].sum())], pa.int64())
        return pa.table(cols)

    total = partitioned_map(grands, final, key="lvl", sort_keys=["lvl"],
                            num_partitions=1)
    out = done.union(total)

    if cube:
        # complete the (g2)-only level: ≤ num_partitions × |g2| partial
        # rows meet keyed on g2 (nulls hash to their own partition), each
        # g2 run collapses to one complete lvl-2 row.
        cubes = ray.data.from_arrow_refs(list(refs)).map_batches(
            split_cube, batch_format="pyarrow", zero_copy_batch=True)

        def complete_g2(t: pa.Table) -> pa.Table:
            c2, dic2 = _codes_dic(t[g2])
            df = pd.DataFrame({"c2": c2})
            for m in metric_cols:
                df[m] = t[m].to_numpy(zero_copy_only=False).astype(np.int64)
            return _lvl2_table(df, dic2, t.schema.field(g1).type)

        cube_done = partitioned_map(
            cubes, complete_g2, key=g2, sort_keys=[g2],
            num_partitions=min(num_partitions, 8))
        out = out.union(cube_done)

    return out
