"""Distributed pivot aggregate — categorical columns widened into a
per-group feature vector (counts or exact int sums per category).

This is the feature-materialization shape of the reference's
composition featurizers (one output column per element/property,
``compositionfeaturizer.py``) lifted to a grouped aggregate: per-user
event-type count vectors, per-domain language mixes, etc.

One pass: each block emits a fixed-width partial row per group present
(``np.add.at`` into a (groups × categories) matrix — no per-row
Python); ONE group-keyed exchange sums the partials.  The category
list fixes the schema up front — pass it explicitly, or let
``distinct_categories`` discover it with a tiny column-pruned pass
(the discovered set broadcasts via the closure, one small driver list).

Counts are int64 and sums must be pre-scaled integers, so every merge
is order-independent-exact and the SQL ``FILTER (WHERE ...)`` replay
value-hashes bit-exactly.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def distinct_categories(ds, *, cat_col: str) -> list:
    """Small driver-side discovery: per-block unique values, reduced in
    a Ray task, returned as a sorted list (drives the output schema —
    keep the cardinality bounded; pass an explicit list otherwise)."""
    import ray

    from .partition import materialized_block_refs

    def uniq(b: pa.Table) -> pa.Table:
        return pa.table({cat_col: b[cat_col].combine_chunks().unique()})

    parts = ds.select_columns([cat_col]).map_batches(
        uniq, batch_format="pyarrow", zero_copy_batch=True)
    refs = materialized_block_refs(parts)

    @ray.remote
    def _reduce(*blocks):
        vals = set()
        for b in blocks:
            if cat_col in b.column_names:
                vals.update(v for v in b[cat_col].to_pylist()
                            if v is not None)
        return sorted(vals)

    return ray.get(_reduce.remote(*refs))


def pivot_agg(ds, *, group_col: str, cat_col: str,
              categories: Optional[Sequence] = None,
              value_col: Optional[str] = None,
              num_partitions: int = 16, prefix: str = "n_"):
    """Per-group category vector: ``count(*)`` per category (default) or
    exact int64 sums of ``value_col``.  Rows whose category is NULL or
    outside ``categories`` land in no column but still count toward
    ``n_total`` (count mode).  Returns ``(group_col, <prefix><cat>...,
    n_total:int64)``."""
    from .partition import partitioned_map

    if categories is None:
        categories = distinct_categories(ds, cat_col=cat_col)
    categories = list(categories)
    cat_arr = pa.array(categories)
    out_cols = [f"{prefix}{c}" for c in categories]
    if "n_total" in out_cols or len(set(out_cols)) != len(out_cols):
        raise ValueError(
            "category output names collide (a category named 'total' "
            f"with prefix {prefix!r}, or duplicate categories); rename "
            "the prefix or dedupe the category list")
    C = len(categories)

    def partial(b: pa.Table) -> pa.Table:
        g_arr = b[group_col].combine_chunks()
        gd = pc.dictionary_encode(g_arr)
        codes = gd.indices.fill_null(-1).to_numpy(
            zero_copy_only=False).astype(np.int64)
        # index_in against the FIXED category list: unknown/null -> -1
        pos = pc.index_in(b[cat_col].combine_chunks(),
                          value_set=cat_arr).fill_null(-1).to_numpy(
            zero_copy_only=False).astype(np.int64)
        n_named = len(gd.dictionary)
        has_null_g = g_arr.null_count > 0
        n_g = n_named + (1 if has_null_g else 0)
        codes = np.where(codes < 0, n_named, codes)
        mat = np.zeros((n_g, C), np.int64)
        if value_col is not None:
            # NULL weights contribute 0 — SQL sum-ignores-NULL semantics
            # (astype on the NaN a null converts to would silently write
            # INT64_MIN into the sums)
            w = pc.fill_null(b[value_col].combine_chunks(), 0).to_numpy(
                zero_copy_only=False).astype(np.int64)
        else:
            w = np.ones(len(codes), np.int64)
        inside = pos >= 0
        np.add.at(mat, (codes[inside], pos[inside]), w[inside])
        total = np.zeros(n_g, np.int64)
        np.add.at(total, codes, w)
        dic = gd.dictionary
        if has_null_g:
            dic = pa.concat_arrays([dic, pa.nulls(1, dic.type)])
        cols = {group_col: dic}
        for j, nm in enumerate(out_cols):
            cols[nm] = pa.array(mat[:, j])
        cols["n_total"] = pa.array(total)
        return pa.table(cols)

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)

    def combine(t: pa.Table) -> pa.Table:
        # group on dictionary CODES, never through pandas: a pandas
        # round-trip would coerce int64-with-null keys to float64 and
        # corrupt ids above 2^53
        g_arr = t[group_col].combine_chunks()
        gd = pc.dictionary_encode(g_arr)
        n_named = len(gd.dictionary)
        has_null = g_arr.null_count > 0
        codes = (pc.fill_null(gd.indices, n_named) if has_null
                 else gd.indices).to_numpy(
            zero_copy_only=False).astype(np.int64)
        n_g = n_named + (1 if has_null else 0)
        dic = gd.dictionary
        if has_null:
            dic = pa.concat_arrays([dic, pa.nulls(1, dic.type)])
        cols = {group_col: dic}
        for nm in out_cols + ["n_total"]:
            acc = np.zeros(n_g, np.int64)
            np.add.at(acc, codes,
                      t[nm].to_numpy(zero_copy_only=False))
            cols[nm] = pa.array(acc)
        return pa.table(cols)

    return partitioned_map(partials, combine, key=group_col,
                           sort_keys=[group_col],
                           num_partitions=num_partitions)


def _codes_dic(col):
    """Dictionary codes with a trailing null slot (keys/values never
    round-trip through pandas)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    d = pc.dictionary_encode(col)
    n_named = len(d.dictionary)
    idx = d.indices
    codes = (pc.fill_null(idx, n_named) if idx.null_count else idx
             ).to_numpy(zero_copy_only=False).astype(np.int64)
    dic = d.dictionary
    if col.null_count:
        dic = pa.concat_arrays([dic, pa.nulls(1, dic.type)])
    return codes, dic


def _gv_counts_partial(b, group_col, value_col):
    """Per-block (group, value, cnt) partial counts over dictionary
    codes; NULL values ride along (the final pick excludes them)."""
    import pandas as pd

    gc, gdic = _codes_dic(b[group_col])
    vc, vdic = _codes_dic(b[value_col])
    df = pd.DataFrame({"g": gc, "v": vc,
                       "c": np.ones(b.num_rows, np.int64)})
    agg = df.groupby(["g", "v"], as_index=False)["c"].sum()
    return pa.table({
        group_col: gdic.take(pa.array(agg["g"].to_numpy(np.int64))),
        value_col: vdic.take(pa.array(agg["v"].to_numpy(np.int64))),
        "cnt": pa.array(agg["c"].to_numpy(np.int64)),
    })


def group_mode(ds, *, group_col: str, value_col: str,
               num_partitions: int = 16):
    """Exact distributed MODE per group — the most frequent
    ``value_col`` per ``group_col`` with a deterministic tie-break
    (count desc, value asc bytewise = DuckDB binary collation), plus its
    count.

    Same two-level shape as the pivot/top_terms family: per-block
    ``(group, value, cnt)`` partials (pandas groupby over dictionary
    CODES — group keys never round-trip through pandas), ONE group-keyed
    exchange, per-partition final pick.  The shuffle moves
    O(blocks × groups × values-per-group) partial rows, never data.
    NULL groups form their own group (SQL ``GROUP BY``); NULL values
    never win (DuckDB ``mode()`` semantics) but they DO keep their group
    alive — a group whose values are all NULL still emits one row with
    ``mode_value`` NULL and ``mode_cnt`` 0, so mode output stays
    one-row-per-group for downstream joins.

    Output: ``(group_col, mode_value, mode_cnt:int64)``.
    """
    import pandas as pd

    from .partition import partitioned_map

    def partial(b: pa.Table) -> pa.Table:
        return _gv_counts_partial(b, group_col, value_col)

    def pick(t: pa.Table) -> pa.Table:
        out_schema = pa.schema([
            pa.field(group_col, t.schema.field(group_col).type),
            pa.field("mode_value", t.schema.field(value_col).type),
            pa.field("mode_cnt", pa.int64())])
        if t.num_rows == 0:
            return out_schema.empty_table()
        gc, gdic = _codes_dic(t[group_col])
        vc, vdic = _codes_dic(t[value_col])
        df = pd.DataFrame({"g": gc, "v": vc,
                           "c": t["cnt"].to_numpy(zero_copy_only=False)})
        agg = df.groupby(["g", "v"], as_index=False)["c"].sum()
        g = agg["g"].to_numpy(np.int64)
        v = agg["v"].to_numpy(np.int64)
        c = agg["c"].to_numpy(np.int64)
        # NULL values never win; groups with ONLY null values emit
        # (group, NULL, 0)
        v_valid = pc.is_valid(vdic).to_numpy(zero_copy_only=False)
        nn = np.flatnonzero(v_valid[v])
        win = np.empty(0, np.int64)
        if len(nn):
            # value byte-rank = DuckDB binary collation tie-break
            order_pos = pc.sort_indices(vdic).to_numpy(
                zero_copy_only=False)
            vrank = np.empty(len(vdic), np.int64)
            vrank[order_pos] = np.arange(len(vdic))
            order = nn[np.lexsort((vrank[v[nn]], -c[nn], g[nn]))]
            g_s = g[order]
            first = np.empty(len(g_s), np.bool_)
            first[0] = True
            first[1:] = g_s[1:] != g_s[:-1]
            win = order[first]
        only_null = np.setdiff1d(np.unique(g), g[win])
        parts = [pa.table({
            group_col: gdic.take(pa.array(g[win])),
            "mode_value": vdic.take(pa.array(v[win])),
            "mode_cnt": pa.array(c[win]),
        })]
        if len(only_null):
            parts.append(pa.table({
                group_col: gdic.take(pa.array(only_null)),
                "mode_value": pa.nulls(len(only_null), vdic.type),
                "mode_cnt": pa.array(np.zeros(len(only_null), np.int64)),
            }))
        return pa.concat_tables(parts)

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)
    return partitioned_map(partials, pick, key=group_col,
                           sort_keys=[group_col],
                           num_partitions=num_partitions)


def group_topk_values(ds, *, group_col: str, value_col: str, k: int = 3,
                      num_partitions: int = 16):
    """Exact top-``k`` most frequent values per group (the generalized
    :func:`group_mode`): ``(group_col, value_col, cnt:int64, rn:int64)``
    with ``rn`` 1-based under the deterministic (count desc, value asc
    bytewise) order — exactly SQL ``QUALIFY row_number() <= k``.

    Same plan as group_mode (per-block dictionary-code partials, one
    group-keyed exchange, vectorized per-partition pick); NULL values
    are ignored (a group with fewer than ``k`` distinct non-null values
    emits fewer rows; all-null groups emit nothing — unlike mode's
    one-row-per-group contract, a top-k listing has no natural empty
    row).
    """
    import pandas as pd

    from .partition import partitioned_map

    if k <= 0:
        raise ValueError("k must be positive")

    def partial(b: pa.Table) -> pa.Table:
        return _gv_counts_partial(b, group_col, value_col)

    def pick(t: pa.Table) -> pa.Table:
        out_schema = pa.schema([
            pa.field(group_col, t.schema.field(group_col).type),
            pa.field(value_col, t.schema.field(value_col).type),
            pa.field("cnt", pa.int64()),
            pa.field("rn", pa.int64())])
        if t.num_rows == 0:
            return out_schema.empty_table()
        gc, gdic = _codes_dic(t[group_col])
        vc, vdic = _codes_dic(t[value_col])
        df = pd.DataFrame({"g": gc, "v": vc,
                           "c": t["cnt"].to_numpy(zero_copy_only=False)})
        agg = df.groupby(["g", "v"], as_index=False)["c"].sum()
        g = agg["g"].to_numpy(np.int64)
        v = agg["v"].to_numpy(np.int64)
        c = agg["c"].to_numpy(np.int64)
        v_valid = pc.is_valid(vdic).to_numpy(zero_copy_only=False)
        nn = np.flatnonzero(v_valid[v])
        if not len(nn):
            return out_schema.empty_table()
        order_pos = pc.sort_indices(vdic).to_numpy(zero_copy_only=False)
        vrank = np.empty(len(vdic), np.int64)
        vrank[order_pos] = np.arange(len(vdic))
        order = nn[np.lexsort((vrank[v[nn]], -c[nn], g[nn]))]
        g_s = g[order]
        first = np.empty(len(g_s), np.bool_)
        first[0] = True
        first[1:] = g_s[1:] != g_s[:-1]
        starts = np.flatnonzero(first)
        run_id = np.cumsum(first) - 1
        rn = np.arange(len(g_s)) - starts[run_id] + 1
        keep = rn <= k
        win = order[keep]
        return pa.table({
            group_col: gdic.take(pa.array(g[win])),
            value_col: vdic.take(pa.array(v[win])),
            "cnt": pa.array(c[win]),
            "rn": pa.array(rn[keep]),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)
    return partitioned_map(partials, pick, key=group_col,
                           sort_keys=[group_col],
                           num_partitions=num_partitions)


def group_concat(ds, *, group_col: str, value_col: str,
                 order_cols: Sequence[str], sep: str = ",",
                 out_col: str = "concat", num_partitions: int = 16):
    """Deterministic ordered ``string_agg`` per group — the behavioral-
    sequence feature (per-user event chain, per-conversation role
    trail): SQL ``string_agg(v, sep ORDER BY order_cols)``.

    One keyed exchange; the kernel renders every group of its sorted
    partition in ONE vectorized pass (cast → filter nulls →
    list-offsets → ``binary_join``, the q41 render shape — never a UDF
    per group).  NULL values are skipped like SQL ``string_agg``;
    groups whose values are all NULL emit a NULL concat (still one row
    per group).  Output: ``(group_col, out_col:string)``.
    """

    def kernel(t: pa.Table) -> pa.Table:
        out_schema = pa.schema([
            pa.field(group_col, t.schema.field(group_col).type)
            if group_col in t.column_names
            else pa.field(group_col, pa.string()),
            pa.field(out_col, pa.string())])
        if t.num_rows == 0 or group_col not in t.column_names:
            return out_schema.empty_table()
        codes, _ = _codes_dic(t[group_col])
        piece = t[value_col].combine_chunks().cast(pa.string())
        valid = pc.is_valid(piece).to_numpy(zero_copy_only=False)
        n = len(codes)
        first = np.empty(n, np.bool_)
        first[0] = True
        first[1:] = codes[1:] != codes[:-1]
        run_id = np.cumsum(first) - 1
        n_groups = int(run_id[-1]) + 1
        # offsets over the VALID pieces only (string_agg skips NULLs)
        vcounts = np.bincount(run_id[valid], minlength=n_groups)
        offsets = np.concatenate([[0], np.cumsum(vcounts)]).astype(
            np.int64)
        joined = pc.binary_join(
            pa.LargeListArray.from_arrays(
                pa.array(offsets, pa.int64()),
                pc.cast(piece.filter(pa.array(valid)),
                        pa.large_string())),
            pa.scalar(sep, pa.large_string()))
        # all-null groups -> NULL, not "" (SQL string_agg semantics)
        joined = pc.if_else(
            pa.array(vcounts > 0), joined,
            pa.nulls(n_groups, pa.large_string()))
        starts = np.flatnonzero(first)
        return pa.table({
            group_col: t[group_col].combine_chunks().take(
                pa.array(starts, pa.int64())),
            out_col: pc.cast(joined, pa.string()),
        })

    from .partition import partitioned_map

    return partitioned_map(ds, kernel, key=group_col,
                           sort_keys=[group_col] + list(order_cols),
                           num_partitions=num_partitions)


def unpivot(ds, *, id_cols: Sequence[str], value_cols: Sequence[str],
            var_col: str = "variable", value_col: str = "value"):
    """Melt (UNPIVOT): widen-inverse — one output row per (input row ×
    value column), ``var_col`` carrying the source column name.

    Pure streaming flat map: each batch emits ``len(value_cols)``
    zero-copy column selections concatenated (id columns are reused by
    slice, no per-row Python, no exchange, no driver state) — at 100 TB
    this is a constant-factor row expansion that pipelines through the
    executor like any other map.

    All ``value_cols`` are cast to float64 (the engine's numeric
    interchange type); NULL values are preserved.  SQL replay is the
    literal ``UNION ALL`` of per-column selections.
    """
    if not value_cols:
        raise ValueError("value_cols must be non-empty")
    id_cols, value_cols = list(id_cols), list(value_cols)

    def kernel(b: pa.Table) -> pa.Table:
        parts = []
        ids = b.select(id_cols)
        for c in value_cols:
            parts.append(ids.append_column(
                var_col, pa.array([c] * b.num_rows, pa.string())
            ).append_column(
                value_col, b[c].combine_chunks().cast(pa.float64())))
        return pa.concat_tables(parts)

    return ds.map_batches(kernel, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=None)
