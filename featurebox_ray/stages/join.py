"""Co-partitioned hash equi-join (SURVEY.md §2.4).

Both sides are hash-partitioned together by the join key in one exchange
(``partition.task_exchange``, per-input form): each partition's gather
hands the kernel the left rows and the right rows as two tables, each
sorted by the key, and the kernel joins them with Arrow.  Same machinery
as the as-of join — in this sandbox it outperforms Ray's experimental
``Dataset.join`` aggregator-actor path by >10x on mid-size inputs while
scaling the same way (both sides exchange once by key hash).

For a SMALL right side prefer :func:`broadcast_join` — no shuffle at all:
the right table rides the object store once (``ray.put``) and each batch
does a dictionary lookup.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .partition import materialized_block_refs, partitioned_map, sum_partials


def keyed_right(right_ds, rbase: pa.Schema, *, on: str, right_on: str,
                key_type: pa.DataType, cols: List[str]):
    """``right_ds`` with its key named ``on`` and typed ``key_type``,
    projected to ``[on] + cols`` — one map, and only when ``right_on !=
    on`` or the key types differ; otherwise ``right_ds`` itself.  It
    runs before the exchange's split, so both sides' keys hash alike
    and meet in one type in the kernel."""
    if right_on == on and rbase.field(right_on).type == key_type:
        return right_ds

    def rekey(t: pa.Table) -> pa.Table:
        return pa.table({on: t[right_on].cast(key_type),
                         **{c: t[c] for c in cols}})

    return right_ds.map_batches(rekey, batch_format="pyarrow",
                                zero_copy_batch=True)


def _co_sides(right_ds, lbase: pa.Schema, rbase: pa.Schema, *, on: str,
              right_on: str, left_cols: List[str], right_cols: List[str]):
    """The shared front of :func:`hash_join` and :func:`cogroup`.
    Returns the right input keyed like the left (:func:`keyed_right`),
    and ``sides(lt, rt)``, which gives a gather's two tables as
    ``left_cols`` and ``[on] + right_cols``, typed empty when a side has
    no rows there."""
    key_type = lbase.field(on).type
    right_ds = keyed_right(right_ds, rbase, on=on, right_on=right_on,
                           key_type=key_type, cols=right_cols)
    lempty = pa.schema([lbase.field(c) for c in left_cols]).empty_table()
    rempty = pa.schema([pa.field(on, key_type)]
                       + [rbase.field(c) for c in right_cols]).empty_table()

    def sides(lt: pa.Table, rt: pa.Table):
        return (lt.select(left_cols) if lt.num_rows else lempty,
                rt.select([on] + right_cols) if rt.num_rows else rempty)

    return right_ds, sides


def _base(ds) -> pa.Schema:
    schema = ds.schema()
    return getattr(schema, "base_schema", schema)


def hash_join(
    left_ds,
    right_ds,
    *,
    on: str,
    right_on: Optional[str] = None,
    how: str = "inner",
    num_partitions: int = 32,
    left_cols: Optional[List[str]] = None,
    right_cols: Optional[List[str]] = None,
    combine=None,
):
    """Equi-join on a single key column.  ``right_on`` defaults to ``on``
    (the right key is renamed to ``on`` in the output when different).
    Supported ``how``: inner, left, full (full outer coalesces the key,
    so right-only rows carry their key in ``on`` with null left
    payloads).

    ``combine`` (optional, ``pa.Table -> pa.Table``): partial-aggregation
    callback applied to each partition's joined rows *before* they leave
    the join task — the join-aware aggregate pushdown that LMFAO (VLDB'20,
    "An Engine for Batches of Group-By Aggregates") formalizes: aggregate
    inside the join instead of shuffling the full join output."""
    right_on = right_on or on
    lbase, rbase = _base(left_ds), _base(right_ds)
    left_cols = left_cols or list(lbase.names)
    right_cols = right_cols or [n for n in rbase.names if n != right_on]
    overlap = [c for c in right_cols if c in left_cols]
    if overlap:
        raise ValueError(f"overlapping output columns {overlap}; project first")
    right_ds, sides = _co_sides(right_ds, lbase, rbase, on=on,
                                right_on=right_on, left_cols=left_cols,
                                right_cols=right_cols)
    arrow_how = {"inner": "inner", "left": "left outer",
                 "full": "full outer"}[how]
    out_order = list(left_cols) + list(right_cols)

    def merge(lt: pa.Table, rt: pa.Table) -> pa.Table:
        # Arrow-native per-partition join: no pandas round-trip, and —
        # unlike pandas merge — unmatched left rows null-fill the right
        # columns WITHOUT promoting int64 -> float64, so every partition
        # emits the same fixed schema
        lt, rt = sides(lt, rt)
        joined = lt.join(rt, keys=on, join_type=arrow_how).select(out_order)
        return combine(joined) if combine is not None else joined

    return partitioned_map(
        [left_ds, right_ds], merge, key=on, sort_keys=[[on], [on]],
        num_partitions=num_partitions,
    )


def broadcast_join(left_ds, right_table, *, on: str,
                   right_on: Optional[str] = None,
                   batch_size: int = 65536, concurrency=(1, 8)):
    """Map-side join against a small right side (no shuffle): the right
    table rides the object store once and each actor runs an Arrow hash
    join per batch.  Left rows with no match get nulls (left join); output
    row order within a batch follows the Arrow join, not the input.

    ``right_table`` may be a ``pa.Table`` (``ray.put`` once) or a Ray
    ``Dataset`` — then only its block REFS travel through the driver and
    the bytes are concatenated inside each actor."""
    right_on = right_on or on
    if isinstance(right_table, pa.Table):
        refs = [ray.put(right_table)]
    else:
        refs = materialized_block_refs(right_table)

    class Joiner:
        def __init__(self):
            blocks = []
            for b in ray.get(list(refs)):
                if not isinstance(b, pa.Table):  # rare pandas block
                    b = pa.Table.from_pandas(b, preserve_index=False)
                blocks.append(b)
            rt = pa.concat_tables(blocks, promote_options="default")
            if right_on != on:
                rt = rt.rename_columns(
                    [on if c == right_on else c for c in rt.column_names])
            self.rt = rt.combine_chunks()
            self.extra = [c for c in self.rt.column_names if c != on]

        def __call__(self, batch: pa.Table) -> pa.Table:
            # Arrow hash join: type-stable null fill (no int->float
            # promotion on unmatched rows), zero pandas copies
            out = batch.join(self.rt, keys=on, join_type="left outer")
            return out.select(list(batch.column_names) + self.extra)

    return left_ds.map_batches(
        Joiner, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=batch_size, concurrency=concurrency,
    )


def auto_join(left_ds, right_ds, *, on: str,
              right_on: Optional[str] = None, how: str = "inner",
              broadcast_threshold_rows: int = 1_000_000,
              num_partitions: int = 32):
    """Strategy-dispatching equi-join (the AQE-style broadcast
    decision): if the right side is small enough, run the shuffle-free
    :func:`broadcast_join`; otherwise the co-partitioned task-exchange
    :func:`hash_join`.

    The size probe is ``right_ds.count()`` — metadata-cheap on parquet
    reads and materialized datasets; pass a pre-counted threshold
    decision (call the target join directly) when the right side ends
    in expensive lazy stages (the ``.schema()``/``.count()`` execution
    hazard documented at ``fused_features_backfill``'s ``left_schema``).

    ``how`` other than ``inner``/``left`` always takes the hash-join
    path (the broadcast join is left-outer by construction: probe rows
    with no match get nulls — for ``inner`` the null matches are
    filtered after the probe).
    """
    # materialize once: the count probe would otherwise execute the
    # right lineage and the chosen join path would re-execute it all
    right_ds = right_ds.materialize()
    n_right = right_ds.count()
    if how in ("inner", "left") and n_right <= broadcast_threshold_rows:
        key = right_on or on
        if how == "left":
            return broadcast_join(left_ds, right_ds, on=on,
                                  right_on=key)
        # inner: the broadcast probe is left-outer by construction, so
        # attach an explicit match indicator to the right side (never
        # infer matches from a value column — right values can be NULL
        # on legitimately matched rows) and filter on it
        def tag(b: pa.Table) -> pa.Table:
            return b.append_column(
                "__m", pa.array(np.ones(b.num_rows, np.int8)))

        tagged = right_ds.map_batches(tag, batch_format="pyarrow",
                                      zero_copy_batch=True)
        out = broadcast_join(left_ds, tagged, on=on, right_on=key)

        def drop_unmatched(b: pa.Table) -> pa.Table:
            return b.filter(pc.is_valid(b["__m"])).drop_columns(["__m"])

        return out.map_batches(drop_unmatched, batch_format="pyarrow",
                               zero_copy_batch=True)
    return hash_join(left_ds, right_ds, on=on, right_on=right_on,
                     how=how, num_partitions=num_partitions)


def salted_join(left_ds, right_ds, *, on: str,
                right_on: Optional[str] = None,
                left_cols: Optional[List[str]] = None,
                right_cols: Optional[List[str]] = None,
                hot_threshold: int = 1_000_000,
                max_hot_keys: int = 1024,
                probe_top: int = 64,
                max_hot_right_rows: int = 2_000_000,
                num_partitions: int = 32):
    """Skew-adaptive inner equi-join — the "salt hot keys" remedy as
    one operator: probe the LEFT key histogram cheaply, then route
    rows with hot keys (≥ ``hot_threshold`` occurrences) through a
    shuffle-free broadcast probe of just those keys' right rows, and
    everything else through the co-partitioned task exchange.  A
    single mega-key therefore never lands in one gather task: its
    rows stay spread across the left's blocks and join map-side.

    Hot detection is APPROXIMATE by design (per-block top-
    ``probe_top`` count partials, Arrow-combined; capped at
    ``max_hot_keys`` hottest) — mis-classification only changes
    ROUTING, never the result, so the output is partition- and
    probe-invariant and replays as a plain SQL inner join.  The hot
    right subset must fit a broadcast (``max_hot_right_rows`` guard,
    raises with the fix).  NULL keys drop (inner semantics).

    Returns columns ``left_cols + right_cols`` (defaults: all left
    columns; all right columns except the key).
    Reference analog: none (scale operator; the operator form of the
    key_histogram→salting playbook in stages/partition.py).
    """
    right_on = right_on or on
    left_ds = left_ds.materialize()
    right_ds = right_ds.materialize()
    lbase, rbase = _base(left_ds), _base(right_ds)
    left_cols = left_cols or list(lbase.names)
    right_cols = right_cols or [c for c in rbase.names
                                if c != right_on]
    key_type = lbase.field(on).type

    def probe(b: pa.Table) -> pa.Table:
        empty = pa.table({"k": pa.array([], key_type),
                          "cnt": pa.array([], pa.int64())})
        if b.num_rows == 0 or on not in b.column_names:
            return empty
        col = b[on].combine_chunks()
        col = col.filter(pc.is_valid(col))
        if len(col) == 0:
            return empty
        vc = col.value_counts()
        t = pa.table({"k": vc.field("values"),
                      "cnt": vc.field("counts").cast(pa.int64())})
        if t.num_rows > probe_top:
            t = t.sort_by([("cnt", "descending")]).slice(0, probe_top)
        return t

    pds = left_ds.map_batches(probe, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)
    comb = sum_partials(ray.get(materialized_block_refs(pds)),
                        keys=["k"], vals=["cnt"])
    hot_arr = None
    if comb is not None:
        hot_t = comb.filter(pc.greater_equal(comb["cnt"],
                                             hot_threshold))
        if hot_t.num_rows > max_hot_keys:
            hot_t = (hot_t.sort_by([("cnt", "descending")])
                     .slice(0, max_hot_keys))
        if hot_t.num_rows:
            hot_arr = hot_t["k"].combine_chunks()

    if hot_arr is None:
        return hash_join(left_ds, right_ds, on=on, right_on=right_on,
                         how="inner", num_partitions=num_partitions,
                         left_cols=left_cols, right_cols=right_cols)

    hot_ref = ray.put(hot_arr)

    def split_side(keep_hot: bool, key_col: str):
        def fn(b: pa.Table) -> pa.Table:
            if b.num_rows == 0 or key_col not in b.column_names:
                return b
            m = pc.fill_null(pc.is_in(
                b[key_col], value_set=ray.get(hot_ref)), False)
            return b.filter(m if keep_hot else
                            pc.and_(pc.invert(m),
                                    pc.is_valid(b[key_col])))
        return fn

    # hot path: broadcast just the hot keys' right rows, probe map-side
    hot_right_blocks = []
    for blk in ray.get(materialized_block_refs(right_ds)):
        if blk.num_rows == 0 or right_on not in blk.column_names:
            continue
        m = pc.fill_null(pc.is_in(blk[right_on], value_set=hot_arr),
                         False)
        f = blk.filter(m).select([right_on] + right_cols)
        if f.num_rows:
            hot_right_blocks.append(f)
    hot_right = (pa.concat_tables(hot_right_blocks,
                                  promote_options="default")
                 if hot_right_blocks else
                 pa.table({right_on: pa.array([], key_type),
                           **{c: pa.array([], rbase.field(c).type)
                              for c in right_cols}}))
    if hot_right[right_on].type != key_type:
        # the right key takes the left key's type, as hash_join's does:
        # a right key of a narrower int type would fail Arrow's join
        hot_right = hot_right.set_column(
            hot_right.column_names.index(right_on), right_on,
            hot_right[right_on].cast(key_type))
    if hot_right.num_rows > max_hot_right_rows:
        raise ValueError(
            f"salted_join: hot right subset holds "
            f"{hot_right.num_rows} rows > max_hot_right_rows "
            f"({max_hot_right_rows}) — raise hot_threshold or the "
            "cap, or pre-aggregate the right side")
    hot_right = hot_right.append_column(
        "__m", pa.array(np.ones(hot_right.num_rows, np.int8)))

    left_hot = left_ds.map_batches(
        split_side(True, on), batch_format="pyarrow",
        zero_copy_batch=True).map_batches(
        lambda b: b.select(left_cols) if b.num_rows or
        set(left_cols) <= set(b.column_names) else b,
        batch_format="pyarrow", zero_copy_batch=True)
    hot_out = broadcast_join(left_hot, hot_right, on=on,
                             right_on=right_on)

    def drop_unmatched(b: pa.Table) -> pa.Table:
        if "__m" not in b.column_names:
            return b
        return (b.filter(pc.is_valid(b["__m"]))
                .drop_columns(["__m"]).select(left_cols + right_cols))

    hot_out = hot_out.map_batches(drop_unmatched,
                                  batch_format="pyarrow",
                                  zero_copy_batch=True)

    # cold path: both sides filtered to non-hot keys, normal exchange
    left_cold = left_ds.map_batches(split_side(False, on),
                                    batch_format="pyarrow",
                                    zero_copy_batch=True)
    right_cold = right_ds.map_batches(split_side(False, right_on),
                                      batch_format="pyarrow",
                                      zero_copy_batch=True)
    cold_out = hash_join(left_cold, right_cold, on=on,
                         right_on=right_on, how="inner",
                         num_partitions=num_partitions,
                         left_cols=left_cols, right_cols=right_cols)
    return hot_out.union(cold_out)


def cogroup(left_ds, right_ds, *, on: str, right_on: Optional[str] = None,
            kernel=None, sort_keys=(), num_partitions: int = 32):
    """Public co-group primitive (the §2.13 extension surface): run a
    user ``kernel(left_tbl: pa.Table, right_tbl: pa.Table) ->
    pa.Table`` once per hash partition of the key, with BOTH sides'
    rows for that partition's keys co-located (never split) and each
    side sorted by ``(key, *sort_keys∩side)``.  This is the task
    exchange's per-input gather (``partition.task_exchange``) that the
    built-in two-sided ops (:func:`hash_join`, ``asof.asof_join``, the
    fused transcript backfill) ride, exposed so a user can write a
    custom merge/interval/reconciliation operator without touching
    engine internals.

    Contract: non-key column names must be DISJOINT across sides
    (validated upfront); the right key column arrives renamed to
    ``on``; NULL keys co-locate as one group (SQL ``PARTITION BY``
    convention); the kernel must return a fixed-schema table
    (including for empty inputs — it is invoked with empty sides for
    all-empty partitions so the output schema is stable).

    Scale shape: ONE all-to-all of both inputs, then pure map —
    exactly one exchange regardless of kernel complexity.
    """
    if kernel is None:
        raise ValueError("cogroup: kernel is required")
    right_on = right_on or on
    lbase, rbase = _base(left_ds), _base(right_ds)
    left_cols = list(lbase.names)
    right_cols = [c for c in rbase.names if c != right_on]
    # hash_join's stronger rule: ANY right column already present on
    # the left clashes — including one named `on` itself (it would
    # collide with the renamed right key)
    clash = [c for c in right_cols if c in left_cols]
    if clash:
        raise ValueError(
            f"cogroup: column name(s) {sorted(clash)} appear on both "
            "sides — project or rename first")
    right_ds, sides = _co_sides(right_ds, lbase, rbase, on=on,
                                right_on=right_on, left_cols=left_cols,
                                right_cols=right_cols)
    lsort = [on] + [k for k in sort_keys if k in left_cols]
    rsort = [on] + [k for k in sort_keys if k in right_cols]
    return partitioned_map([left_ds, right_ds],
                           lambda lt, rt: kernel(*sides(lt, rt)), key=on,
                           sort_keys=[lsort, rsort],
                           num_partitions=num_partitions)
