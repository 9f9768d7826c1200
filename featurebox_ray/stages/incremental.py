"""Incremental aggregate refresh — materialized-view maintenance for
grouped aggregates: keep a compact MERGEABLE state table ``(keys...,
n, sum_c, min_c, max_c)`` on disk, and when new data arrives fold ONLY
the delta into it instead of re-aggregating the full history.  At
100 TB this is the difference between an O(delta) nightly refresh and
an O(corpus) one.

The mergeability discipline: every stored statistic is a commutative
monoid value (count/sum over int64 cents, min/max), and every
NON-mergeable output (avg) is derived at read time by
:func:`finalize_agg` from the mergeable parts — the classic "store
sum+count, never avg" rule.  Because a single raw row is itself a
state (``n=1, sum=min=max=cents``), ONE merge kernel serves both
initial aggregation and refresh: ``group_agg_state`` = unit states →
per-block local combine → one key-keyed exchange; ``refresh`` = the
old state table and the delta's states exchanged together through the
same kernel.

Exactness: cents are exact int64 (``functions/segments.py:
cents_exact`` — NULL value → 0 like SQL coalesce), all merges are
integer, and avg is the single IEEE division — the DuckDB GROUP BY
replay over base+delta together is bit-exact, which is precisely the
maintenance invariant (refreshed view ≡ view recomputed from
scratch).

Rows with a NULL key (any of ``key_cols``) drop — a view keyed on
them has no bucket to land in.

Reference analog: none (the reference recomputes in memory); this is
the warehouse-side sibling of the CDC compaction in stages/cdc.py
(which maintains ROW state; this maintains AGGREGATE state).
"""

from __future__ import annotations

from typing import List

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.segments import cents_exact
from .partition import partitioned_map

STATE_COLS = ("n", "sum_c", "min_c", "max_c")


def _merge_kernel_factory(key_cols: List[str], empty: pa.Table):
    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "n" not in t.column_names:
            return empty
        # sorted by key_cols: composite-key runs are contiguous;
        # detect run starts across ALL key columns via dictionary
        # codes (collision-free — never a joined-string key)
        start = np.zeros(t.num_rows, bool)
        start[0] = True
        for k in key_cols:
            enc = pc.dictionary_encode(t[k].combine_chunks())
            codes = (pc.fill_null(enc.indices, -1)
                     .to_numpy(zero_copy_only=False))
            start[1:] |= codes[1:] != codes[:-1]
        rf = np.flatnonzero(start)
        cols = {k: t[k].combine_chunks().take(
            pa.array(rf, pa.int64())) for k in key_cols}
        n = t["n"].to_numpy(zero_copy_only=False)
        s = t["sum_c"].to_numpy(zero_copy_only=False)
        mn = t["min_c"].to_numpy(zero_copy_only=False)
        mx = t["max_c"].to_numpy(zero_copy_only=False)
        cols["n"] = pa.array(np.add.reduceat(n, rf))
        cols["sum_c"] = pa.array(np.add.reduceat(s, rf))
        cols["min_c"] = pa.array(np.minimum.reduceat(mn, rf))
        cols["max_c"] = pa.array(np.maximum.reduceat(mx, rf))
        return pa.table(cols)

    return kernel


def _unit_states(key_cols: List[str], value_col: str):
    def f(b: pa.Table) -> pa.Table:
        mask = pc.is_valid(b[key_cols[0]])
        for k in key_cols[1:]:
            mask = pc.and_(mask, pc.is_valid(b[k]))
        mask = pc.fill_null(mask, False)
        if not pc.all(mask).as_py():
            b = b.filter(mask)
        cents = cents_exact(b[value_col].combine_chunks(),
                            col=value_col)
        cols = {k: b[k] for k in key_cols}
        cols["n"] = pa.array(np.ones(b.num_rows, np.int64))
        cols["sum_c"] = pa.array(cents)
        cols["min_c"] = pa.array(cents)
        cols["max_c"] = pa.array(cents)
        return pa.table(cols)

    return f


def _empty_state(schema: pa.Schema, key_cols: List[str]) -> pa.Table:
    cols = {k: pa.array([], schema.field(k).type) for k in key_cols}
    for c in STATE_COLS:
        cols[c] = pa.array([], pa.int64())
    return pa.table(cols)


def _local_combine(key_cols: List[str], empty: pa.Table):
    kernel = _merge_kernel_factory(key_cols, empty)

    def f(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return empty
        idx = pc.sort_indices(
            b, sort_keys=[(k, "ascending") for k in key_cols])
        return kernel(b.take(idx))

    return f


def group_agg_state(ds, *, key_cols: List[str], value_col: str,
                    num_partitions: int = 16):
    """Aggregate raw rows into the mergeable state table
    ``(key_cols..., n, sum_c, min_c, max_c)``: unit states →
    per-block local combine (the combiner pushdown — the exchange
    moves one row per distinct key per block) → one keyed exchange."""
    base = ds.schema()
    base = getattr(base, "base_schema", base)
    empty = _empty_state(base, key_cols)
    units = ds.map_batches(_unit_states(key_cols, value_col),
                           batch_format="pyarrow",
                           zero_copy_batch=True)
    pre = units.map_batches(_local_combine(key_cols, empty),
                            batch_format="pyarrow",
                            zero_copy_batch=True, batch_size=None)
    return partitioned_map(pre, _merge_kernel_factory(key_cols, empty),
                           key=key_cols[0], sort_keys=list(key_cols),
                           num_partitions=num_partitions)


def refresh_agg_state(state_ds, delta_ds, *, key_cols: List[str],
                      value_col: str, num_partitions: int = 16):
    """Fold a raw-row delta into an existing state table: the delta
    reduces to states (same combiner pushdown), and ONE keyed exchange
    of it together with the old state re-merges — the old raw data is
    never read.  The delta's keys take the state's key types, so a
    ``large_string`` or ``int32`` delta meets a ``string`` or ``int64``
    state."""
    base = state_ds.schema()
    if base is None:
        base = delta_ds.schema()
    base = getattr(base, "base_schema", base)
    empty = _empty_state(base, key_cols)
    unit = _unit_states(key_cols, value_col)
    units = delta_ds.map_batches(lambda b: unit(b).cast(empty.schema),
                                 batch_format="pyarrow",
                                 zero_copy_batch=True)
    pre = units.map_batches(_local_combine(key_cols, empty),
                            batch_format="pyarrow",
                            zero_copy_batch=True, batch_size=None)
    combine = _local_combine(key_cols, empty)

    def merge(state: pa.Table, delta: pa.Table) -> pa.Table:
        # one sort of both inputs together (neither is sorted alone)
        full = [t for t in (state, delta) if t.num_rows]
        return (combine(pa.concat_tables(full, promote_options="default"))
                if full else empty)

    return partitioned_map([state_ds, pre], merge, key=key_cols[0],
                           sort_keys=[[], []],
                           num_partitions=num_partitions)


def finalize_agg(state_ds):
    """Derive the read-time view from a state table: adds
    ``avg = double(sum_c)/double(n)/100`` (cents → value units; the
    fixed IEEE expression SQL replays bit-exactly)."""

    def f(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "n" not in b.column_names:
            return b.append_column("avg", pa.array([], pa.float64()))
        n = b["n"].to_numpy(zero_copy_only=False)
        s = b["sum_c"].to_numpy(zero_copy_only=False)
        avg = s.astype(np.float64) / n.astype(np.float64) / 100.0
        return b.append_column("avg", pa.array(avg, pa.float64()))

    return state_ds.map_batches(f, batch_format="pyarrow",
                                zero_copy_batch=True)
