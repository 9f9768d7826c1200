"""CDC changelog compaction — apply an ordered upsert/delete changelog
to a base snapshot and emit the latest state per key (the merge/compact
step every incremental 100-TB table maintenance job runs).

Shape: ONE tagged-union keyed exchange (base rows tag 0, log rows tag 1)
routed on the key, each partition sorted by ``(key, tag, *order_cols)``
so a key's segment ends with its LAST changelog row.  The kernel is one
vectorized run-length pass — no per-key Python.  Semantics:

* a key with changelog rows takes the value of the LAST log row
  (deterministic under the caller-supplied total order);
* if that last row is a delete, the key is dropped (even if earlier log
  rows upserted it — delete-then-upsert keeps the upsert, upsert-then-
  delete drops);
* keys only in the base pass through unchanged (``op='keep'``);
* keys only in the log insert with NULL payload columns
  (``op='insert'``); keys in both update (``op='update'``).

Base keys must be unique (it is a snapshot); duplicate base rows for a
key raise.  NULL keys must be filtered by the caller's prep.

Reference analog: none (the reference has no incremental maintenance);
this is an added-for-100-TB table-compaction primitive.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["cdc_compact"]


def cdc_compact(base_ds, log_ds, *, key_col: str, order_cols: Sequence[str],
                value_col: str, delete_col: str,
                payload_cols: Sequence[str] = (),
                num_partitions: int = 16):
    """Compact ``base_ds`` (unique ``key_col`` + ``payload_cols`` +
    ``value_col``) with ``log_ds`` (``key_col`` + ``order_cols`` +
    ``value_col`` + boolean ``delete_col``) → latest state per key:
    ``(key_col, *payload_cols, value_col, op:string)`` with ``op`` in
    {'keep', 'update', 'insert'}; deleted keys emit nothing."""
    from .partition import partitioned_map

    order_cols = list(order_cols)
    payload_cols = list(payload_cols)

    base_schema = base_ds.schema()
    base_schema = getattr(base_schema, "base_schema", base_schema)
    log_schema = log_ds.schema()
    log_schema = getattr(log_schema, "base_schema", log_schema)
    key_type = base_schema.field(key_col).type
    val_type = base_schema.field(value_col).type
    pay_types = {c: base_schema.field(c).type for c in payload_cols}
    ord_types = {c: log_schema.field(c).type for c in order_cols}

    def tag_base(b: pa.Table) -> pa.Table:
        if b[key_col].null_count:
            raise ValueError(f"NULL {key_col} in base snapshot — filter "
                             "keys upstream")
        cols = {key_col: b[key_col],
                "__side": pa.array(np.zeros(b.num_rows, np.int8))}
        for c in order_cols:
            cols[c] = pa.nulls(b.num_rows, ord_types[c])
        cols[value_col] = b[value_col].combine_chunks().cast(val_type)
        cols["__del"] = pa.array(np.zeros(b.num_rows, bool))
        for c in payload_cols:
            cols[c] = b[c]
        return pa.table(cols)

    def tag_log(b: pa.Table) -> pa.Table:
        if b[key_col].null_count:
            raise ValueError(f"NULL {key_col} in changelog — filter keys "
                             "upstream")
        cols = {key_col: b[key_col].combine_chunks().cast(key_type),
                "__side": pa.array(np.ones(b.num_rows, np.int8))}
        for c in order_cols:
            cols[c] = b[c]
        cols[value_col] = b[value_col].combine_chunks().cast(val_type)
        cols["__del"] = pc.fill_null(b[delete_col], False)
        for c in payload_cols:
            cols[c] = pa.nulls(b.num_rows, pay_types[c])
        return pa.table(cols)

    sides = [base_ds.map_batches(tag_base, batch_format="pyarrow",
                                 zero_copy_batch=True),
             log_ds.map_batches(tag_log, batch_format="pyarrow",
                                zero_copy_batch=True)]

    empty_cols = {key_col: pa.array([], key_type)}
    for c in payload_cols:
        empty_cols[c] = pa.array([], pay_types[c])
    empty_cols[value_col] = pa.array([], val_type)
    empty_cols["op"] = pa.array([], pa.string())
    empty = pa.table(empty_cols)

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        keys = t[key_col].combine_chunks()
        side = t["__side"].to_numpy(zero_copy_only=False)
        codes = pc.dictionary_encode(keys).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        new_run = np.concatenate([[True], codes[1:] != codes[:-1]])
        starts = np.flatnonzero(new_run)
        ends = np.concatenate([starts[1:], [len(codes)]]) - 1
        # base uniqueness: a key may contribute at most one tag-0 row
        n_base = np.add.reduceat((side == 0).astype(np.int64), starts)
        if int(n_base.max(initial=0)) > 1:
            raise ValueError(f"duplicate {key_col} in base snapshot — "
                             "base keys must be unique (exact_dedup "
                             "upstream)")
        has_base = side[starts] == 0
        has_log = side[ends] == 1
        dels = pc.fill_null(t["__del"], False).to_numpy(
            zero_copy_only=False)
        keep = ~(has_log & dels[ends])
        kidx = np.flatnonzero(keep)
        if len(kidx) == 0:
            return empty
        h_log, h_base = has_log[kidx], has_base[kidx]
        vidx = np.where(h_log, ends[kidx], starts[kidx])
        pidx = pa.array(np.where(h_base, starts[kidx], -1), pa.int64())
        pidx = pc.if_else(pc.greater_equal(pidx, 0), pidx,
                          pa.nulls(len(kidx), pa.int64()))
        op = np.where(~h_log, "keep",
                      np.where(h_base, "update", "insert"))
        out = {key_col: keys.take(pa.array(starts[kidx], pa.int64()))}
        for c in payload_cols:
            out[c] = t[c].combine_chunks().take(pidx)
        out[value_col] = t[value_col].combine_chunks().take(
            pa.array(vidx, pa.int64()))
        out["op"] = pa.array(op, pa.string())
        return pa.table(out)

    return partitioned_map(sides, kernel, key=key_col,
                           sort_keys=[key_col, "__side"] + order_cols,
                           num_partitions=num_partitions)
