"""CDC changelog compaction — apply an ordered upsert/delete changelog
to a base snapshot and emit the latest state per key (the merge/compact
step every incremental 100-TB table maintenance job runs).

Shape: ONE keyed exchange of both inputs, each partition handing the
kernel the base rows sorted by key and the log rows sorted by ``(key,
*order_cols)``, so a key's log run ends with its LAST changelog row.  The
kernel aligns the two sides' key runs on shared key codes in one
vectorized pass — no per-key Python.  Semantics:

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

from ..functions import segments as seg

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
    key_type = base_schema.field(key_col).type
    val_type = base_schema.field(value_col).type
    pay_types = {c: base_schema.field(c).type for c in payload_cols}

    empty_cols = {key_col: pa.array([], key_type)}
    for c in payload_cols:
        empty_cols[c] = pa.array([], pay_types[c])
    empty_cols[value_col] = pa.array([], val_type)
    empty_cols["op"] = pa.array([], pa.string())
    empty = pa.table(empty_cols)

    def kernel(base: pa.Table, log: pa.Table) -> pa.Table:
        for t, what in ((base, "base snapshot"), (log, "changelog")):
            if t.num_rows and t[key_col].null_count:
                raise ValueError(f"NULL {key_col} in {what} — filter "
                                 "keys upstream")
        if base.num_rows + log.num_rows == 0:
            return empty
        bk, lk = base[key_col], log[key_col]
        bc, lc = seg.shared_key_codes(bk, lk)
        if len(bc) > 1 and (bc[1:] == bc[:-1]).any():
            raise ValueError(f"duplicate {key_col} in base snapshot — "
                             "base keys must be unique (exact_dedup "
                             "upstream)")
        l_start = seg.run_starts(lc)
        l_last = np.append(l_start[1:], len(lc)) - 1
        # every key once, in key order: its base row, its last log row
        codes = np.union1d(bc, lc[l_start])
        bi = seg.lookup(bc, codes)
        li = seg.lookup(lc[l_start], codes)
        h_base, h_log = bi >= 0, li >= 0
        last = np.append(l_last, -1)[li]        # -1: no log row
        # -1 reads the appended False: a key without log rows stays
        dels = np.append(pc.fill_null(log[delete_col], False).to_numpy(
            zero_copy_only=False), False)
        keep = ~dels[last]
        if not keep.any():
            return empty
        h_log, h_base = h_log[keep], h_base[keep]
        bidx = pa.array(bi[keep], pa.int64(), mask=~h_base)
        lidx = pa.array(last[keep], pa.int64(), mask=~h_log)
        op = np.where(~h_log, "keep",
                      np.where(h_base, "update", "insert"))
        out = {key_col: pc.coalesce(
            bk.combine_chunks().take(bidx),
            lk.combine_chunks().cast(key_type).take(lidx))}
        for c in payload_cols:
            out[c] = base[c].combine_chunks().take(bidx)
        out[value_col] = pc.if_else(
            pa.array(h_log),
            log[value_col].combine_chunks().cast(val_type).take(lidx),
            base[value_col].combine_chunks().cast(val_type).take(bidx))
        out["op"] = pa.array(op, pa.string())
        return pa.table(out)

    return partitioned_map([base_ds, log_ds], kernel, key=key_col,
                           sort_keys=[[key_col], [key_col] + order_cols],
                           num_partitions=num_partitions)
