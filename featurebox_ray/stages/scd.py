"""SCD-2 intervalization — collapse a per-key event stream into
slowly-changing-dimension validity intervals: one row per consecutive
run of equal state, carrying ``[valid_from, valid_to)`` with an open
``valid_to`` on the current state.  The standard shape for turning an
append-only changelog into a time-travel dimension table (join any
fact row to the state that was valid at its timestamp).

Shape: ONE key-keyed exchange; the kernel is a single vectorized
run-length pass over ``(key, ts, seq)``-sorted rows (state runs are
contiguous per key, ``valid_to`` = next run's ``valid_from``).  All
outputs are int64 timestamps/counts — order-independent and SQL-exact
(gaps-and-islands replay).

Reference analog: none; the feature-engineering sibling of
``stages/cdc.py`` (cdc gives the latest state, scd2 gives the full
validity history).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions import segments as seg

__all__ = ["scd2_intervals", "scd2_apply"]


def scd2_intervals(ds, *, key_col: str, ts_col: str, seq_col: str,
                   state_col: str, num_partitions: int = 16):
    """Returns ``(key_col, state:string, valid_from:int64,
    valid_to:int64|NULL, n_rows:int64)`` — one row per consecutive
    equal-state run in ``(ts, seq)`` order; NULL key/ts/seq/state rows
    drop (mirror the filter in SQL)."""
    from .partition import partitioned_map

    def prep(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.and_(pc.is_valid(b[key_col]),
                               pc.is_valid(b[ts_col])),
                       pc.and_(pc.is_valid(b[seq_col]),
                               pc.is_valid(b[state_col])))
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        ts = b[ts_col].combine_chunks()
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.int64())
        return pa.table({key_col: b[key_col], "__t": ts,
                         "__s": b[seq_col],
                         "__st": b[state_col].combine_chunks().cast(
                             pa.string())})

    key_type = ds.schema()
    key_type = getattr(key_type, "base_schema", key_type).field(
        key_col).type
    empty = pa.table({key_col: pa.array([], key_type),
                      "state": pa.array([], pa.string()),
                      "valid_from": pa.array([], pa.int64()),
                      "valid_to": pa.array([], pa.int64()),
                      "n_rows": pa.array([], pa.int64())})

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        keys = t[key_col].combine_chunks()
        ts = t["__t"].to_numpy(zero_copy_only=False)
        st = t["__st"].combine_chunks()
        kcodes = pc.dictionary_encode(keys).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        scodes = pc.dictionary_encode(st).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        new_key = np.concatenate([[True], kcodes[1:] != kcodes[:-1]])
        new_run = new_key | np.concatenate(
            [[True], scodes[1:] != scodes[:-1]])
        starts = np.flatnonzero(new_run)
        lens = np.diff(np.concatenate([starts, [len(kcodes)]]))
        # valid_to = next run's valid_from within the same key
        nxt = np.concatenate([starts[1:], [len(kcodes)]])
        same_key = np.zeros(len(starts), bool)
        in_rng = nxt < len(kcodes)
        same_key[in_rng] = kcodes[nxt[in_rng]] == kcodes[starts[in_rng]]
        vto = np.zeros(len(starts), np.int64)
        vto[same_key] = ts[nxt[same_key]]
        sidx = pa.array(starts, pa.int64())
        return pa.table({
            key_col: keys.take(sidx),
            "state": st.take(sidx),
            "valid_from": pa.array(ts[starts], pa.int64()),
            "valid_to": pa.array(vto, pa.int64(), mask=~same_key),
            "n_rows": pa.array(lens.astype(np.int64)),
        })

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, kernel, key=key_col,
                           sort_keys=[key_col, "__t", "__s"],
                           num_partitions=num_partitions)


def scd2_apply(dim_ds, snap_ds, *, key_col: str, state_col: str,
               snap_ts: int, num_partitions: int = 16,
               key_type=None):
    """SCD-2 MERGE — apply a full state snapshot taken at ``snap_ts``
    to an existing dimension table (:func:`scd2_intervals` layout):
    the daily warehouse-maintenance upsert.

    Per key:
      * closed historical rows pass through untouched;
      * open row whose state equals the snapshot state → unchanged;
      * open row with a DIFFERENT snapshot state → closed at
        ``snap_ts`` and a new open row ``(snap state, valid_from =
        snap_ts)`` appends;
      * key present only in the snapshot → one new open row;
      * key absent from the snapshot (deleted) → its open row closes
        at ``snap_ts`` (soft delete — documented; no tombstone row).

    Deterministic set logic on exact ints/dictionary codes — fully
    vectorized kernel, full SQL oracle (pass-through UNION +
    FULL-JOIN of open rows × snapshot).  Contract: the snapshot has
    at most ONE row per key and the dim at most one OPEN row per key
    (both raise); NULL keys drop on both sides; NULL snapshot states
    are deletes.  ``key_type`` avoids a ``.schema()`` probe on lazy
    mapped inputs (the flagship left_schema convention).

    ONE key-keyed exchange of both inputs; the kernel reads the dim
    rows sorted by ``(key, valid_from)`` and the snapshot rows sorted by
    key as two tables, aligned on shared key codes.  Returns the same ``(key_col, state, valid_from, valid_to,
    n_rows)`` layout (new rows carry ``n_rows = 0`` — counts belong
    to the event stream, not the merge).
    Reference analog: none (warehouse family: scd2_intervals / cdc /
    snapshot_diff).
    """
    from .partition import partitioned_map

    TS = int(snap_ts)
    OPEN = np.int64(2**62)

    def prep_dim(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b[key_col]))
        vt = pc.fill_null(b["valid_to"].combine_chunks().cast(
            pa.int64()), int(OPEN))
        return pa.table({
            key_col: b[key_col],
            "state": b["state"].combine_chunks().cast(pa.string()),
            "vf": b["valid_from"].combine_chunks().cast(pa.int64()),
            "vt": vt,
            "nr": pc.fill_null(b["n_rows"].combine_chunks().cast(
                pa.int64()), 0)})

    def prep_snap(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b[key_col]))
        return pa.table({
            key_col: b[key_col],
            "state": b[state_col].combine_chunks().cast(
                pa.string())})

    sides = [dim_ds.map_batches(prep_dim, batch_format="pyarrow",
                                zero_copy_batch=True),
             snap_ds.map_batches(prep_snap, batch_format="pyarrow",
                                 zero_copy_batch=True)]

    if key_type is not None:
        ktype = key_type
    else:
        schema = dim_ds.schema()
        base = getattr(schema, "base_schema", schema)
        ktype = base.field(key_col).type
    empty = pa.table({key_col: pa.array([], ktype),
                      "state": pa.array([], pa.string()),
                      "valid_from": pa.array([], pa.int64()),
                      "valid_to": pa.array([], pa.int64()),
                      "n_rows": pa.array([], pa.int64())})

    i64 = pa.array([], pa.int64())
    dim_empty = pa.table({key_col: pa.array([], ktype),
                          "state": pa.array([], pa.string()),
                          "vf": i64, "vt": i64, "nr": i64})

    def merge_kernel(d: pa.Table, s: pa.Table) -> pa.Table:
        if d.num_rows + s.num_rows == 0:
            return empty
        d = d if d.num_rows else dim_empty
        s = s if s.num_rows else dim_empty.select([key_col, "state"])
        dk = d[key_col].combine_chunks()
        kd, ks = seg.shared_key_codes(dk, s[key_col])
        st_enc = pc.dictionary_encode(pa.concat_arrays(
            [d["state"].combine_chunks(), s["state"].combine_chunks()]))
        st_codes = pc.fill_null(st_enc.indices, -1).to_numpy(
            zero_copy_only=False).astype(np.int64)
        st_dim, st_snap = st_codes[:d.num_rows], st_codes[d.num_rows:]
        if bool((st_dim < 0).any()):
            raise ValueError("scd2_apply: NULL dim state — "
                             "dimension states must be non-null "
                             "(NULL snapshot states are deletes)")
        vf = d["vf"].to_numpy(zero_copy_only=False)
        vt = d["vt"].to_numpy(zero_copy_only=False)
        nr = d["nr"].to_numpy(zero_copy_only=False)
        is_open = vt == OPEN
        open_rows = np.flatnonzero(is_open)
        if (kd[open_rows][1:] == kd[open_rows][:-1]).any():
            raise ValueError("scd2_apply: multiple open dim rows "
                             "for a key")
        if (ks[1:] == ks[:-1]).any():
            raise ValueError("scd2_apply: duplicate snapshot rows "
                             "for a key")
        keys = np.union1d(kd, ks)
        # per key: its open dim row and its snapshot row, or -1
        open_of = np.append(open_rows, -1)[seg.lookup(kd[open_rows], keys)]
        snap_of = seg.lookup(ks, keys)
        # NULL snapshot states (code -1) are deletes
        snap_state = np.append(st_snap, -1)[snap_of]
        open_state = np.append(st_dim, -2)[open_of]

        hist = np.flatnonzero(~is_open)
        keep_open = (open_of >= 0) & (snap_state >= 0) \
            & (open_state == snap_state)
        close_open = (open_of >= 0) & ~keep_open
        new_open = (snap_state >= 0) \
            & ((open_of < 0) | (open_state != snap_state))

        idx_keep = open_of[keep_open]
        idx_close = open_of[close_open]
        nk = np.flatnonzero(new_open)

        out_row = np.concatenate([hist, idx_keep, idx_close])
        out_state = np.concatenate([st_dim[out_row], snap_state[nk]])
        out_vf = np.concatenate([
            vf[hist], vf[idx_keep], vf[idx_close],
            np.full(len(nk), TS, np.int64)])
        n_h, n_k, n_c = len(hist), len(idx_keep), len(idx_close)
        # int64 + explicit null mask (a NaN round trip would corrupt
        # >2^53 timestamps, e.g. epoch-ns)
        out_vt = np.concatenate([
            vt[hist], np.zeros(n_k, np.int64),
            np.full(n_c, TS, np.int64),
            np.zeros(len(nk), np.int64)])
        vt_null = np.concatenate([
            np.zeros(n_h, bool), np.ones(n_k, bool),
            np.zeros(n_c, bool), np.ones(len(nk), bool)])
        out_nr = np.concatenate([
            nr[hist], nr[idx_keep], nr[idx_close],
            np.zeros(len(nk), np.int64)])
        return pa.table({
            key_col: pa.concat_arrays([
                dk.take(pa.array(out_row, pa.int64())),
                s[key_col].combine_chunks().cast(dk.type).take(
                    pa.array(snap_of[nk], pa.int64()))]),
            "state": st_enc.dictionary.take(
                pa.array(out_state, pa.int64())).cast(pa.string()),
            "valid_from": pa.array(out_vf.astype(np.int64)),
            "valid_to": pa.array(out_vt, pa.int64(),
                                 mask=vt_null),
            "n_rows": pa.array(out_nr.astype(np.int64))})

    return partitioned_map(sides, merge_kernel, key=key_col,
                           sort_keys=[[key_col, "vf"], [key_col]],
                           num_partitions=num_partitions)
