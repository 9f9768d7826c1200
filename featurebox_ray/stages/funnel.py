"""Funnel-conversion features — per key: first occurrence of step A,
whether (and when) step B followed within a horizon, and how many B
events fell inside the window.  The classic behavioral
feature-engineering shape ("did the user purchase within 6 h of their
first view?") that the transition bigrams (stages/transitions.py) and
session stats don't express: it anchors on the FIRST A and scans a
bounded horizon after it.

Physical plan: one key-keyed task exchange (the same
partition-and-sort contract as every window stage), then a fully
vectorized per-partition pass — segment boundaries by key, first-A via
``np.minimum.reduceat`` over position-masked indices, in-window B
count/min-ts via masked ``reduceat`` — no per-key Python.

Exactness: all outputs are int64 timestamps/counts (order-independent
under any partitioning) so the SQL replay is exact by construction.
NULL ``ts`` rows never match (SQL comparison semantics); NULL keys form
one group (engine groups them; the oracle mirrors with
``IS NOT DISTINCT FROM`` if needed — the q113 events table has none).

Reference analog: none (beyond-reference behavioral operator alongside
transitions and session stats).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def funnel_features(ds, *, key_col: str = "user_id",
                    ts_col: str = "ts", type_col: str = "event_type",
                    step_a: str, step_b: str, horizon_s: int,
                    num_partitions: int = 16):
    """Per ``key_col`` with at least one A event: ``(key, first_a,
    conv_ts, n_b_window:int64, gap_us:int64)``.

    ``first_a`` = min ts of ``step_a`` rows; ``conv_ts`` = min ts of
    ``step_b`` rows with ``first_a <= ts <= first_a + horizon`` (NULL
    when none, as is ``gap_us``); ``n_b_window`` counts them.  Keys with
    no A emit nothing (SQL inner-group semantics).  ``horizon_s`` is in
    seconds, scaled by the timestamp column's NATIVE Arrow unit
    (s/ms/us/ns); plain int64 ts columns follow the repo's
    int64-microseconds convention — exactly asof_join's tolerance
    scaling.  ``gap_us`` is in the ts column's native unit.

    ``step_a == step_b`` is allowed (repeat-event funnel): the anchor
    row itself satisfies ``ts >= first_a`` and counts as an in-window B
    — pass a later-typed step or filter upstream for strictly-after
    semantics.
    """
    from .partition import partitioned_map

    def prep(b: pa.Table) -> pa.Table:
        # SQL range predicates on NULL ts are false -> drop early; only
        # A/B rows matter, so the exchange moves a fraction of events
        b = b.filter(pc.and_(
            pc.is_valid(b[ts_col]),
            pc.is_in(b[type_col], value_set=pa.array([step_a, step_b]))))
        ts = b[ts_col].combine_chunks()
        ts_i = (ts.cast(pa.int64()) if pa.types.is_timestamp(ts.type)
                else ts)
        return pa.table({
            key_col: b[key_col],
            "__ts": ts_i,
            "__is_a": pc.equal(b[type_col], step_a),
            # carried separately: with step_a == step_b a row is BOTH
            "__is_b": pc.equal(b[type_col], step_b),
        })

    ts_type = None

    def _restore(arr: np.ndarray, mask: np.ndarray):
        out = pa.array(arr, pa.int64(), mask=mask)
        return out.cast(ts_type) if ts_type is not None else out

    horizon_native = None  # set from the ts column's unit below

    key_type = None  # set from the input schema below

    def kernel(t: pa.Table) -> pa.Table:
        # typed empty from the input schema: empty partitions (incl.
        # Ray's zero-column empty bundles) emit the same block schema
        empty = pa.table({
            key_col: pa.array([], key_type),
            "first_a": _restore(np.empty(0, np.int64),
                                np.empty(0, bool)),
            "conv_ts": _restore(np.empty(0, np.int64),
                                np.empty(0, bool)),
            "n_b_window": pa.array([], pa.int64()),
            "gap_us": pa.array([], pa.int64()),
        })
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        # partitioned_map delivers the partition sorted by (key, ts)
        keys = t[key_col].combine_chunks()
        ts = t["__ts"].to_numpy(zero_copy_only=False)
        is_a = t["__is_a"].to_numpy(zero_copy_only=False).astype(bool)
        is_b = t["__is_b"].to_numpy(zero_copy_only=False).astype(bool)
        enc = pc.dictionary_encode(keys)
        # NULL keys are one SQL group: fill their (null) codes with -1 —
        # nulls sort contiguously, so the segment stays intact
        codes = (pc.fill_null(enc.indices, -1)
                 .to_numpy(zero_copy_only=False).astype(np.int64))
        starts = np.flatnonzero(
            np.concatenate([[True], codes[1:] != codes[:-1]]))
        seg = np.cumsum(np.concatenate(
            [[0], (codes[1:] != codes[:-1]).astype(np.int64)]))
        big = np.iinfo(np.int64).max
        # first A per segment: rows are ts-sorted, so min masked ts = ts
        # of the first A row
        a_ts = np.minimum.reduceat(np.where(is_a, ts, big), starts)
        has_a = a_ts != big
        a_per_row = a_ts[seg]
        in_win = is_b & (ts >= a_per_row) & (
            ts <= a_per_row + horizon_native) & has_a[seg]
        n_b = np.add.reduceat(in_win.astype(np.int64), starts)
        conv = np.minimum.reduceat(np.where(in_win, ts, big), starts)
        has_b = conv != big
        out_sel = np.flatnonzero(has_a)
        if len(out_sel) == 0:
            return empty
        key_rows = pa.array(starts[out_sel], pa.int64())
        gap = conv - a_ts
        return pa.table({
            key_col: keys.take(key_rows),
            "first_a": _restore(a_ts[out_sel],
                                np.zeros(len(out_sel), bool)),
            "conv_ts": _restore(
                np.where(has_b, conv, 0)[out_sel], ~has_b[out_sel]),
            "n_b_window": pa.array(n_b[out_sel]),
            "gap_us": pa.array(np.where(has_b, gap, 0)[out_sel],
                               pa.int64(), mask=~has_b[out_sel]),
        })

    # probe the ts type from the caller-visible schema (metadata-cheap on
    # parquet reads; callers with lazy chains pass pre-projected inputs)
    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    key_type = base.field(key_col).type
    tt = base.field(ts_col).type
    if pa.types.is_timestamp(tt):
        ts_type = tt
    # horizon in the ts column's NATIVE unit; plain ints follow the
    # repo's int64-microseconds convention (asof_join tolerance scaling)
    unit = tt.unit if pa.types.is_timestamp(tt) else "us"
    horizon_native = int(round(
        float(horizon_s)
        * {"s": 1, "ms": 10**3, "us": 10**6, "ns": 10**9}[unit]))

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, kernel, key=key_col,
                           sort_keys=[key_col, "__ts"],
                           num_partitions=num_partitions)


def funnel_path(ds, *, key_col: str = "user_id", ts_col: str = "ts",
                type_col: str = "event_type", steps, horizon_s: int,
                num_partitions: int = 16):
    """K-step sequential funnel — the greedy earliest completion chain:
    ``t₁`` = first occurrence of ``steps[0]``; ``tᵢ`` = first
    ``steps[i]`` event STRICTLY after ``tᵢ₋₁`` and within
    ``horizon_s`` of ``t₁``.  Emits one row per key with at least one
    step-1 event: ``(key, t1..tk, steps_completed:int64)`` — the
    multi-step extension of :func:`funnel_features` (same exchange, the
    kernel runs one masked ``reduceat`` pass per step instead of one).

    Greedy-earliest is the standard funnel semantics (each step
    anchors on the earliest possible predecessor, so a completed chain
    is found iff one exists within the horizon).  All outputs are
    int64 native-unit timestamps — exact under any partitioning, and
    the SQL replay is k chained ``min() ... WHERE ts > prev`` CTEs.
    """
    from .partition import partitioned_map

    steps = list(steps)
    if len(steps) < 2:
        raise ValueError("funnel_path: need at least 2 steps")

    def prep(b: pa.Table) -> pa.Table:
        b = b.filter(pc.and_(
            pc.is_valid(b[ts_col]),
            pc.is_in(b[type_col], value_set=pa.array(steps))))
        ts = b[ts_col].combine_chunks()
        ts_i = (ts.cast(pa.int64()) if pa.types.is_timestamp(ts.type)
                else ts)
        cols = {key_col: b[key_col], "__ts": ts_i}
        for i, s in enumerate(steps):
            cols[f"__is{i}"] = pc.equal(b[type_col], s)
        return pa.table(cols)

    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    key_type = base.field(key_col).type
    tt = base.field(ts_col).type
    ts_type = tt if pa.types.is_timestamp(tt) else None
    unit = tt.unit if pa.types.is_timestamp(tt) else "us"
    horizon_native = int(round(
        float(horizon_s)
        * {"s": 1, "ms": 10**3, "us": 10**6, "ns": 10**9}[unit]))

    def _restore(arr: np.ndarray, mask: np.ndarray):
        out = pa.array(arr, pa.int64(), mask=mask)
        return out.cast(ts_type) if ts_type is not None else out

    def kernel(t: pa.Table) -> pa.Table:
        empty_cols = {key_col: pa.array([], key_type)}
        for i in range(len(steps)):
            empty_cols[f"t{i + 1}"] = _restore(np.empty(0, np.int64),
                                               np.empty(0, bool))
        empty_cols["steps_completed"] = pa.array([], pa.int64())
        empty = pa.table(empty_cols)
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        keys = t[key_col].combine_chunks()
        ts = t["__ts"].to_numpy(zero_copy_only=False)
        enc = pc.dictionary_encode(keys)
        codes = (pc.fill_null(enc.indices, -1)
                 .to_numpy(zero_copy_only=False).astype(np.int64))
        starts = np.flatnonzero(
            np.concatenate([[True], codes[1:] != codes[:-1]]))
        seg = np.cumsum(np.concatenate(
            [[0], (codes[1:] != codes[:-1]).astype(np.int64)]))
        big = np.iinfo(np.int64).max
        masks = [t[f"__is{i}"].to_numpy(
            zero_copy_only=False).astype(bool)
            for i in range(len(steps))]
        t_step = []
        t1 = np.minimum.reduceat(np.where(masks[0], ts, big), starts)
        t_step.append(t1)
        deadline = np.where(t1 == big, big, t1 + horizon_native)
        prev = t1
        for i in range(1, len(steps)):
            ok = (masks[i] & (prev[seg] != big) & (ts > prev[seg])
                  & (ts <= deadline[seg]))
            ti = np.minimum.reduceat(np.where(ok, ts, big), starts)
            t_step.append(ti)
            prev = ti
        has1 = t1 != big
        sel = np.flatnonzero(has1)
        if len(sel) == 0:
            return empty
        out = {key_col: keys.take(pa.array(starts[sel], pa.int64()))}
        done = np.zeros(len(starts), np.int64)
        for i, ti in enumerate(t_step):
            hit = ti != big
            done += hit.astype(np.int64)
            out[f"t{i + 1}"] = _restore(np.where(hit, ti, 0)[sel],
                                        ~hit[sel])
        out["steps_completed"] = pa.array(done[sel])
        return pa.table(out)

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, kernel, key=key_col,
                           sort_keys=[key_col, "__ts"],
                           num_partitions=num_partitions)


def next_latency(ds, *, key_col: str, ts_col: str, seq_col: str,
                 type_col: str, a_type: str, b_type: str,
                 num_partitions: int = 16):
    """Per-key a→next-b latency profile — for EVERY ``a_type`` event,
    the time to the NEXT strictly-later ``b_type`` event of the same
    key, summarized per key as the exact median: the operational
    "click→purchase latency" metric that :func:`funnel_features`
    (first-A anchor only) doesn't give.

    Exactness: latencies are int64 native-unit differences; the
    per-key median is the DISCRETE quantile element (q51 rank
    convention) over that key's matched latencies — all integers, so
    the SQL replay (ASOF join ``a.t < b.t`` + quantile_disc) is exact
    by construction.  Unmatched trailing ``a`` events count in
    ``n_a`` but not the median; keys with no match emit NULL median.
    Same-instant b events do NOT match (strict).  NULL
    key/ts/seq/type rows drop.

    ONE key-keyed exchange; the kernel is one searchsorted per key
    segment.  Emits ``(key_col, n_a:int64, n_matched:int64,
    med_latency:int64|NULL)``.
    Reference analog: none (funnel family).
    """
    import math

    from .partition import partitioned_map

    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    ktype = base.field(key_col).type

    def prep(b: pa.Table) -> pa.Table:
        keep = pc.is_valid(b[key_col])
        for c in (ts_col, seq_col, type_col):
            keep = pc.and_(keep, pc.is_valid(b[c]))
        ty = b[type_col]
        keep = pc.and_(keep, pc.or_(pc.equal(ty, a_type),
                                    pc.equal(ty, b_type)))
        keep = pc.fill_null(keep, False)
        b = b.filter(keep)
        ts = b[ts_col].combine_chunks()
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.int64())
        return pa.table({
            key_col: b[key_col], "__ts": ts,
            "__s": b[seq_col].combine_chunks().cast(pa.int64()),
            "__isa": pc.equal(b[type_col].combine_chunks(),
                              a_type)})

    empty = pa.table({key_col: pa.array([], ktype),
                      "n_a": pa.array([], pa.int64()),
                      "n_matched": pa.array([], pa.int64()),
                      "med_latency": pa.array([], pa.int64())})

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        keys = t[key_col].combine_chunks()
        codes = pc.dictionary_encode(keys).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        ts = t["__ts"].to_numpy(zero_copy_only=False)
        isa = t["__isa"].to_numpy(zero_copy_only=False)
        new = np.concatenate([[True], codes[1:] != codes[:-1]])
        starts = np.flatnonzero(new)
        ends = np.append(starts[1:], len(codes))
        out_k, out_na, out_nm, out_med = [], [], [], []
        for s0, s1 in zip(starts.tolist(), ends.tolist()):
            seg_ts = ts[s0:s1]
            seg_a = isa[s0:s1]
            at = seg_ts[seg_a]
            bt = seg_ts[~seg_a]
            if len(at) == 0:
                continue
            if len(bt):
                idx = np.searchsorted(bt, at, side="right")
                ok = idx < len(bt)
                lat = bt[idx[ok]] - at[ok]
            else:
                lat = np.empty(0, np.int64)
            out_k.append(s0)
            out_na.append(len(at))
            out_nm.append(len(lat))
            if len(lat):
                lat = np.sort(lat)
                r = max(math.ceil(0.5 * len(lat)) - 1, 0)
                out_med.append(int(lat[r]))
            else:
                out_med.append(None)
        if not out_k:
            return empty
        return pa.table({
            key_col: keys.take(pa.array(out_k, pa.int64())),
            "n_a": pa.array(out_na, pa.int64()),
            "n_matched": pa.array(out_nm, pa.int64()),
            "med_latency": pa.array(out_med, pa.int64())})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, kernel, key=key_col,
                           sort_keys=[key_col, "__ts", "__s"],
                           num_partitions=num_partitions)
