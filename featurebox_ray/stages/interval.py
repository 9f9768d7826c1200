"""Broadcast interval (range) join — match fact rows whose timestamp falls
inside ``[lo, hi)`` of a small interval table, with arbitrary overlaps.

The interval side rides the object store ONCE (``ray.put``); every batch
task walks a sorted-by-``lo`` view with two vectorized ``searchsorted``
probes.  Candidates for a row at ``ts`` are the intervals with
``lo ∈ (ts - max_width, ts]`` (any interval is at most ``max_width`` wide,
so nothing earlier can still cover ``ts``); the expansion is a
``repeat``/``arange`` gather, then an exact ``hi > ts`` filter.  Per-batch
cost is O(rows × overlap_degree) with no shuffle of the fact side at all —
the 100-TB shape for joining events to a bounded set of windows
(deployments, incidents, experiment arms).

This is a beyond-reference operator (the reference joins only on equality
/ as-of keys); the as-of analog lives in ``stages/asof.py``.

Skew note: a single pathological interval covering everything makes
``max_width`` large and every row a candidate of all intervals — cap or
split wide intervals upstream (mirror of the bucket caps in
``stages/neighbor.py``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _as_int64(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Timestamps/ints to a comparable int64 vector (us for timestamps)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    if pa.types.is_timestamp(t):
        col = col.cast(pa.int64())
    return col.to_numpy(zero_copy_only=False).astype(np.int64)


def broadcast_interval_join(
    ds,
    intervals: pa.Table,
    *,
    ts_col: str,
    lo_col: str = "lo",
    hi_col: str = "hi",
    keep_cols: Sequence[str] | None = None,
):
    """Inner-join ``ds`` rows to every interval with ``lo <= ts < hi``.

    ``intervals`` is a small driver-side Arrow table; its non-bound columns
    (e.g. a window id) are attached to each matched row.  Output = matched
    fact rows (optionally projected to ``keep_cols``) + interval columns;
    rows matching no interval are dropped, rows matching m intervals appear
    m times.
    """
    import ray

    if intervals.num_rows == 0:
        # keep the output schema identical to the non-empty path:
        # keep_cols + the interval attach columns, all correctly typed
        attach_schema = intervals.drop_columns([lo_col, hi_col]).schema

        def empty(b: pa.Table) -> pa.Table:
            out = b.select(list(keep_cols) if keep_cols else b.column_names)
            out = out.slice(0, 0)
            for f in attach_schema:
                out = out.append_column(f.name, pa.array([], f.type))
            return out
        return ds.map_batches(empty, batch_format="pyarrow",
                              zero_copy_batch=True)

    lo = _as_int64(intervals[lo_col])
    hi = _as_int64(intervals[hi_col])
    order = np.argsort(lo, kind="stable")
    iv_sorted = intervals.take(pa.array(order))
    lo, hi = lo[order], hi[order]
    max_width = int((hi - lo).max())
    attach = iv_sorted.drop_columns([lo_col, hi_col])
    iv_ref = ray.put((lo, hi, max_width, attach))

    def join_batch(batch: pa.Table) -> pa.Table:
        lo_, hi_, w_, attach_ = ray.get(iv_ref)
        if batch[ts_col].null_count:
            # SQL range predicates on NULL ts are false — drop the rows
            # (a null would otherwise become INT64_MIN and wrap below)
            batch = batch.filter(pc.is_valid(batch[ts_col]))
        proj = batch.select(list(keep_cols)) if keep_cols else batch
        ts = _as_int64(batch[ts_col])
        left = np.searchsorted(lo_, ts - w_, side="right")
        right = np.searchsorted(lo_, ts, side="right")
        counts = right - left
        out_row = np.repeat(np.arange(len(ts)), counts)
        cum = np.concatenate([[0], np.cumsum(counts)])
        cand = (np.arange(int(counts.sum())) - cum[out_row]) + left[out_row]
        ok = hi_[cand] > ts[out_row]
        out_row, cand = out_row[ok], cand[ok]
        out = proj.take(pa.array(out_row, pa.int64()))
        for name in attach_.column_names:
            out = out.append_column(
                name, attach_[name].take(pa.array(cand, pa.int64())))
        return out

    return ds.map_batches(join_batch, batch_format="pyarrow",
                          zero_copy_batch=True)


def top_k_per_group(ds, *, group_col: str, order_col: str, tie_col: str,
                    k: int, keep_cols: Sequence[str]) -> pa.Table:
    """Driver-side small result: top-k rows per group by
    ``(order_col DESC, tie_col ASC)`` — the interval-anchor builder.
    One keyed exchange on ``group_col``; the returned table is
    O(groups × k) rows of ``keep_cols``, intended for broadcast.
    """
    from .partition import each_group, partitioned_refs

    import ray

    def topk(t: pa.Table) -> pa.Table:
        v = t[order_col].to_numpy(zero_copy_only=False).astype(np.float64)
        tie = t[tie_col].to_numpy(zero_copy_only=False)
        sel = np.lexsort((tie, -v))[:k]
        return t.select(list(keep_cols)).take(pa.array(np.sort(sel), pa.int64()))

    small = partitioned_refs(ds, each_group(topk, [group_col]),
                             key=group_col, sort_keys=[group_col])
    blocks = [b for b in ray.get(small) if b.num_rows > 0]
    if not blocks:
        # preserve the source column types so empty and non-empty
        # results have the same schema (callers cast/take on these)
        src = ds.schema()
        src = getattr(src, "base_schema", None) if src is not None else None
        return pa.schema(
            [(c, src.field(c).type if src is not None else pa.null())
             for c in keep_cols]).empty_table()
    return pa.concat_tables(blocks, promote_options="default")


def bucketed_interval_join(
    facts,
    intervals,
    *,
    ts_col: str = "ts",
    lo_col: str = "lo",
    hi_col: str = "hi",
    fact_cols: Sequence[str],
    interval_cols: Sequence[str],
    bucket_width_s: int = 900,
    num_partitions: int = 16,
    max_replication: int = 64,
    fact_schema=None,
    interval_schema=None,
):
    """Large-large interval (range) join — neither side broadcasts.

    Inner-joins fact rows to every interval with ``lo <= ts < hi`` when
    BOTH sides are big (the scale path past
    :func:`broadcast_interval_join`).  Physical plan: time is cut into
    fixed buckets of ``bucket_width_s``; each fact rides to its one
    bucket, each interval replicates to every bucket it overlaps with
    its bounds CLAMPED to that bucket — clamping makes the bucket
    restriction implicit in the values (a clamped interval can only
    cover timestamps inside its own bucket), so one global sorted
    searchsorted walk per partition is correct with no per-bucket loop
    and no cross-bucket duplicates (each true (fact, interval) match
    meets exactly once, in the fact's bucket).  Both streams ride ONE
    bucket-keyed task exchange, as its two inputs.

    Partitioning assumption (documented per the custom-operator rule):
    interval width should be ≤ a few buckets — an interval spanning more
    than ``max_replication`` buckets raises (raise ``bucket_width_s`` or
    split pathological intervals upstream; replication factor = spans/W,
    and a whole-corpus interval would otherwise fan out to every
    partition).  Bucket skew mirrors the hash-partition story: buckets
    hash across ``num_partitions``, a single hot bucket bounds a
    partition (salt upstream if one 15-minute window holds the corpus).

    ``bucket_width_s`` is in seconds for timestamp columns, native units
    for plain ints.  ``fact_cols`` / ``interval_cols`` are the payload
    projections (must be disjoint).  NULL ``ts``/``lo``/``hi`` rows drop
    (SQL range predicates on NULL are false); ``hi <= lo`` intervals
    match nothing.  ``fact_schema``/``interval_schema``: pass when a
    side ends in expensive lazy stages — defaulting to ``.schema()`` on
    a mapped dataset executes one block (see
    ``fused_features_backfill``'s ``left_schema``).

    Reference analog: none (the reference joins on equality/as-of keys
    only); beyond-reference alongside the as-of and bloom joins.
    """
    from .partition import partitioned_map

    dup = set(fact_cols) & set(interval_cols)
    if dup:
        raise ValueError(f"fact_cols and interval_cols overlap: {dup}")
    if fact_schema is None:
        fact_schema = facts.schema()
    if interval_schema is None:
        interval_schema = intervals.schema()
    fact_schema = getattr(fact_schema, "base_schema", fact_schema)
    interval_schema = getattr(interval_schema, "base_schema",
                              interval_schema)
    f_types = {c: fact_schema.field(c).type for c in fact_cols}
    i_types = {c: interval_schema.field(c).type for c in interval_cols}
    ts_type = fact_schema.field(ts_col).type
    if pa.types.is_timestamp(ts_type):
        # bucket width in the ts column's NATIVE unit (s/ms/us/ns); the
        # bound columns must agree — _as_int64 preserves native units,
        # so a unit mismatch would silently misalign the comparison
        unit = ts_type.unit
        width = int(bucket_width_s) * {"s": 1, "ms": 10**3,
                                       "us": 10**6, "ns": 10**9}[unit]
        for c in (lo_col, hi_col):
            bt = interval_schema.field(c).type
            if pa.types.is_timestamp(bt) and bt.unit != unit:
                raise ValueError(
                    f"{c} is timestamp[{bt.unit}] but {ts_col} is "
                    f"timestamp[{unit}] — cast the bounds to the fact "
                    "ts unit first")
    else:
        # plain int64 ts: width is in the column's own (native) units —
        # it is a plan parameter only, results never depend on it
        width = int(bucket_width_s)

    def fact_emit(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b[ts_col]))
        ts = _as_int64(b[ts_col])
        cols = {"__b": pa.array(ts // width, pa.int64()),
                "__ts": pa.array(ts, pa.int64())}
        for c in fact_cols:
            cols[c] = b[c]
        return pa.table(cols)

    def interval_emit(b: pa.Table) -> pa.Table:
        b = b.filter(pc.and_(pc.is_valid(b[lo_col]),
                             pc.is_valid(b[hi_col])))
        lo = _as_int64(b[lo_col])
        hi = _as_int64(b[hi_col])
        keep = hi > lo
        b, lo, hi = (b.filter(pa.array(keep)), lo[keep], hi[keep])
        b0 = lo // width
        b1 = (hi - 1) // width
        span = b1 - b0 + 1
        if len(span) and int(span.max()) > max_replication:
            raise ValueError(
                f"an interval spans {int(span.max())} buckets "
                f"(> max_replication={max_replication}); raise "
                "bucket_width_s or split wide intervals upstream")
        rep = np.repeat(np.arange(b.num_rows), span)
        cum = np.concatenate([[0], np.cumsum(span)])
        off = np.arange(int(span.sum())) - cum[rep]
        bb = b0[rep] + off
        lo_c = np.maximum(lo[rep], bb * width)
        hi_c = np.minimum(hi[rep], (bb + 1) * width)
        rep_idx = pa.array(rep, pa.int64())
        cols = {"__b": pa.array(bb, pa.int64()),
                "__lo": pa.array(lo_c, pa.int64()),
                "__hi": pa.array(hi_c, pa.int64())}
        for c in interval_cols:
            cols[c] = b[c].take(rep_idx)
        return pa.table(cols)

    out_fields = ([(c, f_types[c]) for c in fact_cols]
                  + [(c, i_types[c]) for c in interval_cols])
    out_empty = pa.schema(out_fields).empty_table()

    def kernel(f: pa.Table, iv: pa.Table) -> pa.Table:
        if f.num_rows == 0 or iv.num_rows == 0:
            return out_empty
        ts = f["__ts"].to_numpy(zero_copy_only=False)
        lo = iv["__lo"].to_numpy(zero_copy_only=False)
        hi = iv["__hi"].to_numpy(zero_copy_only=False)
        order = np.argsort(lo, kind="stable")
        lo_s, hi_s = lo[order], hi[order]
        maxw = int((hi_s - lo_s).max())
        left = np.searchsorted(lo_s, ts - maxw, side="left")
        right = np.searchsorted(lo_s, ts, side="right")
        counts = right - left
        fr = np.repeat(np.arange(len(ts)), counts)
        cum = np.concatenate([[0], np.cumsum(counts)])
        cand = (np.arange(int(counts.sum())) - cum[fr]) + left[fr]
        ok = hi_s[cand] > ts[fr]
        fr, cand = fr[ok], cand[ok]
        f_idx = pa.array(fr, pa.int64())
        i_idx = pa.array(order[cand], pa.int64())
        cols = {c: f[c].take(f_idx) for c in fact_cols}
        for c in interval_cols:
            cols[c] = iv[c].take(i_idx)
        return pa.table(cols) if fr.size else out_empty

    sides = [facts.map_batches(fact_emit, batch_format="pyarrow",
                               zero_copy_batch=True),
             intervals.map_batches(interval_emit, batch_format="pyarrow",
                                   zero_copy_batch=True)]
    return partitioned_map(sides, kernel, key="__b",
                           sort_keys=[["__b"], ["__b"]],
                           num_partitions=num_partitions)


def busy_window_overlap(ds, *, key_col: str, ts_col: str, id_col: str,
                        gap_s: float = 1800.0, width_s: float = 3600.0,
                        top_k: int = 5, num_partitions: int = 16):
    """Per-key total session time spent inside the corpus's ``top_k``
    busiest tumbling windows — the "how much of each user's activity
    happened during peak load" feature, an interval-overlap AGGREGATE
    (vs. the row-expanding interval joins above).

    Three cheap phases: (1) global window counts as per-block bincount
    partials combined on the driver (bytes = distinct windows × blocks;
    windows are ``span/width`` — bounded); (2) the top-k windows
    (count desc, window asc — deterministic) broadcast as plain ints;
    (3) ONE key-keyed exchange whose kernel sessionizes each key run
    (the q06 gap rule), clips every session against the k broadcast
    windows (``max(0, min(en,we) − max(st,ws))``, vectorized k×rows)
    and sums per key — all int64 microseconds, exact, so the SQL
    replay (sessionize CTE + CROSS JOIN + greatest/least) matches
    bit-for-bit.

    Rows with NULL key/ts drop; emits ``(key_col, overlap_us:int64)``
    with one row per key that has any event.
    """
    import ray

    from ..functions import segments as seg
    from .partition import (materialized_block_refs, partitioned_map,
                            sum_partials)

    gap_us = int(gap_s * 1e6)
    width_us = int(width_s * 1e6)
    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    ktype = base.field(key_col).type

    def bucket_partial(batch: pa.Table) -> pa.Table:
        t = batch[ts_col]
        if t.null_count:
            batch = batch.filter(pc.is_valid(t))
        ts = _as_int64(batch[ts_col].combine_chunks())
        b = ts // width_us
        u, c = np.unique(b, return_counts=True)
        return pa.table({"b": pa.array(u, pa.int64()),
                         "cnt": pa.array(c.astype(np.int64))})

    bds = ds.map_batches(bucket_partial, batch_format="pyarrow",
                         zero_copy_batch=True)
    counts = sum_partials(ray.get(materialized_block_refs(bds)),
                          keys=["b"], vals=["cnt"])
    ws = np.empty(0, np.int64)
    if counts is not None:
        top = counts.sort_by([("cnt", "descending"), ("b", "ascending")])
        ws = top["b"].to_numpy()[:top_k] * width_us
    we = ws + width_us

    def prep(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(b[key_col]), pc.is_valid(b[ts_col]))
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        return pa.table({key_col: b[key_col],
                         "__ts": pa.array(_as_int64(
                             b[ts_col].combine_chunks()), pa.int64()),
                         id_col: b[id_col]})

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return pa.table({key_col: pa.array([], ktype),
                             "overlap_us": pa.array([], pa.int64())})
        keys = t[key_col].combine_chunks()
        codes = pc.dictionary_encode(keys).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        ts = t["__ts"].to_numpy(zero_copy_only=False)
        _, _, is_start = seg.segment_ids(codes)
        sess = seg.sessionize(ts, is_start, gap_us)
        change = np.empty(len(codes), bool)
        change[0] = True
        if len(codes) > 1:
            change[1:] = (codes[1:] != codes[:-1]) | (sess[1:]
                                                      != sess[:-1])
        starts = np.flatnonzero(change)
        ends = np.append(starts[1:], len(codes))
        st, en = ts[starts], ts[ends - 1]
        ov = np.zeros(len(st), np.int64)
        for j in range(len(ws)):
            ov += np.maximum(
                0, np.minimum(en, we[j]) - np.maximum(st, ws[j]))
        # per-key sums over the session runs
        key_change = np.concatenate(
            [[True], codes[starts][1:] != codes[starts][:-1]])
        krun = np.cumsum(key_change) - 1
        out = np.zeros(int(krun[-1]) + 1, np.int64)
        np.add.at(out, krun, ov)
        kidx = starts[np.flatnonzero(key_change)]
        return pa.table({
            key_col: keys.take(pa.array(kidx, pa.int64())),
            "overlap_us": pa.array(out),
        })

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, kernel, key=key_col,
                           sort_keys=[key_col, "__ts", id_col],
                           num_partitions=num_partitions)


def session_concurrency(ds, *, key_col: str, ts_col: str, id_col: str,
                        gap_s: float = 1800.0, width_s: float = 3600.0,
                        max_buckets_per_session: int = 10000,
                        num_partitions: int = 16):
    """Concurrent-session profile — for every tumbling window, how many
    sessions were ACTIVE in it (touched any part of it): the capacity /
    peak-load curve over time (and, argmaxed, the busiest-hour
    statistic the ops dashboard wants).

    Plan: ONE key-keyed exchange sessionizes each key run (q06 gap
    rule) and expands every session to the window range it spans
    (``st//W … en//W`` — the bounded-overlap expansion of
    :func:`bucketed_interval_join`; a session that would span more
    than ``max_buckets_per_session`` windows raises — lower the gap or
    raise the width); the expansion collapses to per-partition
    ``(window, count)`` int64 partials BEFORE the second tiny
    window-keyed exchange.  Exact integer counts; SQL replays with a
    ``generate_series`` expansion.

    Emits ``(window:int64, n_active:int64)`` — one row per window
    touched by any session; ``window`` is the bucket index (start
    time = window · width in native ts units).
    """
    from ..functions import segments as seg
    from .partition import partitioned_map, partitioned_refs

    gap_us = int(gap_s * 1e6)
    width_us = int(width_s * 1e6)

    def prep(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(b[key_col]), pc.is_valid(b[ts_col]))
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        return pa.table({key_col: b[key_col],
                         "__ts": pa.array(_as_int64(
                             b[ts_col].combine_chunks()), pa.int64()),
                         id_col: b[id_col]})

    def kernel(t: pa.Table) -> pa.Table:
        empty = pa.table({"window": pa.array([], pa.int64()),
                          "cnt": pa.array([], pa.int64())})
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        codes = pc.dictionary_encode(
            t[key_col].combine_chunks()).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        ts = t["__ts"].to_numpy(zero_copy_only=False)
        _, _, is_start = seg.segment_ids(codes)
        sess = seg.sessionize(ts, is_start, gap_us)
        change = np.empty(len(codes), bool)
        change[0] = True
        if len(codes) > 1:
            change[1:] = (codes[1:] != codes[:-1]) | (sess[1:]
                                                      != sess[:-1])
        starts = np.flatnonzero(change)
        ends = np.append(starts[1:], len(codes))
        b0 = ts[starts] // width_us
        b1 = ts[ends - 1] // width_us
        spans = b1 - b0 + 1
        if spans.size and int(spans.max()) > max_buckets_per_session:
            raise ValueError(
                "session_concurrency: a session spans "
                f"{int(spans.max())} windows > "
                f"max_buckets_per_session={max_buckets_per_session}")
        total = int(spans.sum())
        offs = np.repeat(np.cumsum(spans) - spans, spans)
        wins = np.repeat(b0, spans) + (np.arange(total) - offs)
        u, c = np.unique(wins, return_counts=True)
        return pa.table({"window": pa.array(u, pa.int64()),
                         "cnt": pa.array(c.astype(np.int64))})

    def combine(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "window" not in t.column_names:
            return pa.table({"window": pa.array([], pa.int64()),
                             "n_active": pa.array([], pa.int64())})
        w = t["window"].to_numpy(zero_copy_only=False)
        u, inv = np.unique(w, return_inverse=True)
        s = np.zeros(len(u), np.int64)
        np.add.at(s, inv, t["cnt"].to_numpy(zero_copy_only=False))
        return pa.table({"window": pa.array(u),
                         "n_active": pa.array(s)})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    partials = partitioned_refs(prepped, kernel, key=key_col,
                                sort_keys=[key_col, "__ts", id_col],
                                num_partitions=num_partitions)
    return partitioned_map([partials], combine, key="window",
                           sort_keys=["window"],
                           num_partitions=max(num_partitions // 4, 1))


def near_duplicate_events(ds, *, key_col: str, amount_col: str,
                          ts_col: str, id_col: str,
                          window_us: int, num_partitions: int = 16):
    """Near-duplicate event audit — rows sharing (key, exact amount)
    within ``window_us`` of a PREVIOUS such row: the double-charge /
    double-fire detector (retried payment, duplicated webhook, replayed
    message) that a raw exact-dedup misses because the duplicate has a
    fresh id and a slightly later timestamp.

    Exactness: amounts must be pre-quantized int64 (cents pattern);
    sorted by (key, amount, ts, id), a row is flagged iff its
    predecessor IN THE SAME (key, amount) run is within ``window_us``
    — the lag-window SQL replays it bit-exactly (ties on ts break on
    id both sides).  Emits ONLY flagged rows: ``(id_col, key_col,
    amount_col, gap_us:int64 — distance to the predecessor)``.

    ONE key-keyed exchange; the kernel is one shifted compare.  Rows
    with NULL key/amount/ts/id drop.  Scale note: the flagged set is
    anomaly-sized; nothing else leaves the exchange.
    """
    from .partition import partitioned_map

    base = ds.schema()
    base = getattr(base, "base_schema", base)
    ktype = base.field(key_col).type
    idtype = base.field(id_col).type

    def prep(b: pa.Table) -> pa.Table:
        if b.schema.field(amount_col).type != pa.int64():
            raise TypeError(
                f"near_duplicate_events: {amount_col} must be int64")
        mask = pc.and_(pc.and_(pc.is_valid(b[key_col]),
                               pc.is_valid(b[amount_col])),
                       pc.and_(pc.is_valid(b[ts_col]),
                               pc.is_valid(b[id_col])))
        if not pc.all(pc.fill_null(mask, False)).as_py():
            b = b.filter(pc.fill_null(mask, False))
        t = b[ts_col].combine_chunks()
        if pa.types.is_timestamp(t.type):
            t = t.cast(pa.int64())
        return pa.table({key_col: b[key_col],
                         amount_col: b[amount_col],
                         "__t": t, id_col: b[id_col]})

    empty = pa.table({id_col: pa.array([], idtype),
                      key_col: pa.array([], ktype),
                      amount_col: pa.array([], pa.int64()),
                      "gap_us": pa.array([], pa.int64())})

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        keys = t[key_col].combine_chunks()
        enc = pc.dictionary_encode(keys)
        codes = (pc.fill_null(enc.indices, -1)
                 .to_numpy(zero_copy_only=False).astype(np.int64))
        amt = t[amount_col].to_numpy(zero_copy_only=False)
        ts = t["__t"].to_numpy(zero_copy_only=False)
        same = np.zeros(len(codes), bool)
        same[1:] = (codes[1:] == codes[:-1]) & (amt[1:] == amt[:-1])
        gap = np.empty(len(codes), np.int64)
        gap[1:] = ts[1:] - ts[:-1]
        gap[0] = 0
        flag = same & (gap <= window_us)
        if not flag.any():
            return empty
        idx = pa.array(np.flatnonzero(flag), pa.int64())
        return pa.table({
            id_col: t[id_col].combine_chunks().take(idx),
            key_col: keys.take(idx),
            amount_col: pa.array(amt[flag], type=pa.int64()),
            "gap_us": pa.array(gap[flag], type=pa.int64())})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, kernel, key=key_col,
                           sort_keys=[key_col, amount_col, "__t",
                                      id_col],
                           num_partitions=num_partitions)
