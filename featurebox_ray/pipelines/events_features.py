"""Flagship transcript-shaped feature pipeline applied to the driver's
``events`` table (the sandbox analog of the transcripts fact table:
``user_id`` ↔ conv_id, ``ts`` ↔ ts, ``event_id`` ↔ turn ordering,
``value`` ↔ the numeric feature source).

Every stage is the engine's generic operator with renamed columns — the
same code path the synthetic-transcript tests exercise.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..functions import segments as seg
from ..stages.partition import partitioned_map, partitioned_refs
from ..stages.window import WindowSpec, add_window_features

EVENT_SPEC = WindowSpec(
    key_col="user_id",
    ts_col="ts",
    value_col="value",
    lags=(1,),
    rolling_rows=(5,),
    time_windows_s=(3600.0,),
    session_gap_s=1800.0,
)


def event_features(ds, *, num_partitions: int = 32):
    """read events → user-hash partition + ts sort → window features."""
    return add_window_features(
        ds, EVENT_SPEC, order_col="event_id",
        num_partitions=num_partitions,
    )


def session_stats(ds, *, gap_s: float = 1800.0, num_partitions: int = 32):
    """One output row per (user_id, session_id): n_events, duration_s,
    mean value — computed inside the partition kernel (sessions are
    user-confined, so no second shuffle is needed)."""
    gap_us = int(gap_s * 1e6)

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({
                "user_id": pa.array([], t.schema.field("user_id").type),
                "session_id": pa.array([], pa.int64()),
                "n_events": pa.array([], pa.int64()),
                "duration_s": pa.array([], pa.float64()),
                "mean_value": pa.array([], pa.float64()),
            })
        codes = pc.dictionary_encode(t["user_id"].combine_chunks()).indices.to_numpy(
            zero_copy_only=False
        )
        ts = t["ts"].combine_chunks().cast(pa.int64()).to_numpy()
        v = t["value"].combine_chunks().to_numpy(zero_copy_only=False).astype(np.float64)
        seg_start, row_in_seg, is_start = seg.segment_ids(codes)
        sess = seg.sessionize(ts, is_start, gap_us)
        # session key = (user run ordinal, session id) -> new segment coding
        sess_change = np.empty(len(codes), dtype=bool)
        sess_change[0] = True
        if len(codes) > 1:
            sess_change[1:] = (codes[1:] != codes[:-1]) | (sess[1:] != sess[:-1])
        sid = np.cumsum(sess_change) - 1  # global session ordinal
        starts = np.flatnonzero(sess_change)
        ends = np.append(starts[1:], len(codes))
        users = t["user_id"].combine_chunks().take(pa.array(starts))
        n_events = (ends - starts).astype(np.int64)
        # per-session sums via prefix sums
        cv = np.concatenate([[0.0], np.cumsum(v)])
        sums = cv[ends] - cv[starts]
        mean_value = sums / n_events
        duration_s = (ts[ends - 1] - ts[starts]) / 1e6
        return pa.table({
            "user_id": users,
            "session_id": pa.array(sess[starts].astype(np.int64)),
            "n_events": pa.array(n_events),
            "duration_s": pa.array(duration_s),
            "mean_value": pa.array(mean_value),
        })

    return partitioned_map(
        ds, kernel, key="user_id", sort_keys=["user_id", "ts", "event_id"],
        num_partitions=num_partitions,
    )


def rfm_segments(ds, *, user_col: str = "user_id", ts_col: str = "ts",
                 value_col: str = "value", n_tiles: int = 5,
                 num_partitions: int = 16):
    """RFM (recency / frequency / monetary) segmentation — the classic
    behavioral-cohort code per user: quintile each of (days since last
    event, event count, total spend) and combine into one segment
    number (``r·100 + f·10 + m``).

    Physical plan: ONE user-keyed combiner exchange reduces the stream
    to a per-user row ``(user, last_ts, n, sum_cents)`` with exact
    int64 sums; a tiny global-max aggregate gives the recency anchor;
    the per-user table (users rows — small relative to events) then
    takes three ANSI NTILE passes in one final kernel (single
    partition: exact global tiles; at extreme user counts swap in the
    q85 global-rank machinery).  Tile order is deterministic:
    recency ASC by (r_us, user), frequency DESC by (−n, user),
    monetary DESC by (−cents, user) — NTILE(T) with the first
    ``rows % T`` buckets one longer (the q60 ANSI sizing), so DuckDB
    replays every tile exactly.

    Emits ``(user_col, r_us:int64, n_events:int64, cents:int64,
    r_tile:int64, f_tile:int64, m_tile:int64, segment:int64)``.
    NULL users/ts drop; NULL values count 0 toward M.
    """
    def partial(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(b[user_col]), pc.is_valid(b[ts_col]))
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        utype = b.schema.field(user_col).type
        if b.num_rows == 0:
            return pa.table({user_col: pa.array([], utype),
                             "last": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64()),
                             "cents": pa.array([], pa.int64())})
        gd = pc.dictionary_encode(b[user_col].combine_chunks())
        codes = gd.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        ts = (b[ts_col].combine_chunks().cast(pa.int64())
              .to_numpy(zero_copy_only=False))
        cents = seg.cents_exact(b[value_col].combine_chunks(),
                                col=value_col)
        g = len(gd.dictionary)
        last = np.full(g, np.iinfo(np.int64).min, np.int64)
        np.maximum.at(last, codes, ts)
        n = np.bincount(codes, minlength=g).astype(np.int64)
        s = np.zeros(g, np.int64)
        np.add.at(s, codes, cents)
        return pa.table({user_col: gd.dictionary,
                         "last": pa.array(last), "n": pa.array(n),
                         "cents": pa.array(s)})

    def combine(t: pa.Table) -> pa.Table:
        gd = pc.dictionary_encode(t[user_col].combine_chunks())
        g = len(gd.dictionary)
        codes = gd.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        last = np.full(g, np.iinfo(np.int64).min, np.int64)
        np.maximum.at(last, codes,
                      t["last"].to_numpy(zero_copy_only=False))
        n = np.zeros(g, np.int64)
        s = np.zeros(g, np.int64)
        np.add.at(n, codes, t["n"].to_numpy(zero_copy_only=False))
        np.add.at(s, codes, t["cents"].to_numpy(zero_copy_only=False))
        return pa.table({user_col: gd.dictionary,
                         "last": pa.array(last), "n": pa.array(n),
                         "cents": pa.array(s)})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)
    per_user = partitioned_refs(partials, combine, key=user_col,
                                sort_keys=[user_col],
                                num_partitions=num_partitions)
    blocks = [b for b in ray.get(per_user) if b.num_rows > 0]
    if not blocks:
        raise ValueError("rfm_segments: no valid rows")
    max_ts = max(int(b["last"].to_numpy(zero_copy_only=False).max())
                 for b in blocks)
    mref = ray.put(max_ts)

    def _ntile(order: np.ndarray, T: int) -> np.ndarray:
        # ANSI: first rows % T tiles get one extra row
        nr = len(order)
        base, extra = divmod(nr, T)
        sizes = np.full(T, base, np.int64)
        sizes[:extra] += 1
        tiles = np.repeat(np.arange(1, T + 1), sizes)
        out = np.empty(nr, np.int64)
        out[order] = tiles
        return out

    def finalize(t: pa.Table) -> pa.Table:
        utype = t.schema.field(user_col).type if user_col in \
            t.column_names else pa.int64()
        if t.num_rows == 0 or user_col not in t.column_names:
            return pa.table({user_col: pa.array([], utype),
                             "r_us": pa.array([], pa.int64()),
                             "n_events": pa.array([], pa.int64()),
                             "cents": pa.array([], pa.int64()),
                             "r_tile": pa.array([], pa.int64()),
                             "f_tile": pa.array([], pa.int64()),
                             "m_tile": pa.array([], pa.int64()),
                             "segment": pa.array([], pa.int64())})

        mx = ray.get(mref)
        users = t[user_col].to_numpy(zero_copy_only=False)
        last = t["last"].to_numpy(zero_copy_only=False)
        n = t["n"].to_numpy(zero_copy_only=False)
        cents = t["cents"].to_numpy(zero_copy_only=False)
        r_us = mx - last
        r_t = _ntile(np.lexsort((users, r_us)), n_tiles)
        f_t = _ntile(np.lexsort((users, -n)), n_tiles)
        m_t = _ntile(np.lexsort((users, -cents)), n_tiles)
        return pa.table({
            user_col: t[user_col],
            "r_us": pa.array(r_us), "n_events": pa.array(n),
            "cents": pa.array(cents),
            "r_tile": pa.array(r_t), "f_tile": pa.array(f_t),
            "m_tile": pa.array(m_t),
            "segment": pa.array(100 * r_t + 10 * f_t + m_t),
        })

    # exact global tiles need ONE kernel over all users (small table)
    return partitioned_map([per_user], finalize, key=user_col,
                           sort_keys=[user_col], num_partitions=1)
