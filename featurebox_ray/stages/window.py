"""Windowed / sessionize / lag-lead stage over sorted conv partitions
(SURVEY.md §7.3 step 4).

The kernel receives a whole hash partition (all rows of its conversations,
sorted by ``(conv_id, ts, turn_idx)``) and appends feature columns in one
vectorized pass using :mod:`featurebox_ray.functions.segments` — group
boundaries are handled by masks, never by Python loops over rows or convs.

Transcript translation (SURVEY.md §7.1) of the reference's pooled
PropertyStats over an entry's element rows
(featurebox/featurizers/compositionfeaturizer.py mix_functions +
extrastats.py kernels) into trailing windows per conversation.

Mega-conversation note: a conversation always lives entirely inside one
partition, so windows never cross partition boundaries.  Skew is handled by
partition-count sizing + the :func:`featurebox_ray.stages.partition.key_histogram`
probe; a planted mega-conv (FIXTURES F1) is still one contiguous segment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions import segments as seg
from .partition import partitioned_map


@dataclass
class WindowSpec:
    """Declarative window-feature request."""

    key_col: str = "conv_id"
    ts_col: str = "ts"
    value_col: str = "text_len"
    lags: Sequence[int] = (1, 2)
    rolling_rows: Sequence[int] = (5,)
    time_windows_s: Sequence[float] = (3600.0,)
    session_gap_s: float = 1800.0
    ddof: int = 1
    # time-window tie semantics: False = window ends at the current row
    # position (pandas time-rolling); True = include later equal-ts peers
    # (SQL RANGE ... CURRENT ROW).  Identical when (key, ts) is unique.
    time_peers_inclusive: bool = False
    add_delta_ts: bool = True
    add_session: bool = True
    add_turn_number: bool = True
    # boolean/0-1 columns whose trailing-k mean is a usage *rate*
    # (north_star: "tool-usage rates over trailing windows")
    rate_cols: Sequence[str] = ()
    rate_window: int = 10
    # string columns to shift by +-1 within the conversation (turn context)
    context_cols: Sequence[str] = ()


def _codes(conv: pa.ChunkedArray) -> np.ndarray:
    """Integer codes for the (already sorted/contiguous) conv_id column."""
    d = pc.dictionary_encode(conv.combine_chunks())
    return d.indices.to_numpy(zero_copy_only=False)


def _key_codes_dic(col: pa.ChunkedArray):
    """Dictionary codes with a trailing null slot — group keys never
    round-trip through pandas (NaN keys would be silently DROPPED by
    pandas groupby; int64-with-null would coerce to float64)."""
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


def _window_group_agg(key_arr: pa.ChunkedArray, w_start: np.ndarray,
                      cols: dict, aggspec: dict, key_col: str) -> pa.Table:
    """Group ``cols`` by (key, window-start) null-key-safely: pandas sees
    only integer codes; key VALUES re-emit via ``dictionary.take`` (an
    all-null group would otherwise infer the Arrow null type)."""
    import pandas as pd

    codes, dic = _key_codes_dic(key_arr)
    df = pd.DataFrame({"kc": codes, "w_start": w_start, **cols})
    g = df.groupby(["kc", "w_start"], as_index=False, sort=False).agg(
        **aggspec)
    out = {key_col: dic.take(pa.array(g["kc"].to_numpy(np.int64))),
           "w_start": pa.array(g["w_start"].to_numpy(np.int64))}
    for m in aggspec:
        out[m] = pa.Array.from_pandas(g[m])
    return pa.table(out)


def window_kernel(table: pa.Table, spec: WindowSpec) -> pa.Table:
    """Append window features to one sorted partition (total over 0 rows —
    empty partitions must still produce the full output schema).  A NULL
    ts raises ``ValueError``: gaps, sessions and time windows need a ts
    on every row."""
    n_null = table[spec.ts_col].null_count
    if n_null:
        raise ValueError(
            f"window_kernel: {n_null} NULL {spec.ts_col!r} value(s); "
            "the window features need a ts on every row — filter or "
            "fill them upstream")
    codes = _codes(table[spec.key_col])
    ts = table[spec.ts_col].combine_chunks().cast(pa.int64()).to_numpy()
    v = table[spec.value_col].combine_chunks().to_numpy(zero_copy_only=False).astype(np.float64)
    seg_start, row_in_seg, is_start = seg.segment_ids(codes)
    seg_len = seg.seg_lengths(seg_start, len(codes))

    cols: dict[str, np.ndarray] = {}
    if spec.add_turn_number:
        cols["turn_number"] = row_in_seg.astype(np.int64)
    if spec.add_delta_ts:
        prev_ts = seg.lag(ts.astype(np.float64), 1, row_in_seg)
        cols["delta_ts_s"] = (ts - prev_ts) / 1e6  # NaN at conv start
    if spec.add_session:
        cols["session_id"] = seg.sessionize(
            ts, is_start, int(spec.session_gap_s * 1e6)
        )
    for k in spec.lags:
        cols[f"lag{k}_{spec.value_col}"] = seg.lag(v, k, row_in_seg)
        cols[f"lead{k}_{spec.value_col}"] = seg.lead(v, k, row_in_seg, seg_len)
    for k in spec.rolling_rows:
        st = seg.rolling_stats_rows(v, k, row_in_seg, ddof=spec.ddof)
        cols[f"roll{k}_count_{spec.value_col}"] = st["count"]
        cols[f"roll{k}_sum_{spec.value_col}"] = st["sum"]
        cols[f"roll{k}_mean_{spec.value_col}"] = st["mean"]
        cols[f"roll{k}_std_{spec.value_col}"] = st["std"]
        mn, mx = seg.rolling_min_max_rows(v, k, row_in_seg)
        cols[f"roll{k}_min_{spec.value_col}"] = mn
        cols[f"roll{k}_max_{spec.value_col}"] = mx
    for w_s in spec.time_windows_s:
        d_us = int(w_s * 1e6)
        st = seg.rolling_stats_time(
            v, ts, d_us, seg_start, row_in_seg, ddof=spec.ddof,
            include_ts_peers=spec.time_peers_inclusive,
        )
        # :g keeps fractional windows distinct ("t90s" vs "t90.5s") —
        # int() would collide them and silently overwrite columns
        tag = f"t{w_s:g}s"
        cols[f"win_{tag}_count_{spec.value_col}"] = st["count"]
        cols[f"win_{tag}_sum_{spec.value_col}"] = st["sum"]
        cols[f"win_{tag}_mean_{spec.value_col}"] = st["mean"]

    out = table
    for name, arr in cols.items():
        out = out.append_column(name, pa.array(arr))

    for rc in spec.rate_cols:
        rv = table[rc].combine_chunks().to_numpy(zero_copy_only=False).astype(np.float64)
        st = seg.rolling_stats_rows(rv, spec.rate_window, row_in_seg, ddof=spec.ddof)
        out = out.append_column(
            f"rate{spec.rate_window}_{rc}", pa.array(st["mean"])
        )

    if spec.context_cols:
        n = len(codes)
        pos = np.arange(n, dtype=np.int64)
        prev_idx = pa.array(np.maximum(pos - 1, 0), pa.int64(),
                            mask=(row_in_seg < 1))
        nxt = pos + 1
        last_of_seg = row_in_seg == (seg_len - 1)
        next_idx = pa.array(np.minimum(nxt, n - 1), pa.int64(),
                            mask=last_of_seg)
        for cc in spec.context_cols:
            col = table[cc].combine_chunks()
            out = out.append_column(f"prev_{cc}", col.take(prev_idx))
            out = out.append_column(f"next_{cc}", col.take(next_idx))
    return out


def add_window_features(
    ds,
    spec: Optional[WindowSpec] = None,
    *,
    order_col: str = "turn_idx",
    num_partitions: int = 32,
):
    """conv-hash repartition + within-partition sort + window kernel."""
    spec = spec or WindowSpec()
    key, ts_col = spec.key_col, spec.ts_col

    def kernel(t: pa.Table) -> pa.Table:
        return window_kernel(t, spec)

    return partitioned_map(
        ds,
        kernel,
        key=key,
        sort_keys=[key, ts_col, order_col],
        num_partitions=num_partitions,
    )


def tumbling_window_stats(ds, *, key_col: str, ts_col: str, value_col: str,
                          id_col: str, width_s: float,
                          num_partitions: int = 16):
    """Fixed (tumbling) time-window aggregate per key: rows bucketed by
    ``floor(epoch_us / width_us)`` and aggregated per ``(key, bucket)``.

    Unlike the trailing windows in :func:`add_window_features` (one output
    row per input row), a tumbling window emits one row per occupied
    bucket — the batch/offline shape of a streaming windowed aggregate.
    Pure hash aggregate: a per-block partial (pandas groupby over the
    derived bucket) then a tiny keyed combine — no sort, no per-row state,
    so the only exchange moves ``(keys × buckets)`` partial rows.  All
    aggregates are order-independent-exact (count, int64 id sum, min/max),
    so results are reproducible under any partitioning.

    Output: ``(key_col, w_start:timestamp-like int64 us, n_events:int64,
    id_sum:int64, v_min, v_max)``.
    """
    from .partition import partitioned_map

    width_us = int(round(width_s * 1_000_000))
    if width_us <= 0:
        raise ValueError("width_s must be positive")

    def partial(t: pa.Table) -> pa.Table:
        if t[ts_col].null_count:
            t = t.filter(pc.is_valid(t[ts_col]))
        ts = t[ts_col].combine_chunks().cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        bucket = ts // width_us  # floor division, exact int64
        return _window_group_agg(
            t[key_col], bucket * width_us,
            {"i": t[id_col].to_numpy(zero_copy_only=False),
             "v": t[value_col].to_numpy(zero_copy_only=False)},
            dict(n_events=("i", "size"), id_sum=("i", "sum"),
                 v_min=("v", "min"), v_max=("v", "max")),
            key_col)

    def combine(t: pa.Table) -> pa.Table:
        return _window_group_agg(
            t[key_col],
            t["w_start"].to_numpy(zero_copy_only=False),
            {m: t[m].to_numpy(zero_copy_only=False)
             for m in ("n_events", "id_sum", "v_min", "v_max")},
            dict(n_events=("n_events", "sum"), id_sum=("id_sum", "sum"),
                 v_min=("v_min", "min"), v_max=("v_max", "max")),
            key_col)

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
    return partitioned_map(partials, combine, key=key_col,
                           sort_keys=[key_col, "w_start"],
                           num_partitions=num_partitions)


def hopping_window_stats(ds, *, key_col: str, ts_col: str, value_col: str,
                         id_col: str, width_s: float, hop_s: float,
                         num_partitions: int = 16):
    """Hopping (sliding) time-window aggregate per key: windows of
    ``width_s`` seconds start every ``hop_s`` seconds, so each row lands
    in exactly ``width/hop`` overlapping windows (``width`` must be an
    integer multiple of ``hop`` — the clean overlap contract).

    Same order-independent-exact shape as :func:`tumbling_window_stats`:
    each block expands rows ×(width/hop) with vectorized window starts,
    collapses to per-block ``(key, w_start)`` partials BEFORE the
    exchange (the expansion never crosses the wire unaggregated), and a
    tiny keyed combine finishes.  The shuffle moves
    O(keys × occupied windows) partial rows, not data.

    Output: ``(key_col, w_start:int64 epoch-us, n_events:int64,
    id_sum:int64, v_min, v_max)``.
    """
    from .partition import partitioned_map

    width_us = int(round(width_s * 1_000_000))
    hop_us = int(round(hop_s * 1_000_000))
    if width_us <= 0 or hop_us <= 0:
        raise ValueError("width_s and hop_s must be positive")
    if width_us % hop_us:
        raise ValueError("width_s must be an integer multiple of hop_s")
    m = width_us // hop_us

    def partial(t: pa.Table) -> pa.Table:
        if t[ts_col].null_count:
            t = t.filter(pc.is_valid(t[ts_col]))
        n = t.num_rows
        ts = t[ts_col].combine_chunks().cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        latest = (ts // hop_us) * hop_us  # floor: matches SQL //
        # row r belongs to starts latest - i*hop for i in 0..m-1
        starts = (np.repeat(latest, m)
                  - np.tile(np.arange(m, dtype=np.int64) * hop_us, n))
        rep_arr = pa.array(np.repeat(np.arange(n), m), pa.int64())
        rep = np.repeat(np.arange(n), m)
        return _window_group_agg(
            t[key_col].combine_chunks().take(rep_arr), starts,
            {"i": t[id_col].to_numpy(zero_copy_only=False)[rep],
             "v": t[value_col].to_numpy(zero_copy_only=False)[rep]},
            dict(n_events=("i", "size"), id_sum=("i", "sum"),
                 v_min=("v", "min"), v_max=("v", "max")),
            key_col)

    def combine(t: pa.Table) -> pa.Table:
        return _window_group_agg(
            t[key_col],
            t["w_start"].to_numpy(zero_copy_only=False),
            {m_: t[m_].to_numpy(zero_copy_only=False)
             for m_ in ("n_events", "id_sum", "v_min", "v_max")},
            dict(n_events=("n_events", "sum"), id_sum=("id_sum", "sum"),
                 v_min=("v_min", "min"), v_max=("v_max", "max")),
            key_col)

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
    return partitioned_map(partials, combine, key=key_col,
                           sort_keys=[key_col, "w_start"],
                           num_partitions=num_partitions)


def add_ewm(ds, *, key_col: str, ts_col: str, value_col: str,
            alpha: float, order_col: str, out_col: str = "ewm",
            num_partitions: int = 16):
    """Per-key exponential moving average over time order (pandas
    ``groupby().ewm(alpha, adjust=False).mean()`` semantics) — one keyed
    exchange, then the blocked scan of
    :func:`featurebox_ray.functions.segments.ewm_mean` per sorted
    partition (vectorized inner blocks, O(rows/64 + keys) Python).

    Deterministic given a unique ``(key, ts, order_col)``; exactness
    contract is bit-identity with the same blocked arithmetic replayed
    serially (fixture-oracle pattern, q95).  NULL keys form ONE group
    (SQL ``PARTITION BY``); the value column must be finite and
    non-null (a NaN would silently poison the rest of its key's
    series, so the kernel raises instead — fill or filter first).
    """

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return t.append_column(out_col, pa.array([], pa.float64()))
        codes, _ = _key_codes_dic(t[key_col])
        v = (t[value_col].combine_chunks()
             .to_numpy(zero_copy_only=False).astype(np.float64))
        if not np.isfinite(v).all():
            raise ValueError(
                f"add_ewm requires finite non-null {value_col!r} values "
                "(a NaN poisons the rest of its key's series); fill or "
                "filter first")
        _, _, is_start = seg.segment_ids(codes)
        return t.append_column(
            out_col, pa.array(seg.ewm_mean(v, alpha, is_start)))

    return partitioned_map(ds, kernel, key=key_col,
                           sort_keys=[key_col, ts_col, order_col],
                           num_partitions=num_partitions)


def add_running_totals(ds, *, key_col: str, ts_col: str,
                       int_value_col: str, order_col: str,
                       out_col: str = "running_sum",
                       num_partitions: int = 16):
    """Per-key running total over time order — SQL
    ``SUM(v) OVER (PARTITION BY k ORDER BY ts, o ROWS UNBOUNDED
    PRECEDING)`` for an INTEGER value column (pass money pre-scaled to
    cents), so the cumulative sums are int64-exact and replay in SQL
    bit-identically regardless of how either side accumulates.

    One keyed exchange; per sorted partition a segment-masked
    ``np.cumsum`` (the running total resets at each key boundary by
    subtracting the segment-start prefix — pure vector math, no Python
    per row).  NULL keys form ONE group (SQL ``PARTITION BY``); NULL
    values contribute 0 and the total keeps running (replay with
    ``sum(coalesce(v, 0)) OVER ...``) — int64 end to end, never a
    float round trip.
    """

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return t.append_column(out_col, pa.array([], pa.int64()))
        codes, _ = _key_codes_dic(t[key_col])
        v = pc.fill_null(
            t[int_value_col].combine_chunks().cast(pa.int64()), 0
        ).to_numpy(zero_copy_only=False)
        seg_start, _, _ = seg.segment_ids(codes)
        cs = np.cumsum(v)
        # prefix before each row's segment start (seg_start is per-row)
        base = np.where(seg_start > 0, cs[np.maximum(seg_start - 1, 0)],
                        0)
        return t.append_column(out_col, pa.array(cs - base))

    return partitioned_map(ds, kernel, key=key_col,
                           sort_keys=[key_col, ts_col, order_col],
                           num_partitions=num_partitions)


def add_forward_fill(ds, *, key_col: str, ts_col: str, order_col: str,
                     value_cols: Sequence[str],
                     suffix: str = "_ffill", num_partitions: int = 16):
    """Per-key forward fill (LOCF imputation) — SQL
    ``last_value(v IGNORE NULLS) OVER (PARTITION BY k ORDER BY ts, o
    ROWS UNBOUNDED PRECEDING)``: each NULL takes the latest preceding
    non-NULL value of its key; rows before the first valid value stay
    NULL.  The slowly-changing-signal imputer next to the as-of join
    (same cursor semantics, but within one table).

    One keyed exchange; per sorted partition ONE ``maximum.accumulate``
    over last-valid row indices per column, reset at key boundaries by
    comparing against the row's segment start (pure vector math — no
    scan state, no per-row Python).  Values are gathered with a single
    ``take``, so any Arrow type forward-fills exactly (ints stay ints,
    strings move as offsets); NULL keys form ONE group like SQL
    ``PARTITION BY``.
    """
    value_cols = list(value_cols)

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            for c in value_cols:
                typ = (t.schema.field(c).type
                       if c in t.column_names else pa.float64())
                t = t.append_column(c + suffix, pa.array([], typ))
            return t
        codes, _ = _key_codes_dic(t[key_col])
        seg_start, _, _ = seg.segment_ids(codes)
        n = len(codes)
        pos = np.arange(n, dtype=np.int64)
        for c in value_cols:
            col = t[c].combine_chunks()
            valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
            carrier = np.where(valid, pos, np.int64(-1))
            last_valid = np.maximum.accumulate(carrier)
            # a carried index from BEFORE this key's segment is void
            has = last_valid >= seg_start
            filled = col.take(pa.array(
                np.where(has, last_valid, 0), pa.int64()))
            filled = pc.if_else(pa.array(has), filled,
                                pa.nulls(n, col.type))
            t = t.append_column(c + suffix, filled)
        return t

    return partitioned_map(ds, kernel, key=key_col,
                           sort_keys=[key_col, ts_col, order_col],
                           num_partitions=num_partitions)


def add_rolling_distinct(ds, *, key_col: str, ts_col: str,
                         order_col: str, value_col: str, window: int,
                         out_col: str = "rolling_distinct",
                         num_partitions: int = 16):
    """Per-key trailing distinct count — SQL ``count(DISTINCT v) OVER
    (PARTITION BY k ORDER BY ts, o ROWS window-1 PRECEDING)``: how many
    distinct values appeared in the last ``window`` rows of this key
    (distinct tools per recent turns, distinct pages per recent clicks).

    O(n) per partition, NOT O(n·window): a row j's value is the
    window-representative exactly for windows ending at
    ``i in [j, min(next_occurrence(j)-1, j+window-1, segment_end)]``
    (it counts while no LATER copy has entered), so each row contributes
    one interval to a difference array and the per-row distinct counts
    are one cumsum.  ``next_occurrence`` comes from a single lexsort by
    (key, value, position).  NULL values never count (SQL COUNT
    semantics); NULL keys form ONE group.  Exact int64.
    """
    if window < 1:
        raise ValueError("window must be >= 1")

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return t.append_column(out_col, pa.array([], pa.int64()))
        codes, _ = _key_codes_dic(t[key_col])
        seg_start, _, is_start = seg.segment_ids(codes)
        n = len(codes)
        run_id = np.cumsum(is_start) - 1
        starts = np.flatnonzero(is_start)
        seg_end = np.append(starts[1:] - 1, n - 1)[run_id]
        col = t[value_col].combine_chunks()
        vcodes, _ = _key_codes_dic(col)
        valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
        pos = np.arange(n, dtype=np.int64)
        # next occurrence of (key, value) after each row, else n
        order = np.lexsort((pos, vcodes, codes))
        nxt = np.full(n, n, dtype=np.int64)
        same = (codes[order[1:]] == codes[order[:-1]]) & (
            vcodes[order[1:]] == vcodes[order[:-1]])
        nxt[order[:-1][same]] = order[1:][same]
        hi = np.minimum(np.minimum(nxt - 1, pos + window - 1), seg_end)
        diff = np.zeros(n + 1, np.int64)
        np.add.at(diff, pos[valid], 1)
        np.add.at(diff, hi[valid] + 1, -1)
        return t.append_column(
            out_col, pa.array(np.cumsum(diff[:-1]), pa.int64()))

    return partitioned_map(ds, kernel, key=key_col,
                           sort_keys=[key_col, ts_col, order_col],
                           num_partitions=num_partitions)


def add_rolling_quantile(ds, *, key_col: str, ts_col: str,
                         value_col: str, order_col: str,
                         window_rows: int, q: float = 0.5,
                         out_col: str = "roll_q",
                         num_partitions: int = 16):
    """Per-key trailing rolling quantile over the last ``window_rows``
    rows — SQL ``quantile_disc(v, q) OVER (PARTITION BY k ORDER BY ts, o
    ROWS BETWEEN window_rows-1 PRECEDING AND CURRENT ROW)``.

    One keyed exchange; per sorted partition the windows materialize as
    ONE ``sliding_window_view`` over a NaN-padded copy (n × w, bounded
    by the window width — size ``window_rows`` stays a small constant at
    any data scale), cross-key leakage is masked by the per-row segment
    start, and the pick is the exact quantile_disc element at sorted
    index ``max(ceil(q·n)-1, 0)`` per row (NULL values ignored like the
    SQL aggregate; all-null windows emit NULL) — an element pick, so
    float64 results value-hash bit-exactly against DuckDB.

    NaN *values* (as opposed to NULLs) are not supported — DuckDB
    treats NaN as an ordinary large value while numpy sorting here
    conflates it with the NULL padding.
    """
    if window_rows < 1:
        raise ValueError("window_rows must be >= 1")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    w = int(window_rows)

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return t.append_column(out_col, pa.array([], pa.float64()))
        codes, _ = _key_codes_dic(t[key_col])
        v = (t[value_col].combine_chunks().cast(pa.float64())
             .to_numpy(zero_copy_only=False))
        n = len(v)
        seg_start, _, _ = seg.segment_ids(codes)
        pad = np.concatenate([np.full(w - 1, np.nan), v])
        sw = np.lib.stride_tricks.sliding_window_view(pad, w).copy()
        abs_idx = (np.arange(n)[:, None] - (w - 1)
                   + np.arange(w)[None, :])
        sw[abs_idx < seg_start[:, None]] = np.nan
        nv = np.sum(~np.isnan(sw), axis=1)
        ws = np.sort(sw, axis=1)                    # NaN sorts last
        # DuckDB quantile_disc rank, q*n in float64 (quantile.py:_rank)
        rank = np.maximum(
            np.ceil(q * nv.astype(np.float64)).astype(np.int64) - 1, 0)
        out = ws[np.arange(n), np.minimum(rank, w - 1)]
        return t.append_column(
            out_col, pa.array(out, pa.float64(), mask=(nv == 0)))

    return partitioned_map(ds, kernel, key=key_col,
                           sort_keys=[key_col, ts_col, order_col],
                           num_partitions=num_partitions)


def add_centered_window_sum(ds, *, key_col: str, ts_col: str,
                            int_value_col: str, order_col: str,
                            before: int, after: int,
                            sum_col: str = "win_sum",
                            n_col: str = "win_n",
                            num_partitions: int = 16):
    """Per-key CENTERED window aggregate — SQL ``... OVER (PARTITION BY k
    ORDER BY ts, o ROWS BETWEEN before PRECEDING AND after FOLLOWING)``,
    the smoothing complement to the trailing windows of
    ``add_window_features``.

    One keyed exchange; per sorted partition ONE segment-masked prefix
    sum serves every row: ``win_sum[i] = cs[hi] - cs[lo-1]`` with the
    window clamped to the row's segment — pure vector math.  The value
    column must be int64 (pre-scaled — the q96 running-total contract),
    so sums are exact and the SQL replay value-hashes bit-identically;
    NULL values count 0 toward the sum and are excluded from ``win_n``
    (replay with ``sum(coalesce(v,0))`` + ``count(v)``).
    """
    if before < 0 or after < 0:
        raise ValueError("before/after must be >= 0")

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return (t.append_column(sum_col, pa.array([], pa.int64()))
                    .append_column(n_col, pa.array([], pa.int64())))
        codes, _ = _key_codes_dic(t[key_col])
        vcol = t[int_value_col].combine_chunks().cast(pa.int64())
        v = pc.fill_null(vcol, 0).to_numpy(zero_copy_only=False)
        valid = pc.is_valid(vcol).to_numpy(zero_copy_only=False)
        seg_start, _, is_start = seg.segment_ids(codes)
        n = len(v)
        starts = np.flatnonzero(is_start)
        ends = np.append(starts[1:], n)
        seg_id = np.cumsum(is_start) - 1
        seg_end = ends[seg_id]                     # exclusive
        i = np.arange(n)
        lo = np.maximum(i - before, seg_start)
        hi = np.minimum(i + after, seg_end - 1)    # inclusive
        cs = np.concatenate([[0], np.cumsum(v)])
        cn = np.concatenate([[0], np.cumsum(valid.astype(np.int64))])
        return (t.append_column(sum_col, pa.array(cs[hi + 1] - cs[lo]))
                .append_column(n_col, pa.array(cn[hi + 1] - cn[lo])))

    return partitioned_map(ds, kernel, key=key_col,
                           sort_keys=[key_col, ts_col, order_col],
                           num_partitions=num_partitions)


def add_cusum(ds, *, key_col: str, ts_col: str, int_value_col: str,
              order_col: str, drift_k: int,
              out_col: str = "cusum", num_partitions: int = 16):
    """Per-key one-sided CUSUM drift statistic — the streaming
    change-point / anomaly signal: ``s_t = max(0, s_{t-1} + v_t − k)``
    grows when values persistently exceed the drift allowance ``k`` and
    resets when they fall back.

    The recurrence LOOKS sequential but collapses to pure vector math
    via its prefix form: with ``P_t = Σ_{j≤t}(v_j − k)`` (and virtual
    ``P₋₁ = 0``), ``s_t = P_t − min(0, min_{j≤t} P_j)`` — a
    segment-masked cumsum plus a grouped running min, both int64-exact
    (pass money pre-scaled to cents), so SQL replays it bit-identically
    with two window aggregates and a ``LEAST(0, …)``:

        P = sum(coalesce(v,0) − k) OVER (PARTITION BY key
                ORDER BY ts, o ROWS UNBOUNDED PRECEDING)
        cusum = P − LEAST(0, min(P) OVER (same window))

    NULL keys form ONE group; NULL values contribute 0 (the statistic
    keeps running).  One keyed exchange, O(n) per partition.

    Reference analog: none (beyond-reference monitoring primitive next
    to add_running_totals / add_ewm).
    """

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return t.append_column(out_col, pa.array([], pa.int64()))
        codes, _ = _key_codes_dic(t[key_col])
        v = pc.fill_null(
            t[int_value_col].combine_chunks().cast(pa.int64()), 0
        ).to_numpy(zero_copy_only=False)
        seg_start, row_in_seg, _ = seg.segment_ids(codes)
        cs = np.cumsum(v - int(drift_k))
        base = np.where(seg_start > 0, cs[np.maximum(seg_start - 1, 0)],
                        0)
        p = cs - base  # segment-relative inclusive prefix, exact int64
        import pandas as pd

        g = np.cumsum(row_in_seg == 0) - 1
        run_min = pd.Series(p).groupby(g).cummin().to_numpy()
        cusum = p - np.minimum(0, run_min)
        return t.append_column(out_col, pa.array(cusum, pa.int64()))

    return partitioned_map(ds, kernel, key=key_col,
                           sort_keys=[key_col, ts_col, order_col],
                           num_partitions=num_partitions)


def time_weighted_avg(ds, *, key_col: str, ts_col: str,
                      int_value_col: str, order_col: str,
                      num_partitions: int = 16):
    """Per-key time-weighted average — the telemetry aggregate for
    irregularly-sampled step signals (a value holds until the next
    observation): ``twa = Σ vᵢ·(tᵢ₊₁ − tᵢ) / (tₙ − t₀)`` over the key's
    observations in time order.

    Exactness: with ``int_value_col`` pre-quantized int64, the
    numerator is int64-exact and CANNOT overflow regardless of row
    count — the gaps telescope, so ``|Σ v·gap| ≤ max|v| · span``
    (guarded < 2^63).  The result is one IEEE division of exact ints;
    SQL replays it with a ``lead()`` window bit-identically.

    One keyed exchange, one vectorized diff/product/reduceat pass per
    partition.  Rows with NULL ts or value drop (SQL parity: the lead
    window runs over the filtered set); keys with < 2 surviving rows
    emit NULL twa.  Returns ``(key_col, n:int64, span:int64,
    twa:float64)`` with span in native ts units.
    """

    # typed empty from the input schema (zero-column empty bundles must
    # emit the same block schema as data partitions)
    base = ds.schema()
    base = getattr(base, "base_schema", base)
    empty = pa.table({
        key_col: pa.array([], base.field(key_col).type),
        "n": pa.array([], pa.int64()),
        "span": pa.array([], pa.int64()),
        "twa": pa.array([], pa.float64())})

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        keys = t[key_col].combine_chunks()
        codes, _ = _key_codes_dic(keys)
        ts = (t[ts_col].combine_chunks().cast(pa.int64())
              .to_numpy(zero_copy_only=False))
        v = t[int_value_col].to_numpy(zero_copy_only=False)
        seg_start, _, is_start = seg.segment_ids(codes)
        starts = np.flatnonzero(is_start)
        ends = np.concatenate([starts[1:], [len(codes)]])
        span = ts[ends - 1] - ts[starts]
        m = int(np.abs(v).max()) if len(v) else 0
        if m and int(span.max(initial=0)) * m >= 2 ** 63:
            raise ValueError(
                "max|v| · key time-span overflows int64 — quantize the "
                "value more coarsely")
        gap = np.empty(len(ts), np.int64)
        gap[:-1] = ts[1:] - ts[:-1]
        gap[-1] = 0
        # last row of each segment holds no interval
        gap[ends - 1] = 0
        contrib = v * gap
        num = np.add.reduceat(contrib, starts)
        n = (ends - starts).astype(np.int64)
        ok = span > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            twa = num.astype(np.float64) / span.astype(np.float64)
        return pa.table({
            key_col: keys.take(pa.array(starts, pa.int64())),
            "n": pa.array(n),
            "span": pa.array(span.astype(np.int64)),
            "twa": pa.array(np.where(ok, twa, 0.0), pa.float64(),
                            mask=~ok),
        })

    def prep(b: pa.Table) -> pa.Table:
        if b.schema.field(int_value_col).type != pa.int64():
            raise TypeError(
                f"{int_value_col} must be int64 (quantize first) — the "
                "exactness contract is integer arithmetic; got "
                f"{b.schema.field(int_value_col).type}")
        return b.filter(pc.and_(pc.is_valid(b[ts_col]),
                                pc.is_valid(b[int_value_col])))

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, kernel, key=key_col,
                           sort_keys=[key_col, ts_col, order_col],
                           num_partitions=num_partitions)


def add_drawdown(ds, *, key_col: str, ts_col: str, int_value_col: str,
                 order_col: str, out_col: str = "drawdown",
                 num_partitions: int = 16):
    """Per-key running maximum drawdown of a cumulative series — the
    peak-to-trough monitoring twin of :func:`add_cusum`: with
    ``P_t = Σ_{j≤t} v_j`` (the running total), ``drawdown_t =
    max(0, max_{j≤t} P_j) − P_t`` measures how far the series has
    fallen from its best point so far (0 at fresh highs; the virtual
    ``P₋₁ = 0`` start counts as a peak, mirroring CUSUM's floor).

    Same collapse as CUSUM: one segment-masked cumsum + one grouped
    running MAX, int64-exact end to end; SQL replays it with::

        P = sum(coalesce(v,0)) OVER (PARTITION BY key
                ORDER BY ts, o ROWS UNBOUNDED PRECEDING)
        drawdown = GREATEST(0, max(P) OVER (same)) − P

    NULL keys one group; NULL values contribute 0.
    """

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return t.append_column(out_col, pa.array([], pa.int64()))
        codes, _ = _key_codes_dic(t[key_col])
        v = pc.fill_null(
            t[int_value_col].combine_chunks().cast(pa.int64()), 0
        ).to_numpy(zero_copy_only=False)
        seg_start, row_in_seg, _ = seg.segment_ids(codes)
        cs = np.cumsum(v)
        base = np.where(seg_start > 0, cs[np.maximum(seg_start - 1, 0)],
                        0)
        p = cs - base
        import pandas as pd

        g = np.cumsum(row_in_seg == 0) - 1
        run_max = pd.Series(p).groupby(g).cummax().to_numpy()
        dd = np.maximum(0, run_max) - p
        return t.append_column(out_col, pa.array(dd, pa.int64()))

    return partitioned_map(ds, kernel, key=key_col,
                           sort_keys=[key_col, ts_col, order_col],
                           num_partitions=num_partitions)


def resample_linear(ds, *, key_col: str, ts_col: str, id_col: str,
                    value_col: str, step: int,
                    num_partitions: int = 16):
    """Per-key linear-interpolation resampling onto a regular time
    grid — the irregular-series → fixed-rate conversion every
    time-series feature pipeline needs (align sensors/metrics before
    windowed aggregates or model input packing).

    Grid: for each key, points ``g = ceil(min_ts/step)·step …
    floor(max_ts/step)·step`` (only inside the key's own span — no
    extrapolation, output size bounded by span/step per key).  Value
    at ``g``: the key's events collapse to one value per DISTINCT ts
    (last-write-wins by ``id_col`` — makes interpolation unambiguous
    under ts ties), then ``v0 + (v1−v0)·((g−t0)/(t1−t0))`` between the
    neighbors ``t0 ≤ g < t1``; an exact grid hit returns ``v0``
    directly.  Every float op is one correctly-rounded IEEE op in a
    fixed order, so the SQL replay (grid CTE + neighbor joins + the
    same expression) is bit-exact.  ``step`` is in the ts column's
    native unit for plain ints, microseconds for timestamps.

    ONE key-keyed exchange; the kernel is one ``searchsorted`` per
    grid batch per key segment.  Rows with NULL key/ts/value drop.
    Emits ``(key_col, g:int64, value:float64)``.

    Reference analog: none (the reference has no time axis); this is
    the distributed sibling of pandas ``resample().interpolate()``.
    """
    from .partition import partitioned_map

    if int(step) <= 0:
        raise ValueError("step must be positive")
    step = int(step)
    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    ktype = base.field(key_col).type
    tt = base.field(ts_col).type
    is_ts = pa.types.is_timestamp(tt)

    def prep(b: pa.Table) -> pa.Table:
        keep = pc.is_valid(b[key_col])
        for c in (ts_col, value_col):
            keep = pc.and_(keep, pc.is_valid(b[c]))
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        ts = b[ts_col].combine_chunks()
        return pa.table({
            key_col: b[key_col],
            "__ts": ts.cast(pa.int64()) if is_ts else ts,
            id_col: b[id_col],
            "__v": pc.cast(b[value_col].combine_chunks(),
                           pa.float64()),
        })

    def kernel(t: pa.Table) -> pa.Table:
        empty = pa.table({key_col: pa.array([], ktype),
                          "g": pa.array([], pa.int64()),
                          "value": pa.array([], pa.float64())})
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        keys = t[key_col].combine_chunks()
        enc = pc.dictionary_encode(keys)
        codes = enc.indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        ts = t["__ts"].to_numpy(zero_copy_only=False)
        v = t["__v"].to_numpy(zero_copy_only=False)
        # last-write-wins per (key, ts): rows sorted by (key, ts, id),
        # keep the LAST of each run
        last = np.concatenate([(codes[:-1] != codes[1:])
                               | (ts[:-1] != ts[1:]), [True]])
        codes, ts, v = codes[last], ts[last], v[last]
        seg_start = np.flatnonzero(
            np.concatenate([[True], codes[1:] != codes[:-1]]))
        seg_end = np.concatenate([seg_start[1:], [len(codes)]])
        out_k, out_g, out_v = [], [], []
        for s0, s1 in zip(seg_start.tolist(), seg_end.tolist()):
            lo, hi = int(ts[s0]), int(ts[s1 - 1])
            g0 = -((-lo) // step) * step           # ceil to grid
            g1 = (hi // step) * step               # floor to grid
            if g1 < g0:
                continue
            g = np.arange(g0, g1 + 1, step, dtype=np.int64)
            seg_ts, seg_v = ts[s0:s1], v[s0:s1]
            i0 = np.searchsorted(seg_ts, g, side="right") - 1
            t0, v0 = seg_ts[i0], seg_v[i0]
            hit = t0 == g
            i1 = np.minimum(i0 + 1, len(seg_ts) - 1)
            t1, v1 = seg_ts[i1], seg_v[i1]
            den = np.where(t1 > t0, t1 - t0, 1)
            frac = (g - t0).astype(np.float64) / den.astype(np.float64)
            val = np.where(hit, v0, v0 + (v1 - v0) * frac)
            out_k.append(np.full(len(g), codes[s0], np.int64))
            out_g.append(g)
            out_v.append(val)
        if not out_k:
            return empty
        kcodes = np.concatenate(out_k)
        return pa.table({
            key_col: enc.dictionary.take(pa.array(kcodes, pa.int64())),
            "g": pa.array(np.concatenate(out_g)),
            "value": pa.array(np.concatenate(out_v), pa.float64()),
        })

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, kernel, key=key_col,
                           sort_keys=[key_col, "__ts", id_col],
                           num_partitions=num_partitions)


def rolling_slope(ds, *, key_col: str, ts_col: str, id_col: str,
                  value_col: str, k: int, out_col: str = "roll_slope",
                  num_partitions: int = 16):
    """Per-key trailing-``k``-row least-squares TREND — the slope of
    ``value`` against the within-window row position (0..m−1), the
    standard "is this metric rising or falling" feature that a plain
    rolling mean cannot express.

    Exactness: ``value_col`` must be int64 (quantize first); every
    sufficient statistic is an exact int64 prefix-sum difference
    (Σy, Σj·y with j the within-segment row index; Σx and Σx² are
    closed-form integers of the window length m), the slope is ONE
    ``double(num)/double(den)`` division with ``num = m·Sxy − Sx·Sy``
    and ``den = m·Sxx − Sx²``; single-row windows (den = 0) emit
    NULL.  SQL replays with HUGEINT window sums and the identical
    final division.

    ONE key-keyed exchange sorted ``(key, ts, id)``; NULL key/ts/value
    rows drop (windows are over the REMAINING rows — mirror the filter
    in SQL).  Emits ``(id_col, out_col:float64)``.
    """
    from .partition import partitioned_map

    if k < 2:
        raise ValueError("k must be >= 2")

    def prep(b: pa.Table) -> pa.Table:
        keep = pc.is_valid(b[key_col])
        for c in (ts_col, value_col):
            keep = pc.and_(keep, pc.is_valid(b[c]))
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        if b.schema.field(value_col).type != pa.int64():
            raise TypeError(f"{value_col} must be int64 (quantize "
                            "first)")
        ts = b[ts_col].combine_chunks()
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.int64())
        return pa.table({key_col: b[key_col], "__ts": ts,
                         id_col: b[id_col], "__y": b[value_col]})

    def kernel(t: pa.Table) -> pa.Table:
        empty = pa.table({id_col: pa.array([], pa.int64()),
                          out_col: pa.array([], pa.float64())})
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        codes = pc.dictionary_encode(
            t[key_col].combine_chunks()).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        y = t["__y"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(codes)
        seg_start = np.flatnonzero(
            np.concatenate([[True], codes[1:] != codes[:-1]]))
        run_id = np.cumsum(np.concatenate(
            [[0], (codes[1:] != codes[:-1]).astype(np.int64)]))
        j = np.arange(n) - seg_start[run_id]          # within-segment
        cy = np.concatenate([[0], np.cumsum(y)])
        cjy = np.concatenate([[0], np.cumsum(j * y)])
        start = np.maximum(j - k + 1, 0) + seg_start[run_id]
        i_abs = np.arange(n)
        m = i_abs - start + 1
        sy = cy[i_abs + 1] - cy[start]
        sjy = cjy[i_abs + 1] - cjy[start]
        j0 = j - m + 1                                 # first j in win
        sxy = sjy - j0 * sy
        sx = m * (m - 1) // 2
        sxx = (m - 1) * m * (2 * m - 1) // 6
        num = m * sxy - sx * sy
        den = m * sxx - sx * sx
        slope = num.astype(np.float64) / np.where(
            den > 0, den, 1).astype(np.float64)
        return pa.table({
            id_col: t[id_col],
            out_col: pa.array(slope, pa.float64(), mask=den == 0),
        })

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, kernel, key=key_col,
                           sort_keys=[key_col, "__ts", id_col],
                           num_partitions=num_partitions)


def group_burstiness(ds, *, key_col: str, ts_col: str, id_col: str,
                     num_partitions: int = 16):
    """Per-key inter-arrival burstiness — Goh & Barabási's
    ``B = (σ − μ) / (σ + μ)`` over the gaps between consecutive
    events (B → −1 periodic, 0 Poisson, → 1 bursty): the behavioral
    regularity feature for users/sessions/tools.

    Exactness: gaps are int64 (native ts unit); per key the kernel
    keeps ``n, Σg, Σg²`` as unbounded Python ints, then runs ONE fixed
    float sequence — ``μ = double(Σg)/double(n)``, sample variance
    ``(double(Σg²) − double(Σg)·μ) / double(n−1)``, ``σ = sqrt``,
    ``B = (σ−μ)/(σ+μ)`` — each step a correctly-rounded IEEE op, so
    the SQL replay (explicit sums, NEVER stddev_samp — Welford order
    differs) matches bit-for-bit.  Keys with < 3 events (< 2 gaps)
    emit NULL B; one key-keyed exchange sorted ``(key, ts, id)``.

    Emits ``(key_col, n_gaps:int64, sum_gap:int64, sum_gap2:float64*,
    burstiness:float64)`` — ``sum_gap2`` is emitted as float64 of the
    exact int (it can exceed int64 in SQL HUGEINT; the conversion is
    the same rounding both sides).
    """
    from .partition import partitioned_map

    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    ktype = base.field(key_col).type

    def prep(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(b[key_col]), pc.is_valid(b[ts_col]))
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        ts = b[ts_col].combine_chunks()
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.int64())
        return pa.table({key_col: b[key_col], "__ts": ts,
                         id_col: b[id_col]})

    def kernel(t: pa.Table) -> pa.Table:
        empty = pa.table({key_col: pa.array([], ktype),
                          "n_gaps": pa.array([], pa.int64()),
                          "sum_gap": pa.array([], pa.int64()),
                          "sum_gap2": pa.array([], pa.float64()),
                          "burstiness": pa.array([], pa.float64())})
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        keys = t[key_col].combine_chunks()
        codes = pc.dictionary_encode(keys).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        ts = t["__ts"].to_numpy(zero_copy_only=False)
        same = np.concatenate([[False], codes[1:] == codes[:-1]])
        gaps = np.diff(ts, prepend=ts[:1])[same]
        gcodes = codes[same]
        n_keys = int(codes.max()) + 1
        # Σg² exceeds int64 for large native-unit gaps: split each gap
        # g = q·2^21 + r and accumulate Σq², Σq·r, Σr² in int64 (all
        # bounded), recombining as unbounded Python ints — vectorized,
        # exact, no per-gap Python
        SPLIT = np.int64(1 << 21)
        q, r = gaps // SPLIT, gaps % SPLIT
        n_g = np.zeros(n_keys, np.int64)
        s_g = np.zeros(n_keys, np.int64)
        sqq = np.zeros(n_keys, np.int64)
        sqr = np.zeros(n_keys, np.int64)
        srr = np.zeros(n_keys, np.int64)
        np.add.at(n_g, gcodes, 1)
        np.add.at(s_g, gcodes, gaps)
        np.add.at(sqq, gcodes, q * q)
        np.add.at(sqr, gcodes, q * r)
        np.add.at(srr, gcodes, r * r)
        first_rows = np.searchsorted(codes, np.arange(n_keys))
        s_g2, bb = [], []
        for i in range(n_keys):
            sg2 = ((int(sqq[i]) << 42) + (int(sqr[i]) << 22)
                   + int(srr[i]))
            s_g2.append(float(np.float64(sg2)))
            n, sg = int(n_g[i]), int(s_g[i])
            if n < 2:
                bb.append(None)
                continue
            mu = np.float64(sg) / np.float64(n)
            var = ((np.float64(sg2) - np.float64(sg) * mu)
                   / np.float64(n - 1))
            sd = np.sqrt(var)
            denom = sd + mu
            bb.append(float((sd - mu) / denom) if denom != 0
                      else None)
        return pa.table({
            key_col: keys.take(pa.array(first_rows, pa.int64())),
            "n_gaps": pa.array(n_g, pa.int64()),
            "sum_gap": pa.array(s_g, pa.int64()),
            "sum_gap2": pa.array(s_g2, pa.float64()),
            "burstiness": pa.array(bb, pa.float64()),
        })

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, kernel, key=key_col,
                           sort_keys=[key_col, "__ts", id_col],
                           num_partitions=num_partitions)


def lag_autocov(ds, *, key_col: str, ts_col: str, seq_col: str,
                value_col: str, lag: int = 1,
                num_partitions: int = 16):
    """Per-key lag-k autocovariance SUFFICIENT STATISTICS — the
    periodicity / self-similarity signal over a per-key series,
    emitted as exact integers so the result is order-independent and
    SQL-replayable with zero float ops:

    ``(key, n, m, spp, sh, st, sx)`` where over the ``(ts, seq)``-
    ordered cents series ``x``: ``m = max(n - lag, 0)`` pairs,
    ``spp = Σ x_i·x_{i+lag}``, ``sh = Σ first-m x``, ``st = Σ last-m
    x``, ``sx = Σ x``.  The autocorrelation itself is one float
    expression of these ints (``(m·spp − sh·st) / ...``) computed by
    the consumer; keeping the operator integer-only sidesteps every
    cross-engine float hazard (the q115/q130 convention).

    One key-keyed exchange; the kernel is one shifted elementwise
    product + three ``reduceat``-style segment sums — no per-row
    Python.  Per-block overflow guard: ``max|x|² × rows`` must stay
    below 2^63.  NULL key/ts/seq rows drop; NULL values count 0.
    """
    from .partition import partitioned_map

    if lag < 1:
        raise ValueError("lag_autocov: lag must be >= 1")

    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    key_type = base.field(key_col).type

    def prep(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.and_(pc.is_valid(b[key_col]),
                               pc.is_valid(b[ts_col])),
                       pc.is_valid(b[seq_col]))
        keep = pc.fill_null(keep, False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        ts = b[ts_col].combine_chunks()
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.int64())
        cents = seg.cents_exact(b[value_col].combine_chunks(),
                                col=value_col)
        return pa.table({key_col: b[key_col], "__t": ts,
                         "__s": b[seq_col], "__x": pa.array(cents)})

    empty = pa.table({key_col: pa.array([], key_type),
                      "n": pa.array([], pa.int64()),
                      "m": pa.array([], pa.int64()),
                      "spp": pa.array([], pa.int64()),
                      "sh": pa.array([], pa.int64()),
                      "st": pa.array([], pa.int64()),
                      "sx": pa.array([], pa.int64())})

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        keys = t[key_col].combine_chunks()
        x = t["__x"].to_numpy(zero_copy_only=False)
        if len(x) and int(np.abs(x).max()) ** 2 * len(x) >= (1 << 63):
            raise ValueError("lag_autocov: cents magnitude overflows "
                             "the int64 product sum — rescale upstream")
        codes = pc.dictionary_encode(keys).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        new_run = np.concatenate([[True], codes[1:] != codes[:-1]])
        starts = np.flatnonzero(new_run)
        lens = np.diff(np.concatenate([starts, [len(codes)]]))
        run_id = np.cumsum(new_run.astype(np.int64)) - 1
        # pair (i, i+lag) is valid when both rows share a segment
        prod = np.zeros(len(x), np.int64)
        same = np.zeros(len(x), bool)
        if len(x) > lag:
            same[:-lag] = run_id[lag:] == run_id[:-lag]
            prod[:-lag] = x[:-lag] * x[lag:]
        head = np.where(same, x, 0)
        tail = np.zeros(len(x), np.int64)
        if len(x) > lag:
            tail[lag:] = np.where(same[:-lag], x[lag:], 0)
        cum = lambda a: np.concatenate([[0], np.cumsum(a)])
        cp, chd, ctl = (cum(np.where(same, prod, 0)), cum(head),
                        cum(tail))
        ends = np.concatenate([starts[1:], [len(codes)]])
        return pa.table({
            key_col: keys.take(pa.array(starts, pa.int64())),
            "n": pa.array(lens.astype(np.int64)),
            "m": pa.array(np.maximum(lens - lag, 0).astype(np.int64)),
            "spp": pa.array(cp[ends] - cp[starts]),
            "sh": pa.array(chd[ends] - chd[starts]),
            "st": pa.array(ctl[ends] - ctl[starts]),
            "sx": pa.array(cum(x)[ends] - cum(x)[starts]),
        })

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, kernel, key=key_col,
                           sort_keys=[key_col, "__t", "__s"],
                           num_partitions=num_partitions)


def rolling_rank(ds, *, key_col: str, ts_col: str, seq_col: str,
                 value_col: str, k: int = 10,
                 num_partitions: int = 16):
    """Trailing-window rank — for every row, how many of the previous
    ``k`` same-key rows (in ``(ts, seq)`` order) have a STRICTLY
    smaller value, plus the actual window size: the classic
    "is the current observation high for its recent history" feature
    (rolling percentile without interpolation).

    Emits ``(key_col, seq_col, w:int64, cnt_less:int64,
    pct:float64)`` with ``pct = cnt_less / w`` (NULL when the window
    is empty).  Comparisons are raw IEEE ``<`` on the stored doubles —
    identical in numpy and SQL, no quantization needed for counting —
    and ``pct`` is one division, so everything replays bit-exactly
    (the SQL side is a bounded ``rn BETWEEN rn-k AND rn-1``
    self-join).  NULL key/ts/seq and NULL/non-finite values drop.

    Kernel: bounded window expansion (≤ k gathered rows per row — the
    q49/q171 span-walk convention), one vectorized compare, one
    ``reduceat``.
    """
    from .partition import partitioned_map

    if k < 1:
        raise ValueError("rolling_rank: k must be >= 1")

    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    key_type = base.field(key_col).type
    seq_type = base.field(seq_col).type

    def prep(b: pa.Table) -> pa.Table:
        v = b[value_col].combine_chunks()
        if not pa.types.is_floating(v.type):
            v = v.cast(pa.float64())
        keep = pc.and_(pc.and_(pc.is_valid(b[key_col]),
                               pc.is_valid(b[ts_col])),
                       pc.and_(pc.is_valid(b[seq_col]),
                               pc.fill_null(pc.is_finite(v), False)))
        keep = pc.fill_null(keep, False)
        ts = b[ts_col].combine_chunks()
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.int64())
        t = pa.table({key_col: b[key_col], "__t": ts,
                      "__s": b[seq_col], "__v": v.cast(pa.float64())})
        if not pc.all(keep).as_py():
            t = t.filter(keep)
        return t

    empty = pa.table({key_col: pa.array([], key_type),
                      seq_col: pa.array([], seq_type),
                      "w": pa.array([], pa.int64()),
                      "cnt_less": pa.array([], pa.int64()),
                      "pct": pa.array([], pa.float64())})

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        keys = t[key_col].combine_chunks()
        v = t["__v"].to_numpy(zero_copy_only=False)
        codes = pc.dictionary_encode(keys).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        from ..functions.segments import segment_ids

        seg_start, _ris, _is_start = segment_ids(codes)
        idx = np.arange(len(codes))
        lo = np.maximum(idx - k, seg_start)
        spans = idx - lo
        total = int(spans.sum())
        w = spans.astype(np.int64)
        less = np.zeros(len(codes), np.int64)
        if total:
            gid = np.repeat(idx, spans)
            rows = (np.arange(total)
                    - np.repeat(np.cumsum(spans) - spans, spans)
                    + lo[gid])
            hit = (v[rows] < v[gid]).astype(np.int64)
            np.add.at(less, gid, hit)
        pct = np.full(len(codes), np.nan)
        nz = w > 0
        pct[nz] = less[nz].astype(np.float64) / w[nz].astype(
            np.float64)
        return pa.table({
            key_col: keys,
            seq_col: t["__s"],
            "w": pa.array(w),
            "cnt_less": pa.array(less),
            "pct": pa.array(pct, pa.float64(), mask=~nz)})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, kernel, key=key_col,
                           sort_keys=[key_col, "__t", "__s"],
                           num_partitions=num_partitions)


def rolling_extrema(ds, *, key_col: str, ts_col: str, seq_col: str,
                    value_col: str, k: int = 5,
                    num_partitions: int = 16):
    """Trailing-window min/max — per row, the smallest and largest of
    the last ``k`` same-key values (current row inclusive) in
    ``(ts, seq)`` order: the envelope/band feature (support,
    resistance, recent range) every monitoring pipeline wants next to
    the rolling mean/median.

    Emits ``(key_col, seq_col, w:int64, vmin:float64,
    vmax:float64)`` with ``w`` = actual window size (≥ 1).  min/max
    are SELECTIONS of the stored doubles — no arithmetic — so SQL
    ``min()/max() OVER (ROWS BETWEEN k−1 PRECEDING AND CURRENT ROW)``
    replays bit-exactly.  NULL key/ts/seq and NULL/non-finite values
    drop (mirror the predicate in the oracle's WHERE).

    Kernel: one keyed exchange; bounded window expansion (≤ k rows
    gathered per row — the q49/q171 span-walk convention) +
    ``np.minimum.at``/``np.maximum.at``; O(n·k) vectorized work, the
    documented bound for small fixed windows.
    Reference analog: windowed-aggregate family (SURVEY §2.5).
    """
    from .partition import partitioned_map

    if k < 1:
        raise ValueError("rolling_extrema: k must be >= 1")

    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    key_type = base.field(key_col).type
    seq_type = base.field(seq_col).type

    def prep(b: pa.Table) -> pa.Table:
        v = b[value_col].combine_chunks()
        if not pa.types.is_floating(v.type):
            v = v.cast(pa.float64())
        keep = pc.and_(pc.and_(pc.is_valid(b[key_col]),
                               pc.is_valid(b[ts_col])),
                       pc.and_(pc.is_valid(b[seq_col]),
                               pc.fill_null(pc.is_finite(v), False)))
        keep = pc.fill_null(keep, False)
        ts = b[ts_col].combine_chunks()
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.int64())
        t = pa.table({key_col: b[key_col], "__t": ts,
                      "__s": b[seq_col], "__v": v.cast(pa.float64())})
        if not pc.all(keep).as_py():
            t = t.filter(keep)
        return t

    empty = pa.table({key_col: pa.array([], key_type),
                      seq_col: pa.array([], seq_type),
                      "w": pa.array([], pa.int64()),
                      "vmin": pa.array([], pa.float64()),
                      "vmax": pa.array([], pa.float64())})

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        keys = t[key_col].combine_chunks()
        v = t["__v"].to_numpy(zero_copy_only=False)
        codes = pc.dictionary_encode(keys).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        from ..functions.segments import segment_ids

        seg_start, _ris, _is_start = segment_ids(codes)
        idx = np.arange(len(codes))
        lo = np.maximum(idx - (k - 1), seg_start)
        spans = (idx - lo + 1).astype(np.int64)
        total = int(spans.sum())
        vmin = np.full(len(codes), np.inf)
        vmax = np.full(len(codes), -np.inf)
        gid = np.repeat(idx, spans)
        rows = (np.arange(total)
                - np.repeat(np.cumsum(spans) - spans, spans)
                + lo[gid])
        np.minimum.at(vmin, gid, v[rows])
        np.maximum.at(vmax, gid, v[rows])
        return pa.table({
            key_col: keys,
            seq_col: t["__s"],
            "w": pa.array(spans),
            "vmin": pa.array(vmin, pa.float64()),
            "vmax": pa.array(vmax, pa.float64())})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, kernel, key=key_col,
                           sort_keys=[key_col, "__t", "__s"],
                           num_partitions=num_partitions)


def sax_encode(ds, *, key_col: str, ts_col: str, order_col: str,
               value_col: str, window: int = 8,
               num_partitions: int = 16):
    """PAA + SAX-style symbolic encoding of per-key event series —
    each key's (ts, order)-ordered values collapse into
    non-overlapping windows of ``window`` consecutive events
    (Piecewise Aggregate Approximation), and every window maps to a
    symbol 0–3 by which global quartile of the window sums it falls
    in (the Symbolic Aggregate approXimation alphabet, with
    data-driven breakpoints instead of the classic z-normal grid —
    no mean/std float chain, so everything stays exact).  The
    downstream consumers are motif mining / series hashing /
    coarse-grained drift audits over telemetry.

    Exactness: values quantize to int64 cents; a window SUM (not
    mean — same ordering, no division) is an exact int64;
    breakpoints are exact quantile_disc ELEMENTS of the window sums
    (the q51 distributed selection, rank ``max(ceil(q·n)−1, 0)``);
    the symbol is ``(s>b1)+(s>b2)+(s>b3)`` with STRICT integer
    compares.  Nothing floats except the breakpoint columns'
    representation (< 2^53, exact both sides).

    Shape: ONE key-keyed exchange builds window sums (rows filtered
    to FULL windows, one reduceat per partition); the sums
    materialize once and are consumed twice — the exact-quantile
    exchange (tiny) and the final symbol map (breakpoints broadcast
    as three scalars).  Keys with fewer than ``window`` events emit
    nothing.

    Returns ``(key_col, win_idx:int64, wsum:int64, symbol:int64)``.
    Reference analog: none — beyond-reference time-series operator
    alongside resample_linear / hopping_window_stats.
    """
    import ray

    from ..functions.segments import cents_exact
    from .partition import partitioned_refs
    from .quantile import group_quantiles

    def prep(b: pa.Table) -> pa.Table:
        t = b[ts_col].combine_chunks()
        if pa.types.is_timestamp(t.type):
            t = t.cast(pa.int64())
        keep = pc.and_(pc.and_(pc.is_valid(b[key_col]),
                               pc.is_valid(t)),
                       pc.and_(pc.is_valid(b[order_col]),
                               pc.is_valid(b[value_col])))
        keep = pc.fill_null(keep, False)
        out = pa.table({key_col: b[key_col], "__t": t,
                        "__o": b[order_col], "__v": b[value_col]})
        if not pc.all(keep).as_py():
            out = out.filter(keep)
        cents = cents_exact(out["__v"].combine_chunks(),
                            col=value_col)
        return pa.table({key_col: out[key_col], "__t": out["__t"],
                         "__o": out["__o"], "__y": pa.array(cents)})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)

    key_type = ds.schema()
    key_type = getattr(key_type, "base_schema", key_type).field(
        key_col).type
    empty = pa.table({key_col: pa.array([], key_type),
                      "win_idx": pa.array([], pa.int64()),
                      "wsum": pa.array([], pa.int64())})

    def win_kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        keys = t[key_col].combine_chunks()
        y = t["__y"].to_numpy(zero_copy_only=False)
        codes = pc.dictionary_encode(keys).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        new_run = np.concatenate([[True], codes[1:] != codes[:-1]])
        starts = np.flatnonzero(new_run)
        lens = np.diff(np.concatenate([starts, [len(codes)]]))
        seg_id = np.cumsum(new_run.astype(np.int64)) - 1
        rn = np.arange(len(codes)) - starts[seg_id]
        wi = rn // window
        full = wi < (lens // window)[seg_id]
        if not full.any():
            return empty
        rows = np.flatnonzero(full)
        # kept rows per key are consecutive multiples of `window`
        wpos = np.flatnonzero(rn[rows] % window == 0)
        wstarts = rows[wpos]
        sums = np.add.reduceat(y[rows], wpos)
        return pa.table({
            key_col: keys.take(pa.array(wstarts, pa.int64())),
            "win_idx": pa.array(wi[wstarts], pa.int64()),
            "wsum": pa.array(sums.astype(np.int64))})

    refs = partitioned_refs(prepped, win_kernel, key=key_col,
                            sort_keys=[key_col, "__t", "__o"],
                            num_partitions=num_partitions)

    def tag(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "wsum" not in b.column_names:
            return pa.table({"__g": pa.array([], pa.int64()),
                             "wsum": pa.array([], pa.int64())})
        return pa.table({
            "__g": pa.array(np.zeros(b.num_rows, np.int64)),
            "wsum": b["wsum"]})

    qt = (ray.data.from_arrow_refs(refs)
          .map_batches(tag, batch_format="pyarrow",
                       zero_copy_batch=True))
    qrow = group_quantiles(qt, group_col="__g", value_col="wsum",
                           qs=[0.25, 0.5, 0.75],
                           names=["b1", "b2", "b3"],
                           num_partitions=4).take_all()
    if not qrow:  # no full windows anywhere
        return ray.data.from_arrow(pa.table({
            key_col: pa.array([], key_type),
            "win_idx": pa.array([], pa.int64()),
            "wsum": pa.array([], pa.int64()),
            "symbol": pa.array([], pa.int64())}))
    b1, b2, b3 = (qrow[0]["b1"], qrow[0]["b2"], qrow[0]["b3"])

    def symbolize(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "wsum" not in b.column_names:
            return pa.table({key_col: pa.array([], key_type),
                             "win_idx": pa.array([], pa.int64()),
                             "wsum": pa.array([], pa.int64()),
                             "symbol": pa.array([], pa.int64())})
        s = b["wsum"].to_numpy(zero_copy_only=False).astype(
            np.float64)  # exact: |wsum| < 2^53
        sym = ((s > b1).astype(np.int64) + (s > b2).astype(np.int64)
               + (s > b3).astype(np.int64))
        return b.append_column("symbol", pa.array(sym))

    return (ray.data.from_arrow_refs(refs)
            .map_batches(symbolize, batch_format="pyarrow",
                         zero_copy_batch=True))


def watermark_lateness(ds, *, key_col: str, ts_col: str,
                       arrival_col: str, num_partitions: int = 16):
    """Per-key out-of-order / late-event audit — replay each key's
    stream in ARRIVAL order (``arrival_col``), hold a running
    event-time watermark (max ``ts_col`` seen so far), and count rows
    arriving with an event time strictly behind it: the health check a
    streaming ingestion needs before trusting any windowed aggregate
    (how much data is late, and by how far — i.e. what
    allowed-lateness a real watermark would need).

    Exactness: ``ts`` is cast to int64 microseconds, the watermark is
    an integer running max, and every lateness is an exact int64
    difference; ``late_frac`` is the single IEEE division.  SQL
    replays bit-identically with ``max() OVER (... ROWS BETWEEN
    UNBOUNDED PRECEDING AND 1 PRECEDING)``.

    One key-keyed exchange; the kernel is one segmented running max
    (C-speed cummax over contiguous key runs) + reduceat aggregates —
    no per-row Python.  Rows with NULL key/ts/arrival drop; a
    duplicate (key, arrival) pair RAISES (ties would make the
    watermark order, and so n_late, depend on block order).  A key's
    first arrival is never late (no watermark yet).  Returns
    ``(key_col, n:int64, n_late:int64, sum_late_us:int64,
    max_late_us:int64 — 0 when nothing is late, late_frac:float64)``.

    Scale note: same partitioned-map shape as :func:`add_drawdown`;
    the output is one row per key, so the exchange moves data rows
    once and emits a key-sized table.
    """
    base = ds.schema()
    base = getattr(base, "base_schema", base)
    ktype = base.field(key_col).type

    def prep(b: pa.Table) -> pa.Table:
        mask = pc.and_(pc.and_(pc.is_valid(b[key_col]),
                               pc.is_valid(b[ts_col])),
                       pc.is_valid(b[arrival_col]))
        if not pc.all(pc.fill_null(mask, False)).as_py():
            b = b.filter(pc.fill_null(mask, False))
        return b.select([key_col, ts_col, arrival_col])

    empty = pa.table({
        key_col: pa.array([], ktype),
        "n": pa.array([], pa.int64()),
        "n_late": pa.array([], pa.int64()),
        "sum_late_us": pa.array([], pa.int64()),
        "max_late_us": pa.array([], pa.int64()),
        "late_frac": pa.array([], pa.float64())})

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        keys = t[key_col].combine_chunks()
        codes, _ = _key_codes_dic(keys)
        ts = t[ts_col].combine_chunks().cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        arr = t[arrival_col].combine_chunks().cast(
            pa.int64()).to_numpy(zero_copy_only=False)
        # arrival must be unique per key: with ties the watermark
        # order (and therefore n_late) would depend on upstream block
        # order — the q248 duplicate-id contract, enforced here
        if len(arr) > 1:
            dup = (codes[1:] == codes[:-1]) & (arr[1:] == arr[:-1])
            if dup.any():
                raise ValueError(
                    "watermark_lateness: duplicate (key, arrival) "
                    "pair — arrival order must be unique per key")
        seg_start, row_in_seg, is_start = seg.segment_ids(codes)
        import pandas as pd

        g = np.cumsum(is_start) - 1
        run_max = pd.Series(ts).groupby(g).cummax().to_numpy()
        # previous-row watermark: shift by one inside each segment
        wm_prev = np.empty(len(ts), np.int64)
        wm_prev[1:] = run_max[:-1]
        wm_prev[is_start] = np.iinfo(np.int64).min  # first row: none
        late = wm_prev > ts
        lateness = np.where(late, wm_prev - ts, 0)
        g_first = np.flatnonzero(is_start)
        n = np.diff(np.concatenate([g_first, [len(ts)]]))
        n_late = np.add.reduceat(late.astype(np.int64), g_first)
        sum_late = np.add.reduceat(lateness, g_first)
        max_late = np.maximum.reduceat(lateness, g_first)
        frac = n_late.astype(np.float64) / n.astype(np.float64)
        return pa.table({
            key_col: keys.take(pa.array(g_first, pa.int64())),
            "n": pa.array(n, type=pa.int64()),
            "n_late": pa.array(n_late),
            "sum_late_us": pa.array(sum_late, type=pa.int64()),
            "max_late_us": pa.array(max_late, type=pa.int64()),
            "late_frac": pa.array(frac, pa.float64())})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, kernel, key=key_col,
                           sort_keys=[key_col, arrival_col],
                           num_partitions=num_partitions)


def adaptive_sessionize(ds, *, key_col: str, ts_col: str,
                        order_col: str, k_num: int = 3,
                        num_partitions: int = 16):
    """Adaptive sessionization — split each key's event stream into
    sessions at gaps larger than ``k_num × median inter-event gap`` OF
    THAT KEY, instead of one global gap constant: a chatty agent's
    2-minute silence ends its session while a daily-digest user's
    doesn't, which is what fixed-gap sessionize (q06) gets wrong on
    heterogeneous populations.

    Exactness: gaps are exact int64 microseconds; the per-key median
    is the ``quantile_disc`` ELEMENT of the key's gaps (shared
    :func:`~featurebox_ray.stages.quantile._disc_index` convention),
    the threshold compare ``gap > k_num·median`` is pure int64, and
    the session id is an integer break cumsum — SQL replays the whole
    thing (lag window → per-key quantile_disc → gaps-and-islands)
    bit-exactly.  A key's first event always opens a session; a
    single-event key is one session.

    ONE key-keyed exchange; the kernel is a lexsort + segment gather
    for the medians and reduceat for the session rollup — no per-key
    Python.  Rows with NULL key/ts/order drop.  ``(key, ts, order)``
    must be unique per row (order_col disambiguates ts ties).
    Returns ``(key_col, session_id:int64 — 1-based per key,
    n_events:int64, start_us:int64, end_us:int64)``.
    """
    from .quantile import _disc_index_vec

    base = ds.schema()
    base = getattr(base, "base_schema", base)
    ktype = base.field(key_col).type

    def prep(b: pa.Table) -> pa.Table:
        mask = pc.and_(pc.and_(pc.is_valid(b[key_col]),
                               pc.is_valid(b[ts_col])),
                       pc.is_valid(b[order_col]))
        if not pc.all(pc.fill_null(mask, False)).as_py():
            b = b.filter(pc.fill_null(mask, False))
        return b.select([key_col, ts_col, order_col])

    empty = pa.table({
        key_col: pa.array([], ktype),
        "session_id": pa.array([], pa.int64()),
        "n_events": pa.array([], pa.int64()),
        "start_us": pa.array([], pa.int64()),
        "end_us": pa.array([], pa.int64())})

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        keys = t[key_col].combine_chunks()
        codes, _ = _key_codes_dic(keys)
        ts = t[ts_col].combine_chunks().cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        seg_start, row_in_seg, is_start = seg.segment_ids(codes)
        n = len(ts)
        g = np.cumsum(is_start) - 1
        delta = np.empty(n, np.int64)
        delta[1:] = ts[1:] - ts[:-1]
        delta[is_start] = -1                       # no gap (sentinel)
        # per-key median gap: sort gap rows by (key, delta), pick the
        # quantile_disc element per segment of gap rows
        has_gap = ~is_start
        gs, gd = g[has_gap], delta[has_gap]
        n_seg = int(g[-1]) + 1 if n else 0
        med = np.full(n_seg, -1, np.int64)         # -1: no gaps
        if len(gd):
            order = np.lexsort((gd, gs))
            so_g, so_d = gs[order], gd[order]
            first = np.concatenate([[True], so_g[1:] != so_g[:-1]])
            starts = np.flatnonzero(first)
            lens = np.diff(np.concatenate([starts, [len(so_g)]]))
            med[so_g[starts]] = so_d[
                starts + _disc_index_vec(0.5, lens)]
        thr = np.where(med >= 0, k_num * med, np.int64(-1))
        brk = is_start | ((delta >= 0) & (thr[g] >= 0)
                          & (delta > thr[g]))
        sid_glob = np.cumsum(brk)
        sid = sid_glob - sid_glob[seg_start] + 1    # 1-based per key
        # session rollup: (g, sid) runs are contiguous in row order
        s_start = np.concatenate(
            [[True], (g[1:] != g[:-1]) | (sid[1:] != sid[:-1])])
        rf = np.flatnonzero(s_start)
        lens_s = np.diff(np.concatenate([rf, [n]]))
        return pa.table({
            key_col: keys.take(pa.array(rf, pa.int64())),
            "session_id": pa.array(sid[rf], type=pa.int64()),
            "n_events": pa.array(lens_s.astype(np.int64)),
            "start_us": pa.array(ts[rf], type=pa.int64()),
            "end_us": pa.array(ts[rf + lens_s - 1], type=pa.int64()),
        })

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, kernel, key=key_col,
                           sort_keys=[key_col, ts_col, order_col],
                           num_partitions=num_partitions)


_SALTED_NULL_KEY = "\x00null"


def _salted_prep(ds, *, key_col: str, ts_col: str, order_col: str,
                 int_value_col: str):
    """Shared scaffolding of the salted windowed operators: drop NULL
    ts rows, cast ts to int64, string-cast keys (NULLs → the sentinel
    so they form ONE group), coalesce values to int64; materialize
    and return ``(prepped_refs, span, key_type, order_type)`` with
    ``span = global_span_cut`` over ``__t`` (None when empty).  A key
    whose string form is the sentinel raises ``ValueError`` naming it:
    it would merge into the NULL group.  Keeping this in one place is
    the contract — a null/ts/key-handling fix here serves every salted
    operator."""
    from .partition import global_span_cut, materialized_block_refs

    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    key_type = base.field(key_col).type
    order_type = base.field(order_col).type

    def prep(b: pa.Table) -> pa.Table:
        keep = pc.fill_null(pc.is_valid(b[ts_col]), False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        ts = b[ts_col].combine_chunks()
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.int64())
        k = b[key_col].combine_chunks().cast(pa.string())
        if pc.any(pc.equal(k, _SALTED_NULL_KEY)).as_py():
            raise ValueError(
                f"{key_col} value {_SALTED_NULL_KEY!r} is the salted "
                "operators' NULL-key sentinel; rename the key")
        k = pc.fill_null(k, _SALTED_NULL_KEY)
        v = pc.fill_null(
            b[int_value_col].combine_chunks().cast(pa.int64()), 0)
        return pa.table({"__k": k, "__t": ts,
                         "__o": b[order_col], "__v": v,
                         "__key_orig": b[key_col]})

    refs = materialized_block_refs(
        ds.map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True))
    span = global_span_cut(refs, col="__t", num=1, den=2)
    return refs, span, key_type, order_type


def salted_running_total(ds, *, key_col: str, ts_col: str,
                         order_col: str, int_value_col: str,
                         out_col: str = "running_sum",
                         n_buckets: int = 8,
                         num_partitions: int = 16):
    """Mega-key-safe running total — the salted split the north-rule
    asks for: a single hot key's timeline is RANGE-SPLIT into
    ``n_buckets`` time buckets, each bucket's rows land in their own
    exchange partition (composite ``key|bucket`` shuffle key), the
    kernel computes the bucket-local cumulative sum, and each bucket
    adds the exact int64 total of its key's EARLIER buckets (computed
    from per-block partials, combined driver-side over ≤ keys×buckets
    rows, broadcast once).  No task ever holds the whole hot key, yet
    the result is identical to the plain windowed
    ``SUM(v) OVER (PARTITION BY key ORDER BY ts, order ROWS UNBOUNDED
    PRECEDING)`` — same SQL oracle as ``add_running_totals``.

    Contract: ``int_value_col`` is int64 (pre-scaled cents, the q96
    convention; NULLs count 0); NULL ``ts`` rows DROP (their bucket is
    undefined — mirror with ``WHERE ts IS NOT NULL``); NULL keys form
    one group.  Bucket arithmetic is exact int:
    ``(t − min) · B // (span + 1)`` over the global span (the q217
    reduce), with an overflow guard.

    Returns ``(key_col, ts int64, order_col, out_col:int64)``.
    Reference analog: the skew answer for §2.12's mega-conversation
    contract (partition.py docstring), now an operator."""
    import ray

    from .partition import partitioned_map, sum_partials

    if n_buckets < 1:
        raise ValueError("salted_running_total: n_buckets >= 1")
    B = int(n_buckets)

    prepped_refs, span, key_type, order_type = _salted_prep(
        ds, key_col=key_col, ts_col=ts_col, order_col=order_col,
        int_value_col=int_value_col)
    empty = pa.table({key_col: pa.array([], key_type),
                      "ts": pa.array([], pa.int64()),
                      order_col: pa.array([], order_type),
                      out_col: pa.array([], pa.int64())})
    if span is None:
        return ray.data.from_arrow(empty)
    mn, mx, _ = span
    width = mx - mn + 1
    if width * B >= 2 ** 62:
        raise ValueError("salted_running_total: timestamp span × "
                         "n_buckets would overflow — reduce n_buckets")

    def bucket_of(t_np: np.ndarray) -> np.ndarray:
        return ((t_np - mn) * B) // width

    # per-(key, bucket) exact totals from per-block partials
    @ray.remote
    def partial(blk):
        if blk.num_rows == 0 or "__k" not in blk.column_names:
            return pa.table({"k": pa.array([], pa.string()),
                             "b": pa.array([], pa.int64()),
                             "tot": pa.array([], pa.int64())})
        t = blk["__t"].to_numpy(zero_copy_only=False)
        v = blk["__v"].to_numpy(zero_copy_only=False)
        bk = bucket_of(t)
        gd = pc.dictionary_encode(blk["__k"].combine_chunks())
        codes = gd.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)
        cell = codes * B + bk
        ucell, inv = np.unique(cell, return_inverse=True)
        s = np.zeros(len(ucell), np.int64)
        np.add.at(s, inv, v)
        return pa.table({
            "k": gd.dictionary.take(
                pa.array(ucell // B, pa.int64())).cast(pa.string()),
            "b": pa.array(ucell % B),
            "tot": pa.array(s)})

    comb = sum_partials(
        ray.get([partial.remote(r) for r in prepped_refs]),
        keys=["k", "b"], vals=["tot"])
    # exclusive per-key prefix over bucket order (comb sorted (k, b))
    kk = comb["k"].to_numpy(zero_copy_only=False)
    bb = comb["b"].to_numpy(zero_copy_only=False)
    tt = comb["tot"].to_numpy(zero_copy_only=False)
    new_k = np.concatenate([[True], kk[1:] != kk[:-1]])
    rid = np.cumsum(new_k.astype(np.int64)) - 1
    seg_first = np.flatnonzero(new_k)[rid]      # per-row segment head
    cs = np.cumsum(tt)
    # exclusive prefix within the key segment = earlier buckets' total
    offsets = (cs - tt) - (cs[seg_first] - tt[seg_first])
    # composite lookup key "k|b" — same vectorized construction as
    # add_kb so the two forms can never drift
    comp_keys = pc.binary_join_element_wise(
        comb["k"].combine_chunks().cast(pa.string()),
        pa.array(bb.astype("U"), pa.string()), "|")
    off_ref = ray.put((comp_keys, offsets.astype(np.int64)))

    def add_kb(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "__k" not in b.column_names:
            return b.append_column("__kb", pa.array([], pa.string()))
        t = b["__t"].to_numpy(zero_copy_only=False)
        bk = bucket_of(t)
        kb = pc.binary_join_element_wise(
            b["__k"].combine_chunks(),
            pa.array(bk.astype("U"), pa.string()), "|")
        return b.append_column("__kb", kb)

    salted = ray.data.from_arrow_refs(list(prepped_refs)).map_batches(
        add_kb, batch_format="pyarrow", zero_copy_batch=True)

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "__kb" not in t.column_names:
            return empty
        ck, off = ray.get(off_ref)
        codes, _ = _key_codes_dic(t["__kb"])
        v = t["__v"].to_numpy(zero_copy_only=False)
        seg_start, _, _ = seg.segment_ids(codes)
        cs_l = np.cumsum(v)
        local = cs_l - np.where(seg_start > 0,
                                cs_l[np.maximum(seg_start - 1, 0)], 0)
        pos = pc.index_in(t["__kb"], value_set=ck).to_numpy(
            zero_copy_only=False)
        if np.isnan(pos.astype(np.float64)).any():
            raise ValueError("salted_running_total: bucket missing "
                             "from the offsets table")
        add = off[pos.astype(np.int64)]
        return pa.table({
            key_col: t["__key_orig"].combine_chunks().cast(key_type),
            "ts": t["__t"],
            order_col: t["__o"],
            out_col: pa.array(local + add)})

    return partitioned_map(salted, kernel, key="__kb",
                           sort_keys=["__kb", "__t", "__o"],
                           num_partitions=num_partitions)


def salted_time_window_sum(ds, *, key_col: str, ts_col: str,
                           order_col: str, int_value_col: str,
                           window: int,
                           out_col: str = "w_sum",
                           n_buckets: int = 8,
                           max_replication: int = 4,
                           num_partitions: int = 16):
    """Mega-key-safe trailing TIME-window sum — SQL ``SUM(v) OVER
    (PARTITION BY key ORDER BY ts RANGE BETWEEN window PRECEDING AND
    CURRENT ROW)`` (RANGE semantics: ALL ts-peers are in frame), with
    the hot key's timeline range-split into ``n_buckets`` time
    buckets.  Rows near a bucket's start are REPLICATED into it from
    earlier buckets as non-emitting context (the halo), so each
    bucket computes its rows' windows locally and exactly — the
    bucketed_interval_join clamping idea applied to windowed state.

    Replication factor is ``ceil(window / bucket_width)`` extra
    copies per row at most, guarded by ``max_replication`` (raises
    with the fix: fewer buckets or a smaller window).  Values int64
    (cents convention, NULL→0); NULL ts rows drop (mirror in SQL);
    NULL keys form one group.  Returns ``(key_col, ts:int64,
    order_col, out_col:int64)``.
    Reference analog: the salted sibling of q09's time window."""
    import ray

    from .partition import partitioned_map

    if n_buckets < 1:
        raise ValueError("salted_time_window_sum: n_buckets >= 1")
    if window < 0:
        raise ValueError("salted_time_window_sum: window >= 0")
    B = int(n_buckets)
    W = int(window)

    prepped_refs, span, key_type, order_type = _salted_prep(
        ds, key_col=key_col, ts_col=ts_col, order_col=order_col,
        int_value_col=int_value_col)
    empty = pa.table({key_col: pa.array([], key_type),
                      "ts": pa.array([], pa.int64()),
                      order_col: pa.array([], order_type),
                      out_col: pa.array([], pa.int64())})
    if span is None:
        return ray.data.from_arrow(empty)
    mn, mx, _ = span
    width = (mx - mn) // B + 1          # ceil-ish: buckets cover span
    # actual replication is inherently bounded at B-1 copies (the
    # expand loop enforces tgt < B) — clamp before the guard so a
    # window wider than the whole span is accepted, not rejected
    reach = min(-(-W // width), B - 1)
    if reach > max_replication:
        raise ValueError(
            f"salted_time_window_sum: window spans {reach} buckets "
            f"> max_replication ({max_replication}) — use fewer "
            "buckets or a smaller window")

    def expand(b: pa.Table) -> pa.Table:
        # each row goes to its own bucket (emit=1) plus, when its
        # window reach crosses boundaries, to later buckets as
        # context (emit=0)
        if b.num_rows == 0 or "__k" not in b.column_names:
            return pa.table({"__kb": pa.array([], pa.string()),
                             "__k": pa.array([], pa.string()),
                             "__t": pa.array([], pa.int64()),
                             "__o": pa.array([], order_type),
                             "__v": pa.array([], pa.int64()),
                             "__key_orig": pa.array([], key_type),
                             "__emit": pa.array([], pa.int8())})
        t = b["__t"].to_numpy(zero_copy_only=False)
        own = (t - mn) // width
        parts = [(own, np.ones(len(t), np.int8),
                  np.arange(len(t)))]
        for d in range(1, reach + 1):
            tgt = own + d
            # context is needed in bucket tgt iff this row's ts is
            # within W of that bucket's start
            need = (tgt < B) & (mn + tgt * width - t <= W)
            idx = np.flatnonzero(need)
            if len(idx):
                parts.append((tgt[idx],
                              np.zeros(len(idx), np.int8), idx))
        bks = np.concatenate([p[0] for p in parts])
        emits = np.concatenate([p[1] for p in parts])
        rows = np.concatenate([p[2] for p in parts])
        sel = b.take(pa.array(rows, pa.int64()))
        kb = pc.binary_join_element_wise(
            sel["__k"].combine_chunks(),
            pa.array(bks.astype("U"), pa.string()), "|")
        return pa.table({"__kb": kb,
                         "__k": sel["__k"],
                         "__t": sel["__t"],
                         "__o": sel["__o"],
                         "__v": sel["__v"],
                         "__key_orig": sel["__key_orig"],
                         "__emit": pa.array(emits)})

    salted = ray.data.from_arrow_refs(list(prepped_refs)).map_batches(
        expand, batch_format="pyarrow", zero_copy_batch=True)

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "__kb" not in t.column_names:
            return empty
        codes, _ = _key_codes_dic(t["__kb"])
        ts = t["__t"].to_numpy(zero_copy_only=False)
        v = t["__v"].to_numpy(zero_copy_only=False)
        emit = t["__emit"].to_numpy(zero_copy_only=False)
        new_run = np.concatenate([[True], codes[1:] != codes[:-1]])
        rid = np.cumsum(new_run.astype(np.int64)) - 1
        # ts is sorted only WITHIN each kb-run: shift each run by a
        # stride K wider than (span + W) so the concatenation is
        # globally sorted and one searchsorted serves every run
        # (frame = same-run rows with ts' in [t-W, t]; RANGE
        # semantics include ALL ts-peers, even later in sort order)
        tnorm = ts - mn
        K = np.int64(B) * np.int64(width) + np.int64(W) + 2
        n_runs = int(rid[-1]) + 1 if len(rid) else 0
        if n_runs and np.int64(n_runs) * K >= np.int64(2 ** 62):
            raise ValueError(
                "salted_time_window_sum: run-offset stride would "
                "overflow — raise num_partitions (fewer runs per "
                "gather task)")
        ts_adj = tnorm + rid * K
        cs = np.concatenate([[0], np.cumsum(v)])
        lo = np.searchsorted(ts_adj, ts_adj - W, side="left")
        hi = np.searchsorted(ts_adj, ts_adj, side="right")
        sums = cs[hi] - cs[lo]
        keep = emit == 1
        return pa.table({
            key_col: t["__key_orig"].combine_chunks().cast(
                key_type).filter(pa.array(keep)),
            "ts": pa.array(ts[keep]),
            order_col: t["__o"].combine_chunks().filter(
                pa.array(keep)),
            out_col: pa.array(sums[keep])})

    return partitioned_map(salted, kernel, key="__kb",
                           sort_keys=["__kb", "__t", "__o"],
                           num_partitions=num_partitions)


def finalized_tumbling(ds, *, key_col: str, ts_col: str,
                       value_col: str, id_col: str,
                       width_s: float, watermark_s: float,
                       num_partitions: int = 16):
    """Watermark-finalized tumbling aggregate — the batch shape of a
    streaming windowed sink: tumbling ``(key, window)`` aggregates
    (:func:`tumbling_window_stats`) are emitted ONLY for windows the
    watermark has closed (``w_start + width ≤ max_ts − watermark``);
    still-open windows are held back, so a periodic re-run never
    re-emits a window whose inputs could still change (the q275
    lateness audit measures whether the chosen watermark bound holds).

    The close line derives from the GLOBAL max event ts via the span
    reduce (footer-cheap, no extra pass over data).  Exact-int
    aggregates, so SQL replays with the same HAVING cut.
    Returns the q52 columns filtered to closed windows.
    Reference analog: none (streaming-semantics family with
    watermark_lateness / hopping / tumbling)."""
    from .partition import global_span_cut, materialized_block_refs

    width_us = int(round(width_s * 1_000_000))
    wm_us = int(round(watermark_s * 1_000_000))
    if width_us <= 0 or wm_us < 0:
        raise ValueError("finalized_tumbling: width_s > 0, "
                         "watermark_s >= 0")

    # materialize once: the span pass and the aggregate would
    # otherwise each re-execute the upstream lineage
    ds = ds.materialize()

    def ts_only(b: pa.Table) -> pa.Table:
        t = b[ts_col].combine_chunks()
        if pa.types.is_timestamp(t.type):
            t = t.cast(pa.int64())
        return pa.table({"__t": t}).filter(
            pc.is_valid(t))

    span = global_span_cut(
        materialized_block_refs(ds.map_batches(
            ts_only, batch_format="pyarrow", zero_copy_batch=True)),
        col="__t", num=1, den=2)
    agg = tumbling_window_stats(ds, key_col=key_col, ts_col=ts_col,
                                value_col=value_col, id_col=id_col,
                                width_s=width_s,
                                num_partitions=num_partitions)
    if span is None:
        return agg            # empty input: nothing to filter
    close_line = span[1] - wm_us      # max_ts − watermark

    def closed_only(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "w_start" not in b.column_names:
            return b
        w = b["w_start"].combine_chunks().cast(pa.int64())
        keep = pc.less_equal(pc.add(w, width_us), close_line)
        return b.filter(pc.fill_null(keep, False))

    return agg.map_batches(closed_only, batch_format="pyarrow",
                           zero_copy_batch=True)
