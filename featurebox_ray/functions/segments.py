"""Vectorized kernels over *sorted partitions with contiguous key runs*.

A "segmented array" is a 1-D numpy array whose rows are grouped into
contiguous segments (one segment = one conversation, rows sorted by
``(ts, turn_idx)`` inside).  All kernels here are O(n) numpy — no Python
loop over rows and no loop over segments — so a partition of millions of
rows is one vectorized pass.

These kernels implement the transcript translation (SURVEY.md §7.1) of the
reference's per-entry pooled statistics
(featurebox/featurizers/extrastats.py:20-349 applied per record) as
per-conversation windowed aggregates.
"""

from __future__ import annotations

import math
import warnings
from typing import Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from numpy.lib.stride_tricks import sliding_window_view

# ---------------------------------------------------------------------------
# segment structure
# ---------------------------------------------------------------------------


def segment_ids(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Given per-row key codes (contiguous runs), return
    ``(seg_start_of_row, row_in_seg, is_seg_start)``.

    ``seg_start_of_row[i]`` = index of the first row of row i's segment;
    ``row_in_seg[i]`` = 0-based position of row i inside its segment.
    """
    n = len(codes)
    if n == 0:
        z = np.empty(0, dtype=np.int64)
        return z, z, np.empty(0, dtype=bool)
    is_start = np.empty(n, dtype=bool)
    is_start[0] = True
    is_start[1:] = codes[1:] != codes[:-1]
    starts = np.where(is_start, np.arange(n, dtype=np.int64), 0)
    seg_start = np.maximum.accumulate(starts)
    row_in_seg = np.arange(n, dtype=np.int64) - seg_start
    return seg_start, row_in_seg, is_start


def shared_key_codes(*cols, nulls_distinct: bool = False) -> list:
    """int64 codes of several key columns from ONE dictionary, numbered
    in ascending value order with NULL last (Arrow's sort order): the
    tables of a per-input gather, each sorted by its key, carry
    non-decreasing codes, and equal keys carry equal codes across
    tables.  Every column is read in the first column's type.  With
    ``nulls_distinct`` every NULL gets a code of its own (no two NULLs
    are equal), still after every value and rising in column order."""
    arrs = [c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c
            for c in cols]
    typ = arrs[0].type
    if pa.types.is_dictionary(typ):
        typ = typ.value_type
    enc = pc.dictionary_encode(pa.concat_arrays([a.cast(typ) for a in arrs]))
    n = len(enc.dictionary)
    rank = pc.rank(enc.dictionary, sort_keys="ascending").to_numpy()
    lut = np.append(rank.astype(np.int64) - 1, n)
    codes = lut[pc.fill_null(enc.indices, n).to_numpy(zero_copy_only=False)]
    if nulls_distinct:
        null = codes == n
        codes[null] = n + np.arange(int(null.sum()))
    return np.split(codes, np.cumsum([len(a) for a in arrs])[:-1])


def run_starts(codes: np.ndarray) -> np.ndarray:
    """First row of each run of equal values in ``codes``."""
    return np.flatnonzero(np.concatenate([[len(codes) > 0],
                                          codes[1:] != codes[:-1]]))


def lookup(sorted_codes: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Index of each ``probe`` value's first row in the non-decreasing
    ``sorted_codes`` (int64), -1 where it is absent."""
    i = np.searchsorted(sorted_codes, probe)
    hit = i < len(sorted_codes)
    hit[hit] = sorted_codes[i[hit]] == probe[hit]
    return np.where(hit, i, -1).astype(np.int64)


def ints(t, col: str, fill: int = 0) -> np.ndarray:
    """``t[col]`` as int64 numpy, NULL read as ``fill`` (filled before
    the conversion, so ids above 2^53 never pass through float64); an
    empty table, with or without the column, gives an empty array."""
    if t.num_rows == 0:
        return np.empty(0, np.int64)
    return pc.fill_null(t[col], fill).to_numpy(
        zero_copy_only=False).astype(np.int64)


def owners(owner_keys: np.ndarray, keys: np.ndarray,
           msg: str) -> Tuple[np.ndarray, np.ndarray]:
    """``(starts, run)``: the first row of each run of the sorted
    ``owner_keys``, and for each of ``keys`` the run of its owner.  A key
    with no owner row raises ``ValueError(msg)``."""
    starts = run_starts(owner_keys)
    run = lookup(owner_keys[starts], keys)
    if (run < 0).any():
        raise ValueError(msg)
    return starts, run


# ---------------------------------------------------------------------------
# lag / lead / delta
# ---------------------------------------------------------------------------


def lag(values: np.ndarray, k: int, row_in_seg: np.ndarray, fill=np.nan) -> np.ndarray:
    """``values`` shifted down by k within each segment; first k rows of each
    segment get ``fill`` (analog of SQL LAG(col, k))."""
    n = len(values)
    out_dtype = np.float64 if not np.issubdtype(values.dtype, np.floating) else values.dtype
    if k <= 0:  # LAG(col, 0) is the identity (values[:-0] would be empty)
        return values.astype(out_dtype, copy=True)
    out = np.full(n, fill, dtype=out_dtype)
    if n > k:
        out[k:] = values[:-k]
    out[row_in_seg < k] = fill
    return out


def lead(values: np.ndarray, k: int, row_in_seg: np.ndarray, seg_len_of_row: np.ndarray, fill=np.nan) -> np.ndarray:
    """``values`` shifted up by k within each segment (SQL LEAD(col, k))."""
    n = len(values)
    out_dtype = np.float64 if not np.issubdtype(values.dtype, np.floating) else values.dtype
    if k <= 0:  # LEAD(col, 0) is the identity
        return values.astype(out_dtype, copy=True)
    out = np.full(n, fill, dtype=out_dtype)
    if n > k:
        out[:-k] = values[k:]
    out[row_in_seg >= seg_len_of_row - k] = fill
    return out


def seg_lengths(seg_start: np.ndarray, n: int) -> np.ndarray:
    """Per-row segment length."""
    if n == 0:
        return np.empty(0, dtype=np.int64)
    # segment end of row = start of next segment (or n)
    is_start = np.empty(n, dtype=bool)
    is_start[0] = True
    is_start[1:] = seg_start[1:] != seg_start[:-1]
    start_positions = np.flatnonzero(is_start)
    ends = np.append(start_positions[1:], n)
    lens = ends - start_positions
    return np.repeat(lens, lens)


# ---------------------------------------------------------------------------
# sessionization
# ---------------------------------------------------------------------------


def sessionize(ts_us: np.ndarray, is_seg_start: np.ndarray, gap_us: int) -> np.ndarray:
    """0-based session index per row within its segment: a new session starts
    at the segment start or whenever ``ts - prev_ts > gap_us``.

    Transcript analog of the reference's feature-group fold
    (selection/mutibase.py:45-67) per SURVEY.md §7.1.
    """
    n = len(ts_us)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    gap = np.empty(n, dtype=np.int64)
    gap[0] = gap_us + 1
    gap[1:] = ts_us[1:] - ts_us[:-1]
    new_sess = is_seg_start | (gap > gap_us)
    sess_global = np.cumsum(new_sess)  # 1-based global session ordinal
    # subtract the global ordinal at each row's segment start -> 0-based local
    start_ordinal = np.where(is_seg_start, sess_global, 0)
    start_ordinal = np.maximum.accumulate(start_ordinal)
    return (sess_global - start_ordinal).astype(np.int64)


# ---------------------------------------------------------------------------
# rolling (trailing) windows — rows-based
# ---------------------------------------------------------------------------


def _window_bounds_rows(row_in_seg: np.ndarray, k: int) -> np.ndarray:
    """Start index (inclusive) of the trailing k-row window for each row,
    clamped to the segment start."""
    idx = np.arange(len(row_in_seg), dtype=np.int64)
    return np.maximum(idx - k + 1, idx - row_in_seg)


def _window_bounds_time(
    ts_us: np.ndarray,
    seg_start: np.ndarray,
    row_in_seg: np.ndarray,
    delta_us: int,
) -> np.ndarray:
    """Start index of the trailing time window ``[ts - delta, ts]`` per row.

    Tie semantics: the window covers rows up to the CURRENT ROW POSITION in
    the sorted order — equal-ts rows sorting *after* the current row are
    excluded (pandas time-rolling semantics).  SQL ``RANGE ... CURRENT
    ROW`` frames additionally include later equal-ts peers; the two agree
    iff ``(key, ts)`` has no duplicates.  For SQL semantics pass
    ``include_ts_peers=True`` to :func:`rolling_stats_time`, which pairs
    these starts with :func:`_peer_end_bounds` ends.

    Vectorized via a per-segment monotone offset: within a segment ts is
    non-decreasing, so we build a globally non-decreasing key by adding an
    accumulated offset with gaps wider than ``delta_us``; then one global
    ``searchsorted`` answers every row.
    """
    n = len(ts_us)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    is_start = row_in_seg == 0
    base = ts_us[seg_start]  # ts at the row's own segment start
    rel = ts_us - base  # >= 0, non-decreasing within segment
    # per-segment offset: cumulative (previous segments' spans + delta + 1)
    start_pos = np.flatnonzero(is_start)
    ends = np.append(start_pos[1:], n)
    span = rel[ends - 1]  # span of each segment
    seg_offsets = np.zeros(len(start_pos), dtype=np.int64)
    if len(start_pos) > 1:
        seg_offsets[1:] = np.cumsum(span[:-1] + delta_us + 1)
    off = np.repeat(seg_offsets, ends - start_pos)
    mono = rel + off
    starts = np.searchsorted(mono, mono - delta_us, side="left")
    # clamp (defensive; gaps guarantee no cross-segment leakage)
    return np.maximum(starts, seg_start)


def _peer_end_bounds(
    ts_us: np.ndarray, seg_start: np.ndarray, row_in_seg: np.ndarray
) -> np.ndarray:
    """Exclusive end index of each row's equal-ts peer group within its
    segment — the SQL ``RANGE ... CURRENT ROW`` frame end, which includes
    LATER rows sharing the current timestamp.  Uses the same monotone
    composite key as :func:`_window_bounds_time` (segment offsets keep
    equal ts in different segments distinct)."""
    n = len(ts_us)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    is_start = row_in_seg == 0
    base = ts_us[seg_start]
    rel = ts_us - base
    start_pos = np.flatnonzero(is_start)
    ends = np.append(start_pos[1:], n)
    span = rel[ends - 1]
    seg_offsets = np.zeros(len(start_pos), dtype=np.int64)
    if len(start_pos) > 1:
        seg_offsets[1:] = np.cumsum(span[:-1] + 1)
    off = np.repeat(seg_offsets, ends - start_pos)
    mono = rel + off
    return np.searchsorted(mono, mono, side="right")


def _sums_over_bounds(values: np.ndarray, win_start: np.ndarray,
                      win_end: Optional[np.ndarray] = None):
    """Trailing-window count / sum / sumsq via prefix sums, null-aware
    (NaN values excluded, as SQL aggregates ignore NULLs).

    Precision contract: windowed sums are differences of running prefix
    sums, so their absolute error is O(ulp(prefix total)) — variance/std
    can lose small contributions that follow much larger ones (e.g. a 1e-8
    value after a 1e+1 value in one segment).  Adequate for homogeneous
    feature magnitudes (counts, lengths, rates); callers with adversarial
    magnitude mixes should rescale or use an exact per-window pass."""
    v = np.asarray(values, dtype=np.float64)
    ok = ~np.isnan(v)
    v0 = np.where(ok, v, 0.0)
    idx = np.arange(len(v), dtype=np.int64)
    c_cnt = np.concatenate([[0], np.cumsum(ok)])
    c_sum = np.concatenate([[0.0], np.cumsum(v0)])
    c_sq = np.concatenate([[0.0], np.cumsum(v0 * v0)])
    end = idx + 1 if win_end is None else win_end
    cnt = c_cnt[end] - c_cnt[win_start]
    s = c_sum[end] - c_sum[win_start]
    sq = c_sq[end] - c_sq[win_start]
    return cnt.astype(np.float64), s, sq


def rolling_stats_rows(
    values: np.ndarray,
    k: int,
    row_in_seg: np.ndarray,
    *,
    ddof: int = 1,
) -> dict:
    """Trailing k-row (including current) count/sum/mean/std per row, window
    clamped at the segment start.  std uses ``ddof`` (1 = SQL STDDEV_SAMP);
    windows with < ddof+1 non-null values get NaN std, empty windows NaN
    mean/sum per SQL semantics (sum of empty = NULL).

    For bounded k (≤ 64) the stats are computed EXACTLY per window
    (sliding-window two-pass), not as prefix-sum differences: the
    prefix-sum variance cancels two ~Σv² magnitudes and its ~1e-7
    absolute error can straddle a 6-dp rounding boundary on large
    partitions (observed once per ~600k rows at sf0.1).  Wider windows
    keep the O(n) prefix path and its documented precision contract."""
    win_start = _window_bounds_rows(row_in_seg, k)
    if k <= 64:
        return _finish_stats_exact(values, win_start, k, ddof)
    return _finish_stats(values, win_start, ddof)


def _finish_stats_exact(values: np.ndarray, win_start: np.ndarray, k: int,
                        ddof: int, chunk: int = 1 << 16) -> dict:
    """Exact trailing-k window stats via a (chunk, k) sliding view —
    per-window summation like SQL engines do, no prefix cancellation.
    Memory bounded at ~chunk×k doubles."""
    v = np.asarray(values, dtype=np.float64)
    n = len(v)
    ok = ~np.isnan(v)
    v0 = np.where(ok, v, 0.0)
    pad_v = np.concatenate([np.zeros(k - 1), v0])
    pad_ok = np.concatenate([np.zeros(k - 1, bool), ok])
    cnt = np.empty(n)
    s = np.empty(n)
    var = np.empty(n)
    cols = np.arange(k)[None, :]
    for c0 in range(0, n, chunk):
        c1 = min(c0 + chunk, n)
        W = sliding_window_view(pad_v[c0:c1 + k - 1], k)
        M = sliding_window_view(pad_ok[c0:c1 + k - 1], k)
        rows = np.arange(c0, c1)[:, None]
        # window of row i covers positions [win_start[i], i]; column j of
        # the view is position i - (k-1) + j
        pos = rows - (k - 1) + cols
        valid = M & (pos >= win_start[c0:c1, None])
        cc = valid.sum(axis=1).astype(np.float64)
        ss = np.where(valid, W, 0.0).sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            mm = ss / cc
        dev = np.where(valid, W - mm[:, None], 0.0)
        vv = (dev * dev).sum(axis=1)
        cnt[c0:c1] = cc
        s[c0:c1] = ss
        var[c0:c1] = vv
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = np.where(cnt > 0, s / cnt, np.nan)
        var = np.where(cnt > ddof, var / (cnt - ddof), np.nan)
        std = np.sqrt(np.maximum(var, 0.0))
    return {
        "count": cnt,
        "sum": np.where(cnt > 0, s, np.nan),
        "mean": mean,
        "std": std,
        "win_start": win_start,
    }


def rolling_stats_time(
    values: np.ndarray,
    ts_us: np.ndarray,
    delta_us: int,
    seg_start: np.ndarray,
    row_in_seg: np.ndarray,
    *,
    ddof: int = 1,
    include_ts_peers: bool = False,
) -> dict:
    """Trailing time-window ``[ts - delta, ts]`` count/sum/mean/std.

    ``include_ts_peers=False`` (default): window ends at the current row
    POSITION — later rows with the same timestamp are excluded (pandas
    time-rolling semantics).  ``True``: window ends after the last
    equal-ts peer — SQL ``RANGE ... CURRENT ROW`` semantics.  The two
    agree iff (key, ts) has no duplicates."""
    win_start = _window_bounds_time(ts_us, seg_start, row_in_seg, delta_us)
    win_end = (_peer_end_bounds(ts_us, seg_start, row_in_seg)
               if include_ts_peers else None)
    return _finish_stats(values, win_start, ddof, win_end)


def _finish_stats(values: np.ndarray, win_start: np.ndarray, ddof: int,
                  win_end: Optional[np.ndarray] = None) -> dict:
    cnt, s, sq = _sums_over_bounds(values, win_start, win_end)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = np.where(cnt > 0, s / cnt, np.nan)
        var = np.where(
            cnt > ddof, (sq - cnt * mean * mean) / (cnt - ddof), np.nan
        )
        var = np.maximum(var, 0.0)  # numerical floor
        std = np.sqrt(var)
    return {
        "count": cnt,
        "sum": np.where(cnt > 0, s, np.nan),
        "mean": mean,
        "std": std,
        "win_start": win_start,
    }


def rolling_min_max_rows(
    values: np.ndarray, k: int, row_in_seg: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Trailing k-row min & max, segment-clamped, via sliding_window_view on a
    NaN-padded copy (NaN-safe: nanmin/nanmax over the fixed window, then
    positions whose window would cross the segment start fall back to a
    prefix min/max from the segment start)."""
    n = len(values)
    v = np.asarray(values, dtype=np.float64)
    if n == 0:
        return v.copy(), v.copy()
    pad = np.concatenate([np.full(k - 1, np.nan), v])
    win = np.lib.stride_tricks.sliding_window_view(pad, k)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        mn = np.nanmin(win, axis=1)
        mx = np.nanmax(win, axis=1)
    # rows whose k-window would reach before the segment start: replace with
    # expanding min/max from segment start (cummin/cummax reset per segment)
    short = row_in_seg < (k - 1)
    if short.any():
        cmx = _seg_cummax(v, row_in_seg)
        cmn = -_seg_cummax(-v, row_in_seg)
        mn = np.where(short, cmn, mn)
        mx = np.where(short, cmx, mx)
    return mn, mx


def _seg_cummax(v: np.ndarray, row_in_seg: np.ndarray) -> np.ndarray:
    """Per-segment expanding max (NaN rows carry the running max), O(n).

    Exact: pandas' grouped cummax + group-ffill, no float arithmetic.
    An earlier band-shift formulation (lift each segment by
    ``seg_ord * 4 * big`` and run one global accumulate) lost absolute
    precision proportional to ``ulp(seg_ord * big)`` on partitions with
    many segments and silently dropped ±inf values; this path keeps
    both exact and treats inf like the full-window nanmin/nanmax path.
    """
    import pandas as pd

    x = np.asarray(v, dtype=np.float64)
    g = np.cumsum(row_in_seg == 0) - 1
    s = pd.Series(x)
    cm = s.groupby(g).cummax()  # NaN positions stay NaN here
    # NaN rows take the running max seen so far in the segment (leading
    # NaNs stay NaN) — the semantics every caller expects
    return cm.groupby(g).ffill().to_numpy()


# ---------------------------------------------------------------------------
# as-of forward fill (core of the as-of join merge)
# ---------------------------------------------------------------------------


def last_occurrence_index(
    is_source: np.ndarray, seg_start: np.ndarray
) -> np.ndarray:
    """For each row, index of the most recent row at-or-before it (in the
    sorted partition) where ``is_source`` is True, constrained to the same
    segment; -1 if none.  This is the whole as-of merge once both sides are
    union-sorted by (key, ts, side)."""
    n = len(is_source)
    idx = np.arange(n, dtype=np.int64)
    src_pos = np.where(is_source, idx, -1)
    last = np.maximum.accumulate(src_pos)
    return np.where(last >= seg_start, last, -1)


def next_occurrence_index(
    is_source: np.ndarray, seg_end: np.ndarray
) -> np.ndarray:
    """Mirror of :func:`last_occurrence_index`: for each row, index of the
    nearest row at-or-after it (in the sorted partition) where
    ``is_source`` is True, constrained to the same segment; -1 if none.
    ``seg_end[i]`` = exclusive end index of row i's segment.  This is the
    forward as-of merge."""
    n = len(is_source)
    idx = np.arange(n, dtype=np.int64)
    src_pos = np.where(is_source, idx, n)
    # suffix-min: nearest source at-or-after each position
    nxt = np.minimum.accumulate(src_pos[::-1])[::-1]
    return np.where(nxt < seg_end, nxt, -1)


def ewm_mean(values: np.ndarray, alpha: float, is_seg_start: np.ndarray,
             chunk: int = 64) -> np.ndarray:
    """Per-segment exponential moving average (pandas
    ``ewm(alpha=..., adjust=False).mean()`` recursion
    ``y_i = (1-a)·y_{i-1} + a·x_i``, seeded ``y_0 = x_0``) as a BLOCKED
    scan: inside each block the recursion unrolls to one vectorized
    weighted cumsum; only the per-block carry crosses blocks, so
    Python-level work is O(n/chunk + n_segments), not O(n).

    The block length adapts to ``alpha`` so the in-block weights
    ``(1-a)^j`` stay ≥ 1e-100 (no underflow, and ``x/w`` cannot
    overflow for |x| ≤ ~1e200); ``alpha=1`` short-circuits to the
    identity (y_i = x_i).

    DETERMINISM NOTE: the blocked unroll rounds differently from the
    naive per-row loop (different op order) — the operator's exactness
    contract is "bit-identical to THIS blocked arithmetic replayed
    serially" (the q95 fixture-oracle pattern), with agreement to the
    naive recursion at ~1e-12.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must be in (0, 1]")
    n = len(values)
    out = np.empty(n, np.float64)
    if n == 0:
        return out
    v = values.astype(np.float64, copy=False)
    if alpha == 1.0:
        out[:] = v
        return out
    om = 1.0 - alpha
    # largest block with (1-a)^L >= 1e-100 (ewm weights near 1 cap at
    # the requested chunk)
    chunk = max(1, min(chunk, int(-100.0 / math.log10(om))
                       if om < 1.0 else chunk))
    w = om ** np.arange(chunk)            # (1-a)^j, j in block
    wc = om ** np.arange(1, chunk + 1)    # carry decay per in-block pos
    starts = np.flatnonzero(is_seg_start)
    ends = np.append(starts[1:], n)
    for s, e in zip(starts, ends):
        carry = v[s]                      # y_0 = x_0 seed
        out[s] = carry
        i = s + 1
        while i < e:
            j = min(i + chunk, e)
            L = j - i
            x = v[i:j]
            # y_{i+t} = (1-a)^{t+1}·carry + a·(1-a)^t·cumsum(x/ (1-a)^t')
            acc = np.cumsum(x / w[:L]) * w[:L] * alpha
            block = acc + wc[:L] * carry
            out[i:j] = block
            carry = block[-1]
            i = j
    return out


def cents_exact(arr, *, col: str = "value") -> np.ndarray:
    """Quantize an Arrow float column to exact int64 cents: NULL → 0
    (SQL ``coalesce``), then ``round(v * 100)``.  Non-finite values
    RAISE — ``np.round(nan * 100).astype(int64)`` silently yields
    INT64_MIN, and the DuckDB oracle's ``CAST(round(v*100) AS
    BIGINT)`` errors on the same input, so failing loudly keeps the
    engine and oracle in lockstep."""
    v = pc.fill_null(arr, 0.0)
    x = v.to_numpy(zero_copy_only=False).astype(np.float64)
    if len(x) and not np.isfinite(x).all():
        raise ValueError(f"cents_exact: non-finite values in {col} — "
                         "filter or clean upstream")
    return np.round(x * 100).astype(np.int64)


def triangular_pairs(starts: np.ndarray, lens: np.ndarray):
    """Vectorized within-segment pair-triangle enumeration: for each
    segment (``starts[k]``, length ``lens[k]``) return global row
    indices ``(i_glob, j_glob)`` covering every ordered pair
    ``i < j`` inside the segment, plus ``seg_of_pair``.  The shared
    index decode behind group_theil_sen / triangle wedges /
    blocked_pair_score — ~O(total pairs) memory, no Python loop."""
    n_i = np.maximum(lens - 1, 0)
    total_i = int(n_i.sum())
    if total_i == 0:
        z = np.empty(0, np.int64)
        return z, z, z
    seg_of_i = np.repeat(np.arange(len(lens)), n_i)
    i_local = (np.arange(total_i)
               - np.repeat(np.cumsum(n_i) - n_i, n_i))
    cnt = lens[seg_of_i] - 1 - i_local
    i_glob = np.repeat(starts[seg_of_i] + i_local, cnt)
    blk_off = np.cumsum(cnt) - cnt
    total_p = int(cnt.sum())
    j_glob = (np.arange(total_p) - np.repeat(blk_off, cnt)
              + i_glob + 1)
    seg_of_pair = np.repeat(seg_of_i, cnt)
    return (i_glob.astype(np.int64), j_glob.astype(np.int64),
            seg_of_pair.astype(np.int64))
