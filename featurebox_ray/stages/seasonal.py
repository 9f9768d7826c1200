"""Cyclical seasonal profile + peak detection — fold timestamps onto a
repeating period (hour-of-day, day-of-week), aggregate a value per
(group, phase bin), and elect each group's PEAK bin by mean value.
The seasonality diagnostic behind traffic-shaped batch scheduling and
per-cohort activity fingerprints (distinct from ``tumbling_window``:
this is phase-folded ``(ts // width) % n_bins``, not calendar
buckets).

Exactness: per-bin sufficient statistics are exact int64 (count +
cents); the peak election ranks bins by ``CAST(cents AS DOUBLE) /
CAST(n AS DOUBLE)`` — ONE IEEE division, identical in SQL — with ties
broken by lowest bin, so the winner replays bit-exactly
(``row_number() OVER (ORDER BY mean DESC, bin)``).

Scale shape: per-block ``(group, bin, n, cents)`` partials via dense
``code·n_bins + bin`` cells, ONE group-keyed exchange of the tiny
partial rows, per-group argmax in the kernel.  Timestamps must be
non-negative (epoch-us after 1970 — trunc/floor division agree;
negative ts raise rather than silently disagreeing with SQL ``//``).

Reference analog: none; companion of ``window.tumbling_window_stats``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .partition import materialized_block_refs, partitioned_map

__all__ = ["seasonal_peak"]


def seasonal_peak(ds, *, group_col: str, ts_col: str, value_col: str,
                  bin_width_s: int = 3600, n_bins: int = 24,
                  num_partitions: int = 8):
    """Per-group phase profile over ``bin = (ts_us // width) % n_bins``
    plus the peak bin by mean cents: returns ``(group_col, bin:int64,
    n:int64, cents:int64, is_peak:bool)`` — every populated bin, with
    exactly one peak row per group.  NULL group/ts rows drop; NULL
    values count 0 cents."""
    width = int(bin_width_s) * 1_000_000

    def partial(b: pa.Table) -> pa.Table:
        gtype = b.schema.field(group_col).type
        empty = pa.table({group_col: pa.array([], gtype),
                          "bin": pa.array([], pa.int64()),
                          "n": pa.array([], pa.int64()),
                          "cents": pa.array([], pa.int64())})
        keep = pc.fill_null(pc.and_(pc.is_valid(b[group_col]),
                                    pc.is_valid(b[ts_col])), False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        if b.num_rows == 0:
            return empty
        ts = b[ts_col].combine_chunks()
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.int64())
        t = ts.to_numpy(zero_copy_only=False)
        if t.min() < 0:
            raise ValueError("seasonal_peak: negative timestamps — "
                             "trunc vs floor division would diverge")
        bins = (t // width) % n_bins
        from ..functions.segments import cents_exact

        cents = cents_exact(b[value_col].combine_chunks(),
                            col=value_col)
        gd = pc.dictionary_encode(b[group_col].combine_chunks())
        codes = gd.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)
        cell = codes * n_bins + bins
        ucell, inv = np.unique(cell, return_inverse=True)
        n = np.zeros(len(ucell), np.int64)
        s = np.zeros(len(ucell), np.int64)
        np.add.at(n, inv, 1)
        np.add.at(s, inv, cents)
        return pa.table({
            group_col: gd.dictionary.take(
                pa.array(ucell // n_bins, pa.int64())),
            "bin": pa.array((ucell % n_bins).astype(np.int64)),
            "n": pa.array(n), "cents": pa.array(s)})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)

    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    gtype = base.field(group_col).type
    empty = pa.table({group_col: pa.array([], gtype),
                      "bin": pa.array([], pa.int64()),
                      "n": pa.array([], pa.int64()),
                      "cents": pa.array([], pa.int64()),
                      "is_peak": pa.array([], pa.bool_())})

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or group_col not in t.column_names:
            return empty
        keys = t[group_col].combine_chunks()
        codes = pc.dictionary_encode(keys).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        bins = t["bin"].to_numpy(zero_copy_only=False)
        # combine duplicate (group, bin) partial rows (sorted order)
        new_run = np.concatenate(
            [[True], (codes[1:] != codes[:-1]) | (bins[1:] != bins[:-1])])
        starts = np.flatnonzero(new_run)
        n = np.add.reduceat(t["n"].to_numpy(zero_copy_only=False),
                            starts).astype(np.int64)
        s = np.add.reduceat(t["cents"].to_numpy(zero_copy_only=False),
                            starts).astype(np.int64)
        g = codes[starts]
        b = bins[starts]
        mean = s.astype(np.float64) / n.astype(np.float64)
        # per-group argmax: order by (group, -mean, bin), take first
        order = np.lexsort((b, -mean, g))
        gfirst = np.concatenate([[True], g[order][1:] != g[order][:-1]])
        peak = np.zeros(len(g), bool)
        peak[order[gfirst]] = True
        return pa.table({
            group_col: keys.take(pa.array(starts, pa.int64())),
            "bin": pa.array(b), "n": pa.array(n), "cents": pa.array(s),
            "is_peak": pa.array(peak)})

    return partitioned_map(partials, kernel, key=group_col,
                           sort_keys=[group_col, "bin"],
                           num_partitions=num_partitions)


def profile_similarity(ds, *, key_col: str, ts_col: str,
                       bin_width_s: int = 3600, n_bins: int = 24,
                       num_partitions: int = 8):
    """Per-key activity-phase conformity — the squared cosine between
    each key's hour-of-day (or any ``bin = (ts//width) % n_bins``)
    activity histogram and the CORPUS histogram: ~1 for users who
    follow the global diurnal rhythm, small for off-phase actors
    (bots on a fixed off-peak schedule, timezone outliers, scripted
    traffic).  The phase-shape complement of ``seasonal_peak`` (which
    finds WHERE the peak is) and ``group_burstiness`` (dispersion,
    not phase).

    Exactness: histograms are exact int64 counts; ``cos² =
    dot²/(u2·v2)`` where ``dot = Σ_b u_b·g_b``, ``u2 = Σ u_b²``,
    ``v2 = Σ g_b²`` are exact int64 sums (guarded — at corpus sizes
    where ``max_cnt·total·n_bins`` nears 2^63, pre-bucket upstream),
    and the final value is the FIXED sequence ``(d(dot)·d(dot)) /
    (d(u2)·d(v2))`` — casts of exact ints then IEEE mult/divide,
    bit-exact in SQL even though dot² itself passes 2^53 (q234
    convention).

    Shape: per-block ``(key, bin, cnt)`` partials ride ONE key-keyed
    exchange; the 24-cell global histogram reduces from per-block
    partials on the driver and broadcasts by closure.  Timestamps
    must be non-negative epoch-us (trunc/floor agree — raises
    otherwise, the seasonal_peak contract).

    Emits ``(key_col, n:int64, dot:int64, u2:int64, cos2:float64)``.
    Reference analog: none (behavioral-audit family).
    """
    width = int(bin_width_s) * 1_000_000

    def bins_of(b: pa.Table):
        ts = b[ts_col].combine_chunks()
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.int64())
        t = ts.to_numpy(zero_copy_only=False)
        if len(t) and t.min() < 0:
            raise ValueError("profile_similarity: negative "
                             "timestamps — trunc vs floor division "
                             "would diverge")
        return (t // width) % n_bins

    def gpartial(b: pa.Table) -> pa.Table:
        keep = pc.fill_null(pc.and_(pc.is_valid(b[key_col]),
                                    pc.is_valid(b[ts_col])), False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        if b.num_rows == 0:
            return pa.table({"bin": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64())})
        bins = bins_of(b)
        cnt = np.bincount(bins, minlength=n_bins).astype(np.int64)
        nz = np.flatnonzero(cnt)
        return pa.table({"bin": pa.array(nz.astype(np.int64)),
                         "cnt": pa.array(cnt[nz])})

    G = np.zeros(n_bins, np.int64)
    for blk in ray.get(materialized_block_refs(
            ds.map_batches(gpartial, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None))):
        if blk.num_rows:
            G[blk["bin"].to_numpy(zero_copy_only=False)] += \
                blk["cnt"].to_numpy(zero_copy_only=False)
    total = int(G.sum())
    # u2 terms are cnt² ≤ total²; dot terms ≤ total·max(G)
    if total > 3_037_000_499 \
            or (total and int(G.max())
                > (2**63 - 1) // max(total, 1)):
        raise ValueError("profile_similarity int64 guard exceeded; "
                         "pre-bucket upstream")
    # v2 <= total² <= (3.037e9)² < 2^63 under the guard above
    v2 = int((G * G).sum())

    def prep(b: pa.Table) -> pa.Table:
        keep = pc.fill_null(pc.and_(pc.is_valid(b[key_col]),
                                    pc.is_valid(b[ts_col])), False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        ktype = b.schema.field(key_col).type
        if b.num_rows == 0:
            return pa.table({key_col: pa.array([], ktype),
                             "__b": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64())})
        bins = bins_of(b)
        keys = b[key_col].combine_chunks()
        enc = pc.dictionary_encode(keys)
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)
        cell = codes * n_bins + bins
        uc, inv = np.unique(cell, return_inverse=True)
        cnt = np.zeros(len(uc), np.int64)
        np.add.at(cnt, inv, 1)
        return pa.table({
            key_col: enc.dictionary.take(
                pa.array(uc // n_bins, pa.int64())),
            "__b": pa.array(uc % n_bins),
            "cnt": pa.array(cnt)})

    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    ktype = base.field(key_col).type
    empty = pa.table({key_col: pa.array([], ktype),
                      "n": pa.array([], pa.int64()),
                      "dot": pa.array([], pa.int64()),
                      "u2": pa.array([], pa.int64()),
                      "cos2": pa.array([], pa.float64())})

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        keys = t[key_col].combine_chunks()
        codes = pc.dictionary_encode(keys).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        bins = t["__b"].to_numpy(zero_copy_only=False)
        cnt = t["cnt"].to_numpy(zero_copy_only=False)
        # merge cross-block partials for the same (key, bin)
        new = np.concatenate([[True], (codes[1:] != codes[:-1])
                              | (bins[1:] != bins[:-1])])
        starts = np.flatnonzero(new)
        rid = np.cumsum(new.astype(np.int64)) - 1
        mc = np.zeros(len(starts), np.int64)
        np.add.at(mc, rid, cnt)
        kc, kb = codes[starts], bins[starts]
        n_keys = int(kc.max()) + 1 if len(kc) else 0
        n = np.zeros(n_keys, np.int64)
        dot = np.zeros(n_keys, np.int64)
        u2 = np.zeros(n_keys, np.int64)
        np.add.at(n, kc, mc)
        np.add.at(dot, kc, mc * G[kb])
        np.add.at(u2, kc, mc * mc)
        first = np.searchsorted(kc, np.arange(n_keys))
        cos2 = ((dot.astype(np.float64) * dot.astype(np.float64))
                / (u2.astype(np.float64) * np.float64(v2)))
        return pa.table({
            key_col: keys.take(pa.array(starts[first], pa.int64())),
            "n": pa.array(n), "dot": pa.array(dot),
            "u2": pa.array(u2), "cos2": pa.array(cos2)})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True, batch_size=None)
    return partitioned_map(prepped, kernel, key=key_col,
                           sort_keys=[key_col, "__b"],
                           num_partitions=num_partitions)


def seasonal_anomaly(ds, *, ts_col: str, id_col: str,
                     value_col: str, bin_width_s: int = 3600,
                     n_bins: int = 24, k: int = 3,
                     num_partitions: int = 8):
    """Phase-aware robust anomaly flags — a row is anomalous iff its
    value sits more than ``k`` MADs from ITS PHASE BIN's median
    (``bin = (ts//width) % n_bins``): the 3am spike that a global
    robust z-score (q109) would miss because 3am is ALWAYS quiet, and
    the lunchtime surge it would falsely flag.

    Exactness: cents quantize exactly; per-bin median and MAD are
    DISCRETE quantile ELEMENTS (the shared :func:`group_quantiles`
    machinery — exact under any partitioning), so both are exact
    int64 cents and the flag ``|c − med| > k·mad`` is a pure integer
    comparison — the SQL replay (two quantile_disc CTEs + the same
    compare) is exact by construction.

    Shape: one prep map (id, bin, cents) materialized ONCE; two
    group-quantile exchanges over ≤ ``n_bins`` groups (median, then
    MAD of deviations); per-bin stats broadcast by closure for the
    final flag map.  NULL ts/id/value rows drop; negative timestamps
    raise (the seasonal_peak trunc/floor contract).

    Emits ``(id_col, bin:int64, cents:int64, med:int64, mad:int64,
    is_anomaly:bool)``.  Reference analog: none (anomaly family:
    robust_zscore q109 / CUSUM q126 / changepoint q211).
    """
    from ..functions.segments import cents_exact
    from .quantile import group_quantiles

    width = int(bin_width_s) * 1_000_000

    def prep(b: pa.Table) -> pa.Table:
        keep = pc.is_valid(b[ts_col])
        for c in (id_col, value_col):
            keep = pc.and_(keep, pc.is_valid(b[c]))
        keep = pc.fill_null(keep, False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        ts = b[ts_col].combine_chunks()
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.int64())
        t = ts.to_numpy(zero_copy_only=False)
        if len(t) and t.min() < 0:
            raise ValueError("seasonal_anomaly: negative "
                             "timestamps — trunc vs floor division "
                             "would diverge")
        bins = (t // width) % n_bins
        c = cents_exact(b[value_col].combine_chunks(),
                        col=value_col)
        return pa.table({
            id_col: b[id_col].combine_chunks().cast(pa.int64()),
            "bin": pa.array(bins.astype(np.int64)),
            "c": pa.array(c)})

    refs = list(materialized_block_refs(
        ds.map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True)))

    def rows_ds():
        return ray.data.from_arrow_refs(list(refs))

    med_tbl = group_quantiles(rows_ds(), group_col="bin",
                              value_col="c", qs=[0.5],
                              names=["med"],
                              num_partitions=num_partitions)
    med = {}
    for b in ray.get(materialized_block_refs(med_tbl)):
        for bin_, m in zip(b["bin"].to_pylist(),
                           b["med"].to_pylist()):
            med[bin_] = int(m)
    med_ref = ray.put(med)

    def dev(b: pa.Table) -> pa.Table:
        mm = ray.get(med_ref)
        bins = b["bin"].to_numpy(zero_copy_only=False)
        c = b["c"].to_numpy(zero_copy_only=False)
        lut_keys = np.unique(bins)
        meds = np.array([mm[int(x)] for x in lut_keys], np.int64)
        pos = np.searchsorted(lut_keys, bins)
        d = np.abs(c - meds[pos])
        return pa.table({"bin": b["bin"], "d": pa.array(d)})

    mad_tbl = group_quantiles(
        rows_ds().map_batches(dev, batch_format="pyarrow",
                              zero_copy_batch=True),
        group_col="bin", value_col="d", qs=[0.5], names=["mad"],
        num_partitions=num_partitions)
    mad = {}
    for b in ray.get(materialized_block_refs(mad_tbl)):
        for bin_, m in zip(b["bin"].to_pylist(),
                           b["mad"].to_pylist()):
            mad[bin_] = int(m)
    stats_ref = ray.put((med, mad))

    def flag(b: pa.Table) -> pa.Table:
        mm, md = ray.get(stats_ref)
        bins = b["bin"].to_numpy(zero_copy_only=False)
        c = b["c"].to_numpy(zero_copy_only=False)
        lut = np.unique(bins)
        pos = np.searchsorted(lut, bins)
        meds = np.array([mm[int(x)] for x in lut], np.int64)[pos]
        mads = np.array([md[int(x)] for x in lut], np.int64)[pos]
        d = np.abs(c - meds)
        return pa.table({
            id_col: b[id_col],
            "bin": b["bin"],
            "cents": b["c"],
            "med": pa.array(meds),
            "mad": pa.array(mads),
            "is_anomaly": pa.array(d > k * mads)})

    return rows_ds().map_batches(flag, batch_format="pyarrow",
                                 zero_copy_batch=True)


def seasonal_naive_backtest(ds, *, key_col: str, ts_col: str,
                            period_days: int = 7,
                            num_partitions: int = 16):
    """Seasonal-naive forecast backtest — score the "same day last
    week" predictor of per-key DAILY EVENT COUNTS over the corpus's
    trailing window: the baseline every activity-forecasting model
    must beat, and the cheapest way to measure how periodic each
    key's behaviour is (MAE 0 = perfectly weekly).

    Per key and day d in the GLOBAL range ``[lo+period, hi]`` (lo/hi
    = corpus min/max day), the error is ``|c(d) − c(d−period)|`` with
    absent days counting 0 on BOTH sides — so the scored day grid is
    identical for every key and the denominator is the constant
    ``hi − lo − period + 1``.  All counts/errors are exact ints; MAE
    is ONE division.  The kernel touches only days where either term
    is non-zero (sparse evaluation via two vectorized membership
    probes on the partition's (key, day) spine — no dense grid, no
    per-key Python); the LEFT-JOIN-over-a-grid SQL replays the same
    numbers.

    ONE key-keyed exchange (day range piggybacks as a broadcast from
    a tiny pre-pass).  Rows with NULL key/ts drop; keys with zero
    in-range error days still emit (sae=0 — genuinely perfect weeks
    and empty tails look alike, as they do for the SQL grid).
    Returns ``(key_col, n_days:int64, sae:int64, mae:float64)``.
    """
    US_DAY = 86_400_000_000

    def prep(b: pa.Table) -> pa.Table:
        mask = pc.and_(pc.is_valid(b[key_col]), pc.is_valid(b[ts_col]))
        if not pc.all(pc.fill_null(mask, False)).as_py():
            b = b.filter(pc.fill_null(mask, False))
        t = b[ts_col].combine_chunks().cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        return pa.table({key_col: b[key_col],
                         "__day": pa.array(t // US_DAY)})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)

    # tiny global pre-pass: corpus day range
    lo = hi = None
    for blk in ray.get(materialized_block_refs(prepped.map_batches(
            lambda b: pa.table(
                {"mn": pa.array([pc.min(b["__day"]).as_py()],
                                pa.int64()),
                 "mx": pa.array([pc.max(b["__day"]).as_py()],
                                pa.int64())})
            if b.num_rows else
            pa.table({"mn": pa.array([], pa.int64()),
                      "mx": pa.array([], pa.int64())}),
            batch_format="pyarrow", batch_size=None))):
        if "mn" not in blk.column_names:
            continue
        for a, b_ in zip(blk["mn"].to_pylist(),
                         blk["mx"].to_pylist()):
            if a is None:
                continue
            lo = a if lo is None else min(lo, a)
            hi = b_ if hi is None else max(hi, b_)
    if lo is None:
        raise ValueError("seasonal_naive_backtest: empty input")
    start = lo + period_days
    n_days = hi - start + 1
    if n_days <= 0:
        raise ValueError("seasonal_naive_backtest: corpus shorter "
                         f"than {period_days} days")

    base = ds.schema()
    base = getattr(base, "base_schema", base)
    ktype = base.field(key_col).type
    empty = pa.table({key_col: pa.array([], ktype),
                      "n_days": pa.array([], pa.int64()),
                      "sae": pa.array([], pa.int64()),
                      "mae": pa.array([], pa.float64())})

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        keys = t[key_col].combine_chunks()
        enc = pc.dictionary_encode(keys)
        codes = (pc.fill_null(enc.indices, -1)
                 .to_numpy(zero_copy_only=False).astype(np.int64))
        day = t["__day"].to_numpy(zero_copy_only=False)
        # sorted by (key, day): collapse to per-(key, day) counts
        rstart = np.concatenate(
            [[True], (codes[1:] != codes[:-1]) | (day[1:] != day[:-1])])
        rf = np.flatnonzero(rstart)
        cnt = np.diff(np.concatenate([rf, [len(day)]]))
        kc, dd = codes[rf], day[rf]
        # composite spine for membership probes (day range is tiny
        # next to 2^63/key-count)
        SPAN = (hi - lo) + period_days + 2
        comp = kc * SPAN + (dd - lo)
        # A: scored days where actual > 0 -> |c(d) - c(d-period)|
        in_a = dd >= start
        prev = np.searchsorted(comp, kc * SPAN + (dd - period_days - lo))
        prev_ok = (prev < len(comp)) & (
            comp[np.minimum(prev, len(comp) - 1)]
            == kc * SPAN + (dd - period_days - lo))
        c_prev = np.where(prev_ok, cnt[np.minimum(prev, len(comp) - 1)],
                          0)
        term_a = np.where(in_a, np.abs(cnt - c_prev), 0)
        # B: scored days where actual = 0 but the lag had events
        fwd_day = dd + period_days
        in_b = fwd_day <= hi
        nxt = np.searchsorted(comp, kc * SPAN + (fwd_day - lo))
        nxt_present = (nxt < len(comp)) & (
            comp[np.minimum(nxt, len(comp) - 1)]
            == kc * SPAN + (fwd_day - lo))
        term_b = np.where(in_b & ~nxt_present, cnt, 0)
        n_keys = int(kc.max()) + 1 if len(kc) else 0
        sae = np.zeros(n_keys, np.int64)
        np.add.at(sae, kc, term_a + term_b)
        first = np.concatenate([[True], kc[1:] != kc[:-1]])
        kf = np.flatnonzero(first)
        mae = sae.astype(np.float64) / float(n_days)
        return pa.table({
            key_col: keys.take(pa.array(rf[kf], pa.int64())),
            "n_days": pa.array(np.full(n_keys, n_days, np.int64)),
            "sae": pa.array(sae),
            "mae": pa.array(mae, pa.float64())})

    return partitioned_map(prepped, kernel, key=key_col,
                           sort_keys=[key_col, "__day"],
                           num_partitions=num_partitions)
