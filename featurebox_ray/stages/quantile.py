"""Exact per-group discrete quantiles — distributed order statistics.

``group_quantiles`` hash-partitions on the group key (each group lands
wholly in one partition — the engine's standard co-location contract,
``stages/partition.py``) and picks sorted elements per group inside the
partition kernel.  The returned values are EXACT data elements (no
interpolation, no float arithmetic), matching DuckDB's
``quantile_disc(v, q)`` convention: sorted index ``max(ceil(q*n)-1, 0)``
with the ``q*n`` product computed in float64 on both sides, so results
value-hash bit-exactly.

Scale note (100 TB): exact per-group quantiles need all rows of a group
in one kernel call — the same assumption every sequential operator here
rides (sessionize, as-of, windows).  For groups too large to co-locate,
:func:`histogram_quantiles` (below) is the mergeable-sketch path: fixed
dyadic bins whose counts are order-independent-exact, so unlike a
t-digest/KLL the "approximation" is a DETERMINISTIC bin-edge answer
(error bounded by the bin width, never by merge order) and it
SQL-replays bit-exactly.

Reference analog: ``PropertyStats.quantile`` (featurebox
featurizers/state/statistics.py) computes quantiles over tiny per-entry
composition vectors; this lifts the same statistic to a distributed
grouped aggregate.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .partition import materialized_block_refs, partitioned_map, sum_partials


def _disc_index(q: float, n: int) -> int:
    """DuckDB quantile_disc rank: max(ceil(q*n) - 1, 0), q*n in float64."""
    return max(int(math.ceil(q * float(n))) - 1, 0)


def _disc_index_vec(q: float, lens: "np.ndarray") -> "np.ndarray":
    """Vectorized :func:`_disc_index` over segment lengths — the ONE
    source of the bit-exactness-critical quantile_disc convention for
    kernels that pick elements per contiguous run."""
    return np.maximum(
        np.ceil(q * lens.astype(np.float64)).astype(np.int64) - 1, 0)


def group_quantiles(
    ds,
    *,
    group_col: str,
    value_col: str,
    qs: Sequence[float],
    names: Sequence[str] | None = None,
    num_partitions: int = 16,
    interpolated: bool = False,
):
    """Per-group discrete quantiles of ``value_col``.

    Returns a Dataset with ``(group_col, n_vals:int64, <one float64
    column per q>)``; nulls in ``value_col`` are ignored (SQL aggregate
    semantics), groups with zero non-null values emit null quantiles.

    ``interpolated=True`` switches to DuckDB ``quantile_cont`` parity:
    ``RN = q·(n-1)`` in float64, result ``(⌈RN⌉-RN)·v[⌊RN⌋] +
    (RN-⌊RN⌋)·v[⌈RN⌉]`` (the exact operation order DuckDB executes, so
    doubles value-hash bit-exactly; integral RN returns the element).
    NaN values are treated as NULL on both paths — pass NaN-free data
    when replaying against SQL, which would sort NaN as a value.
    """
    qs = list(qs)
    names = list(names) if names is not None else [
        f"p{int(round(q * 100))}" for q in qs]
    if len(names) != len(qs):
        raise ValueError("names and qs must have equal length")

    def kernel(t: pa.Table) -> pa.Table:
        g_arr = t[group_col].combine_chunks()
        gd = pc.dictionary_encode(g_arr)
        n_named = len(gd.dictionary)
        # SQL GROUP BY keeps a NULL group: route null-keyed rows to an
        # extra trailing slot instead of crashing on null indices
        has_null_group = g_arr.null_count > 0
        n_groups = n_named + (1 if has_null_group else 0)
        idx = gd.indices
        if idx.null_count:
            codes = pc.fill_null(idx, n_named).to_numpy(
                zero_copy_only=False).astype(np.int64)
        else:
            codes = idx.to_numpy(zero_copy_only=False).astype(np.int64)
        vals = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        cols = {nm: np.full(n_groups, np.nan) for nm in names}
        # sort once by (group, value); null/NaN values sort last per
        # group and the picked rank counts only the valid prefix — SQL
        # NULL semantics (true NaN values are treated as null too)
        valid = ~np.isnan(vals)
        order = np.lexsort((vals, ~valid, codes))
        c_s, v_s = codes[order], vals[order]
        starts = np.searchsorted(c_s, np.arange(n_groups), side="left")
        n_ok = np.zeros(n_groups, np.int64)
        np.add.at(n_ok, codes[valid], 1)
        nonempty = n_ok > 0
        for q, nm in zip(qs, names):
            if interpolated:
                # quantile_cont: RN = q*(n-1) in float64, weights from
                # ceil/floor of RN — DuckDB's exact arithmetic
                p = q * (n_ok.astype(np.float64) - 1.0)
                flo, fhi = np.floor(p), np.ceil(p)
                lo_i = np.maximum(flo.astype(np.int64), 0)
                hi_i = np.maximum(fhi.astype(np.int64), 0)
                vlo = v_s[np.minimum(starts + lo_i, len(v_s) - 1)]
                vhi = v_s[np.minimum(starts + hi_i, len(v_s) - 1)]
                res = np.where(lo_i == hi_i, vlo,
                               (fhi - p) * vlo + (p - flo) * vhi)
                cols[nm][nonempty] = res[nonempty]
                continue
            # vectorized element pick at the quantile_disc rank (same
            # float64 ceil as _disc_index, one gather per q)
            idxq = np.maximum(
                np.ceil(q * n_ok.astype(np.float64)).astype(np.int64) - 1, 0)
            cols[nm][nonempty] = v_s[(starts + idxq)[nonempty]]
        group_out = gd.dictionary
        if has_null_group:
            group_out = pa.concat_arrays(
                [group_out, pa.nulls(1, group_out.type)])
        res = {group_col: group_out,
               "n_vals": pa.array(n_ok, pa.int64())}
        for nm in names:
            v = cols[nm]
            res[nm] = pa.array(v, pa.float64(), mask=np.isnan(v))
        return pa.table(res)

    return partitioned_map(ds, kernel, key=group_col, sort_keys=[group_col],
                           num_partitions=num_partitions)


def histogram_quantiles(
    ds,
    *,
    group_col: str,
    value_col: str,
    qs: Sequence[float],
    names: Sequence[str] | None = None,
    bin_width: float = 0.125,
    num_partitions: int = 8,
):
    """Mergeable per-group quantile sketch over fixed dyadic bins — the
    at-scale fallback to :func:`group_quantiles` when a group's rows
    cannot co-locate.

    Per block each value maps to ``bin = floor(value / bin_width)``
    (``bin_width`` MUST be a power of two: the division is then a pure
    exponent shift, exact in IEEE double on every engine); the exchange
    moves only ``(group, bin, count)`` partials — O(groups × bins) rows,
    never data, merged by integer addition, so the result is independent
    of block structure and merge order.  The reported quantile is the
    LOWER EDGE of the bin holding the ``quantile_disc`` rank
    (``max(ceil(q·n), 1)``-th value): the true quantile lies in
    ``[edge, edge + bin_width)``.  Every arithmetic step (dyadic
    division, floor, int sums, ``ceil(q·n)`` in float64, ``bin ×
    bin_width``) is bit-identical in SQL — see the q61 oracle.

    Values must be finite (non-finite raise; NULL/NaN are ignored like
    SQL aggregates).  Returns ``(group_col, n_vals:int64, <one float64
    lower-edge column per q>)``; zero-value groups emit null edges.
    """
    qs = list(qs)
    names = list(names) if names is not None else [
        f"p{int(round(q * 100))}_lo" for q in qs]
    if len(names) != len(qs):
        raise ValueError("names and qs must have equal length")
    w = float(bin_width)
    m, e = math.frexp(w)
    if not (w > 0 and m == 0.5):
        raise ValueError("bin_width must be a positive power of two")

    def partial(t: pa.Table) -> pa.Table:
        g_arr = t[group_col].combine_chunks()
        gtype = g_arr.type
        vals = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        ok = ~np.isnan(vals)
        if np.isinf(vals).any():
            raise ValueError("histogram_quantiles requires finite values")
        gd = pc.dictionary_encode(g_arr)
        idx = gd.indices
        n_named = len(gd.dictionary)
        has_null = g_arr.null_count > 0
        codes = (pc.fill_null(idx, n_named) if idx.null_count else idx
                 ).to_numpy(zero_copy_only=False).astype(np.int64)
        codes, vals = codes[ok], vals[ok]
        bins = np.floor(vals / w).astype(np.int64)
        # count per (group, bin): one lexsort + run-length
        order = np.lexsort((bins, codes))
        c_s, b_s = codes[order], bins[order]
        first = np.ones(len(c_s), bool)
        first[1:] = (c_s[1:] != c_s[:-1]) | (b_s[1:] != b_s[:-1])
        starts = np.flatnonzero(first)
        counts = np.diff(np.append(starts, len(c_s)))
        gc, gb = c_s[starts], b_s[starts]
        dic = gd.dictionary
        if has_null:
            dic = pa.concat_arrays([dic, pa.nulls(1, gtype)])
        groups = dic.take(pa.array(gc, pa.int64())) if len(gc) else \
            pa.array([], gtype)
        return pa.table({group_col: groups,
                         "bin": pa.array(gb, pa.int64()),
                         "cnt": pa.array(counts.astype(np.int64))})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)

    def combine(t: pa.Table) -> pa.Table:
        # partition arrives sorted by (group, bin); merge duplicate
        # (group, bin) rows from different blocks, then cum-count picks
        g_arr = t[group_col].combine_chunks()
        gd = pc.dictionary_encode(g_arr)
        idx = gd.indices
        n_named = len(gd.dictionary)
        has_null = g_arr.null_count > 0
        codes = (pc.fill_null(idx, n_named) if idx.null_count else idx
                 ).to_numpy(zero_copy_only=False).astype(np.int64)
        bins = t["bin"].to_numpy(zero_copy_only=False)
        cnts = t["cnt"].to_numpy(zero_copy_only=False)
        order = np.lexsort((bins, codes))
        c_s, b_s, n_s = codes[order], bins[order], cnts[order]
        first = np.ones(len(c_s), bool)
        first[1:] = (c_s[1:] != c_s[:-1]) | (b_s[1:] != b_s[:-1])
        seg = np.cumsum(first) - 1
        merged = np.zeros(int(seg[-1]) + 1 if len(seg) else 0, np.int64)
        np.add.at(merged, seg, n_s)
        starts = np.flatnonzero(first)
        mc, mb = c_s[starts], b_s[starts]
        # per-group totals + cumulative counts (bins are sorted per group)
        g_first = np.ones(len(mc), bool)
        g_first[1:] = mc[1:] != mc[:-1]
        g_starts = np.flatnonzero(g_first)
        g_run = np.cumsum(g_first) - 1
        cum = np.cumsum(merged)
        base = np.concatenate([[0], cum[g_starts[1:] - 1]]) if len(
            g_starts) > 1 else np.zeros(len(g_starts), np.int64)
        cum_in_g = cum - base[g_run]
        n_per_g = np.zeros(len(g_starts), np.int64)
        np.add.at(n_per_g, g_run, merged)
        n_groups = len(g_starts)
        out_edges = {nm: np.full(n_groups, np.nan) for nm in names}
        for q, nm in zip(qs, names):
            target = np.maximum(
                np.ceil(q * n_per_g.astype(np.float64)).astype(np.int64), 1)
            # first bin (per group) whose cumulative count reaches target
            hit = cum_in_g >= target[g_run]
            # index of first hit per group: bins sorted, hits are a suffix
            first_hit = np.full(n_groups, -1, np.int64)
            rev = np.flatnonzero(hit)[::-1]
            first_hit[g_run[rev]] = rev
            got = first_hit >= 0
            out_edges[nm][got] = mb[first_hit[got]] * w
        dic = gd.dictionary
        if has_null:
            dic = pa.concat_arrays([dic, pa.nulls(1, g_arr.type)])
        res = {group_col: dic.take(pa.array(mc[g_starts], pa.int64())),
               "n_vals": pa.array(n_per_g, pa.int64())}
        for nm in names:
            v = out_edges[nm]
            res[nm] = pa.array(v, pa.float64(), mask=np.isnan(v))
        return pa.table(res)

    return partitioned_map(partials, combine, key=group_col,
                           sort_keys=[group_col, "bin"],
                           num_partitions=num_partitions)


def weighted_group_quantiles(ds, *, group_col: str, value_col: str,
                             weight_col: str, qs: Sequence[tuple],
                             names: Sequence[str] | None = None,
                             num_partitions: int = 16):
    """Per-group WEIGHTED discrete quantiles — the smallest value whose
    cumulative weight (peers included) reaches ``q`` of the group's
    total weight (importance-weighted medians/percentiles: row weights
    from dedup multiplicity, sampling correction, token counts).

    Each ``q`` is an exact rational ``(num, den)`` and the crossing
    test is pure int64 cross-multiplication ``cumw·den ≥ num·W`` — no
    float ever enters the decision, so the SQL replay (default-frame
    RANGE window sum, which includes value peers, + ``min(v)`` filter)
    matches exactly.  Weights must be positive int64; NULL
    value/weight rows are ignored; groups with no valid rows emit NULL
    quantiles (NULL groups form a group, SQL semantics).  One
    group-keyed exchange, one lexsort kernel.
    """
    qs = [(int(n), int(d)) for n, d in qs]
    if any(n < 0 or d <= 0 or n > d for n, d in qs):
        raise ValueError("each q must be a rational in [0, 1]")
    names = list(names) if names is not None else [
        f"wq{n}_{d}" for n, d in qs]
    if len(names) != len(qs):
        raise ValueError("names and qs must have equal length")

    def kernel(t: pa.Table) -> pa.Table:
        g_arr = t[group_col].combine_chunks()
        gd = pc.dictionary_encode(g_arr)
        n_named = len(gd.dictionary)
        has_null_group = g_arr.null_count > 0
        n_groups = n_named + (1 if has_null_group else 0)
        idx = gd.indices
        codes = (pc.fill_null(idx, n_named) if idx.null_count
                 else idx).to_numpy(zero_copy_only=False).astype(
            np.int64)
        vals = t[value_col].to_numpy(zero_copy_only=False).astype(
            np.float64)
        wts = t[weight_col].to_numpy(zero_copy_only=False)
        valid = ~np.isnan(vals)
        if np.issubdtype(wts.dtype, np.floating):
            valid &= ~np.isnan(wts)
            wts = np.where(valid, wts, 0).astype(np.int64)
        else:
            wts = wts.astype(np.int64)
        if wts[valid].size and wts[valid].min() <= 0:
            raise ValueError("weights must be positive")
        order = np.lexsort((vals, ~valid, codes))
        c_s, v_s = codes[order], vals[order]
        w_s = np.where(valid, wts, 0)[order]
        starts = np.searchsorted(c_s, np.arange(n_groups), side="left")
        ends = np.searchsorted(c_s, np.arange(n_groups), side="right")
        cumw = np.cumsum(w_s)
        base = np.concatenate([[0], cumw])[starts]
        totw = np.zeros(n_groups, np.int64)
        np.add.at(totw, codes[valid], wts[valid])
        # run-inclusive cumulative weight: peers of the same value all
        # carry the run-END cumulative (RANGE-frame semantics)
        run_end_cum = np.empty(len(v_s), np.int64)
        if len(v_s):
            # each row takes the cumulative weight of the LAST row of
            # its (group, value) run
            last_of_run = np.concatenate(
                [(c_s[1:] != c_s[:-1]) | (v_s[1:] != v_s[:-1]),
                 [True]])
            run_id = np.cumsum(np.concatenate(
                [[True], last_of_run[:-1]])) - 1
            run_end_idx = np.flatnonzero(last_of_run)
            run_end_cum = cumw[run_end_idx][run_id]
        cols = {nm: np.full(n_groups, np.nan) for nm in names}
        nonempty = totw > 0
        for (num, den), nm in zip(qs, names):
            # first row whose run-inclusive cumw crosses q·W
            thr_ok = (run_end_cum - base[c_s]) * den >= num * totw[c_s]
            # within each group segment, the first crossing index
            for g in np.flatnonzero(nonempty):
                s0, s1 = starts[g], ends[g]
                seg = np.flatnonzero(thr_ok[s0:s1])
                if len(seg):
                    cols[nm][g] = v_s[s0 + seg[0]]
        group_out = gd.dictionary
        if has_null_group:
            group_out = pa.concat_arrays(
                [group_out, pa.nulls(1, group_out.type)])
        res = {group_col: group_out,
               "tot_w": pa.array(totw, pa.int64())}
        for nm in names:
            v = cols[nm]
            res[nm] = pa.array(v, pa.float64(), mask=np.isnan(v))
        return pa.table(res)

    return partitioned_map(ds, kernel, key=group_col,
                           sort_keys=[group_col],
                           num_partitions=num_partitions)


def group_trimmed_mean(ds, *, group_col: str, value_col: str,
                       trim_num: int, trim_den: int,
                       num_partitions: int = 16):
    """Per-group two-sided trimmed mean — drop the lowest and highest
    ``⌊n·trim_num/trim_den⌋`` rows and average the middle (the robust
    location estimate that survives fat tails without the full
    quantile machinery; trim 1/4 ≈ the interquartile mean).

    ``value_col`` must be int64 (quantize first — the q01 money
    pattern) so the middle sum is exact under any summation order;
    the trim count is an exact integer ``(n·num)//den``; the mean is
    ONE ``double(int)/double(int)`` division.  Ties at the trim
    boundary are safe by construction: trimming removes k smallest
    and k largest VALUES, and the middle SUM is invariant to which of
    several equal values were dropped.  Groups left empty after
    trimming (n ≤ 2k) emit NULL.  One group-keyed exchange; NULL
    values ignored; NULL groups form a group (SQL semantics).
    """
    if trim_den <= 0 or trim_num < 0 or 2 * trim_num >= trim_den:
        raise ValueError("trim fraction must be in [0, 1/2)")

    def kernel(t: pa.Table) -> pa.Table:
        if t.schema.field(value_col).type != pa.int64():
            raise TypeError(f"{value_col} must be int64 (quantize "
                            "first)")
        g_arr = t[group_col].combine_chunks()
        gd = pc.dictionary_encode(g_arr)
        n_named = len(gd.dictionary)
        has_null_group = g_arr.null_count > 0
        n_groups = n_named + (1 if has_null_group else 0)
        idx = gd.indices
        codes = (pc.fill_null(idx, n_named) if idx.null_count
                 else idx).to_numpy(zero_copy_only=False).astype(
            np.int64)
        v_col = t[value_col].combine_chunks()
        vnull = (pc.is_null(v_col).to_numpy(zero_copy_only=False)
                 if v_col.null_count else
                 np.zeros(len(v_col), bool))
        vals = (v_col.fill_null(0) if v_col.null_count
                else v_col).to_numpy(zero_copy_only=False).astype(
            np.int64)
        order = np.lexsort((vals, vnull, codes))
        c_s = codes[order]
        v_s = vals[order]
        n_ok = np.zeros(n_groups, np.int64)
        np.add.at(n_ok, codes[~vnull], 1)
        starts = np.searchsorted(c_s, np.arange(n_groups), side="left")
        csum = np.concatenate([[0], np.cumsum(v_s)])
        k = (n_ok * trim_num) // trim_den
        lo = starts + k
        hi = starts + n_ok - k            # exclusive
        keep_n = n_ok - 2 * k
        nonempty = keep_n > 0
        sums = np.where(nonempty, csum[np.maximum(hi, 0)]
                        - csum[np.maximum(lo, 0)], 0)
        mean = sums.astype(np.float64) / np.maximum(
            keep_n, 1).astype(np.float64)
        group_out = gd.dictionary
        if has_null_group:
            group_out = pa.concat_arrays(
                [group_out, pa.nulls(1, group_out.type)])
        return pa.table({
            group_col: group_out,
            "n_vals": pa.array(n_ok, pa.int64()),
            "n_kept": pa.array(np.where(nonempty, keep_n, 0),
                               pa.int64()),
            "sum_kept": pa.array(sums, pa.int64()),
            "trimmed_mean": pa.array(mean, pa.float64(),
                                     mask=~nonempty),
        })

    return partitioned_map(ds, kernel, key=group_col,
                           sort_keys=[group_col],
                           num_partitions=num_partitions)


def global_quantile_element(ds, *, value_col: str, q: float,
                            n_bins: int = 4096,
                            max_passes: int | None = None):
    """Exact GLOBAL order statistic of an int64 column — the
    whole-corpus median/p99 as a true data ELEMENT, computed by
    iterative range-narrowing counting passes: no shuffle, no
    materialization, never more than ``O(n_bins)`` ints on the
    driver.

    Pass 0 reduces to ``(n, min, max)``; each following pass counts
    values into ``n_bins`` equal integer sub-ranges of the current
    candidate range and the driver descends into the bin holding the
    target rank (DuckDB's ``quantile_disc`` convention via the shared
    :func:`_disc_index`).  The range shrinks ×``n_bins`` per pass, so
    even a full int64 span resolves in ≤ 6 passes; cents-quantized
    corpora resolve in 2.  Each pass re-executes the (lazy, pruned)
    input — the trade is deliberate: passes over a streaming read
    beat materializing or shuffling the column at 100 TB.

    NULLs are ignored (SQL aggregate semantics); the column must be
    int64 (callers quantize, the cents pattern).  Returns the exact
    element as a Python int, plus ``(n, rank)`` for the caller's
    report.  Raises on an empty column or a value span ≥ 2^62.
    ``max_passes`` defaults to exactly the pass count the span and
    ``n_bins`` require (a range shrinks ×n_bins per pass), so with
    the default the loop always converges; pass a smaller cap only
    to bound worst-case latency, accepting a possible
    non-convergence error.

    Reference analog: ``PropertyStats.quantile`` over tiny arrays;
    this is the same statistic when the "array" is a 100-TB column.
    """
    empty0 = pa.table({"n": pa.array([], pa.int64()),
                       "mn": pa.array([], pa.int64()),
                       "mx": pa.array([], pa.int64())})

    def stats0(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or value_col not in b.column_names:
            return empty0
        col = b[value_col].combine_chunks()
        if col.type != pa.int64():
            raise TypeError(f"global_quantile_element: {value_col} "
                            f"must be int64; got {col.type}")
        v = col.drop_null()
        if len(v) == 0:
            return empty0
        mm = pc.min_max(v)
        return pa.table({"n": pa.array([len(v)], pa.int64()),
                         "mn": pa.array([mm["min"].as_py()],
                                        pa.int64()),
                         "mx": pa.array([mm["max"].as_py()],
                                        pa.int64())})

    n = 0
    lo = hi = None
    for blk in ray.get(materialized_block_refs(
            ds.map_batches(stats0, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None))):
        if "n" not in blk.column_names:
            continue          # empty pass-through bundle
        for nn, mn, mx in zip(blk["n"].to_pylist(),
                              blk["mn"].to_pylist(),
                              blk["mx"].to_pylist()):
            n += nn
            lo = mn if lo is None else min(lo, mn)
            hi = mx if hi is None else max(hi, mx)
    if n == 0:
        raise ValueError("global_quantile_element: empty column")
    if hi - lo >= (1 << 62):
        raise ValueError("global_quantile_element: value span >= "
                         "2^62 — quantize to a narrower grid")
    rank = _disc_index(q, n) + 1          # 1-based target rank
    if max_passes is None:
        # passes needed: span shrinks ×n_bins each round
        max_passes, spn = 1, hi - lo + 1
        while spn > n_bins:
            spn = -(-spn // n_bins)
            max_passes += 1
    below = 0
    for _ in range(max_passes):
        if lo == hi:
            break
        span = hi - lo + 1
        w = -(-span // n_bins)            # ceil
        nb = -(-span // w)
        clo, chi, cw = lo, hi, w          # freeze for the closure

        def cpass(b: pa.Table) -> pa.Table:
            if b.num_rows == 0 or value_col not in b.column_names:
                return pa.table({"bin": pa.array([], pa.int64()),
                                 "cnt": pa.array([], pa.int64())})
            col = b[value_col].combine_chunks()
            v = col.drop_null().to_numpy(zero_copy_only=False)
            v = v[(v >= clo) & (v <= chi)]
            if len(v) == 0:
                return pa.table({"bin": pa.array([], pa.int64()),
                                 "cnt": pa.array([], pa.int64())})
            bins = (v - clo) // cw
            cnt = np.bincount(bins, minlength=nb)
            nz = np.flatnonzero(cnt)
            return pa.table({
                "bin": pa.array(nz.astype(np.int64)),
                "cnt": pa.array(cnt[nz].astype(np.int64))})

        tot = sum_partials(ray.get(materialized_block_refs(
            ds.map_batches(cpass, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None))),
            keys=["bin"], vals=["cnt"])
        counts = np.zeros(nb, np.int64)
        if tot is not None:
            counts[tot["bin"].to_numpy()] = tot["cnt"].to_numpy()
        run = below + np.cumsum(counts)
        b_idx = int(np.searchsorted(run, rank))
        if b_idx == nb:
            raise AssertionError(
                "global_quantile_element: rank not reached — "
                "input changed between passes?")
        below = int(run[b_idx] - counts[b_idx])
        lo = clo + b_idx * w
        hi = min(hi, clo + (b_idx + 1) * w - 1)
    if lo != hi:
        raise ValueError("global_quantile_element: did not converge "
                         f"in {max_passes} passes")
    return {"value": int(lo), "n": int(n), "rank": int(rank)}


def impute_group_median(ds, *, group_col: str, value_col: str,
                        id_col: str, num_partitions: int = 16):
    """Grouped median imputation — fill NULLs in ``value_col`` with
    the group's exact ``quantile_disc`` median (an element SELECTION
    of the stored doubles, the q51 convention, so the fill value
    replays bit-exactly in SQL), leaving rows whose group has no
    median (all-NULL/non-finite group, or NULL group key) untouched.
    The standard feature-prep step between profiling and training.

    Non-finite values are excluded from the median COMPUTATION (NaN
    orders differently in numpy vs SQL) but pass through unfilled —
    only genuine NULLs are imputed.  Returns ``(id_col, group_col,
    value_filled:float64, was_imputed:int64)``.

    Plan: one group-keyed exchange computes the medians
    (:func:`group_quantiles`); the group-sized median table broadcasts
    once (``ray.put`` of sorted arrays is unnecessary — ``pc.index_in``
    against the captured table serves the lookup) and the corpus pass
    streams.  Bounded by |groups| like every broadcast-dim operator.
    Reference analog: none (data-prep family next to winsorize/
    collapse_rare/target encode).
    """
    src = ds.materialize()

    def finite_only(b: pa.Table) -> pa.Table:
        v = b[value_col].combine_chunks()
        if not pa.types.is_floating(v.type):
            v = v.cast(pa.float64())
        # drop NULL group keys here: index_in would otherwise MATCH
        # null-group rows against a null entry in the median table and
        # fill rows the contract says stay untouched
        keep = pc.fill_null(pc.and_(pc.is_finite(v),
                                    pc.is_valid(b[group_col])), False)
        return pa.table({group_col: b[group_col],
                         value_col: v}).filter(keep)

    med_ds = group_quantiles(
        src.map_batches(finite_only, batch_format="pyarrow",
                        zero_copy_batch=True),
        group_col=group_col, value_col=value_col, qs=[0.5],
        names=["med"], num_partitions=num_partitions)
    schema = src.schema()
    base = getattr(schema, "base_schema", schema)
    gtype = base.field(group_col).type
    idtype = base.field(id_col).type

    med_blocks = [b for b in ray.get(materialized_block_refs(med_ds))
                  if b.num_rows and group_col in b.column_names]
    if med_blocks:
        med_tbl = pa.concat_tables(med_blocks,
                                   promote_options="default")
        med_tbl = med_tbl.filter(pc.is_valid(med_tbl["med"]))
    else:
        med_tbl = pa.table({group_col: pa.array([], gtype),
                            "med": pa.array([], pa.float64())})
    g_arr = med_tbl[group_col].combine_chunks()
    m_arr = med_tbl["med"].to_numpy(zero_copy_only=False)
    med_ref = ray.put((g_arr, m_arr))

    def fill(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or value_col not in b.column_names:
            return pa.table({id_col: pa.array([], idtype),
                             group_col: pa.array([], gtype),
                             "value_filled": pa.array([], pa.float64()),
                             "was_imputed": pa.array([], pa.int64())})
        ga, ma = ray.get(med_ref)
        v = b[value_col].combine_chunks().cast(pa.float64())
        is_null = np.asarray(pc.is_null(v))
        idx = pc.index_in(b[group_col], value_set=ga)
        has_med = np.asarray(pc.is_valid(idx))
        pos = np.asarray(pc.fill_null(idx, 0)).astype(np.int64)
        vals = v.to_numpy(zero_copy_only=False).copy()
        do = is_null & has_med
        if len(ma):
            vals[do] = ma[pos[do]]
        out_null = is_null & ~do
        return pa.table({
            id_col: b[id_col],
            group_col: b[group_col],
            "value_filled": pa.array(vals, pa.float64(),
                                     mask=out_null),
            "was_imputed": pa.array(do.astype(np.int64))})

    return src.map_batches(fill, batch_format="pyarrow",
                           zero_copy_batch=True)
