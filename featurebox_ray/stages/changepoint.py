"""Single-changepoint detection per key (binary segmentation, first
split) — "where did this user's spend level shift?": for each key's
time-ordered value series, the split that maximally reduces the sum of
squared errors when the series is modeled as two constant segments.
The per-entity drift-localization feature (sits upstream of CUSUM
q126, which only SCORES drift, and of group_ks_drift, which compares
two fixed windows).

Exactness: values quantize to int64 cents; prefix sums ``S1(i)`` are
exact int64 (guarded); the split objective

    f(i)   = S1(i)^2 * (n-i) + S2(i)^2 * i      (over denominator
    den(i) = i * (n-i))                          i*(n-i), constant-
                                                 shifted SSE gain)

is ranked in float64 only to PRUNE (relative tolerance 1e-12 — orders
of magnitude above the few-ulp error of the 5-op float evaluation),
then the surviving candidates are compared EXACTLY by Python-int
cross-multiplication, ties to the smallest split.  The selection is
therefore a pure function of the integers — a serial replay is
bit-identical.  The reported ``gain_cents2``

    (f(i)*n - S^2*den(i)) / (n*den(i))

is ONE float division of exactly-computed Python ints (both sides
correctly rounded), as are ``mean_l``/``mean_r``.

Scale shape: ONE key-partitioned exchange; inside a partition the
prefix sums, per-row objective and per-key argmax are all segment
arithmetic (reduceat) — Python touches only the pruned candidates
(typically one per key).  Keys longer than ``max_group`` rows are
skipped with a logged count (the theil_sen convention); keys shorter
than ``2*min_seg`` emit nothing.

Reference analog: none — companion of cusum/ks_drift in the
monitoring family.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

logger = logging.getLogger(__name__)


def group_changepoint(ds, *, key_col: str, ts_col: str, seq_col: str,
                      value_col: str, min_seg: int = 3,
                      max_group: int = 4096,
                      num_partitions: int = 32):
    """Per key: ``(key, n, split_i, ts_split, gain_cents2, mean_l,
    mean_r)`` — the best single split of the (ts, seq)-ordered cents
    series.  ``split_i`` = rows in the left segment (1-based count);
    ``ts_split`` = epoch-us of the last left row.  NULL key/ts/seq
    rows drop; NULL values coalesce to 0 cents (the house
    cents_exact contract)."""
    from ..functions.segments import cents_exact
    from .partition import partitioned_map

    if min_seg < 1:
        raise ValueError("group_changepoint: min_seg must be >= 1")

    def prep(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(b[key_col]),
                       pc.and_(pc.is_valid(b[ts_col]),
                               pc.is_valid(b[seq_col])))
        keep = pc.fill_null(keep, False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        ts = b[ts_col].combine_chunks()
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.int64())
        cents = cents_exact(b[value_col].combine_chunks(),
                            col=value_col)
        return pa.table({key_col: b[key_col], "__t": ts,
                         "__s": b[seq_col], "__y": pa.array(cents)})

    def kernel(t: pa.Table) -> pa.Table:
        ktype = t.schema.field(key_col).type
        empty = pa.table({
            key_col: pa.array([], ktype),
            "n": pa.array([], pa.int64()),
            "split_i": pa.array([], pa.int64()),
            "ts_split": pa.array([], pa.int64()),
            "gain_cents2": pa.array([], pa.float64()),
            "mean_l": pa.array([], pa.float64()),
            "mean_r": pa.array([], pa.float64())})
        if t.num_rows == 0:
            return empty
        keys = t[key_col].combine_chunks()
        codes = pc.dictionary_encode(keys).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        y = t["__y"].to_numpy(zero_copy_only=False)
        ts = t["__t"].to_numpy(zero_copy_only=False)
        new = np.concatenate([[True], codes[1:] != codes[:-1]])
        starts0 = np.flatnonzero(new)
        lens0 = np.diff(np.append(starts0, len(codes)))
        big = lens0 > max_group
        if big.any():
            logger.warning(
                "group_changepoint: skipped %d keys with > %d rows",
                int(big.sum()), max_group)
        ok = (~big) & (lens0 >= 2 * min_seg)
        if not ok.any():
            return empty
        row_keep = np.repeat(ok, lens0)
        key_rows = starts0[ok]          # one input row per kept key
        y2, ts2 = y[row_keep], ts[row_keep]
        lens = lens0[ok]
        starts = np.cumsum(lens) - lens
        if float(np.abs(y2).astype(np.float64).sum()) >= 2.0 ** 62:
            raise ValueError("group_changepoint: Σ|cents| risks "
                             "int64 prefix-sum overflow")
        # within-segment prefix sums from ONE global cumsum
        c = np.cumsum(y2)
        prev = np.concatenate([[0], c])[starts]
        S1 = c - np.repeat(prev, lens)          # exact int64
        seg_of = np.repeat(np.arange(len(lens)), lens)
        n_row = lens[seg_of]
        S_row = S1[starts + lens - 1][seg_of]
        # candidate split AFTER this row: left count i
        i_row = np.arange(len(y2), dtype=np.int64) \
            - starts[seg_of] + 1
        valid = (i_row >= min_seg) & (i_row <= n_row - min_seg)
        s1f = S1.astype(np.float64)
        s2f = S_row.astype(np.float64) - s1f
        den_f = (i_row * (n_row - i_row)).astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.where(valid,
                         (s1f * s1f * (n_row - i_row)
                          + s2f * s2f * i_row) / den_f, -np.inf)
        gmax = np.maximum.reduceat(g, starts)
        tol = np.abs(gmax) * 1e-12 + 1e-30
        cand = np.flatnonzero(valid
                              & (g >= (gmax - tol)[seg_of]))
        # exact cross-mult refine over the pruned candidates
        # (typically one per key) — ties to the smallest split
        best: dict = {}
        for r in map(int, cand):
            sg = int(seg_of[r])
            i = int(i_row[r])
            a = int(S1[r])
            b_ = int(S_row[r]) - a
            n = int(n_row[r])
            f = a * a * (n - i) + b_ * b_ * i
            den = i * (n - i)
            cur = best.get(sg)
            if cur is None or f * cur[2] > cur[1] * den:
                best[sg] = (i, f, den, a, b_, n, int(ts2[r]))
        segs = sorted(best)
        i_a = np.array([best[s][0] for s in segs], np.int64)
        n_a = np.array([best[s][5] for s in segs], np.int64)
        ts_a = np.array([best[s][6] for s in segs], np.int64)
        gains, ml, mr = [], [], []
        for s in segs:
            i, f, den, a, b_, n, _ = best[s]
            S = a + b_
            gains.append(float(f * n - S * S * den)
                         / float(n * den))
            ml.append(float(a) / float(i))
            mr.append(float(b_) / float(n - i))
        return pa.table({
            key_col: keys.take(pa.array(
                key_rows[np.array(segs, np.int64)], pa.int64())),
            "n": pa.array(n_a),
            "split_i": pa.array(i_a),
            "ts_split": pa.array(ts_a),
            "gain_cents2": pa.array(gains, pa.float64()),
            "mean_l": pa.array(ml, pa.float64()),
            "mean_r": pa.array(mr, pa.float64())})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, kernel, key=key_col,
                           sort_keys=[key_col, "__t", "__s"],
                           num_partitions=num_partitions)
