"""Per-group OLS line fit (slope/intercept) from integer-exact
sufficient statistics — the distributed `regr_slope`/`regr_intercept`
analog, and the trend-feature counterpart to the exact group stats of
``stages/normalize.py:add_group_norm_features``.

Scale shape: each block reduces to one ``(group, n, Σx, Σy, Σxy, Σx²)``
partial row per group present (``np.add.at`` over dictionary codes);
ONE group-keyed exchange moves O(blocks × groups) partial rows, never
data; the final combine accumulates partials as Python ints (no int64
overflow at any scale) and performs the closed form.

Exactness contract (why this is value-hash-oracled): inputs must be
int64 columns (the caller quantizes — e.g. cents / days — exactly like
the q01/q98 money pattern).  All sums are then exact integers, and the
outputs are a FIXED float64 op sequence from exact ints:

    den       = n·Σx² − Σx·Σx                  (exact int)
    num       = n·Σxy − Σx·Σy                  (exact int)
    slope     = double(num) / double(den)       (2 conversions + 1 div)
    intercept = (double(Σy) − slope·double(Σx)) / double(n)

which DuckDB replays bit-identically with HUGEINT arithmetic and
explicit DOUBLE casts.  NEVER oracle this with ``regr_slope`` — its
internal accumulation is floating-point and order-dependent.

Degenerate groups (den == 0: fewer than two distinct x) emit NULL
slope/intercept, matching SQL ``CASE WHEN den = 0 THEN NULL``.

Reference analog: the reference fits lines via sklearn
``LinearRegression`` inside selection drivers (selection/quickmethod.py
"LR-L2" entries); this is that capability re-expressed as a distributed
aggregate over grouped data.
"""

from __future__ import annotations

import logging
import math
from math import sqrt

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .partition import (each_group, global_span_cut, materialized_block_refs,
                        partitioned_map, partitioned_refs, sum_partials)

_PARTIAL_COLS = ("n", "sx", "sy", "sxy", "sxx")


def group_linfit(ds, *, key_col: str, x_col: str, y_col: str):
    """OLS ``y = slope·x + intercept`` per ``key_col`` group.

    ``x_col``/``y_col`` must be int64 (pre-quantized); rows with a NULL
    key, x or y are dropped.  Returns one row per group:
    ``(key_col, n:int64, slope:float64, intercept:float64)``.
    """

    def partial(batch: pa.Table) -> pa.Table:
        for c in (x_col, y_col):
            if batch.schema.field(c).type != pa.int64():
                raise TypeError(f"{c} must be int64 (quantize first); "
                                f"got {batch.schema.field(c).type}")
        mask = pc.and_(pc.and_(pc.is_valid(batch[key_col]),
                               pc.is_valid(batch[x_col])),
                       pc.is_valid(batch[y_col]))
        if not pc.all(mask).as_py():
            batch = batch.filter(mask)
        ktype = batch.schema.field(key_col).type
        if batch.num_rows == 0:
            return pa.table({key_col: pa.array([], ktype),
                             **{c: pa.array([], pa.int64())
                                for c in _PARTIAL_COLS}})
        gd = pc.dictionary_encode(batch[key_col].combine_chunks())
        codes = gd.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        x = batch[x_col].to_numpy(zero_copy_only=False)
        y = batch[y_col].to_numpy(zero_copy_only=False)
        g = len(gd.dictionary)
        sums = np.zeros((5, g), np.int64)
        np.add.at(sums[0], codes, 1)
        np.add.at(sums[1], codes, x)
        np.add.at(sums[2], codes, y)
        np.add.at(sums[3], codes, x * y)
        np.add.at(sums[4], codes, x * x)
        return pa.table({
            key_col: gd.dictionary,
            **{c: pa.array(sums[i]) for i, c in enumerate(_PARTIAL_COLS)},
        })

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)

    def finalize(t: pa.Table) -> pa.Table:
        # Python ints: exact and unbounded regardless of scale
        n, sx, sy, sxy, sxx = (
            sum(t[c].to_pylist()) for c in _PARTIAL_COLS)
        den = n * sxx - sx * sx
        if den == 0:
            slope = intercept = None
        else:
            num = n * sxy - sx * sy
            slope = float(num) / float(den)
            intercept = (float(sy) - slope * float(sx)) / float(n)
        return pa.table({
            key_col: t[key_col].slice(0, 1),
            "n": pa.array([n], pa.int64()),
            "slope": pa.array([slope], pa.float64()),
            "intercept": pa.array([intercept], pa.float64()),
        })

    # the exchange moves O(blocks × groups) tiny partial rows
    return partitioned_map(partials, each_group(finalize, [key_col]),
                           key=key_col, sort_keys=[key_col])


def group_corr(ds, *, key_col: str, x_col: str, y_col: str):
    """Pearson correlation of two pre-quantized int64 columns per group.

    Same exchange shape as :func:`group_linfit` with a sixth partial
    (Σy²); the final value is a FIXED float64 op sequence from exact
    ints — ``r = double(n·Σxy − ΣxΣy) / sqrt(double(n·Σx²−Σx²ᵗ) *
    double(n·Σy²−Σy²ᵗ))`` — and IEEE sqrt is correctly rounded, so SQL
    replays it bit-identically (NEVER oracle with ``corr()``: its
    internal accumulation is floating-point and order-dependent).

    Groups where either side is constant (zero variance) emit NULL.
    Returns ``(key_col, n:int64, r:float64)``.
    """
    cols = ("n", "sx", "sy", "sxy", "sxx", "syy")

    def partial(batch: pa.Table) -> pa.Table:
        for c in (x_col, y_col):
            if batch.schema.field(c).type != pa.int64():
                raise TypeError(f"{c} must be int64 (quantize first); "
                                f"got {batch.schema.field(c).type}")
        mask = pc.and_(pc.and_(pc.is_valid(batch[key_col]),
                               pc.is_valid(batch[x_col])),
                       pc.is_valid(batch[y_col]))
        if not pc.all(mask).as_py():
            batch = batch.filter(mask)
        ktype = batch.schema.field(key_col).type
        if batch.num_rows == 0:
            return pa.table({key_col: pa.array([], ktype),
                             **{c: pa.array([], pa.int64())
                                for c in cols}})
        gd = pc.dictionary_encode(batch[key_col].combine_chunks())
        codes = gd.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        x = batch[x_col].to_numpy(zero_copy_only=False)
        y = batch[y_col].to_numpy(zero_copy_only=False)
        g = len(gd.dictionary)
        sums = np.zeros((6, g), np.int64)
        np.add.at(sums[0], codes, 1)
        np.add.at(sums[1], codes, x)
        np.add.at(sums[2], codes, y)
        np.add.at(sums[3], codes, x * y)
        np.add.at(sums[4], codes, x * x)
        np.add.at(sums[5], codes, y * y)
        return pa.table({
            key_col: gd.dictionary,
            **{c: pa.array(sums[i]) for i, c in enumerate(cols)},
        })

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)

    def finalize(t: pa.Table) -> pa.Table:
        n, sx, sy, sxy, sxx, syy = (
            sum(t[c].to_pylist()) for c in cols)
        d1 = n * sxx - sx * sx
        d2 = n * syy - sy * sy
        if d1 == 0 or d2 == 0:
            r = None
        else:
            r = float(n * sxy - sx * sy) / math.sqrt(
                float(d1) * float(d2))
        return pa.table({
            key_col: t[key_col].slice(0, 1),
            "n": pa.array([n], pa.int64()),
            "r": pa.array([r], pa.float64()),
        })

    return partitioned_map(partials, each_group(finalize, [key_col]),
                           key=key_col, sort_keys=[key_col])


def group_moments(ds, *, key_col: str, y_col: str):
    """Exact per-group mean / population variance / skewness / excess
    kurtosis from integer sufficient statistics — the distribution-shape
    feature family next to :func:`group_linfit`/:func:`group_corr`.

    Same exchange shape: per-block ``(group, n, Σy, Σy², Σy³, Σy⁴)``
    int64 partials (``np.add.at`` over dictionary codes), ONE
    group-keyed exchange of O(blocks × groups) rows, Python-int combine.
    The outputs are a FIXED float64 op sequence from exact ints, written
    identically in SQL (HUGEINT central sums + explicit DOUBLE casts —
    NEVER ``skewness()``/``kurtosis()``, whose accumulation is
    floating-point, order-dependent AND sample-corrected):

        M2   = n·Σy² − Σy²ᵗ                       (exact int, = n²·m2)
        A3   = n²·Σy³ − 3n·Σy·Σy² + 2·Σy³ᵗ        (exact int, = n³·m3·n⁻¹·n⁴ form)
        A4   = n³·Σy⁴ − 4n²·Σy·Σy³ + 6n·Σy²ᵗ·Σy² − 3·Σy⁴ᵗ
        mean = double(Σy) / double(n)
        var  = double(M2) / double(n·n)
        skew = double(A3) / (double(M2) · sqrt(double(M2)))
        kurt = double(A4) / (double(M2) · double(M2)) − 3.0

    (sqrt is correctly rounded IEEE; no ``pow``.)  Zero-variance groups
    emit NULL skew/kurt; rows with NULL key or y drop.

    ``y_col`` must be pre-quantized int64.  Block-partial overflow guard:
    ``max|y|⁴ × block_rows`` must fit int64 — the partial raises with
    quantize-coarser guidance otherwise (the final combine is unbounded
    Python ints, so only the per-block bound matters).
    """
    cols = ("n", "s1", "s2", "s3", "s4")

    def partial(batch: pa.Table) -> pa.Table:
        if batch.schema.field(y_col).type != pa.int64():
            raise TypeError(f"{y_col} must be int64 (quantize first); "
                            f"got {batch.schema.field(y_col).type}")
        mask = pc.and_(pc.is_valid(batch[key_col]),
                       pc.is_valid(batch[y_col]))
        if not pc.all(mask).as_py():
            batch = batch.filter(mask)
        ktype = batch.schema.field(key_col).type
        if batch.num_rows == 0:
            return pa.table({key_col: pa.array([], ktype),
                             **{c: pa.array([], pa.int64())
                                for c in cols}})
        gd = pc.dictionary_encode(batch[key_col].combine_chunks())
        codes = gd.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        y = batch[y_col].to_numpy(zero_copy_only=False)
        m = int(np.abs(y).max())
        if m and m ** 4 * len(y) >= 2 ** 63:
            raise ValueError(
                f"max|y|={m} with {len(y)} rows overflows the int64 "
                "block partial for Σy⁴ — quantize y more coarsely")
        g = len(gd.dictionary)
        y2 = y * y
        sums = np.zeros((5, g), np.int64)
        np.add.at(sums[0], codes, 1)
        np.add.at(sums[1], codes, y)
        np.add.at(sums[2], codes, y2)
        np.add.at(sums[3], codes, y2 * y)
        np.add.at(sums[4], codes, y2 * y2)
        return pa.table({
            key_col: gd.dictionary,
            **{c: pa.array(sums[i]) for i, c in enumerate(cols)},
        })

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)

    def finalize(t: pa.Table) -> pa.Table:
        n, s1, s2, s3, s4 = (sum(t[c].to_pylist()) for c in cols)
        mean = float(s1) / float(n)
        m2 = n * s2 - s1 * s1
        var = float(m2) / float(n * n)
        if m2 == 0:
            skew = kurt = None
        else:
            a3 = n * n * s3 - 3 * n * s1 * s2 + 2 * s1 ** 3
            a4 = (n ** 3 * s4 - 4 * n * n * s1 * s3
                  + 6 * n * s1 * s1 * s2 - 3 * s1 ** 4)
            skew = float(a3) / (float(m2) * math.sqrt(float(m2)))
            kurt = float(a4) / (float(m2) * float(m2)) - 3.0
        return pa.table({
            key_col: t[key_col].slice(0, 1),
            "n": pa.array([n], pa.int64()),
            "mean": pa.array([mean], pa.float64()),
            "var_pop": pa.array([var], pa.float64()),
            "skew": pa.array([skew], pa.float64()),
            "kurt_excess": pa.array([kurt], pa.float64()),
        })

    return partitioned_map(partials, each_group(finalize, [key_col]),
                           key=key_col, sort_keys=[key_col])


def group_auc(ds, *, key_col: str, label_col: str, score_col: str,
              num_partitions: int = 16):
    """Exact per-group ROC AUC (Mann-Whitney U with tie-averaged ranks)
    — the model-eval primitive next to :func:`group_moments`.

    Exactness: with ``score_col`` pre-quantized int64 and ``label_col``
    int64 ∈ {0,1}, twice the tie-averaged rank of a row is the exact
    integer ``2·min_rank + tie_count − 1``, so

        AUC = (Σ_{y=1} 2r − n₊(n₊+1)) / (2·n₊·n₋)

    is ONE IEEE division of exact integers — SQL replays it
    bit-identically with ``rank()``/``count(*)`` windows and HUGEINT
    sums (NEVER a float ranking).

    One key-keyed exchange; the kernel ranks each group segment with
    one lexsort + tie-run masks (no per-group Python).  Rows with NULL
    key, label or score drop; single-class groups (n₊ or n₋ = 0) emit
    NULL.  Returns ``(key_col, n_pos:int64, n_neg:int64, auc:float64)``.
    """
    # key type captured once from the input schema so empty partitions
    # (including Ray's zero-column empty bundles) emit the SAME block
    # schema as non-empty ones — never a hardcoded int64
    base = ds.schema()
    base = getattr(base, "base_schema", base)
    ktype = base.field(key_col).type

    def prep(b: pa.Table) -> pa.Table:
        for c, t in ((label_col, pa.int64()), (score_col, pa.int64())):
            if b.schema.field(c).type != t:
                raise TypeError(f"{c} must be int64; got "
                                f"{b.schema.field(c).type}")
        mask = pc.and_(pc.and_(pc.is_valid(b[key_col]),
                               pc.is_valid(b[label_col])),
                       pc.is_valid(b[score_col]))
        if not pc.all(mask).as_py():
            b = b.filter(mask)
        return b.select([key_col, label_col, score_col])

    empty = pa.table({
        key_col: pa.array([], ktype),
        "n_pos": pa.array([], pa.int64()),
        "n_neg": pa.array([], pa.int64()),
        "auc": pa.array([], pa.float64())})

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        keys = t[key_col].combine_chunks()
        enc = pc.dictionary_encode(keys)
        codes = (pc.fill_null(enc.indices, -1)
                 .to_numpy(zero_copy_only=False).astype(np.int64))
        # partitioned_map delivered the partition sorted by
        # (key, score) — group runs are contiguous and internally
        # score-ordered, so no re-sort is needed
        c_s = codes
        y_s = t[label_col].to_numpy(zero_copy_only=False)
        s_s = t[score_col].to_numpy(zero_copy_only=False)
        g_start = np.concatenate([[True], c_s[1:] != c_s[:-1]])
        seg = np.cumsum(g_start) - 1
        g_first = np.flatnonzero(g_start)
        # tie runs within (group, score)
        run_start = np.concatenate(
            [[True], (c_s[1:] != c_s[:-1]) | (s_s[1:] != s_s[:-1])])
        run_id = np.cumsum(run_start) - 1
        run_first = np.flatnonzero(run_start)
        run_len = np.diff(np.concatenate([run_first, [len(c_s)]]))
        # min rank of a run = its first position within the group + 1
        pos_in_grp = np.arange(len(c_s)) - g_first[seg]
        min_rank = pos_in_grp[run_first] + 1
        two_r = (2 * min_rank + run_len - 1)[run_id]  # per row, exact
        n_grp = len(g_first)
        npos = np.zeros(n_grp, np.int64)
        np.add.at(npos, seg, y_s)
        ntot = np.bincount(seg, minlength=n_grp).astype(np.int64)
        nneg = ntot - npos
        sum2 = np.zeros(n_grp, np.int64)
        np.add.at(sum2, seg, np.where(y_s == 1, two_r, 0))
        ok = (npos > 0) & (nneg > 0)
        num = (sum2 - npos * (npos + 1)).astype(np.float64)
        den = (2 * npos * nneg).astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            auc = num / den
        return pa.table({
            key_col: keys.take(pa.array(g_first, pa.int64())),
            "n_pos": pa.array(npos),
            "n_neg": pa.array(nneg),
            "auc": pa.array(np.where(ok, auc, 0.0), pa.float64(),
                            mask=~ok),
        })

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, kernel, key=key_col,
                           sort_keys=[key_col, score_col],
                           num_partitions=num_partitions)


def group_weighted_stats(ds, *, key_col: str, y_col: str, w_col: str):
    """Exact per-group weighted mean / population variance
    (frequency-weight semantics) — the importance-weighted corpus
    aggregate next to :func:`group_moments`.

    Same exchange shape: per-block ``(group, n, Σw, Σwy, Σwy²)`` int64
    partials, one group-keyed exchange, Python-int combine; outputs are
    a FIXED float64 op sequence from exact ints, replayed bit-exactly
    by HUGEINT SQL:

        wmean = double(Σwy) / double(Σw)
        wvar  = double(Σw·Σwy² − Σwy·Σwy) / double(Σw·Σw)

    Groups with ``Σw == 0`` (or only dropped rows) emit NULL stats.
    ``y_col``/``w_col`` must be pre-quantized int64; rows with NULL
    key, y or w drop.  Block-partial overflow guard:
    ``max|w|·max|y|²·rows`` must fit int64.
    """
    cols = ("n", "sw", "swy", "swyy")

    def partial(batch: pa.Table) -> pa.Table:
        for c in (y_col, w_col):
            if batch.schema.field(c).type != pa.int64():
                raise TypeError(f"{c} must be int64 (quantize first); "
                                f"got {batch.schema.field(c).type}")
        mask = pc.and_(pc.and_(pc.is_valid(batch[key_col]),
                               pc.is_valid(batch[y_col])),
                       pc.is_valid(batch[w_col]))
        if not pc.all(mask).as_py():
            batch = batch.filter(mask)
        ktype = batch.schema.field(key_col).type
        if batch.num_rows == 0:
            return pa.table({key_col: pa.array([], ktype),
                             **{c: pa.array([], pa.int64())
                                for c in cols}})
        gd = pc.dictionary_encode(batch[key_col].combine_chunks())
        codes = gd.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        y = batch[y_col].to_numpy(zero_copy_only=False)
        w = batch[w_col].to_numpy(zero_copy_only=False)
        my = int(np.abs(y).max()) if len(y) else 0
        mw = int(np.abs(w).max()) if len(w) else 0
        if my and mw and mw * my * my * len(y) >= 2 ** 63:
            raise ValueError(
                f"max|w|·max|y|²·rows = {mw * my * my * len(y)} "
                "overflows the int64 block partial — quantize y/w "
                "more coarsely")
        g = len(gd.dictionary)
        sums = np.zeros((4, g), np.int64)
        np.add.at(sums[0], codes, 1)
        np.add.at(sums[1], codes, w)
        np.add.at(sums[2], codes, w * y)
        np.add.at(sums[3], codes, w * y * y)
        return pa.table({
            key_col: gd.dictionary,
            **{c: pa.array(sums[i]) for i, c in enumerate(cols)},
        })

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)

    def finalize(t: pa.Table) -> pa.Table:
        n, sw, swy, swyy = (sum(t[c].to_pylist()) for c in cols)
        if sw == 0:
            wmean = wvar = None
        else:
            wmean = float(swy) / float(sw)
            wvar = float(sw * swyy - swy * swy) / float(sw * sw)
        return pa.table({
            key_col: t[key_col].slice(0, 1),
            "n": pa.array([n], pa.int64()),
            "sum_w": pa.array([sw], pa.int64()),
            "wmean": pa.array([wmean], pa.float64()),
            "wvar": pa.array([wvar], pa.float64()),
        })

    return partitioned_map(partials, each_group(finalize, [key_col]),
                           key=key_col, sort_keys=[key_col])


def group_spearman(ds, *, key_col: str, x_col: str, y_col: str,
                   num_partitions: int = 16):
    """Exact per-group Spearman rank correlation — Pearson over
    tie-averaged ranks, with the ranks kept INTEGER (twice the
    tie-averaged rank is ``2·min_rank + tie_count − 1``, the
    :func:`group_auc` trick applied to both columns), so the sufficient
    statistics are exact ints and

        ρ = (n·Σab − Σa·Σb) / (√(n·Σa² − Σa²ᵗ) · √(n·Σb² − Σb²ᵗ))

    is a fixed float64 op sequence that SQL replays bit-identically
    with two ``rank()``/``count(*)`` windows and HUGEINT sums (NEVER a
    float ranking, NEVER ``corr()``).

    One keyed exchange (sorted by ``(key, x)`` — y-ranks need one
    in-kernel lexsort); Python-int combine per group (no overflow at
    any scale).  Rows with NULL key/x/y drop; groups with zero
    variance on either side (all-tied) emit NULL.  Returns
    ``(key_col, n:int64, rho:float64)``.
    """
    base = ds.schema()
    base = getattr(base, "base_schema", base)
    ktype = base.field(key_col).type

    def prep(b: pa.Table) -> pa.Table:
        for c in (x_col, y_col):
            if b.schema.field(c).type != pa.int64():
                raise TypeError(f"{c} must be int64 (quantize first); "
                                f"got {b.schema.field(c).type}")
        mask = pc.and_(pc.and_(pc.is_valid(b[key_col]),
                               pc.is_valid(b[x_col])),
                       pc.is_valid(b[y_col]))
        if not pc.all(mask).as_py():
            b = b.filter(mask)
        return b.select([key_col, x_col, y_col])

    empty = pa.table({key_col: pa.array([], ktype),
                      "n": pa.array([], pa.int64()),
                      "rho": pa.array([], pa.float64())})

    def _two_r(codes: np.ndarray, v: np.ndarray,
               g_first: np.ndarray, seg: np.ndarray) -> np.ndarray:
        """Twice the tie-averaged within-group rank of v, for rows
        already sorted by (group, v)."""
        run_start = np.concatenate(
            [[True], (codes[1:] != codes[:-1]) | (v[1:] != v[:-1])])
        run_id = np.cumsum(run_start) - 1
        run_first = np.flatnonzero(run_start)
        run_len = np.diff(np.concatenate([run_first, [len(v)]]))
        pos_in_grp = np.arange(len(v)) - g_first[seg]
        min_rank = pos_in_grp[run_first] + 1
        return (2 * min_rank + run_len - 1)[run_id]

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        keys = t[key_col].combine_chunks()
        enc = pc.dictionary_encode(keys)
        codes = (pc.fill_null(enc.indices, -1)
                 .to_numpy(zero_copy_only=False).astype(np.int64))
        x = t[x_col].to_numpy(zero_copy_only=False)
        y = t[y_col].to_numpy(zero_copy_only=False)
        g_start = np.concatenate([[True], codes[1:] != codes[:-1]])
        seg = np.cumsum(g_start) - 1
        g_first = np.flatnonzero(g_start)
        # x-ranks: rows arrive sorted by (key, x) from the exchange
        a = _two_r(codes, x, g_first, seg)
        # y-ranks: one lexsort into (key, y) order, rank, scatter back
        oy = np.lexsort((y, codes))
        b_sorted = _two_r(codes[oy], y[oy], g_first, seg)
        b = np.empty(len(y), np.int64)
        b[oy] = b_sorted
        # vectorized int64 sufficient stats; 2r ≤ 2n so every cell is
        # bounded by 4n³ — guarded so the math stays exact
        npg = len(g_first)
        n_arr = np.bincount(seg, minlength=npg).astype(np.int64)
        nmax = int(n_arr.max())
        if 4 * nmax ** 3 >= 2 ** 63:
            raise ValueError(
                f"a group of {nmax} rows overflows the int64 rank "
                "sufficient statistics — pre-aggregate or salt")
        sa = np.zeros(npg, np.int64)
        sb = np.zeros(npg, np.int64)
        sab = np.zeros(npg, np.int64)
        saa = np.zeros(npg, np.int64)
        sbb = np.zeros(npg, np.int64)
        np.add.at(sa, seg, a)
        np.add.at(sb, seg, b)
        np.add.at(sab, seg, a * b)
        np.add.at(saa, seg, a * a)
        np.add.at(sbb, seg, b * b)
        # d1/d2 exceed int64 at large n: compute in Python ints per
        # group (group-COUNT loop, never per row)
        rho = np.full(npg, np.nan)
        ok = np.zeros(npg, bool)
        for gi in range(npg):
            n_, sa_, sb_ = int(n_arr[gi]), int(sa[gi]), int(sb[gi])
            d1 = n_ * int(saa[gi]) - sa_ * sa_
            d2 = n_ * int(sbb[gi]) - sb_ * sb_
            if d1 and d2:
                ok[gi] = True
                rho[gi] = (float(n_ * int(sab[gi]) - sa_ * sb_)
                           / (math.sqrt(float(d1))
                              * math.sqrt(float(d2))))
        return pa.table({
            key_col: keys.take(pa.array(g_first, pa.int64())),
            "n": pa.array(n_arr),
            "rho": pa.array(np.where(ok, rho, 0.0), pa.float64(),
                            mask=~ok),
        })

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, kernel, key=key_col,
                           sort_keys=[key_col, x_col],
                           num_partitions=num_partitions)


def group_ab_test(ds, *, key_col: str, side_col: str, treat_value,
                  y_col: str):
    """Exact per-group Welch two-sample t statistic — the experiment-
    eval (A/B-test) aggregate: for each key, compare ``y`` between the
    treatment side (``side_col == treat_value``) and everything else.

    Same plan as :func:`group_weighted_stats`: per-block int64
    ``(group, n/Σy/Σy² per side)`` partials, one group-keyed exchange,
    Python-int combine (no overflow at any scale), then a FIXED float64
    op sequence from exact ints:

        mean_s = double(Σy_s) / double(n_s)
        var_s  = double(n_s·Σy²_s − Σy_s²) / double(n_s·(n_s−1))
        se2    = var_a/n_a + var_b/n_b          (two terms, fixed order)
        t      = (mean_a − mean_b) / sqrt(se2)
        df     = se2² / (u_a²/(n_a−1) + u_b²/(n_b−1)),  u_s = var_s/n_s

    so the HUGEINT SQL replay is bit-exact (sqrt is correctly rounded;
    division by zero yields NULL on both sides — groups with a
    degenerate side, n_s < 2 or zero pooled variance, emit NULL
    t/df).  ``y_col`` must be pre-quantized int64; rows with NULL
    key, side or y drop.  Returns ``(key_col, n_a, n_b, mean_a,
    mean_b, t_stat, df)``.
    """
    cols = ("na", "sa", "saa", "nb", "sb", "sbb")

    def partial(batch: pa.Table) -> pa.Table:
        if batch.schema.field(y_col).type != pa.int64():
            raise TypeError(f"{y_col} must be int64 (quantize first); "
                            f"got {batch.schema.field(y_col).type}")
        mask = pc.and_(pc.and_(pc.is_valid(batch[key_col]),
                               pc.is_valid(batch[y_col])),
                       pc.is_valid(batch[side_col]))
        if not pc.all(mask).as_py():
            batch = batch.filter(mask)
        ktype = batch.schema.field(key_col).type
        if batch.num_rows == 0:
            return pa.table({key_col: pa.array([], ktype),
                             **{c: pa.array([], pa.int64())
                                for c in cols}})
        gd = pc.dictionary_encode(batch[key_col].combine_chunks())
        codes = gd.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        y = batch[y_col].to_numpy(zero_copy_only=False)
        my = int(np.abs(y).max()) if len(y) else 0
        if my and my * my * len(y) >= 2 ** 63:
            raise ValueError(
                f"max|y|²·rows = {my * my * len(y)} overflows the "
                "int64 block partial — quantize y more coarsely")
        is_a = pc.equal(batch[side_col].combine_chunks(),
                        treat_value).to_numpy(zero_copy_only=False)
        g = len(gd.dictionary)
        sums = np.zeros((6, g), np.int64)
        for off, m in ((0, is_a), (3, ~is_a)):
            np.add.at(sums[off], codes[m], 1)
            np.add.at(sums[off + 1], codes[m], y[m])
            np.add.at(sums[off + 2], codes[m], y[m] * y[m])
        return pa.table({
            key_col: gd.dictionary,
            **{c: pa.array(sums[i]) for i, c in enumerate(cols)},
        })

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)

    def finalize(t: pa.Table) -> pa.Table:
        na, sa, saa, nb, sb, sbb = (sum(t[c].to_pylist()) for c in cols)
        mean_a = float(sa) / float(na) if na else None
        mean_b = float(sb) / float(nb) if nb else None
        t_stat = df = None
        if na >= 2 and nb >= 2:
            var_a = float(na * saa - sa * sa) / float(na * (na - 1))
            var_b = float(nb * sbb - sb * sb) / float(nb * (nb - 1))
            u_a = var_a / float(na)
            u_b = var_b / float(nb)
            se2 = u_a + u_b
            if se2 != 0.0:
                t_stat = (mean_a - mean_b) / sqrt(se2)
                dden = (u_a * u_a / float(na - 1)
                        + u_b * u_b / float(nb - 1))
                df = (se2 * se2) / dden if dden != 0.0 else None
        return pa.table({
            key_col: t[key_col].slice(0, 1),
            "n_a": pa.array([na], pa.int64()),
            "n_b": pa.array([nb], pa.int64()),
            "mean_a": pa.array([mean_a], pa.float64()),
            "mean_b": pa.array([mean_b], pa.float64()),
            "t_stat": pa.array([t_stat], pa.float64()),
            "df": pa.array([df], pa.float64()),
        })

    return partitioned_map(partials, each_group(finalize, [key_col]),
                           key=key_col, sort_keys=[key_col])


def calibration_bins(ds, *, pred_col: str, label_col: str,
                     n_bins: int = 10, quant_bits: int = 10):
    """Reliability / calibration table — bin predictions in [0, 1]
    into ``n_bins`` equal-width buckets and compare each bucket's mean
    prediction to its empirical label rate (the ECE inputs; the
    model-monitoring sibling of the q123 lift table).

    Exactness: predictions quantize half-up to a 2^``quant_bits`` grid
    (``floor(p·2^qb + 0.5)`` — the q116 cross-engine-safe quantizer);
    the bin is ``min(floor(p·n_bins), n_bins−1)`` (floor exact);
    per-bin ``(n, Σpred_q, Σy)`` are int64 combiner partials summed on
    the driver as Python ints (bins ≤ n_bins — no shuffle at all).
    ``avg_pred = double(Σpq)/double(n)/2^qb`` (second division by a
    power of two — exact), ``avg_label = double(Σy)/double(n)``,
    ``gap = abs(avg_pred − avg_label)`` — every float op is one
    correctly-rounded IEEE op, so SQL replays bit-for-bit.

    Rows with NULL pred/label or pred outside [0, 1] drop (documented;
    mirror the filter in SQL).  Labels must be 0/1 int64.  Emits one
    row per NON-EMPTY bin: ``(bin:int64, n:int64, sum_pred_q:int64,
    sum_label:int64, avg_pred:float64, avg_label:float64,
    gap:float64)``.
    """
    scale = float(1 << quant_bits)

    def partial(batch: pa.Table) -> pa.Table:
        p_col, y_col = batch[pred_col], batch[label_col]
        keep = pc.and_(pc.is_valid(p_col), pc.is_valid(y_col))
        if not pc.all(keep).as_py():
            batch = batch.filter(keep)
        p = batch[pred_col].to_numpy(zero_copy_only=False).astype(
            np.float64)
        y = batch[label_col].to_numpy(zero_copy_only=False).astype(
            np.int64)
        ok = (p >= 0.0) & (p <= 1.0)
        p, y = p[ok], y[ok]
        pq = np.floor(p * scale + 0.5).astype(np.int64)
        b = np.minimum(np.floor(p * n_bins), n_bins - 1).astype(
            np.int64)
        n = np.zeros(n_bins, np.int64)
        sp = np.zeros(n_bins, np.int64)
        sy = np.zeros(n_bins, np.int64)
        np.add.at(n, b, 1)
        np.add.at(sp, b, pq)
        np.add.at(sy, b, y)
        present = np.flatnonzero(n)
        return pa.table({"bin": pa.array(present),
                         "n": pa.array(n[present]),
                         "sp": pa.array(sp[present]),
                         "sy": pa.array(sy[present])})

    pds = ds.map_batches(partial, batch_format="pyarrow",
                         zero_copy_batch=True, batch_size=None)
    agg = sum_partials(ray.get(materialized_block_refs(pds)),
                       keys=["bin"], vals=["n", "sp", "sy"])
    bins, n, sp, sy = (
        np.empty(0, np.int64) if agg is None else agg[c].to_numpy()
        for c in ("bin", "n", "sp", "sy"))
    avg_p = sp.astype(np.float64) / n.astype(np.float64) / scale
    avg_y = sy.astype(np.float64) / n.astype(np.float64)
    return pa.table({
        "bin": pa.array(bins, pa.int64()), "n": pa.array(n),
        "sum_pred_q": pa.array(sp), "sum_label": pa.array(sy),
        "avg_pred": pa.array(avg_p), "avg_label": pa.array(avg_y),
        "gap": pa.array(np.abs(avg_p - avg_y)),
    })


def crosstab_chi2(ds, *, row_col: str, col_col: str):
    """Chi-square cross-tabulation — observed vs expected counts for
    every (row, col) category pair (the categorical-independence /
    distribution-association probe: is `source` independent of
    `lang`?).  Per-cell output lets the caller sum contributions into
    the chi² statistic in any deterministic order.

    One combiner count pass (per-block (row, col) partials to the
    driver — cells are |rows|×|cols|, no shuffle); margins and the
    test arithmetic run in unbounded Python ints: ``diff = O·N −
    R·C`` and ``diff²`` are EXACT integers, and the two emitted
    floats (``expected = double(R·C)/double(N)``, ``contrib =
    double(diff²)/double(N·R·C)``) are single correctly-rounded
    divisions — SQL (HUGEINT window sums, same casts) replays them
    bit-for-bit.  NULL categories drop on both sides.

    Emits one row per OBSERVED cell: ``(row_col, col_col,
    observed:int64, expected:float64, contrib:float64)``.
    """
    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(batch[row_col]),
                       pc.is_valid(batch[col_col]))
        if not pc.all(keep).as_py():
            batch = batch.filter(keep)
        if batch.num_rows == 0:
            return pa.table({
                "r": pa.array([], pa.string()),
                "c": pa.array([], pa.string()),
                "o": pa.array([], pa.int64())})
        t = pa.table({"r": batch[row_col].combine_chunks()
                      .cast(pa.string()),
                      "c": batch[col_col].combine_chunks()
                      .cast(pa.string())})
        g = t.group_by(["r", "c"]).aggregate([([], "count_all")])
        return pa.table({"r": g["r"], "c": g["c"],
                         "o": g["count_all"].cast(pa.int64())})

    pds = ds.map_batches(partial, batch_format="pyarrow",
                         zero_copy_batch=True)
    cells = sum_partials(ray.get(materialized_block_refs(pds)),
                         keys=["r", "c"], vals=["o"])
    if cells is None:
        return pa.table({row_col: pa.array([], pa.string()),
                         col_col: pa.array([], pa.string()),
                         "observed": pa.array([], pa.int64()),
                         "expected": pa.array([], pa.float64()),
                         "contrib": pa.array([], pa.float64())})

    def margin(k):
        t = sum_partials([cells], keys=[k], vals=["o"])
        return dict(zip(t[k].to_pylist(), t["o"].to_pylist()))

    rtot, ctot = margin("r"), margin("c")
    n = sum(rtot.values())
    exp, contrib = [], []
    for rv, cv, o in zip(*(cells[k].to_pylist() for k in ("r", "c", "o"))):
        r, c = rtot[rv], ctot[cv]
        exp.append(float(np.float64(r * c) / np.float64(n)))
        diff = o * n - r * c
        contrib.append(float(np.float64(diff * diff)
                             / np.float64(n * r * c)))
    return pa.table({
        row_col: cells["r"], col_col: cells["c"],
        "observed": cells["o"],
        "expected": pa.array(exp, pa.float64()),
        "contrib": pa.array(contrib, pa.float64()),
    })


def _ridge_rows(b: "pa.Table", vec_col: str, y_col: str,
                quant_bits: int, y_scale: int):
    """The ONE row-quantization step of the ridge family (fit_ridge /
    ridge_influence share it so the 'q169 contract' — identical
    integer sufficient statistics — cannot drift): ragged-list guard,
    half-even round-quantize, intercept column augment, target
    quantize.  Returns ``(qa, yq)``."""
    arr = b[vec_col].combine_chunks()
    mm = pc.min_max(pc.list_value_length(arr))
    if mm["min"].as_py() != mm["max"].as_py():
        raise ValueError(
            f"ridge: {vec_col} lists are ragged "
            f"({mm['min']}..{mm['max']} elements)")
    flat = arr.flatten().to_numpy(zero_copy_only=False)
    x = flat.reshape(len(arr), -1).astype(np.float64)
    qi = np.round(x * float(1 << quant_bits)).astype(np.int64)
    ones = np.full((len(qi), 1), 1 << quant_bits, np.int64)
    qa = np.concatenate([qi, ones], axis=1)
    yq = np.round(b[y_col].to_numpy(zero_copy_only=False)
                  .astype(np.float64) * y_scale).astype(np.int64)
    return qa, yq


def fit_ridge(ds, *, vec_col: str = "embedding", y_col: str = "label",
              lam_num: int = 1, lam_den: int = 1, quant_bits: int = 10,
              y_scale: int = 1, num_partitions: int = 4) -> pa.Table:
    """Distributed ridge regression — closed-form fit of
    ``y ~ [X, 1]`` from EXACT integer sufficient statistics (the q92
    PCA pattern extended with the cross-moment vector): the 100-TB
    linear-model trainer (one corpus pass, d²-sized shuffle, driver
    solve).

    Per block, vectors quantize to ``round(x·2^qb)`` and targets to
    ``round(y·y_scale)``; the int64 partials ``XᵀX, Xᵀy, Σy, n`` (with
    the augmented all-ones intercept column) merge by addition on ONE
    cell-keyed exchange — order-independent-exact, so the float
    matrices reconstructed on the driver are IDENTICAL to a serial
    replay and ``np.linalg.solve`` returns bit-identical
    coefficients.  λ (an exact rational ``lam_num/lam_den``) applies
    to the non-intercept diagonal.

    Returns a small ``pa.Table`` ``(j:int64, coef:float64)`` with
    ``j = d`` the intercept.  No SQL oracle (the solve); the q169
    fixture replays the identical arithmetic serially.

    Reference analog: the reference's Ridge zoo entry
    (selection/quickmethod.py dict_method 'Ridge-em') fits in-memory
    via sklearn; this is its distributed sufficient-statistics
    counterpart, like `selection/models.py` is the in-memory one.
    """
    def partial(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(b[vec_col]), pc.is_valid(b[y_col]))
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        if b.num_rows == 0:
            return pa.table({"cell": pa.array([], pa.int64()),
                             "val": pa.array([], pa.int64())})
        qa, yq = _ridge_rows(b, vec_col, y_col, quant_bits, y_scale)
        d1 = qa.shape[1]
        g = qa.T @ qa
        xty = qa.T @ yq
        cells = np.concatenate([
            np.arange(d1 * d1, dtype=np.int64),
            d1 * d1 + np.arange(d1, dtype=np.int64),
            [d1 * d1 + d1]])
        vals = np.concatenate([g.ravel(), xty, [len(qa)]])
        return pa.table({"cell": pa.array(cells),
                         "val": pa.array(vals)})

    def combine(t: pa.Table) -> pa.Table:
        cells = t["cell"].to_numpy(zero_copy_only=False)
        vals = t["val"].to_numpy(zero_copy_only=False)
        uc, inv = np.unique(cells, return_inverse=True)
        sums = np.zeros(len(uc), np.int64)
        np.add.at(sums, inv, vals)
        return pa.table({"cell": pa.array(uc), "val": pa.array(sums)})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)
    stats = partitioned_refs(partials, combine, key="cell",
                             sort_keys=["cell"],
                             num_partitions=num_partitions)
    blocks = [b for b in ray.get(stats) if b.num_rows > 0]
    if not blocks:
        raise ValueError("fit_ridge: empty input")
    st = pa.concat_tables(blocks)
    cells = st["cell"].to_numpy(zero_copy_only=False)
    vals = st["val"].to_numpy(zero_copy_only=False)
    total = int(cells.max()) + 1
    flat = np.zeros(total, np.int64)
    flat[cells] = vals
    d1 = int(round((-1 + np.sqrt(1 + 4 * (total - 1))) / 2))
    coef = ridge_solve(flat[:d1 * d1].reshape(d1, d1),
                       flat[d1 * d1:d1 * d1 + d1], int(flat[-1]),
                       quant_bits, y_scale, lam_num, lam_den)
    return pa.table({"j": pa.array(np.arange(d1, dtype=np.int64)),
                     "coef": pa.array(coef, pa.float64())})


def ridge_solve(g_int: np.ndarray, xty_int: np.ndarray, n: int,
                quant_bits: int, y_scale: int, lam_num: int,
                lam_den: int) -> np.ndarray:
    """The ONE float path of :func:`fit_ridge`, shared with the serial
    replay so both sides execute the identical op sequence."""
    s2 = float(1 << (2 * quant_bits))
    sy = float((1 << quant_bits) * y_scale)
    G = g_int.astype(np.float64) / s2
    b = xty_int.astype(np.float64) / sy
    lam = (np.float64(lam_num) / np.float64(lam_den)) * np.float64(n)
    A = G.copy()
    idx = np.arange(len(G) - 1)          # regularize all but intercept
    A[idx, idx] += lam
    return np.linalg.solve(A, b)


def wilson_rates(ds, *, key_col: str, success_col: str,
                 z: float = 1.96, num_partitions: int = 8):
    """Per-key success rate with the Wilson-score LOWER bound — the
    "rank by confidence-adjusted rate" primitive (small-sample keys
    stop outranking well-measured ones; the standard fix for sorting
    by raw conversion/success rates).

    ``success_col`` must be 0/1 int64.  Per-key ``(n, k)`` are exact
    int64 combiner partials on one key-keyed exchange; the bound is
    ONE fixed sequence of correctly-rounded IEEE ops —

        p̂ = k/n;  a = z²/(2n);  b = z·sqrt((p̂·(1−p̂) + z²/(4n))/n)
        lb = (p̂ + a − b) / (1 + z²/n)

    written identically in SQL (same literal z parses to the same
    double), so the replay is bit-exact.  Keys with n = 0 cannot occur
    (a key exists only via rows); NULL keys/successes drop.

    Emits ``(key_col, n:int64, k:int64, rate:float64,
    wilson_lb:float64)``.
    """
    z = np.float64(z)
    z2 = z * z

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(batch[key_col]),
                       pc.is_valid(batch[success_col]))
        if not pc.all(keep).as_py():
            batch = batch.filter(keep)
        ktype = batch.schema.field(key_col).type
        if batch.num_rows == 0:
            return pa.table({key_col: pa.array([], ktype),
                             "n": pa.array([], pa.int64()),
                             "k": pa.array([], pa.int64())})
        gd = pc.dictionary_encode(batch[key_col].combine_chunks())
        codes = gd.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)
        s = batch[success_col].to_numpy(zero_copy_only=False).astype(
            np.int64)
        g = len(gd.dictionary)
        n = np.bincount(codes, minlength=g).astype(np.int64)
        k = np.zeros(g, np.int64)
        np.add.at(k, codes, s)
        return pa.table({key_col: gd.dictionary,
                         "n": pa.array(n), "k": pa.array(k)})

    def combine(t: pa.Table) -> pa.Table:
        gd = pc.dictionary_encode(t[key_col].combine_chunks())
        g = len(gd.dictionary)
        codes = gd.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)
        n = np.zeros(g, np.int64)
        k = np.zeros(g, np.int64)
        np.add.at(n, codes, t["n"].to_numpy(zero_copy_only=False))
        np.add.at(k, codes, t["k"].to_numpy(zero_copy_only=False))
        nf = n.astype(np.float64)
        kf = k.astype(np.float64)
        phat = kf / nf
        a = z2 / (2.0 * nf)
        b = z * np.sqrt((phat * (1.0 - phat) + z2 / (4.0 * nf)) / nf)
        lb = (phat + a - b) / (1.0 + z2 / nf)
        return pa.table({
            key_col: gd.dictionary, "n": pa.array(n),
            "k": pa.array(k), "rate": pa.array(phat, pa.float64()),
            "wilson_lb": pa.array(lb, pa.float64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)
    return partitioned_map(partials, combine, key=key_col,
                           sort_keys=[key_col],
                           num_partitions=num_partitions)


def group_ks_drift(ds, *, key_col: str, side_col: str,
                   value_col: str, num_partitions: int = 16):
    """Per-key two-sample Kolmogorov–Smirnov statistic between the
    ``side = 0`` and ``side = 1`` samples of ``value_col`` — the
    distribution-level drift test (early-vs-late, control-vs-treatment)
    that catches shape changes the mean/share monitors (q133, q143)
    miss.

    Exactness: with ties, ``D = max over distinct v of
    |F0(v) − F1(v)|`` evaluated at run-END cumulative counts; the
    maximand cross-multiplies to EXACT int64 ``|c0·n1 − c1·n0|`` (no
    float in the argmax), and ``ks_d`` is one double/double division
    of the exact maximum.  SQL replays with RANGE-frame window sums
    (run-end semantics) + the identical division.  Keys missing one
    side emit NULL ``ks_d``; NULL/non-finite values drop (mirror
    in SQL).

    ONE key-keyed exchange sorted ``(key, value)``.  Emits
    ``(key_col, n0:int64, n1:int64, d_num:int64, ks_d:float64)``.
    """
    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    ktype = base.field(key_col).type

    def prep(b: pa.Table) -> pa.Table:
        # fill_null BEFORE pc.all: Arrow's and_ is non-Kleene (false
        # AND null = null) and pc.all IGNORES nulls, so an all-true-or-
        # null mask would silently skip the filter and let NaN/null
        # rows through
        keep = pc.fill_null(
            pc.and_(pc.and_(pc.is_valid(b[key_col]),
                            pc.is_valid(b[side_col])),
                    pc.and_(pc.is_valid(b[value_col]),
                            pc.is_finite(b[value_col]))), False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        return pa.table({key_col: b[key_col],
                         "__v": pc.cast(b[value_col].combine_chunks(),
                                        pa.float64()),
                         "__s": pc.cast(b[side_col].combine_chunks(),
                                        pa.int64())})

    def kernel(t: pa.Table) -> pa.Table:
        empty = pa.table({key_col: pa.array([], ktype),
                          "n0": pa.array([], pa.int64()),
                          "n1": pa.array([], pa.int64()),
                          "d_num": pa.array([], pa.int64()),
                          "ks_d": pa.array([], pa.float64())})
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        keys = t[key_col].combine_chunks()
        codes = pc.dictionary_encode(keys).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        v = t["__v"].to_numpy(zero_copy_only=False)
        s = t["__s"].to_numpy(zero_copy_only=False)
        a = (s == 0).astype(np.int64)
        b_ = 1 - a
        # rows sorted by (key, value): run-end cumulative counts per
        # key segment at each distinct value
        seg_start = np.flatnonzero(np.concatenate(
            [[True], codes[1:] != codes[:-1]]))
        run_id = np.cumsum(np.concatenate(
            [[0], (codes[1:] != codes[:-1]).astype(np.int64)]))
        ca = np.cumsum(a)
        cb = np.cumsum(b_)
        base_a = np.concatenate([[0], ca])[seg_start]
        base_b = np.concatenate([[0], cb])[seg_start]
        ca_seg = ca - base_a[run_id]
        cb_seg = cb - base_b[run_id]
        last_of_run = np.concatenate(
            [(codes[1:] != codes[:-1]) | (v[1:] != v[:-1]), [True]])
        n_keys = int(codes.max()) + 1
        n0 = np.zeros(n_keys, np.int64)
        n1 = np.zeros(n_keys, np.int64)
        np.add.at(n0, codes, a)
        np.add.at(n1, codes, b_)
        diff = np.abs(ca_seg * n1[codes] - cb_seg * n0[codes])
        dmax = np.zeros(n_keys, np.int64)
        sel = np.flatnonzero(last_of_run)
        np.maximum.at(dmax, codes[sel], diff[sel])
        both = (n0 > 0) & (n1 > 0)
        ks = dmax.astype(np.float64) / np.maximum(
            n0 * n1, 1).astype(np.float64)
        first_rows = np.searchsorted(codes, np.arange(n_keys))
        return pa.table({
            key_col: keys.take(pa.array(first_rows, pa.int64())),
            "n0": pa.array(n0), "n1": pa.array(n1),
            "d_num": pa.array(dmax),
            "ks_d": pa.array(ks, pa.float64(), mask=~both),
        })

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, kernel, key=key_col,
                           sort_keys=[key_col, "__v"],
                           num_partitions=num_partitions)


def group_theil_sen(ds, *, key_col: str, x_col: str, y_col: str,
                    max_group: int = 2048, num_partitions: int = 16):
    """Per-key Theil–Sen robust trend: the MEDIAN of all pairwise
    slopes ``(y_j − y_i)/(x_j − x_i)`` over pairs with ``x_j > x_i``
    (equal-x pairs contribute no slope).  Up to 29.3% outlier-corrupted
    points cannot move the estimate — the robust alternative to
    ``group_linfit`` for drift/trend features over noisy telemetry.

    Shape: one key-keyed exchange; the kernel enumerates each key's
    pair triangle fully vectorized (per-segment triangular index
    decode, no Python loop) and picks the per-key median by one lexsort
    — O(P log P) in the partition's pair count.  Pairs are O(n²) per
    key, so keys with more than ``max_group`` points are DROPPED from
    the output (logged skip, mirrored by the oracle's HAVING — the q42
    bounded-group convention); keys with fewer than 2 distinct-x points
    emit ``n_pairs=0, slope=NULL``.

    Exactness: every slope is one float64 subtraction pair + one
    division, identical in SQL; the median is the quantile_disc
    ELEMENT at rank ``max(ceil(n/2)−1, 0)`` (DuckDB's discrete
    quantile), so no averaging ever happens — the value replays
    bit-exactly.  Non-finite ``y`` rows are filtered on both sides.

    Reference analog: none (robust statistics are absent from the
    reference); the distributed analog of scipy's ``theilslopes`` as a
    grouped feature.
    """
    def prep(b: pa.Table) -> pa.Table:
        y = b[y_col].combine_chunks()
        if not pa.types.is_floating(y.type):
            y = y.cast(pa.float64())
        keep = pc.and_(pc.is_valid(b[key_col]),
                       pc.fill_null(pc.is_finite(y), False))
        x = b[x_col].combine_chunks()
        if pa.types.is_timestamp(x.type):
            x = x.cast(pa.int64())
        keep = pc.fill_null(pc.and_(keep, pc.is_valid(x)), False)
        t = pa.table({key_col: b[key_col], "__x": x,
                      "__y": y.cast(pa.float64())})
        if not pc.all(keep).as_py():
            t = t.filter(keep)
        return t

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)

    key_type = ds.schema()
    key_type = getattr(key_type, "base_schema", key_type).field(
        key_col).type
    empty = pa.table({key_col: pa.array([], key_type),
                      "n_points": pa.array([], pa.int64()),
                      "n_pairs": pa.array([], pa.int64()),
                      "slope": pa.array([], pa.float64())})

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        keys = t[key_col].combine_chunks()
        x = t["__x"].to_numpy(zero_copy_only=False)
        y = t["__y"].to_numpy(zero_copy_only=False)
        codes = pc.dictionary_encode(keys).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        new_run = np.concatenate([[True], codes[1:] != codes[:-1]])
        starts = np.flatnonzero(new_run)
        lens = np.diff(np.concatenate([starts, [len(codes)]]))
        keep_seg = lens <= max_group
        n_skip = int((~keep_seg).sum())
        if n_skip:
            logging.getLogger(__name__).warning(
                "group_theil_sen: skipped %d keys with > %d points",
                n_skip, max_group)
        sl, ss = lens[keep_seg], starts[keep_seg]
        # per-segment triangular pair enumeration, fully vectorized
        from ..functions.segments import triangular_pairs

        i_glob, j_glob, gid = triangular_pairs(ss, sl)
        dx = x[j_glob] - x[i_glob]
        m = dx > 0
        gid, dx = gid[m], dx[m]
        slopes = (y[j_glob[m]] - y[i_glob[m]]) / dx
        n_pairs = np.bincount(gid, minlength=len(sl)).astype(np.int64)
        g_start = np.cumsum(n_pairs) - n_pairs
        rank = np.maximum(np.ceil(n_pairs / 2).astype(np.int64) - 1, 0)
        has = n_pairs > 0
        slope = np.full(len(sl), np.nan)
        if len(slopes):
            slope[has] = slopes[np.lexsort((slopes, gid))][
                (g_start + rank)[has]]
        return pa.table({
            key_col: keys.take(pa.array(ss, pa.int64())),
            "n_points": pa.array(sl.astype(np.int64)),
            "n_pairs": pa.array(n_pairs),
            "slope": pa.array(slope, pa.float64(), mask=~has),
        })

    return partitioned_map(prepped, kernel, key=key_col,
                           sort_keys=[key_col, "__x"],
                           num_partitions=num_partitions)


def kendall_tau(ds, *, key_col: str, x_col: str, y_col: str,
                max_group: int = 8192, num_partitions: int = 16):
    """Per-key Kendall tau-b rank correlation between ``x`` (usually
    time) and ``y`` (usually a metric) — the tie-corrected concordance
    trend test: the ordinal companion of :func:`group_theil_sen`
    (which estimates slope MAGNITUDE; tau measures monotone
    DIRECTION strength, robust to any monotone transform of either
    axis).

        tau_b = (C − D) / sqrt((n0 − n1)·(n0 − n2))

    with C/D concordant/discordant pairs, ``n0 = n(n−1)/2``, ``n1`` /
    ``n2`` the x- / y-tied pair counts (both-tied pairs count in
    each, the standard tau-b convention).

    Exactness: ``y`` quantizes to int64 cents (exact tie classes);
    timestamps cast to int64 native units; C−D, n1, n2 are exact
    integer pair counts, and with the ``max_group`` cap the
    denominator product is ≤ (max_group²/2)² < 2^53, so
    ``double(cd)/sqrt(double((n0−n1)(n0−n2)))`` is a fixed
    correctly-rounded op sequence DuckDB replays bit-exactly (the
    all-pairs self-join oracle).  Degenerate keys (all x tied or all
    y tied) emit NULL tau; single-row keys emit nothing (the SQL
    pair join has no row to aggregate).

    Shape: ONE key-keyed exchange; the kernel enumerates pair
    triangles fully vectorized (shared ``triangular_pairs`` decode).
    Keys with more than ``max_group`` rows are dropped with a logged
    warning (the q42/theil_sen bounded-group convention; the
    documented scale path for mega-keys is O(n log n) merge-sort
    inversion counting — not needed at current group sizes).

    Returns ``(key_col, n:int64, cd:int64, tau:float64)``.
    Reference analog: none — companion of group_spearman (which
    ranks globally per group; tau-b is the pair-concordance view).
    """
    from ..functions.segments import cents_exact, triangular_pairs

    def prep(b: pa.Table) -> pa.Table:
        x = b[x_col].combine_chunks()
        if pa.types.is_timestamp(x.type):
            x = x.cast(pa.int64())
        keep = pc.and_(pc.and_(pc.is_valid(b[key_col]),
                               pc.is_valid(x)),
                       pc.is_valid(b[y_col]))
        keep = pc.fill_null(keep, False)
        t = pa.table({key_col: b[key_col], "__x": x,
                      "__v": b[y_col]})
        if not pc.all(keep).as_py():
            t = t.filter(keep)
        cents = cents_exact(t["__v"].combine_chunks(), col=y_col)
        return pa.table({key_col: t[key_col], "__x": t["__x"],
                         "__y": pa.array(cents)})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)

    key_type = ds.schema()
    key_type = getattr(key_type, "base_schema", key_type).field(
        key_col).type
    empty = pa.table({key_col: pa.array([], key_type),
                      "n": pa.array([], pa.int64()),
                      "cd": pa.array([], pa.int64()),
                      "tau": pa.array([], pa.float64())})

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        keys = t[key_col].combine_chunks()
        x = t["__x"].to_numpy(zero_copy_only=False)
        y = t["__y"].to_numpy(zero_copy_only=False)
        codes = pc.dictionary_encode(keys).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        new_run = np.concatenate([[True], codes[1:] != codes[:-1]])
        starts = np.flatnonzero(new_run)
        lens = np.diff(np.concatenate([starts, [len(codes)]]))
        keep_seg = (lens <= max_group) & (lens >= 2)
        n_skip = int((lens > max_group).sum())
        if n_skip:
            logging.getLogger(__name__).warning(
                "kendall_tau: skipped %d keys with > %d points",
                n_skip, max_group)
        sl, ss = lens[keep_seg], starts[keep_seg]
        if len(sl) == 0:
            return empty
        i_glob, j_glob, gid = triangular_pairs(ss, sl)
        # rows sorted by (key, __x): x[i] <= x[j] within a pair
        x_tie = x[i_glob] == x[j_glob]
        dy = np.sign(y[j_glob] - y[i_glob]).astype(np.int64)
        s = np.where(x_tie, 0, dy)
        nseg = len(sl)
        cd = np.bincount(gid, weights=s, minlength=nseg).astype(
            np.int64)
        n1 = np.bincount(gid, weights=x_tie, minlength=nseg).astype(
            np.int64)
        n2 = np.bincount(gid, weights=(dy == 0),
                         minlength=nseg).astype(np.int64)
        n0 = sl * (sl - 1) // 2
        den = (n0 - n1) * (n0 - n2)  # <= (max_group^2/2)^2 < 2^53
        has = den > 0
        tau = np.full(nseg, np.nan)
        tau[has] = cd[has].astype(np.float64) / np.sqrt(
            den[has].astype(np.float64))
        return pa.table({
            key_col: keys.take(pa.array(ss, pa.int64())),
            "n": pa.array(sl.astype(np.int64)),
            "cd": pa.array(cd),
            "tau": pa.array(tau, pa.float64(), mask=~has)})

    return partitioned_map(prepped, kernel, key=key_col,
                           sort_keys=[key_col, "__x"],
                           num_partitions=num_partitions)


def cohen_kappa(ds, *, group_col: str, rater_a_col: str,
                rater_b_col: str):
    """Cohen's kappa inter-rater agreement per group — the standard
    labeling-QA audit for a training-data pipeline: given two binary
    rater columns (heuristic quality flags, weak labelers, model vs
    human), how much do they agree beyond chance?

    Exactness: per group the 2x2 contingency ``(n11, n10, n01, n00)``
    accumulates as int64 block partials (dense ``code*4 + cell``
    bincount) and combines on the DRIVER as Python ints (groups are
    few — no shuffle at all, the calibration_bins shape).  Kappa uses
    the margin form::

        kappa = (N*(n11+n00) - (r1*c1 + r0*c0)) / (N^2 - (r1*c1+r0*c0))

    with ``r1 = n11+n10`` (rater-a positives), ``c1 = n11+n01`` —
    ONE division of exact integers, so DuckDB replays it bit-for-bit
    (HUGEINT products, CAST ... AS DOUBLE on each side).  Python-int
    accumulation keeps ``N^2`` exact past 2^63 at 100 TB counts;
    ``float()`` of an exact int is correctly rounded, matching SQL's
    HUGEINT->DOUBLE cast.  Degenerate groups where chance agreement
    is total (``N^2 == r1*c1 + r0*c0``, e.g. a rater is constant)
    emit NULL kappa (SQL: NULLIF on the denominator).

    Rows with a NULL group or NULL rater value drop (mirror in SQL).
    Rater columns must be 0/1 integers (booleans cast upstream).
    Reference analog: none; companion of ``crosstab_chi2`` /
    ``calibration_bins`` in the model/label QA family.
    """
    def partial(b: pa.Table) -> pa.Table:
        gtype = b.schema.field(group_col).type
        empty = pa.table({group_col: pa.array([], gtype),
                          "cell": pa.array([], pa.int64()),
                          "n": pa.array([], pa.int64())})
        keep = pc.and_(pc.is_valid(b[group_col]),
                       pc.and_(pc.is_valid(b[rater_a_col]),
                               pc.is_valid(b[rater_b_col])))
        keep = pc.fill_null(keep, False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        if b.num_rows == 0:
            return empty
        a = b[rater_a_col].to_numpy(zero_copy_only=False).astype(
            np.int64)
        r = b[rater_b_col].to_numpy(zero_copy_only=False).astype(
            np.int64)
        if ((a < 0) | (a > 1) | (r < 0) | (r > 1)).any():
            raise ValueError("cohen_kappa: rater columns must be 0/1")
        gd = pc.dictionary_encode(b[group_col].combine_chunks())
        codes = gd.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)
        # cell 0 = (1,1), 1 = (1,0), 2 = (0,1), 3 = (0,0)
        cell = (1 - a) * 2 + (1 - r)
        k = codes * 4 + cell
        uk, inv = np.unique(k, return_inverse=True)
        n = np.zeros(len(uk), np.int64)
        np.add.at(n, inv, 1)
        return pa.table({
            group_col: gd.dictionary.take(pa.array(uk // 4,
                                                   pa.int64())),
            "cell": pa.array((uk % 4).astype(np.int64)),
            "n": pa.array(n)})

    pds = ds.map_batches(partial, batch_format="pyarrow",
                         zero_copy_batch=True, batch_size=None)
    agg = sum_partials(ray.get(materialized_block_refs(pds)),
                       keys=[group_col, "cell"], vals=["n"])
    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    gtype = base.field(group_col).type
    if agg is None:
        agg = pa.table({group_col: pa.array([], gtype),
                        "cell": pa.array([], pa.int64()),
                        "n": pa.array([], pa.int64())})
    # the table is sorted by group, so dictionary codes count up
    enc = pc.dictionary_encode(agg[group_col].combine_chunks())
    cells = np.zeros((len(enc.dictionary), 4), np.int64)
    gi = enc.indices.to_numpy()
    cells[gi, agg["cell"].to_numpy()] = agg["n"].to_numpy()
    groups = enc.dictionary
    n11, n10, n01, n00 = (cells[:, i].tolist() for i in range(4))
    kappa = []
    for a11, a10, a01, a00 in zip(n11, n10, n01, n00):
        n = a11 + a10 + a01 + a00          # Python ints: exact
        chance = ((a11 + a10) * (a11 + a01)
                  + (a00 + a01) * (a00 + a10))
        den = n * n - chance
        kappa.append(None if den == 0
                     else float(n * (a11 + a00) - chance)
                     / float(den))
    return pa.table({
        group_col: groups.cast(gtype),
        "n": pa.array([a + b_ + c + d for a, b_, c, d
                       in zip(n11, n10, n01, n00)], pa.int64()),
        "n11": pa.array(n11, pa.int64()),
        "n10": pa.array(n10, pa.int64()),
        "n01": pa.array(n01, pa.int64()),
        "n00": pa.array(n00, pa.int64()),
        "kappa": pa.array(kappa, pa.float64())})


def mann_whitney(ds, *, group_col: str, side_col: str,
                 value_col: str, num_partitions: int = 32):
    """Mann-Whitney U (Wilcoxon rank-sum) test per group — the
    nonparametric A/B shift test the q143 rate test can't provide:
    does side A's value DISTRIBUTION sit above side B's?  Robust to
    heavy tails, the standard guardrail-metric test.

    ``side_col`` must be an int64 0/1 indicator (1 = treatment side
    A).  Values quantize to int64 cents (tie classes = exact integer
    equality); rows with NULL group/side/value drop.

    Exactness: within each group the tie-averaged rank of a run of
    ``t`` equal values starting at 1-based ``minrank`` is
    ``(2·minrank + t − 1)/2`` — kept DOUBLED so everything stays in
    integers (the q122 AUC trick): ``u2 = 2·U1 = Σ_A (2·minrank +
    t − 1) − n1·(n1+1)``.  With the tie term ``T = Σ(t³−t)`` the
    normal-approximation z-score is

        z = double(u2 − n1·n2)
            / sqrt(double(n1·n2·(n³−n−T)) / double(3·n·(n−1)))

    — two exact-int casts, one division, one sqrt, one division, all
    correctly-rounded IEEE ops, so DuckDB (HUGEINT products) replays
    bit-for-bit.  Degenerate groups (a side empty, n < 2, or all
    values tied) emit NULL z.  Integer accumulation is Python-int on
    the per-group summaries (exact past 2^63 at 100 TB counts).

    ONE group-keyed exchange; ranks/ties are run-length arithmetic.
    Output: ``(group, n1, n2, u2, z)``.  Reference analog: none —
    companion of group_auc / ab_test / ks_drift.
    """
    from ..functions.segments import cents_exact

    def prep(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.and_(pc.is_valid(b[group_col]),
                               pc.is_valid(b[side_col])),
                       pc.is_valid(b[value_col]))
        keep = pc.fill_null(keep, False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        cents = cents_exact(b[value_col].combine_chunks(),
                            col=value_col)
        g = b[side_col].to_numpy(zero_copy_only=False).astype(
            np.int64)
        if ((g < 0) | (g > 1)).any():
            raise ValueError("mann_whitney: side_col must be 0/1")
        return pa.table({group_col: b[group_col],
                         "__y": pa.array(cents),
                         "__a": pa.array(g)})

    def kernel(t: pa.Table) -> pa.Table:
        ktype = t.schema.field(group_col).type
        empty = pa.table({group_col: pa.array([], ktype),
                          "n1": pa.array([], pa.int64()),
                          "n2": pa.array([], pa.int64()),
                          "u2": pa.array([], pa.int64()),
                          "z": pa.array([], pa.float64())})
        if t.num_rows == 0:
            return empty
        keys = t[group_col].combine_chunks()
        codes = pc.dictionary_encode(keys).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        y = t["__y"].to_numpy(zero_copy_only=False)
        a = t["__a"].to_numpy(zero_copy_only=False)
        gnew = np.concatenate([[True], codes[1:] != codes[:-1]])
        gstarts = np.flatnonzero(gnew)
        glens = np.diff(np.append(gstarts, len(codes)))
        # tie runs of equal cents within a group (rows sorted by
        # (group, y))
        rnew = gnew | np.concatenate([[True], y[1:] != y[:-1]])
        rstarts = np.flatnonzero(rnew)
        rlens = np.diff(np.append(rstarts, len(codes)))
        r_seg = (np.cumsum(gnew) - 1)[rstarts]       # group of run
        # 1-based minrank of each run within its group
        minrank = rstarts - gstarts[r_seg] + 1
        # A-count per run
        ca = np.add.reduceat(a, rstarts)
        # per-group reductions over runs
        gfirst = np.concatenate([[True], r_seg[1:] != r_seg[:-1]])
        gr_starts = np.flatnonzero(gfirst)
        two_r1 = np.add.reduceat(
            ca * (2 * minrank + rlens - 1), gr_starts)
        n1 = np.add.reduceat(ca, gr_starts)
        # exact Python-int finish per group (few groups; runs are
        # contiguous per group so each T is one slice sum)
        rows_n1, rows_n2, rows_u2, rows_z = [], [], [], []
        run_bounds = np.append(gr_starts, len(rlens))
        for gi in range(len(gstarts)):
            n = int(glens[gi])
            n1i = int(n1[gi])
            n2i = n - n1i
            T = sum(int(l) ** 3 - int(l) for l in
                    rlens[run_bounds[gi]:run_bounds[gi + 1]])
            u2 = int(two_r1[gi]) - n1i * (n1i + 1)
            rows_n1.append(n1i)
            rows_n2.append(n2i)
            rows_u2.append(u2)
            num = n1i * n2i * (n ** 3 - n - T)
            den = 3 * n * (n - 1) if n > 1 else 0
            if n1i == 0 or n2i == 0 or den == 0 or num == 0:
                rows_z.append(None)
            else:
                rows_z.append(
                    float(u2 - n1i * n2i)
                    / float(np.sqrt(float(num) / float(den))))
        return pa.table({
            group_col: keys.take(pa.array(gstarts, pa.int64())),
            "n1": pa.array(rows_n1, pa.int64()),
            "n2": pa.array(rows_n2, pa.int64()),
            "u2": pa.array(rows_u2, pa.int64()),
            "z": pa.array(rows_z, pa.float64())})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, kernel, key=group_col,
                           sort_keys=[group_col, "__y"],
                           num_partitions=num_partitions)


def did_estimate(ds, *, group_col: str, side_col: str, ts_col: str,
                 value_col: str, cut_num: int = 4, cut_den: int = 5):
    """Difference-in-differences estimator per group — the standard
    quasi-experimental read of a launch: how much more did the
    treatment side's mean value move across the cut time than the
    control side's?

        did = (m_t_post − m_t_pre) − (m_c_post − m_c_pre)

    The cut is ``min_ts + (max_ts − min_ts) · num // den`` (exact
    integer arithmetic, the q217 split convention).  Values quantize
    to int64 cents; each mean is ONE division of exact ints, and the
    three subtractions run in a fixed order — DuckDB replays the
    double bit-for-bit.  NULL when any of the four cells is empty.

    Plan: one tiny span pre-pass over materialized block refs, then
    per-block dense ``code·4 + (side·2 + period)`` int64 partials,
    driver combine (groups few).  ``side_col`` must be 0/1 (1 =
    treatment); NULL group/side/ts rows drop.

    Output: ``(group, n_t_pre, n_t_post, n_c_pre, n_c_post, did)``.
    Reference analog: none — companion of ab_test/mann_whitney in the
    experimentation family.
    """
    from ..functions.segments import cents_exact

    def prep(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.and_(pc.is_valid(b[group_col]),
                               pc.is_valid(b[side_col])),
                       pc.is_valid(b[ts_col]))
        keep = pc.fill_null(keep, False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        ts = b[ts_col].combine_chunks()
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.int64())
        a = b[side_col].to_numpy(zero_copy_only=False).astype(
            np.int64)
        if ((a < 0) | (a > 1)).any():
            raise ValueError("did_estimate: side_col must be 0/1")
        cents = cents_exact(b[value_col].combine_chunks(),
                            col=value_col)
        return pa.table({group_col: b[group_col], "__t": ts,
                         "__a": pa.array(a),
                         "__y": pa.array(cents)})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True, batch_size=None)
    refs = materialized_block_refs(prepped)
    span_cut = global_span_cut(refs, col="__t", num=cut_num,
                               den=cut_den)
    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    gtype = base.field(group_col).type
    empty = pa.table({group_col: pa.array([], gtype),
                      "n_t_pre": pa.array([], pa.int64()),
                      "n_t_post": pa.array([], pa.int64()),
                      "n_c_pre": pa.array([], pa.int64()),
                      "n_c_post": pa.array([], pa.int64()),
                      "did": pa.array([], pa.float64())})
    if span_cut is None:
        return empty
    _, _, cut = span_cut

    @ray.remote
    def cells(blk: pa.Table):
        if blk.num_rows == 0:
            return None
        gd = pc.dictionary_encode(blk[group_col].combine_chunks())
        codes = gd.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)
        t = blk["__t"].to_numpy(zero_copy_only=False)
        a = blk["__a"].to_numpy(zero_copy_only=False)
        y = blk["__y"].to_numpy(zero_copy_only=False)
        cell = codes * 4 + a * 2 + (t >= cut).astype(np.int64)
        g4 = len(gd.dictionary) * 4
        n = np.bincount(cell, minlength=g4).astype(np.int64)
        s = np.zeros(g4, np.int64)
        np.add.at(s, cell, y)
        return gd.dictionary.to_pylist(), n, s

    agg: dict = {}
    for res in ray.get([cells.remote(r) for r in refs]):
        if res is None:
            continue
        gvals, n, s = res
        for gi, g in enumerate(gvals):
            cur = agg.setdefault(g, [[0, 0] for _ in range(4)])
            for c in range(4):
                cur[c][0] += int(n[gi * 4 + c])
                cur[c][1] += int(s[gi * 4 + c])
    groups = sorted(agg)
    cols = {0: [], 1: [], 2: [], 3: []}
    dids = []
    for g in groups:
        cs = agg[g]
        # cell order: side*2 + post -> 0=c_pre 1=c_post 2=t_pre
        # 3=t_post
        for c in range(4):
            cols[c].append(cs[c][0])
        if any(cs[c][0] == 0 for c in range(4)):
            dids.append(None)
        else:
            m = [float(cs[c][1]) / float(cs[c][0]) for c in range(4)]
            dids.append((m[3] - m[2]) - (m[1] - m[0]))
    return pa.table({
        group_col: pa.array(groups, gtype),
        "n_t_pre": pa.array(cols[2], pa.int64()),
        "n_t_post": pa.array(cols[3], pa.int64()),
        "n_c_pre": pa.array(cols[0], pa.int64()),
        "n_c_post": pa.array(cols[1], pa.int64()),
        "did": pa.array(dids, pa.float64())})


def ridge_influence(ds, *, vec_col: str = "embedding",
                    y_col: str = "label", group_col: str = "grp",
                    lam_num: int = 1, lam_den: int = 1,
                    quant_bits: int = 10, y_scale: int = 1,
                    num_partitions: int = 4) -> pa.Table:
    """Leave-one-group-out ridge influence — data VALUATION for a
    training corpus: for every group (source, shard, annotator
    batch), the exact closed-form model that would result from
    DROPPING that group, and how far each coefficient moves.  Groups
    whose removal swings the model are the high-leverage (or
    corrupting) slices; near-zero deltas mark redundant data.  One
    corpus pass answers all groups at once — no retraining loop.

    Exactness: per-group integer sufficient statistics ``(XᵀX_g,
    Xᵀy_g, n_g)`` (the fit_ridge partials keyed by group) merge on
    ONE group-keyed exchange; the driver forms ``total − group`` by
    INTEGER subtraction (exact), so every leave-one-out system is the
    bit-identical matrix a from-scratch fit on the complement would
    build, and the shared :func:`ridge_solve` float path returns
    bit-identical coefficients (q169 contract).  Fixture-replay
    oracle; no SQL (the solve).

    The driver holds groups × (d+1)² int64 cells — the documented
    driver-tiny bound (pre-bucket sources if you have millions).
    Groups covering the ENTIRE corpus (complement empty) emit no
    rows; NULL group/vec/y rows drop.

    Returns ``(group_col, j:int64, coef_loo:float64,
    delta:float64)`` with ``j = d`` the intercept and ``delta =
    coef_loo − coef_full``.

    Reference analog: none (the reference scores feature subsets, not
    data slices); the closed-form sibling of influence-function data
    valuation, exact for ridge.
    """
    def partial(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.and_(pc.is_valid(b[vec_col]),
                               pc.is_valid(b[y_col])),
                       pc.is_valid(b[group_col]))
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        empty = pa.table({"g": pa.array([], pa.int64()),
                          "cell": pa.array([], pa.int64()),
                          "val": pa.array([], pa.int64())})
        if b.num_rows == 0:
            return empty
        qa, yq = _ridge_rows(b, vec_col, y_col, quant_bits, y_scale)
        gv = b[group_col].combine_chunks().cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        d1 = qa.shape[1]
        cells_tmpl = np.concatenate([
            np.arange(d1 * d1, dtype=np.int64),
            d1 * d1 + np.arange(d1, dtype=np.int64),
            [d1 * d1 + d1]])
        gs, cs, vs = [], [], []
        for g in np.unique(gv):
            sel = gv == g
            q = qa[sel]
            gm = q.T @ q
            xty = q.T @ yq[sel]
            vals = np.concatenate([gm.ravel(), xty,
                                   [int(sel.sum())]])
            gs.append(np.full(len(cells_tmpl), g, np.int64))
            cs.append(cells_tmpl)
            vs.append(vals)
        return pa.table({"g": pa.array(np.concatenate(gs)),
                         "cell": pa.array(np.concatenate(cs)),
                         "val": pa.array(np.concatenate(vs))})

    def combine(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "g" not in t.column_names:
            return pa.table({"g": pa.array([], pa.int64()),
                             "cell": pa.array([], pa.int64()),
                             "val": pa.array([], pa.int64())})
        g = t["g"].to_numpy(zero_copy_only=False)
        c = t["cell"].to_numpy(zero_copy_only=False)
        v = t["val"].to_numpy(zero_copy_only=False)
        # sorted (g, cell): run-length sum
        new = np.concatenate([[True], (g[1:] != g[:-1])
                              | (c[1:] != c[:-1])])
        starts = np.flatnonzero(new)
        rid = np.cumsum(new.astype(np.int64)) - 1
        sums = np.zeros(len(starts), np.int64)
        np.add.at(sums, rid, v)
        return pa.table({"g": pa.array(g[starts]),
                         "cell": pa.array(c[starts]),
                         "val": pa.array(sums)})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)
    stats = partitioned_refs(partials, combine, key="g",
                             sort_keys=["g", "cell"],
                             num_partitions=num_partitions)
    per_group: dict = {}
    for b in ray.get(stats):
        if b.num_rows == 0:
            continue
        for gv, cv, vv in zip(b["g"].to_pylist(),
                              b["cell"].to_pylist(),
                              b["val"].to_pylist()):
            per_group.setdefault(gv, {})[cv] = (
                per_group.get(gv, {}).get(cv, 0) + vv)
    empty = pa.table({group_col: pa.array([], pa.int64()),
                      "j": pa.array([], pa.int64()),
                      "coef_loo": pa.array([], pa.float64()),
                      "delta": pa.array([], pa.float64())})
    if not per_group:
        return empty

    total_cells = max(max(d) for d in per_group.values()) + 1
    d1 = int(round((-1 + np.sqrt(1 + 4 * (total_cells - 1))) / 2))

    def dense(cells: dict) -> np.ndarray:
        flat = np.zeros(total_cells, np.int64)
        for cc, vv in cells.items():
            flat[cc] = vv
        return flat

    mats = {g: dense(cells) for g, cells in per_group.items()}
    total = np.zeros(total_cells, np.int64)
    for m in mats.values():
        total += m
    n_total = int(total[-1])
    coef_full = ridge_solve(total[:d1 * d1].reshape(d1, d1),
                            total[d1 * d1:d1 * d1 + d1], n_total,
                            quant_bits, y_scale, lam_num, lam_den)
    out_g, out_j, out_c, out_d = [], [], [], []
    for g in sorted(mats):
        rest = total - mats[g]
        n_rest = int(rest[-1])
        if n_rest == 0:
            continue
        coef = ridge_solve(rest[:d1 * d1].reshape(d1, d1),
                           rest[d1 * d1:d1 * d1 + d1], n_rest,
                           quant_bits, y_scale, lam_num, lam_den)
        delta = coef - coef_full
        out_g.extend([g] * d1)
        out_j.extend(range(d1))
        out_c.extend(coef.tolist())
        out_d.extend(delta.tolist())
    return pa.table({group_col: pa.array(out_g, pa.int64()),
                     "j": pa.array(out_j, pa.int64()),
                     "coef_loo": pa.array(out_c, pa.float64()),
                     "delta": pa.array(out_d, pa.float64())})


def randomization_test(ds, *, key_col: str, id_col: str,
                       side_col: str, value_col: str,
                       n_perms: int = 64, num_partitions: int = 8):
    """Per-key approximate randomization test — a distribution-free
    p-value for "do the two sides differ in mean?", the inference
    companion of the parametric q143 A/B z-test and q214 rank test:
    the observed |mean gap| is compared against ``n_perms``
    DETERMINISTIC pseudo-reassignments of rows to sides (Knuth-hash
    bit per (row id, perm) — binomial reassignment, the standard
    approximate-randomization variant; documented, mirrored in SQL).

    Exactness: values quantize to cents; per (key, perm) partials
    ``(n1, Σ1)`` plus per-key totals are exact int64 (driver-tiny
    combine, no shuffle); every comparison of rational statistics
    cross-multiplies to EXACT integers (Python ints — products reach
    |S|·n·n², far past int64), so the permutation count replays
    bit-for-bit in HUGEINT SQL.  ``p = (n_ge + 1)/(n_perms + 1)`` is
    one division (add-one estimator).  Perms that land a side empty
    count as ≥ (conservative; mirrored).  Observed side from
    ``side_col`` (0/1); NULL key/id/side/value rows drop; non-finite
    values raise (cents_exact contract).

    Emits ``(key_col, n:int64, n1_obs:int64, obs_num:float64 — the
    exact |S0·n1 − S1·n0| cast, n_ge:int64, p_value:float64)``;
    single-side keys emit NULL p.  Reference analog: none
    (inference-audit family q143/q165/q179/q214).
    """
    from ..functions.segments import cents_exact
    from .sample import knuth_hash

    R = n_perms

    def partial(b: pa.Table) -> pa.Table:
        keep = pc.fill_null(
            pc.and_(pc.and_(pc.is_valid(b[key_col]),
                            pc.is_valid(b[id_col])),
                    pc.and_(pc.is_valid(b[side_col]),
                            pc.is_valid(b[value_col]))), False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        empty = pa.table({"k": pa.array([], pa.string()),
                          "cell": pa.array([], pa.int64()),
                          "val": pa.array([], pa.int64())})
        if b.num_rows == 0:
            return empty
        c = cents_exact(b[value_col].combine_chunks(), col=value_col)
        side = pc.cast(b[side_col].combine_chunks(),
                       pa.int64()).to_numpy(zero_copy_only=False)
        eid = b[id_col].combine_chunks().cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        keys = b[key_col].combine_chunks().cast(pa.string())
        enc = pc.dictionary_encode(keys)
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)
        # (n, R) permutation side bits — bit 16 of the Knuth hash
        # (bit 0 is input parity: the multiplier is odd)
        h = knuth_hash(eid[:, None] * R + np.arange(R, dtype=np.int64),
                       op="randomization_test")
        pbit = ((h >> np.uint64(16)) & np.uint64(1)).astype(np.int64)
        ks, cells, vals = [], [], []
        for kcode in np.unique(codes):
            sel = codes == kcode
            cs, ss = c[sel], side[sel]
            pb = pbit[sel]
            n1r = pb.sum(axis=0)
            s1r = (pb * cs[:, None]).sum(axis=0)
            kv = [int(sel.sum()), int(cs.sum()), int(ss.sum()),
                  int((ss * cs).sum())]
            cell_ids = np.concatenate([
                np.arange(4, dtype=np.int64),
                4 + np.arange(R, dtype=np.int64),
                4 + R + np.arange(R, dtype=np.int64)])
            v = np.concatenate([np.asarray(kv, np.int64), n1r, s1r])
            name = enc.dictionary[int(kcode)].as_py()
            ks.extend([name] * len(cell_ids))
            cells.append(cell_ids)
            vals.append(v)
        return pa.table({"k": pa.array(ks, pa.string()),
                         "cell": pa.array(np.concatenate(cells)),
                         "val": pa.array(np.concatenate(vals))})

    pds = ds.map_batches(partial, batch_format="pyarrow",
                         zero_copy_batch=True, batch_size=None)
    agg: dict = {}
    for b in ray.get(materialized_block_refs(pds)):
        if b.num_rows == 0:
            continue
        for k, cell, v in zip(b["k"].to_pylist(),
                              b["cell"].to_pylist(),
                              b["val"].to_pylist()):
            cur = agg.setdefault(k, {})
            cur[cell] = cur.get(cell, 0) + v

    out_k, out_n, out_n1, out_obs, out_ge, out_p = ([], [], [], [],
                                                    [], [])
    for k in sorted(agg):
        cells = agg[k]
        n = cells.get(0, 0)
        s = cells.get(1, 0)
        n1 = cells.get(2, 0)
        s1 = cells.get(3, 0)
        n0 = n - n1
        s0 = s - s1
        obs_num = abs(s0 * n1 - s1 * n0)
        obs_den = n0 * n1
        n_ge = 0
        for r in range(R):
            n1r = cells.get(4 + r, 0)
            s1r = cells.get(4 + R + r, 0)
            n0r = n - n1r
            s0r = s - s1r
            den_r = n0r * n1r
            if den_r == 0:
                n_ge += 1
            elif abs(s0r * n1r - s1r * n0r) * obs_den \
                    >= obs_num * den_r:
                n_ge += 1
        out_k.append(k)
        out_n.append(n)
        out_n1.append(n1)
        out_obs.append(float(obs_num))
        out_ge.append(n_ge)
        out_p.append(float(n_ge + 1) / float(R + 1)
                     if obs_den else None)
    return pa.table({key_col: pa.array(out_k, pa.string()),
                     "n": pa.array(out_n, pa.int64()),
                     "n1_obs": pa.array(out_n1, pa.int64()),
                     "obs_num": pa.array(out_obs, pa.float64()),
                     "n_ge": pa.array(out_ge, pa.int64()),
                     "p_value": pa.array(out_p, pa.float64())})


def bootstrap_group_ci(ds, *, key_col: str, id_col: str,
                       value_col: str, n_bags: int = 32,
                       q_lo_num: int = 1, q_hi_num: int = 15,
                       q_den: int = 16):
    """Per-key confidence interval for the mean via DETERMINISTIC
    half-sample replicates — the error-bar companion every per-group
    mean table lacks: ``n_bags`` pseudo-replicates per key (row r in
    bag b iff bit 16 of ``knuth(id·n_bags + b)`` — the q244
    convention), each contributing one exact mean, and the CI is the
    DISCRETE quantile element of those means at DYADIC ranks
    (default 1/16, 15/16 — dyadic so the rank arithmetic is exact in
    both engines; the q51 ``max(ceil(q·n)−1, 0)`` convention).

    Not a true bootstrap (bags are ~binomial half-samples, not
    with-replacement resamples — the randomization-test caveat,
    documented); the spread estimate behaves like a half-sample
    jackknife, fine for "how stable is this mean" error bars.

    Exactness: per (key, bag) ``(n, Σcents)`` are exact int64
    partials (driver-tiny combine — keys × bags cells, NO shuffle);
    each bag mean is ONE division; the quantile picks an ELEMENT
    (never averages).  Empty bags simply contribute no replicate
    (mirrored in SQL by grouping).  NULL key/id/value rows drop.

    Emits ``(key_col, n:int64, mean:float64, n_bags_hit:int64,
    ci_lo:float64, ci_hi:float64)``.
    Reference analog: the reference bootstraps in-memory inside EGO
    (`selection/search.py` Ego); this is the grouped streaming
    counterpart.
    """
    from .sample import knuth_hash

    B = int(n_bags)

    def partial(b: pa.Table) -> pa.Table:
        keep = pc.fill_null(
            pc.and_(pc.and_(pc.is_valid(b[key_col]),
                            pc.is_valid(b[id_col])),
                    pc.is_valid(b[value_col])), False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        empty = pa.table({"k": pa.array([], pa.string()),
                          "bag": pa.array([], pa.int64()),
                          "n": pa.array([], pa.int64()),
                          "s": pa.array([], pa.int64())})
        if b.num_rows == 0:
            return empty
        from ..functions.segments import cents_exact

        c = cents_exact(b[value_col].combine_chunks(),
                        col=value_col)
        ids = b[id_col].combine_chunks().cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        keys = b[key_col].combine_chunks().cast(pa.string())
        enc = pc.dictionary_encode(keys)
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)
        h = knuth_hash(ids[:, None] * B
                       + np.arange(B, dtype=np.int64),
                       op="bootstrap_group_ci")
        inbag = ((h >> np.uint64(16)) & np.uint64(1)).astype(
            np.int64)
        # one np.add.at pass over dense (key, bag+1) cells — a
        # per-key masked rescan would be O(rows × keys)
        n_keys = len(enc.dictionary)
        ncell = np.zeros((n_keys, B + 1), np.int64)
        scell = np.zeros((n_keys, B + 1), np.int64)
        np.add.at(ncell[:, 0], codes, 1)
        np.add.at(scell[:, 0], codes, c)
        rows_ = np.repeat(codes, B)
        cols_ = np.tile(np.arange(1, B + 1, dtype=np.int64),
                        len(codes))
        np.add.at(ncell, (rows_, cols_), inbag.ravel())
        np.add.at(scell, (rows_, cols_),
                  (inbag * c[:, None]).ravel())
        names = enc.dictionary.cast(pa.string())
        ks = names.take(pa.array(
            np.repeat(np.arange(n_keys), B + 1), pa.int64()))
        bags = np.tile(np.arange(-1, B, dtype=np.int64), n_keys)
        return pa.table({"k": ks.cast(pa.string()),
                         "bag": pa.array(bags),
                         "n": pa.array(ncell.ravel()),
                         "s": pa.array(scell.ravel())})

    agg: dict = {}
    for b in ray.get(materialized_block_refs(
            ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None))):
        if b.num_rows == 0:
            continue
        for k, bag, n, s in zip(b["k"].to_pylist(),
                                b["bag"].to_pylist(),
                                b["n"].to_pylist(),
                                b["s"].to_pylist()):
            cur = agg.setdefault((k, bag), [0, 0])
            cur[0] += n
            cur[1] += s

    keys = sorted({k for k, _ in agg})
    out = {c: [] for c in ("k", "n", "mean", "hit", "lo", "hi")}
    for k in keys:
        n_all, s_all = agg.get((k, -1), (0, 0))
        means = []
        for bg in range(B):
            nb, sb = agg.get((k, bg), (0, 0))
            if nb > 0:
                means.append(float(sb) / float(nb))
        means.sort()
        out["k"].append(k)
        out["n"].append(n_all)
        out["mean"].append(float(s_all) / float(n_all)
                           if n_all else None)
        out["hit"].append(len(means))
        if means:
            m = len(means)
            r_lo = max(math.ceil(q_lo_num * m / q_den) - 1, 0)
            r_hi = max(math.ceil(q_hi_num * m / q_den) - 1, 0)
            out["lo"].append(means[r_lo])
            out["hi"].append(means[r_hi])
        else:
            out["lo"].append(None)
            out["hi"].append(None)
    return pa.table({
        key_col: pa.array(out["k"], pa.string()),
        "n": pa.array(out["n"], pa.int64()),
        "mean": pa.array(out["mean"], pa.float64()),
        "n_bags_hit": pa.array(out["hit"], pa.int64()),
        "ci_lo": pa.array(out["lo"], pa.float64()),
        "ci_hi": pa.array(out["hi"], pa.float64())})


def ridge_eval(ds, *, vec_col: str = "embedding",
               y_col: str = "label", group_col=None,
               lam_num: int = 1, lam_den: int = 1,
               quant_bits: int = 10, y_scale: int = 1,
               coef_bits: int = 20, num_partitions: int = 4):
    """Distributed regression evaluation report — fit the exact
    closed-form ridge (:func:`fit_ridge` sufficient statistics) and
    score every row, reporting per-group (or global) ``n, mae, rmse,
    r2``: the missing third leg of the model suite (fit q169,
    influence q242, now EVAL), and the template for evaluating ANY
    linear scorer at corpus scale without a single float reduction.

    Exactness: coefficients quantize to ``round(coef·2^coef_bits)``
    INTEGERS, so every prediction is an exact integer dot
    (``pred_q = qa·coef_q``, scale ``2^(quant_bits+coef_bits)``) and
    every error a scaled exact integer; the per-group sums
    ``(n, Σ|e|, Σe², Σy, Σy²)`` are int64/Python-int partials
    (order-independent), and each metric is a fixed correctly-rounded
    float expression of those exact sums.  The serial replay (fixture
    oracle) is bit-identical end to end.

    Overflow: Σe² partials accumulate as PYTHON ints in the driver
    combine (per-block int64 partials are guarded: per-row ``|e| <
    2^31`` scaled units raises — lower coef_bits for wild models).

    Returns ``(group:int64 — -1 for the global row when group_col is
    None, n:int64, mae:float64, rmse:float64, r2:float64 — NULL for
    constant targets)``.
    """
    coef_tbl = fit_ridge(ds, vec_col=vec_col, y_col=y_col,
                         lam_num=lam_num, lam_den=lam_den,
                         quant_bits=quant_bits, y_scale=y_scale,
                         num_partitions=num_partitions)
    coef = np.asarray(coef_tbl["coef"].to_pylist(), np.float64)
    coef_q = np.round(coef * float(1 << coef_bits)).astype(np.int64)
    coef_ref = ray.put(coef_q)
    # scales: qa is in 2^quant_bits units, y in y_scale units;
    # error_scaled = pred_q·y_scale − y_q·2^(qb+cb)·...  — express
    # everything in the common grid 2^(qb+cb)·y_scale
    S = (1 << (quant_bits + coef_bits))

    def partial(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(b[vec_col]), pc.is_valid(b[y_col]))
        if group_col is not None:
            keep = pc.and_(keep, pc.is_valid(b[group_col]))
        keep = pc.fill_null(keep, False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        empty = pa.table({"g": pa.array([], pa.int64()),
                          "n": pa.array([], pa.int64()),
                          "sae": pa.array([], pa.int64()),
                          "shh": pa.array([], pa.int64()),
                          "shl": pa.array([], pa.int64()),
                          "sll": pa.array([], pa.int64()),
                          "sy": pa.array([], pa.int64()),
                          "syy": pa.array([], pa.int64())})
        if b.num_rows == 0:
            return empty
        qa, yq = _ridge_rows(b, vec_col, y_col, quant_bits, y_scale)
        cq = ray.get(coef_ref)
        # pred_q is S·(raw prediction); scale by y_scale so both
        # sides sit on the common 1/(S·y_scale) grid
        pred_q = (qa @ cq) * y_scale
        e = pred_q - yq * S
        ae = np.abs(e)
        # Σe² via the q170 split-word trick: e = hi·2^21 + lo keeps
        # every partial in int64 even though e² itself can pass 2^63
        if len(ae) and (int(ae.max()) >= (1 << 42)
                        or len(ae) >= (1 << 21)):
            raise ValueError("ridge_eval split-word guard exceeded "
                             "(|e| >= 2^42 scaled units or block > "
                             "2^21 rows); lower coef_bits / "
                             "batch size")
        g = (b[group_col].combine_chunks().cast(pa.int64())
             .to_numpy(zero_copy_only=False)
             if group_col is not None
             else np.full(len(yq), -1, np.int64))
        uniq, inv = np.unique(g, return_inverse=True)
        k = len(uniq)
        n = np.bincount(inv, minlength=k).astype(np.int64)
        sy = np.zeros(k, np.int64)
        syy = np.zeros(k, np.int64)
        np.add.at(sy, inv, yq)
        np.add.at(syy, inv, yq * yq)
        hi = ae >> 21
        lo = ae & ((1 << 21) - 1)
        sae = np.zeros(k, np.int64)
        shh = np.zeros(k, np.int64)
        shl = np.zeros(k, np.int64)
        sll = np.zeros(k, np.int64)
        np.add.at(sae, inv, ae)
        np.add.at(shh, inv, hi * hi)
        np.add.at(shl, inv, hi * lo)
        np.add.at(sll, inv, lo * lo)
        return pa.table({"g": pa.array(uniq),
                         "n": pa.array(n),
                         "sae": pa.array(sae),
                         "shh": pa.array(shh),
                         "shl": pa.array(shl),
                         "sll": pa.array(sll),
                         "sy": pa.array(sy),
                         "syy": pa.array(syy)})

    agg: dict = {}
    for blk in ray.get(materialized_block_refs(
            ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None))):
        if blk.num_rows == 0:
            continue
        for g, n, sae, shh, shl, sll, sy, syy in zip(
                blk["g"].to_pylist(), blk["n"].to_pylist(),
                blk["sae"].to_pylist(), blk["shh"].to_pylist(),
                blk["shl"].to_pylist(), blk["sll"].to_pylist(),
                blk["sy"].to_pylist(), blk["syy"].to_pylist()):
            cur = agg.setdefault(g, [0, 0, 0, 0, 0])
            cur[0] += n
            cur[1] += sae
            # recombine the split-word moments as Python ints
            cur[2] += (shh << 42) + (shl << 22) + sll
            cur[3] += sy
            cur[4] += syy
    out = {c: [] for c in ("g", "n", "mae", "rmse", "r2")}
    denom = float(S) * float(y_scale)
    for g in sorted(agg):
        n, sae, sse, sy, syy = agg[g]
        out["g"].append(g)
        out["n"].append(n)
        mae = (float(sae) / float(n)) / denom
        rmse = math.sqrt(float(sse) / float(n)) / denom
        sst = n * syy - sy * sy             # scaled by n·y_scale²
        out["mae"].append(mae)
        out["rmse"].append(rmse)
        if sst > 0:
            # r2 = 1 − SSE/SST with both in comparable units:
            # SSE/(S²·y_scale²) vs SST/(n·y_scale²)
            r2 = 1.0 - (float(sse) * float(n)) / (
                float(sst) * float(S) * float(S))
            out["r2"].append(r2)
        else:
            out["r2"].append(None)
    return pa.table({
        "group": pa.array(out["g"], pa.int64()),
        "n": pa.array(out["n"], pa.int64()),
        "mae": pa.array(out["mae"], pa.float64()),
        "rmse": pa.array(out["rmse"], pa.float64()),
        "r2": pa.array(out["r2"], pa.float64())})


def pr_threshold_sweep(ds, *, key_col: str, label_col: str,
                       score_col: str, num_partitions: int = 16):
    """Per-group best-F1 operating point — sweep every observed score
    as a ``score >= t`` decision threshold and report the threshold
    maximizing F1, with its exact confusion counts: the
    classifier-calibration primitive next to :func:`group_auc` (AUC
    ranks the scorer; this picks the cut you would deploy).

    Exactness: with ``score_col`` pre-quantized int64 and ``label_col``
    int64 ∈ {0,1}, every candidate's ``(tp, fp, fn)`` is an exact
    suffix count, and precision/recall/F1 are FIXED one-division IEEE
    expressions of those ints (``2·tp / (2·tp+fp+fn)`` etc.), so SQL
    replays them bit-identically with cumulative windows over the
    distinct-score spine.  The argmax is ``(f1 DESC, threshold ASC)``
    — equal-double F1 ties resolve on the threshold both sides.

    One key-keyed exchange (same shape as :func:`group_auc`); the
    kernel does one pass of prefix sums + tie-run masks per partition,
    no per-group Python.  Rows with NULL key/label/score drop; groups
    with no positive rows emit nothing (every threshold has F1 = 0 —
    there is no operating point to report).  Returns ``(key_col,
    threshold:int64, tp:int64, fp:int64, fn:int64, precision:float64,
    recall:float64, f1:float64)``.

    Reference analog: the reference's classification scorers select
    models by sklearn ``accuracy``/CV (selection/quickmethod.py
    dict_method_clf); this is the corpus-scale operating-point sweep
    those scorers assume has already happened upstream.
    """
    base = ds.schema()
    base = getattr(base, "base_schema", base)
    ktype = base.field(key_col).type

    def prep(b: pa.Table) -> pa.Table:
        for c, t in ((label_col, pa.int64()), (score_col, pa.int64())):
            if b.schema.field(c).type != t:
                raise TypeError(f"{c} must be int64; got "
                                f"{b.schema.field(c).type}")
        mask = pc.and_(pc.and_(pc.is_valid(b[key_col]),
                               pc.is_valid(b[label_col])),
                       pc.is_valid(b[score_col]))
        if not pc.all(pc.fill_null(mask, False)).as_py():
            b = b.filter(pc.fill_null(mask, False))
        return b.select([key_col, label_col, score_col])

    empty = pa.table({
        key_col: pa.array([], ktype),
        "threshold": pa.array([], pa.int64()),
        "tp": pa.array([], pa.int64()),
        "fp": pa.array([], pa.int64()),
        "fn": pa.array([], pa.int64()),
        "precision": pa.array([], pa.float64()),
        "recall": pa.array([], pa.float64()),
        "f1": pa.array([], pa.float64())})

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        keys = t[key_col].combine_chunks()
        enc = pc.dictionary_encode(keys)
        codes = (pc.fill_null(enc.indices, -1)
                 .to_numpy(zero_copy_only=False).astype(np.int64))
        # sorted by (key, score) asc — group runs contiguous,
        # scores ascending within each group
        y = t[label_col].to_numpy(zero_copy_only=False)
        s = t[score_col].to_numpy(zero_copy_only=False)
        n = len(codes)
        g_start = np.concatenate([[True], codes[1:] != codes[:-1]])
        seg = np.cumsum(g_start) - 1
        g_first = np.flatnonzero(g_start)
        n_grp = len(g_first)
        g_len = np.diff(np.concatenate([g_first, [n]]))
        npos = np.zeros(n_grp, np.int64)
        np.add.at(npos, seg, y)
        # distinct-score runs within each group: each run's FIRST row
        # position gives both suffix counts at threshold = that score
        run_start = g_start | np.concatenate([[True], s[1:] != s[:-1]])
        run_first = np.flatnonzero(run_start)
        seg_r = seg[run_first]
        # exclusive prefix of positives up to run_first, per group
        excl = np.concatenate([[0], np.cumsum(y)])  # global exclusive
        pos_lt = excl[run_first] - excl[g_first[seg_r]]
        tp = npos[seg_r] - pos_lt
        cnt_ge = (g_first[seg_r] + g_len[seg_r]) - run_first
        fp = cnt_ge - tp
        fn = npos[seg_r] - tp
        thr = s[run_first]
        # drop groups with no positives (F1 identically 0)
        keep = npos[seg_r] > 0
        if not keep.all():
            tp, fp, fn, thr, seg_r = (a[keep] for a in
                                      (tp, fp, fn, thr, seg_r))
        if len(tp) == 0:
            return empty
        with np.errstate(divide="ignore", invalid="ignore"):
            prec = tp.astype(np.float64) / (tp + fp).astype(np.float64)
            rec = tp.astype(np.float64) / (tp + fn).astype(np.float64)
            f1 = (2.0 * tp).astype(np.float64) / (
                2 * tp + fp + fn).astype(np.float64)
        # per-group argmax: order by (seg, f1 desc, thr asc), first per
        # seg — float negation is a sign flip, ordering parity is exact
        order = np.lexsort((thr, -f1, seg_r))
        first = np.concatenate(
            [[True], seg_r[order][1:] != seg_r[order][:-1]])
        pick = order[first]
        return pa.table({
            key_col: keys.take(pa.array(g_first[seg_r[pick]],
                                        pa.int64())),
            "threshold": pa.array(thr[pick], type=pa.int64()),
            "tp": pa.array(tp[pick]),
            "fp": pa.array(fp[pick]),
            "fn": pa.array(fn[pick]),
            "precision": pa.array(prec[pick], pa.float64()),
            "recall": pa.array(rec[pick], pa.float64()),
            "f1": pa.array(f1[pick], pa.float64()),
        })

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, kernel, key=key_col,
                           sort_keys=[key_col, score_col],
                           num_partitions=num_partitions)


def grouped_ridge(ds, *, vec_col: str = "embedding",
                  y_col: str = "label", group_col: str,
                  lam_num: int = 1, lam_den: int = 1,
                  quant_bits: int = 10, y_scale: int = 1,
                  num_partitions: int = 4) -> pa.Table:
    """Many-model training — one independent closed-form ridge fit PER
    GROUP in a single corpus pass: the distributed "fit a model per
    segment/tenant/cohort" primitive (the reference fits one sklearn
    model per candidate subset inside its selection drivers; this is
    the same fan-out turned inside-out, models keyed by a data column).

    Same exactness contract as :func:`fit_ridge` (the q169 contract):
    per block each group present reduces to int64 ``XᵀX, Xᵀy, n``
    partials (shared :func:`_ridge_rows` quantization), the partials
    merge by addition on ONE group-keyed exchange (d²·G rows move,
    never data), and the driver reconstructs IDENTICAL float matrices
    per group and runs the shared :func:`ridge_solve` — bit-identical
    to a serial replay.

    Groups must be non-negative int64 and BOUNDED (a model count, not
    a data column: think ≤10⁴ models of d ≤ 10² dims — the driver
    holds G·(d²+d+1) ints and performs G small solves).  Rows with
    NULL vec/y/group drop; a group whose Gram is singular raises (as
    fit_ridge does — λ>0 prevents it).  Returns ``(group:int64,
    j:int64 — d is the intercept, coef:float64)`` sorted by
    (group, j).
    """
    stats = _grouped_ridge_stats(ds, vec_col=vec_col, y_col=y_col,
                                 group_col=group_col,
                                 quant_bits=quant_bits,
                                 y_scale=y_scale,
                                 num_partitions=num_partitions,
                                 op="grouped_ridge")
    out_g, out_j, out_coef = [], [], []
    for gv in sorted(stats):
        flat = stats[gv]
        d1 = int(round((-1 + np.sqrt(1 + 4 * (len(flat) - 1))) / 2))
        coef = ridge_solve(flat[:d1 * d1].reshape(d1, d1),
                           flat[d1 * d1:d1 * d1 + d1],
                           int(flat[-1]), quant_bits, y_scale,
                           lam_num, lam_den)
        out_g.extend([gv] * d1)
        out_j.extend(range(d1))
        out_coef.extend(coef.tolist())
    return pa.table({"group": pa.array(out_g, pa.int64()),
                     "j": pa.array(out_j, pa.int64()),
                     "coef": pa.array(out_coef, pa.float64())})


def _grouped_ridge_stats(ds, *, vec_col: str, y_col: str,
                         group_col: str, quant_bits: int,
                         y_scale: int, num_partitions: int,
                         op: str) -> dict:
    """Shared sufficient-statistics pass of :func:`grouped_ridge` /
    :func:`learning_curve`: per-group int64 ``[XᵀX.ravel(), Xᵀy, n]``
    flats, merged on one group-keyed exchange.  Returns
    ``{group: flat int64 array}`` (dense cells; every group's flat has
    length d1²+d1+1)."""
    empty = pa.table({"g": pa.array([], pa.int64()),
                      "cell": pa.array([], pa.int64()),
                      "val": pa.array([], pa.int64())})

    def partial(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.and_(pc.is_valid(b[vec_col]),
                               pc.is_valid(b[y_col])),
                       pc.is_valid(b[group_col]))
        if not pc.all(pc.fill_null(keep, False)).as_py():
            b = b.filter(pc.fill_null(keep, False))
        if b.num_rows == 0:
            return empty
        qa, yq = _ridge_rows(b, vec_col, y_col, quant_bits, y_scale)
        g = (b[group_col].combine_chunks().cast(pa.int64())
             .to_numpy(zero_copy_only=False))
        if len(g) and int(g.min()) < 0:
            raise ValueError(f"{op}: negative group id")
        order = np.argsort(g, kind="stable")
        gs, qa, yq = g[order], qa[order], yq[order]
        starts = np.flatnonzero(
            np.concatenate([[True], gs[1:] != gs[:-1]]))
        ends = np.concatenate([starts[1:], [len(gs)]])
        d1 = qa.shape[1]
        cells_idx = np.concatenate([
            np.arange(d1 * d1, dtype=np.int64),
            d1 * d1 + np.arange(d1, dtype=np.int64),
            [d1 * d1 + d1]])
        out_g, out_v = [], []
        # Python loop over groups PRESENT in this block — bounded by
        # the model count G, not by rows; each iteration is one
        # vectorized matmul
        for s, e in zip(starts, ends):
            sub = qa[s:e]
            out_g.append(np.full(len(cells_idx), gs[s], np.int64))
            out_v.append(np.concatenate(
                [(sub.T @ sub).ravel(), sub.T @ yq[s:e], [e - s]]))
        return pa.table({
            "g": pa.array(np.concatenate(out_g)),
            "cell": pa.array(np.tile(cells_idx, len(starts))),
            "val": pa.array(np.concatenate(out_v))})

    def combine(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "g" not in t.column_names:
            return empty
        # sorted by (g, cell): (g, cell) runs are contiguous
        g = t["g"].to_numpy(zero_copy_only=False)
        c = t["cell"].to_numpy(zero_copy_only=False)
        v = t["val"].to_numpy(zero_copy_only=False)
        first = np.concatenate(
            [[True], (g[1:] != g[:-1]) | (c[1:] != c[:-1])])
        rf = np.flatnonzero(first)
        return pa.table({"g": pa.array(g[rf]),
                         "cell": pa.array(c[rf]),
                         "val": pa.array(np.add.reduceat(v, rf))})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)
    stats = partitioned_refs(partials, combine, key="g",
                             sort_keys=["g", "cell"],
                             num_partitions=num_partitions)
    blocks = [b for b in ray.get(stats) if b.num_rows > 0]
    if not blocks:
        raise ValueError(f"{op}: empty input")
    st = pa.concat_tables(blocks)
    g = st["g"].to_numpy(zero_copy_only=False)
    c = st["cell"].to_numpy(zero_copy_only=False)
    v = st["val"].to_numpy(zero_copy_only=False)
    out = {}
    for gv in sorted(set(int(x) for x in g)):
        sel = g == gv
        cs, vs = c[sel], v[sel]
        flat = np.zeros(int(cs.max()) + 1, np.int64)
        flat[cs] = vs
        out[gv] = flat
    return out


def learning_curve(ds, *, vec_col: str = "embedding",
                   y_col: str = "label", id_col: str,
                   n_train_buckets: int = 8, lam_num: int = 1,
                   lam_den: int = 1, quant_bits: int = 10,
                   y_scale: int = 1, coef_bits: int = 20,
                   num_partitions: int = 4) -> pa.Table:
    """Distributed learning curve — how does held-out error move as
    training data grows?  The sample-efficiency probe every data
    acquisition / curation decision rests on ("would 2× data help, or
    is the model saturated?"), computed in TWO corpus passes total for
    ALL curve points.

    Rows split into ``n_train_buckets`` train buckets + 1 holdout by
    the engine's Knuth hash of ``id_col``; pass 1 reduces each bucket
    to exact int64 ridge sufficient statistics (shared
    :func:`_grouped_ridge_stats`), the driver PREFIX-SUMS them (point
    k trains on buckets 0..k−1 — nested training sets, as a learning
    curve requires) and solves K models via the shared
    :func:`ridge_solve`; pass 2 scores all K quantized-coefficient
    models against the holdout in one read (one ``qa @ CQᵀ`` per
    block), accumulating the q273 exact split-word moment sums per
    model.

    Exactness: identical contract to :func:`ridge_eval` — integer
    statistics, Python-int driver combine, fixed float metric
    expressions; the serial replay is bit-identical.

    Returns ``(k:int64 — train buckets used, n_train:int64,
    n_test:int64, rmse:float64, r2:float64 — NULL for a constant
    holdout)``, one row per k = 1..n_train_buckets.
    """
    from .sample import add_hash_bucket_col

    K = int(n_train_buckets)
    if K < 1:
        raise ValueError("learning_curve: n_train_buckets < 1")

    withb = add_hash_bucket_col(ds, id_col=id_col, modulus=K + 1,
                                op="learning_curve")
    # the holdout bucket's sufficient statistics are never consumed —
    # keep its rows out of the d²-matmul stats pass entirely
    train_only = withb.map_batches(
        lambda b: b.filter(pc.fill_null(
            pc.not_equal(b["__bucket"], K), False)),
        batch_format="pyarrow", zero_copy_batch=True)
    stats = _grouped_ridge_stats(train_only, vec_col=vec_col,
                                 y_col=y_col,
                                 group_col="__bucket",
                                 quant_bits=quant_bits,
                                 y_scale=y_scale,
                                 num_partitions=num_partitions,
                                 op="learning_curve")
    width = max(len(f) for f in stats.values())
    acc = np.zeros(width, np.int64)
    d1 = int(round((-1 + np.sqrt(1 + 4 * (width - 1))) / 2))
    coefs, n_train = [], []
    for k in range(K):
        if k in stats:
            acc = acc + stats[k]
        coefs.append(ridge_solve(acc[:d1 * d1].reshape(d1, d1),
                                 acc[d1 * d1:d1 * d1 + d1],
                                 int(acc[-1]), quant_bits, y_scale,
                                 lam_num, lam_den))
        n_train.append(int(acc[-1]))
    CQ = np.stack([np.round(cf * float(1 << coef_bits))
                   .astype(np.int64) for cf in coefs])
    cq_ref = ray.put(CQ)
    S = 1 << (quant_bits + coef_bits)

    def eval_partial(b: pa.Table) -> pa.Table:
        empty = pa.table({c: pa.array([], pa.int64()) for c in
                          ("k", "n", "sae", "shh", "shl", "sll",
                           "sy", "syy")})
        keep = pc.and_(pc.and_(pc.is_valid(b[vec_col]),
                               pc.is_valid(b[y_col])),
                       pc.fill_null(pc.equal(b["__bucket"], K),
                                    False))
        if not pc.all(pc.fill_null(keep, False)).as_py():
            b = b.filter(pc.fill_null(keep, False))
        if b.num_rows == 0:
            return empty
        qa, yq = _ridge_rows(b, vec_col, y_col, quant_bits, y_scale)
        cq = ray.get(cq_ref)
        pred_q = (qa @ cq.T) * y_scale          # (n, K)
        e = pred_q - (yq * S)[:, None]
        ae = np.abs(e)
        if ae.size and (int(ae.max()) >= (1 << 42)
                        or len(ae) >= (1 << 21)):
            raise ValueError("learning_curve split-word guard "
                             "exceeded; lower coef_bits/batch size")
        hi, lo = ae >> 21, ae & ((1 << 21) - 1)
        n = len(yq)
        return pa.table({
            "k": pa.array(np.arange(1, cq.shape[0] + 1,
                                    dtype=np.int64)),
            "n": pa.array(np.full(cq.shape[0], n, np.int64)),
            "sae": pa.array(ae.sum(axis=0).astype(np.int64)),
            "shh": pa.array((hi * hi).sum(axis=0).astype(np.int64)),
            "shl": pa.array((hi * lo).sum(axis=0).astype(np.int64)),
            "sll": pa.array((lo * lo).sum(axis=0).astype(np.int64)),
            "sy": pa.array(np.full(cq.shape[0], int(yq.sum()),
                                   np.int64)),
            "syy": pa.array(np.full(cq.shape[0],
                                    int((yq * yq).sum()), np.int64)),
        })

    agg: dict = {}
    for blk in ray.get(materialized_block_refs(
            withb.map_batches(eval_partial, batch_format="pyarrow",
                              zero_copy_batch=True,
                              batch_size=None))):
        if blk.num_rows == 0:
            continue
        for k, n, sae, shh, shl, sll, sy, syy in zip(
                *(blk[c].to_pylist() for c in
                  ("k", "n", "sae", "shh", "shl", "sll", "sy",
                   "syy"))):
            cur = agg.setdefault(k, [0, 0, 0, 0, 0])
            cur[0] += n
            cur[1] += sae
            cur[2] += (shh << 42) + (shl << 22) + sll
            cur[3] += sy
            cur[4] += syy
    out = {c: [] for c in ("k", "n_train", "n_test", "rmse", "r2")}
    denom = float(S) * float(y_scale)
    for k in range(1, K + 1):
        n, sae, sse, sy, syy = agg.get(k, [0, 0, 0, 0, 0])
        if n == 0:
            raise ValueError("learning_curve: empty holdout bucket")
        out["k"].append(k)
        out["n_train"].append(n_train[k - 1])
        out["n_test"].append(n)
        out["rmse"].append(
            math.sqrt(float(sse) / float(n)) / denom)
        sst = n * syy - sy * sy
        out["r2"].append(
            1.0 - (float(sse) * float(n))
            / (float(sst) * float(S) * float(S))
            if sst > 0 else None)
    return pa.table({
        "k": pa.array(out["k"], pa.int64()),
        "n_train": pa.array(out["n_train"], pa.int64()),
        "n_test": pa.array(out["n_test"], pa.int64()),
        "rmse": pa.array(out["rmse"], pa.float64()),
        "r2": pa.array(out["r2"], pa.float64())})


def conformal_intervals(ds, *, vec_col: str = "embedding",
                        y_col: str = "label", id_col: str,
                        alpha_num: int = 1, alpha_den: int = 10,
                        n_buckets: int = 4, cal_bucket: int = 2,
                        test_bucket: int = 3, lam_num: int = 1,
                        lam_den: int = 1, quant_bits: int = 10,
                        y_scale: int = 1, coef_bits: int = 20,
                        num_partitions: int = 4) -> pa.Table:
    """Split-conformal prediction intervals — fit on a train split,
    take the conformal quantile of absolute residuals on a disjoint
    calibration split, and report empirical coverage of ``pred ±
    q_hat`` on a disjoint test split: the distribution-free
    uncertainty wrapper for the ridge family (guaranteed ≥ 1−α
    marginal coverage when the three splits are exchangeable).

    Splits come from the engine's Knuth hash of ``id_col`` mod
    ``n_buckets`` (``cal_bucket``/``test_bucket`` named, the rest
    train).  Exactness: residuals are the q273 exact scaled integers
    (quantized-coefficient scoring), the conformal threshold is the
    ``ceil((n_cal+1)·(1−α))``-th smallest calibration |residual| — an
    exact integer ORDER STATISTIC, selected from per-block
    value-count partials — and coverage is an exact integer compare
    ``|e| ≤ q_hat`` summed per block, one IEEE division at the end.
    The serial replay is bit-identical.

    Scale note: three passes (fit / calibrate / test-count).  The
    calibration multiset lands on the driver as (value, count)
    partials — size the calibration split to the statistical need
    (10³–10⁵ rows, plenty for a quantile), not to a corpus fraction,
    by raising ``n_buckets``.

    Returns ONE row ``(n_train:int64, n_cal:int64, n_test:int64,
    q_hat:float64 — threshold in y units, coverage:float64,
    target:float64 = 1−α)``.  Raises on an empty split or when the
    conformal index exceeds n_cal (α too small for the calibration
    size — the interval would be infinite).
    """
    from .sample import add_hash_bucket_col

    B = int(n_buckets)
    if not (0 <= cal_bucket < B and 0 <= test_bucket < B
            and cal_bucket != test_bucket):
        raise ValueError("conformal_intervals: bad bucket config")

    withb = add_hash_bucket_col(ds, id_col=id_col, modulus=B,
                                op="conformal_intervals")

    def keep_bucket(pred):
        def f(b: pa.Table) -> pa.Table:
            m = pc.fill_null(pred(b["__bucket"]), False)
            m = pc.and_(m, pc.and_(pc.is_valid(b[vec_col]),
                                   pc.is_valid(b[y_col])))
            return b.filter(pc.fill_null(m, False))
        return f

    train = withb.map_batches(
        keep_bucket(lambda c: pc.and_(
            pc.invert(pc.equal(c, cal_bucket)),
            pc.invert(pc.equal(c, test_bucket)))),
        batch_format="pyarrow", zero_copy_batch=True)
    coef_tbl = fit_ridge(train, vec_col=vec_col, y_col=y_col,
                         lam_num=lam_num, lam_den=lam_den,
                         quant_bits=quant_bits, y_scale=y_scale,
                         num_partitions=num_partitions)
    coef = np.asarray(coef_tbl["coef"].to_pylist(), np.float64)
    cq = np.round(coef * float(1 << coef_bits)).astype(np.int64)
    cq_ref = ray.put(cq)
    S = 1 << (quant_bits + coef_bits)

    def resid(b: pa.Table) -> np.ndarray:
        qa, yq = _ridge_rows(b, vec_col, y_col, quant_bits, y_scale)
        e = (qa @ ray.get(cq_ref)) * y_scale - yq * S
        return np.abs(e)

    def cal_partial(b: pa.Table) -> pa.Table:
        # sentinel val=-1 rides the same partial table carrying this
        # block's TRAIN row count (residuals are >= 0), so n_train
        # needs no extra pass
        valid = pc.and_(pc.is_valid(b[vec_col]),
                        pc.is_valid(b[y_col]))
        is_train = pc.and_(pc.and_(
            pc.invert(pc.fill_null(
                pc.equal(b["__bucket"], cal_bucket), True)),
            pc.invert(pc.fill_null(
                pc.equal(b["__bucket"], test_bucket), True))),
            pc.is_valid(b["__bucket"]))
        nt = int(pc.sum(pc.and_(pc.fill_null(valid, False),
                                is_train)).as_py() or 0)
        m = pc.fill_null(pc.and_(
            pc.fill_null(pc.equal(b["__bucket"], cal_bucket), False),
            valid), False)
        b = b.filter(m)
        if b.num_rows == 0:
            u = np.empty(0, np.int64)
            cts = np.empty(0, np.int64)
        else:
            u, cts = np.unique(resid(b), return_counts=True)
        return pa.table({
            "val": pa.array(np.concatenate(
                [[-1], u.astype(np.int64)])),
            "cnt": pa.array(np.concatenate(
                [[nt], cts.astype(np.int64)]))})

    agg = sum_partials(ray.get(materialized_block_refs(
        withb.map_batches(cal_partial, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=None))),
        keys=["val"], vals=["cnt"])
    if agg is None:
        agg = pa.table({"val": [-1], "cnt": [0]})
    # the val = -1 group (sorted first) is the train row count
    vals, cnts = agg["val"].to_numpy(), agg["cnt"].to_numpy()
    n_train = int(cnts[0])
    vals, cnts = vals[1:], cnts[1:]
    n_cal = int(cnts.sum())
    if n_cal == 0:
        raise ValueError("conformal_intervals: empty calibration "
                         "split")
    # conformal order statistic: ceil((n_cal+1)(1-alpha)) with the
    # exact rational alpha = alpha_num/alpha_den
    idx = -((-(n_cal + 1) * (alpha_den - alpha_num)) // alpha_den)
    if idx > n_cal:
        raise ValueError("conformal_intervals: alpha too small for "
                         f"n_cal={n_cal} (infinite interval)")
    q_int = int(vals[np.searchsorted(np.cumsum(cnts), idx)])

    def test_partial(b: pa.Table) -> pa.Table:
        m = pc.fill_null(pc.and_(
            pc.fill_null(pc.equal(b["__bucket"], test_bucket),
                         False),
            pc.and_(pc.is_valid(b[vec_col]), pc.is_valid(b[y_col]))),
            False)
        b = b.filter(m)
        if b.num_rows == 0:
            return pa.table({"n": pa.array([], pa.int64()),
                             "cov": pa.array([], pa.int64())})
        ae = resid(b)
        return pa.table({
            "n": pa.array([len(ae)], pa.int64()),
            "cov": pa.array([int((ae <= q_int).sum())], pa.int64())})

    tot = sum_partials(ray.get(materialized_block_refs(
        withb.map_batches(test_partial, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=None))),
        keys=[], vals=["n", "cov"])
    n_test, cov = ((0, 0) if tot is None
                   else (tot["n"][0].as_py(), tot["cov"][0].as_py()))
    if n_test == 0:
        raise ValueError("conformal_intervals: empty test split")
    denom = float(S) * float(y_scale)
    return pa.table({
        "n_train": pa.array([n_train], pa.int64()),
        "n_cal": pa.array([n_cal], pa.int64()),
        "n_test": pa.array([n_test], pa.int64()),
        "q_hat": pa.array([float(q_int) / denom], pa.float64()),
        "coverage": pa.array([float(cov) / float(n_test)],
                             pa.float64()),
        "target": pa.array(
            [float(alpha_den - alpha_num) / float(alpha_den)],
            pa.float64())})
