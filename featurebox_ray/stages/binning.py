"""Per-group quantile binning (feature discretization): assign each row
the quantile bucket of its value WITHIN its group — the classic
numeric-feature discretizer (value → {0..Q} by per-group quartile/decile
edges).

Two stages, one tiny broadcast: (1) :func:`group_quantiles` computes the
exact per-group edges (one keyed exchange over the groups); (2) the fact
stream maps with the edge matrix broadcast once (``ray.put``) — bucket =
number of edges strictly below the value (``edge < value``), i.e. SQL
``CASE WHEN value <= q1 THEN 0 WHEN value <= q2 THEN 1 ...``.  Edges are
exact data elements (quantile_disc picks, no interpolation), so the
comparisons — and therefore the buckets — replay bit-exactly in SQL.

NULL values and NULL/unknown groups produce NULL buckets.

Reference analog: the reference discretizes via magnitude scaling
(``symbol/preprocess.py``); quantile binning is the distribution-aware
variant a training pipeline uses for robust features.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def quantile_bin(ds, *, group_col: str, value_col: str,
                 qs: Sequence[float] = (0.25, 0.5, 0.75),
                 num_partitions: int = 8, out_col: str = "q_bucket"):
    """Append ``out_col`` (int64 in ``[0, len(qs)]``, null for null
    value/group) to every row of ``ds``."""
    import ray

    from .partition import materialized_block_refs
    from .quantile import group_quantiles

    qs = list(qs)
    names = [f"__e{i}" for i in range(len(qs))]
    edges_ds = group_quantiles(ds, group_col=group_col,
                               value_col=value_col, qs=qs, names=names,
                               num_partitions=num_partitions)
    blocks = [b for b in ray.get(materialized_block_refs(edges_ds))
              if b.num_rows > 0]
    if not blocks:
        def passthrough(b: pa.Table) -> pa.Table:
            return b.append_column(out_col,
                                   pa.nulls(b.num_rows, pa.int64()))

        return ds.map_batches(passthrough, batch_format="pyarrow",
                              zero_copy_batch=True)
    edges = pa.concat_tables(blocks, promote_options="default")
    # groups with zero non-null values carry null edges: mark them so
    # their rows (necessarily null-valued anyway) stay null-bucketed
    garr = edges[group_col].combine_chunks()
    emat = np.stack([edges[nm].to_numpy(zero_copy_only=False)
                     for nm in names], axis=1)  # (G, Q), NaN = null edge
    bcast = ray.put((garr, emat))

    def bin_batch(b: pa.Table) -> pa.Table:
        g_ref, e_ref = ray.get(bcast)
        pos = pc.index_in(b[group_col].combine_chunks(), value_set=g_ref)
        valid_g = pc.is_valid(pos).to_numpy(zero_copy_only=False)
        p = pos.fill_null(0).to_numpy(zero_copy_only=False).astype(np.int64)
        v = b[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        row_edges = e_ref[p]                        # (n, Q)
        # bucket = #edges strictly below value (edge < v); NaN edges or
        # NaN/null values poison the row -> null bucket
        with np.errstate(invalid="ignore"):
            bucket = (row_edges < v[:, None]).sum(axis=1).astype(np.int64)
        ok = valid_g & ~np.isnan(v) & ~np.isnan(row_edges).any(axis=1)
        return b.append_column(out_col, pa.array(bucket, mask=~ok))

    return ds.map_batches(bin_batch, batch_format="pyarrow",
                          zero_copy_batch=True)


def winsorize(ds, *, group_col: str, value_col: str,
              q_lo: float = 0.05, q_hi: float = 0.95,
              num_partitions: int = 8, out_col: str = "value_w"):
    """Per-group winsorization (outlier clipping): append ``out_col`` =
    ``value`` clipped to the group's ``[q_lo, q_hi]`` quantile_disc
    edges.  Same two-stage shape as :func:`quantile_bin`; the edges are
    EXACT data elements, so clipping is pure comparison + substitution
    of stored doubles — SQL ``least(greatest(value, lo), hi)`` replays
    it bit-exactly.  NULL value/group rows keep a NULL output; a group
    whose edges are null (no non-null values) passes values through
    un-clipped."""
    import ray

    from .partition import materialized_block_refs
    from .quantile import group_quantiles

    edges_ds = group_quantiles(ds, group_col=group_col,
                               value_col=value_col, qs=[q_lo, q_hi],
                               names=["__lo", "__hi"],
                               num_partitions=num_partitions)
    blocks = [b for b in ray.get(materialized_block_refs(edges_ds))
              if b.num_rows > 0]
    if not blocks:
        def passthrough(b: pa.Table) -> pa.Table:
            return b.append_column(out_col,
                                   pa.nulls(b.num_rows, pa.float64()))

        return ds.map_batches(passthrough, batch_format="pyarrow",
                              zero_copy_batch=True)
    edges = pa.concat_tables(blocks, promote_options="default")
    garr = edges[group_col].combine_chunks()
    lo = edges["__lo"].to_numpy(zero_copy_only=False)
    hi = edges["__hi"].to_numpy(zero_copy_only=False)
    bcast = ray.put((garr, lo, hi))

    def clip_batch(b: pa.Table) -> pa.Table:
        g_ref, lo_ref, hi_ref = ray.get(bcast)
        pos = pc.index_in(b[group_col].combine_chunks(), value_set=g_ref)
        valid_g = pc.is_valid(pos).to_numpy(zero_copy_only=False)
        p = pos.fill_null(0).to_numpy(zero_copy_only=False).astype(np.int64)
        vcol = b[value_col]
        if isinstance(vcol, pa.ChunkedArray):
            vcol = vcol.combine_chunks()
        null_v = (np.asarray(pc.is_null(vcol)) if vcol.null_count
                  else np.zeros(len(vcol), bool))
        v = vcol.to_numpy(zero_copy_only=False).astype(np.float64)
        row_lo = np.where(valid_g, lo_ref[p], np.nan)
        row_hi = np.where(valid_g, hi_ref[p], np.nan)
        with np.errstate(invalid="ignore"):
            # comparison-substitution (NOT np.clip: its NaN semantics
            # differ and it computes min(max(...)) in one pass anyway)
            out = np.where(v < row_lo, row_lo, v)
            out = np.where(out > row_hi, row_hi, out)
        # NaN edges (unknown group / all-null group) -> pass-through
        out = np.where(np.isnan(row_lo) | np.isnan(row_hi), v, out)
        return b.append_column(out_col, pa.array(out, mask=null_v))

    return ds.map_batches(clip_batch, batch_format="pyarrow",
                          zero_copy_batch=True)


def jenks_breaks(ds, *, group_col: str, value_col: str, k: int = 4,
                 max_distinct: int = 4096, num_partitions: int = 8):
    """Per-group OPTIMAL 1-D classification (Fisher 1958 / Jenks
    natural breaks): partition each group's value distribution into
    ``k`` contiguous classes minimizing total within-class weighted
    sum of squares — the principled alternative to equal-width /
    equal-frequency binning when a feature is multi-modal (doc-length
    regimes, latency tiers).

    Exact optimization: minimizing Σ SSE ⇔ maximizing Σ S1²/W per
    class (Σ w·v² is partition-invariant).  The DP runs on float64
    for pruning but every candidate within 1e-9 relative of the float
    argmax is RE-COMPARED with exact ``fractions.Fraction`` values
    (the q211 prune-then-refine convention), ties to the SMALLEST
    split index — so the chosen breaks are the exact optimum,
    independent of partitioning, and a serial full-Fraction replay
    reproduces them bit-for-bit.  With fewer distinct values than
    ``k``, ``k_eff = n_distinct`` singleton-capable classes emit.

    Per-class outputs: ``lo``/``hi`` (class value range), ``n_rows``
    (weight), ``mean = double(S1)/double(W)`` and ``within_ss =
    d(S2) − d(S1)·d(S1)/d(W)`` — fixed correctly-rounded sequences
    over exact sub-2^53 ints (guarded).

    Shape: per-block ``(group, value, cnt)`` partials (Arrow
    group_by); ONE group-keyed exchange; the kernel merges counts and
    solves the O(n²·k) DP per group over its ≤ ``max_distinct``
    distinct values (raises above — bounded-distinct contract shared
    with ``encode.quantile_normalize``).  Values must be
    integer-valued.

    Returns ``(group_col, cls:int64, lo:int64, hi:int64,
    n_rows:int64, mean:float64, within_ss:float64)``.  Reference
    analog: none (feature-binning extension next to quantile_bin).
    """
    from .partition import partitioned_map

    def partial(b: pa.Table) -> pa.Table:
        v = b[value_col].combine_chunks()
        keep = pc.and_(pc.fill_null(pc.is_valid(b[group_col]), False),
                       pc.fill_null(pc.is_valid(v), False))
        t = pa.table({group_col: b[group_col],
                      "v": v.cast(pa.int64())}).filter(keep)
        agg = t.group_by([group_col, "v"]).aggregate(
            [([], "count_all")])
        return agg.rename_columns([group_col, "v", "cnt"])

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)

    gtype = ds.schema()
    gtype = getattr(gtype, "base_schema", gtype).field(group_col).type
    empty = pa.table({group_col: pa.array([], gtype),
                      "cls": pa.array([], pa.int64()),
                      "lo": pa.array([], pa.int64()),
                      "hi": pa.array([], pa.int64()),
                      "n_rows": pa.array([], pa.int64()),
                      "mean": pa.array([], pa.float64()),
                      "within_ss": pa.array([], pa.float64())})

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "v" not in t.column_names:
            return empty
        garr = t[group_col].combine_chunks()
        gd = pc.dictionary_encode(garr)
        gc = gd.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)
        v = t["v"].to_numpy(zero_copy_only=False)
        c = t["cnt"].to_numpy(zero_copy_only=False)
        # merge duplicate (g, v) partial rows (sorted input)
        new = np.ones(len(gc), bool)
        new[1:] = (gc[1:] != gc[:-1]) | (v[1:] != v[:-1])
        seg = np.cumsum(new) - 1
        cm = np.zeros(int(seg[-1]) + 1, np.int64)
        np.add.at(cm, seg, c)
        starts = np.flatnonzero(new)
        gm, vm = gc[starts], v[starts]
        rows = {"g": [], "cls": [], "lo": [], "hi": [], "n": [],
                "mean": [], "ss": []}
        g_new = np.ones(len(gm), bool)
        g_new[1:] = gm[1:] != gm[:-1]
        g_starts = np.flatnonzero(g_new)
        g_lens = np.diff(np.append(g_starts, len(gm)))
        for gs, gl in zip(g_starts, g_lens):
            if gl > max_distinct:
                raise ValueError(
                    f"jenks_breaks: {gl} distinct values exceed "
                    f"max_distinct={max_distinct}; quantize first")
            vals = vm[gs:gs + gl]
            wts = cm[gs:gs + gl]
            bounds = _jenks_dp(vals, wts, min(k, gl))
            code = int(gm[gs])
            for ci, (a, b_) in enumerate(bounds):
                W = int(wts[a:b_ + 1].sum())
                S1 = int((wts[a:b_ + 1] * vals[a:b_ + 1]).sum())
                S2 = int((wts[a:b_ + 1]
                          * vals[a:b_ + 1] * vals[a:b_ + 1]).sum())
                if max(abs(S1), S2, W) >= 2 ** 53:
                    raise ValueError("jenks_breaks: class sums "
                                     ">= 2^53 break exactness")
                rows["g"].append(code)
                rows["cls"].append(ci)
                rows["lo"].append(int(vals[a]))
                rows["hi"].append(int(vals[b_]))
                rows["n"].append(W)
                rows["mean"].append(float(S1) / float(W))
                rows["ss"].append(
                    float(S2) - float(S1) * float(S1) / float(W))
        return pa.table({
            group_col: gd.dictionary.take(
                pa.array(rows["g"], pa.int64())),
            "cls": pa.array(rows["cls"], pa.int64()),
            "lo": pa.array(rows["lo"], pa.int64()),
            "hi": pa.array(rows["hi"], pa.int64()),
            "n_rows": pa.array(rows["n"], pa.int64()),
            "mean": pa.array(rows["mean"], pa.float64()),
            "within_ss": pa.array(rows["ss"], pa.float64()),
        })

    return partitioned_map(partials, kernel, key=group_col,
                           sort_keys=[group_col, "v"],
                           num_partitions=num_partitions)


def _jenks_dp(vals: np.ndarray, wts: np.ndarray, k: int):
    """Exact Fisher DP: maximize Σ S1²/W over k contiguous classes of
    the sorted distinct (value, weight) sequence.  Float64 pruning +
    Fraction refine of near-ties (1e-9 relative), split ties to the
    SMALLEST index.  Returns k (start, end) inclusive index pairs."""
    from fractions import Fraction

    n = len(vals)
    w = wts.astype(np.float64)
    x = vals.astype(np.float64)
    cw = np.concatenate([[0.0], np.cumsum(w)])
    cs = np.concatenate([[0.0], np.cumsum(w * x)])
    cwi = np.concatenate([[0], np.cumsum(wts)])
    csi = np.concatenate([[0], np.cumsum(wts * vals)])

    def seg_f(a: np.ndarray, b: int) -> np.ndarray:
        s = cs[b + 1] - cs[a]
        return s * s / (cw[b + 1] - cw[a])

    def seg_x(a: int, b: int) -> Fraction:
        s = int(csi[b + 1] - csi[a])
        return Fraction(s * s, int(cwi[b + 1] - cwi[a]))

    # D[c][j] = best Σ S1²/W for items 0..j in c+1 classes
    Df = np.full((k, n), -np.inf)
    Dx = [[None] * n for _ in range(k)]
    back = np.zeros((k, n), np.int64)
    idx = np.arange(n)
    for j in range(n):
        Df[0][j] = float(seg_f(np.array([0]), j)[0])
        Dx[0][j] = seg_x(0, j)
    for c in range(1, k):
        for j in range(c, n):
            m = idx[c:j + 1]            # class c starts at m
            cand = Df[c - 1][m - 1] + seg_f(m, j)
            best = cand.max()
            near = m[cand >= best - 1e-9 * max(abs(best), 1.0)]
            bx, bm = None, None
            for mm in near:             # exact refine, smallest wins
                ex = Dx[c - 1][mm - 1] + seg_x(mm, j)
                if bx is None or ex > bx:
                    bx, bm = ex, mm
            Df[c][j] = float(bx)
            Dx[c][j] = bx
            back[c][j] = bm
    bounds = []
    j = n - 1
    for c in range(k - 1, 0, -1):
        m = int(back[c][j])
        bounds.append((m, j))
        j = m - 1
    bounds.append((0, j))
    return bounds[::-1]
