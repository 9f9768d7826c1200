"""Two-pass magnitude normalization — distributed re-expression of the
reference's ``MagnitudeTransformer`` (featurebox/symbol/preprocess.py:25-170):
fit = global column means → per-column order-of-magnitude scale (group-aware:
grouped columns share the mean of their means), transform = divide.

Pass 1 is a partial+final aggregate (``ds.aggregate(Mean(...))`` — each block
contributes partial sums, driver combines: SURVEY.md §2.5); pass 2 is a
stateless vectorized ``map_batches`` divide with the tiny scale vector
captured in the task closure (broadcast once, not per batch).

Reference semantics preserved where the reference is well-defined:
float32 cast of means, scale = 10^ger_magnitude(mean) (closed form of the
reference's divide/multiply loop — see ``_scale``), ``tolerate`` band ->
1, group fold via mean-of-means, ``standard`` divisor, keep/apply masks.
Documented divergence: for means in (-1, 0) the reference's
``ger_magnitude`` loop never terminates (``while a <= 1`` with a negative
``a`` multiplied by 10), so this engine uses the |mean| closed form there
instead of hanging.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Union

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _scale(mean_val: float) -> float:
    """Order-of-magnitude scale of a column mean — closed form of the
    reference ``ger_magnitude`` loop (symbol/preprocess.py:6-22):

    * m > 1        -> 10**(floor(log10(m)) + 1)   (e.g. 1234.5 -> 10000)
    * 0 < m <= 1   -> 10**-(floor(-log10(m)) + 1) (e.g. 0.5 -> 0.1, 1 -> 0.1)
    * m <= -1      -> 1  (the reference's ``while a >= 1`` never runs)
    * -1 < m < 0   -> |m| closed form (reference loop diverges; documented)
    * 0 / NaN / inf -> 1
    """
    if mean_val == 0 or not math.isfinite(mean_val):
        return 1.0
    if mean_val <= -1:
        return 1.0
    a = abs(mean_val)
    if a > 1:
        return 10.0 ** (math.floor(math.log10(a)) + 1)
    return 10.0 ** -(math.floor(-math.log10(a)) + 1)


class MagnitudeNormalizer:
    def __init__(
        self,
        columns: Sequence[str],
        *,
        standard: float = 1.0,
        tolerate: int = 0,
        group: Union[int, List[List[int]], None] = None,
        keep: Optional[Sequence[int]] = None,
    ):
        self.columns = list(columns)
        self.standard = standard
        self.tolerate = tolerate
        self.group = group
        self.keep = keep
        self.scale: Optional[np.ndarray] = None

    def fit(self, ds) -> "MagnitudeNormalizer":
        from ray.data.aggregate import Mean

        aggs = [Mean(c) for c in self.columns]
        res = ds.aggregate(*aggs)
        means = np.array(
            [res[f"mean({c})"] for c in self.columns], dtype=np.float32
        )
        n = len(means)
        group = self.group
        if group:
            if isinstance(group, int):
                assert n > group > 1
                idx = list(range(n))
                group = [idx[i:i + group] for i in range(0, n, group)]
            for g in group:
                if len(g) > 0:
                    means[g] = np.mean(means[g])
        scale = np.array([_scale(float(m)) for m in means])
        if self.tolerate:
            lo, hi = 10.0 ** (-self.tolerate), 10.0 ** self.tolerate
            scale = np.array([1.0 if lo <= s <= hi else s for s in scale])
        scale = scale.astype(np.float32) / self.standard
        if self.keep is not None:
            for i in self.keep:
                scale[i] = 1.0
        self.scale = scale
        return self

    def transform(self, ds):
        assert self.scale is not None, "fit first"
        cols = self.columns
        scale = self.scale.astype(np.float64)

        def divide(batch: pa.Table) -> pa.Table:
            for c, s in zip(cols, scale):
                i = batch.column_names.index(c)
                v = batch[c].to_numpy(zero_copy_only=False).astype(np.float64)
                batch = batch.set_column(i, c, pa.array(v / s))
            return batch

        return ds.map_batches(
            divide, batch_format="pyarrow", zero_copy_batch=True
        )

    def fit_transform(self, ds):
        return self.fit(ds).transform(ds)

    # ---- y / constants side (preprocess.py:90-170 parity) -------------
    def fit_y(self, y_mean: float) -> "MagnitudeNormalizer":
        """Fit the target scale from its (pre-aggregated) mean."""
        import numpy as np

        m = np.float32(y_mean)
        s = _scale(float(m))
        if self.tolerate:
            lo, hi = 10.0 ** (-self.tolerate), 10.0 ** self.tolerate
            s = 1.0 if lo <= s <= hi else s
        self.scale_y = float(np.float32(s) / self.standard)
        return self

    def transform_y(self, y):
        assert getattr(self, "scale_y", None) is not None, "fit_y first"
        return y / self.scale_y

    def inverse_transform_y(self, y):
        assert getattr(self, "scale_y", None) is not None, "fit_y first"
        return y * self.scale_y

    def fit_transform_constants(self, consts):
        """Per-constant scales (reference fit_constant/transform_constant)."""
        import numpy as np

        consts = np.asarray(consts, dtype=np.float64)
        scales = np.array([_scale(float(np.float32(c))) for c in consts])
        if self.tolerate:
            lo, hi = 10.0 ** (-self.tolerate), 10.0 ** self.tolerate
            scales = np.where((scales >= lo) & (scales <= hi), 1.0, scales)
        scales = scales.astype(np.float32) / self.standard
        self.scale_c = scales.astype(np.float64)
        return consts / self.scale_c


def add_group_norm_features(ds, *, key_col: str, int_value_col: str,
                            share_col: str = "share",
                            z_col: str = "zscore",
                            num_partitions: int = 8):
    """Per-row share-of-group and group z-score from EXACT integer
    sufficient statistics — the per-key feature-normalization stage.

    One tiny keyed exchange computes per-group ``(n, sum, sum²)`` as
    int64 (pass a pre-scaled integer value column — money in cents — so
    the sums are order-independent-exact; note ``sum(v²)`` bounds int64
    up to ~|v|²·rows ≈ 9e18, shift/rescale first at extreme scale),
    the group table broadcasts once via ``ray.put``, and the fact
    stream maps with a FIXED float64 op order:

    ``share = v / sum``;
    ``z = (v - sum/n) / sqrt((sum² - sum·sum/n) / (n-1))`` —
    written identically in SQL, both sides bit-exact.  Groups with one
    row get NULL z (the sample variance is undefined); NULL values get
    NULL share/z; NULL keys form one group.
    """
    import ray

    from .partition import partitioned_refs

    def partial(b: pa.Table) -> pa.Table:
        import pandas as pd

        t = (b.filter(pc.is_valid(b[int_value_col]))
             if b[int_value_col].null_count else b)
        col = t[key_col].combine_chunks()
        d = pc.dictionary_encode(col)
        n_named = len(d.dictionary)
        idx = d.indices
        codes = (pc.fill_null(idx, n_named) if idx.null_count else idx
                 ).to_numpy(zero_copy_only=False).astype(np.int64)
        dic = d.dictionary
        if col.null_count:
            dic = pa.concat_arrays([dic, pa.nulls(1, dic.type)])
        v = (t[int_value_col].combine_chunks().cast(pa.int64())
             .to_numpy(zero_copy_only=False))
        df = pd.DataFrame({"k": codes, "n": np.ones(len(v), np.int64),
                           "s": v, "s2": v * v})
        g = df.groupby("k", as_index=False).sum()
        return pa.table({
            key_col: dic.take(pa.array(g["k"].to_numpy(np.int64))),
            "n": pa.array(g["n"].to_numpy(np.int64)),
            "s": pa.array(g["s"].to_numpy(np.int64)),
            "s2": pa.array(g["s2"].to_numpy(np.int64)),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)
    stats = partitioned_refs(partials, lambda t: _sum_groups(t, key_col),
                             key=key_col, sort_keys=[key_col],
                             num_partitions=num_partitions)
    blocks = [b for b in ray.get(stats) if b.num_rows > 0]
    if blocks:
        gt = pa.concat_tables(blocks, promote_options="default")
    else:
        gt = None
    stats_ref = ray.put(gt)

    def apply(b: pa.Table) -> pa.Table:
        gt_ = ray.get(stats_ref)
        n_rows = b.num_rows
        if gt_ is None or n_rows == 0:
            return (b.append_column(share_col,
                                    pa.nulls(n_rows, pa.float64()))
                    .append_column(z_col, pa.nulls(n_rows, pa.float64())))
        # join via index_in on the (small, broadcast) group table;
        # NULL keys matched through a sentinel slot
        keys = b[key_col].combine_chunks()
        gkeys = gt_[key_col].combine_chunks()
        pos = pc.index_in(keys, value_set=gkeys)
        null_slot = pc.index_in(
            pa.array([None], gkeys.type), value_set=gkeys)[0]
        if keys.null_count and null_slot.is_valid:
            pos = pc.if_else(pc.is_valid(keys), pos, null_slot)
        posn = pc.fill_null(pos, -1).to_numpy(
            zero_copy_only=False).astype(np.int64)
        n = gt_["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        s = gt_["s"].to_numpy(zero_copy_only=False).astype(np.float64)
        s2 = gt_["s2"].to_numpy(zero_copy_only=False).astype(np.float64)
        vcol = b[int_value_col].combine_chunks().cast(pa.float64())
        v = pc.fill_null(vcol, np.nan).to_numpy(zero_copy_only=False)
        ok = posn >= 0
        idx = np.where(ok, posn, 0)
        gn, gs, gs2 = n[idx], s[idx], s2[idx]
        with np.errstate(invalid="ignore", divide="ignore"):
            share = v / gs
            mean = gs / gn
            var = (gs2 - gs * gs / gn) / (gn - 1.0)
            z = (v - mean) / np.sqrt(var)
        share = np.where(ok, share, np.nan)
        z = np.where(ok & (gn > 1.0), z, np.nan)
        return (b.append_column(
                    share_col, pa.array(share, pa.float64(),
                                        mask=np.isnan(share)))
                .append_column(
                    z_col, pa.array(z, pa.float64(), mask=np.isnan(z))))

    return ds.map_batches(apply, batch_format="pyarrow",
                          zero_copy_batch=True)


def _sum_groups(t: pa.Table, key_col: str) -> pa.Table:
    """Sum (n, s, s2) partials per key (null-safe codes)."""
    import pandas as pd

    if t.num_rows == 0:
        return t
    col = t[key_col].combine_chunks()
    d = pc.dictionary_encode(col)
    n_named = len(d.dictionary)
    idx = d.indices
    codes = (pc.fill_null(idx, n_named) if idx.null_count else idx
             ).to_numpy(zero_copy_only=False).astype(np.int64)
    dic = d.dictionary
    if col.null_count:
        dic = pa.concat_arrays([dic, pa.nulls(1, dic.type)])
    df = pd.DataFrame({"k": codes})
    for m in ("n", "s", "s2"):
        df[m] = t[m].to_numpy(zero_copy_only=False)
    g = df.groupby("k", as_index=False).sum()
    return pa.table({
        key_col: dic.take(pa.array(g["k"].to_numpy(np.int64))),
        "n": pa.array(g["n"].to_numpy(np.int64)),
        "s": pa.array(g["s"].to_numpy(np.int64)),
        "s2": pa.array(g["s2"].to_numpy(np.int64)),
    })


def add_robust_zscore(ds, *, key_col: str, value_col: str,
                      out_col: str = "robust_z",
                      num_partitions: int = 16):
    """Per-row robust z-score ``(v - median) / MAD`` with per-group
    median and MAD (median absolute deviation) — the outlier-resistant
    sibling of :func:`add_group_norm_features`'s mean/std z-score.

    One keyed exchange co-locates each group; the kernel makes two
    vectorized quantile_disc element picks per group segment (one
    lexsort each, the q51 rank convention ``max(ceil(0.5·n)-1, 0)``) and
    the score is two IEEE ops (``(v - med) / mad``), so results replay
    bit-exactly in SQL (``quantile_disc`` CTEs + ``abs`` + one
    division).  NULL values are ignored in both picks and score NULL;
    groups with ``MAD == 0`` (more than half the values identical) or no
    valid values score NULL; NULL keys form one group.
    """
    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return t.append_column(out_col, pa.array([], pa.float64()))
        from .window import _key_codes_dic
        codes, _ = _key_codes_dic(t[key_col])
        v = (t[value_col].combine_chunks().cast(pa.float64())
             .to_numpy(zero_copy_only=False))
        from ..functions import segments as seg
        seg_start, _, is_start = seg.segment_ids(codes)
        n = len(v)
        starts = np.flatnonzero(is_start)
        ends = np.append(starts[1:], n)

        def _group_disc(vals):
            """quantile_disc(0.5) element per segment of ``vals`` (NaN
            ignored), returned per-row-aligned; NaN when no valid."""
            order = np.lexsort((vals, codes))
            sv = vals[order]
            # valid counts per segment (NaN sort last within segment)
            valid = ~np.isnan(vals)
            nv = np.add.reduceat(valid.astype(np.int64), starts)
            nv[ends - starts == 0] = 0
            pick = np.full(len(starts), np.nan)
            has = nv > 0
            if has.any():
                # vectorized _rank(0.5, n): max(ceil(q·n)-1, 0), float64
                ranks = np.maximum(
                    np.ceil(0.5 * nv[has].astype(np.float64))
                    .astype(np.int64) - 1, 0)
                pick[has] = sv[starts[has] + ranks]
            # broadcast per segment to rows
            seg_id = np.cumsum(is_start) - 1
            return pick[seg_id]

        med = _group_disc(v)
        adev = np.abs(v - med)
        mad = _group_disc(adev)
        with np.errstate(invalid="ignore", divide="ignore"):
            z = (v - med) / mad
        bad = np.isnan(v) | np.isnan(mad) | (mad == 0.0)
        return t.append_column(
            out_col, pa.array(np.where(bad, 0.0, z), pa.float64(),
                              mask=bad))

    from .partition import partitioned_map

    return partitioned_map(ds, kernel, key=key_col,
                           sort_keys=[key_col],
                           num_partitions=num_partitions)
