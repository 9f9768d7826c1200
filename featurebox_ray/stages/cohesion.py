"""Per-group centroid-distance features over an embedding column —
"how far is each vector from its own group's centroid", the cluster-
cohesion / within-class-outlier signal used to rank candidates for
relabeling, prune mislabeled training rows, or pre-filter semantic
dedup (a vector far from every centroid is nobody's near-duplicate).

Physical plan (two passes, no vector shuffle): per-block int64 partial
sums per group (count + per-dim Σxq via ``np.add.at``), a tiny driver
combine over O(blocks × groups × dims) cells (groups are label-sized),
stats broadcast once via ``ray.put``, then a streaming score pass.

Exactness contract (full SQL oracle, no fixture): vectors quantize
half-UP via ``floor(x · 2^qb + 0.5)`` — floor/multiply/add are all
correctly-rounded IEEE ops, so DuckDB's ``floor(CAST(v AS DOUBLE) *
2^qb + 0.5)`` produces the identical integer (never ``round``:
np.round is half-even, SQL round is half-away, and float32 grids DO
land on ties).  The squared distance to the centroid is then computed
entirely in integers::

    ss     = Σ_d (n·xq_d − s_d)²          (exact int64, guarded)
    dist2  = double(ss) / double(n·n) / double(2^{2·qb})

— two IEEE divisions from exactly-converted ints (``ss < 2^53``
enforced), replayed bit-identically by HUGEINT SQL.  NULL group rows
drop; NULL vectors drop.

Scale notes: the exchange moves only sufficient-statistic cells; the
score pass is one broadcast read + one vectorized matmul-free integer
pass per block.  Guard raises with quantize-coarser guidance when
``dims · max|n·xq − s|²`` approaches 2^53.

Reference analog: none (beyond-reference embedding-table operator
alongside kmeans/PCA/semdedup).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .partition import (global_span_cut, materialized_block_refs,
                        partitioned_map)


def quantize_half_up(x: np.ndarray, quant_bits: int) -> np.ndarray:
    """``floor(x · 2^qb + 0.5)`` as int64 — every step is a correctly
    rounded IEEE op, so SQL replays the identical integer grid."""
    s = float(1 << quant_bits)
    return np.floor(x.astype(np.float64) * s + 0.5).astype(np.int64)


def _batch_mat(batch: pa.Table, vec_col: str, quant_bits: int):
    arr = batch[vec_col].combine_chunks()
    n = len(arr)
    if n:
        # ragged lists whose total length divides evenly would silently
        # reshape into misaligned rows — validate uniformity up front
        mm = pc.min_max(pc.list_value_length(arr))
        if mm["min"].as_py() != mm["max"].as_py():
            raise ValueError(
                f"{vec_col} lists are ragged ({mm['min']}..{mm['max']} "
                "elements) — fixed-dimension embeddings required")
    flat = arr.flatten().to_numpy(zero_copy_only=False)
    dims = len(flat) // n if n else 0
    return quantize_half_up(flat.reshape(n, dims), quant_bits), dims


def _collect_group_stats(ds, *, vec_col: str, group_col: str,
                         quant_bits: int):
    """Exact per-group quantized sufficient statistics: one
    partial-sums pass + tiny driver combine; returns ``(gvals,
    n_arr, s_mat)`` with groups sorted by value (deterministic)."""
    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.and_(pc.is_valid(batch[group_col]),
                                     pc.is_valid(batch[vec_col])))
        gtype = batch.schema.field(group_col).type
        if batch.num_rows == 0:
            return pa.table({group_col: pa.array([], gtype),
                             "n": pa.array([], pa.int64()),
                             "s": pa.array([], pa.list_(pa.int64()))})
        xq, dims = _batch_mat(batch, vec_col, quant_bits)
        gd = pc.dictionary_encode(batch[group_col].combine_chunks())
        codes = gd.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        g = len(gd.dictionary)
        cnt = np.bincount(codes, minlength=g).astype(np.int64)
        s = np.zeros((g, dims), np.int64)
        np.add.at(s, codes, xq)
        return pa.table({
            group_col: gd.dictionary,
            "n": pa.array(cnt),
            "s": pa.array(list(s), pa.list_(pa.int64())),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)
    blocks = [b for b in ray.get(materialized_block_refs(partials))
              if b.num_rows > 0]
    stats: dict = {}
    for b in blocks:
        gs = b[group_col].to_pylist()
        ns = b["n"].to_pylist()
        ss = b["s"].to_pylist()
        for gval, nv, sv in zip(gs, ns, ss):
            cur = stats.get(gval)
            if cur is None:
                stats[gval] = [nv, np.asarray(sv, np.int64).copy()]
            else:
                cur[0] += nv
                cur[1] += np.asarray(sv, np.int64)
    # dense lookup arrays keyed by group value
    gvals = sorted(stats)
    n_arr = np.array([stats[g][0] for g in gvals], np.int64)
    s_mat = (np.stack([stats[g][1] for g in gvals])
             if gvals else np.zeros((0, 0), np.int64))
    return gvals, n_arr, s_mat


def group_centroid_distance(ds, *, vec_col: str = "embedding",
                            id_col: str = "vec_id",
                            group_col: str = "label",
                            quant_bits: int = 8):
    """Per row: ``(id_col, group_col, n:int64, dist2:float64)`` — the
    squared euclidean distance from the (quantized) vector to its
    group's exact centroid.  Rows with NULL group or NULL vector drop.
    """
    gvals, n_arr, s_mat = _collect_group_stats(
        ds, vec_col=vec_col, group_col=group_col,
        quant_bits=quant_bits)
    stats_ref = ray.put((gvals, n_arr, s_mat))
    scale = float(1 << (2 * quant_bits))

    def score(batch: pa.Table) -> pa.Table:
        gvals_, n_, s_ = ray.get(stats_ref)
        batch = batch.filter(pc.and_(pc.is_valid(batch[group_col]),
                                     pc.is_valid(batch[vec_col])))
        out_empty = pa.table({
            id_col: batch[id_col].slice(0, 0),
            group_col: batch[group_col].slice(0, 0),
            "n": pa.array([], pa.int64()),
            "dist2": pa.array([], pa.float64())})
        if batch.num_rows == 0 or not gvals_:
            return out_empty
        xq, dims = _batch_mat(batch, vec_col, quant_bits)
        if s_.size and dims != s_.shape[1]:
            raise ValueError(
                f"embedding dims differ across blocks: {dims} here vs "
                f"{s_.shape[1]} in the fitted stats")
        pos = pc.index_in(batch[group_col].combine_chunks(),
                          value_set=pa.array(gvals_)).to_numpy(
            zero_copy_only=False).astype(np.int64)
        n_row = n_[pos]
        diff = xq * n_row[:, None] - s_[pos]
        m = int(np.abs(diff).max()) if diff.size else 0
        if m and dims * m * m >= 2 ** 53:
            raise ValueError(
                f"dims·max|n·xq−s|² = {dims * m * m} ≥ 2^53 — lower "
                "quant_bits so distances stay exactly representable")
        ss = np.sum(diff * diff, axis=1)
        dist2 = (ss.astype(np.float64)
                 / (n_row * n_row).astype(np.float64) / scale)
        return pa.table({
            id_col: batch[id_col],
            group_col: batch[group_col],
            "n": pa.array(n_row),
            "dist2": pa.array(dist2),
        })

    return ds.map_batches(score, batch_format="pyarrow",
                          zero_copy_batch=True)


def label_prototypes(ds, *, vec_col: str = "embedding",
                     label_col: str = "label", quant_bits: int = 8,
                     num_partitions: int = 8):
    """Per-label mean embedding (class prototypes) — the
    prototype-network / nearest-class-mean primitive (label vectors
    for zero-shot routing, per-class drift baselines, hard-negative
    catalogs).

    Vectors quantize half-up to ``2^quant_bits`` so per-block
    ``(label·d + dim, Σxq, n)`` partials are int64-exact and merge by
    addition on ONE cell-keyed exchange (bytes = labels × dims ×
    blocks); the mean is ``double(Σxq)/double(n)/2^qb`` — two
    divisions, the second by a power of two (exact), so the SQL
    unnest replay matches bit-for-bit.  NULL vector/label rows drop;
    ragged embeddings raise.

    Emits one row per (label, dim): ``(label:int64, dim:int64
    [1-based, matching SQL subscripts], n:int64, sum_q:int64,
    mean:float64)``.
    """
    def partial(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(b[vec_col]),
                       pc.is_valid(b[label_col]))
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        empty = pa.table({"cell": pa.array([], pa.int64()),
                          "s": pa.array([], pa.int64()),
                          "n": pa.array([], pa.int64())})
        if b.num_rows == 0:
            return empty
        Q, d_block = _batch_mat(b, vec_col, quant_bits)
        if d_block != _dims_holder[0]:
            raise ValueError(
                f"label_prototypes: block dimensionality {d_block} != "
                f"probed {_dims_holder[0]} — mixed-width embeddings")
        labs = b[label_col].to_numpy(zero_copy_only=False).astype(
            np.int64)
        d = Q.shape[1]
        u, inv = np.unique(labs, return_inverse=True)
        sums = np.zeros((len(u), d), np.int64)
        np.add.at(sums, inv, Q)
        cnt = np.bincount(inv, minlength=len(u)).astype(np.int64)
        cells = (u[:, None] * d + np.arange(d)[None, :]).ravel()
        return pa.table({
            "cell": pa.array(cells),
            "s": pa.array(sums.ravel()),
            "n": pa.array(np.repeat(cnt, d)),
        })

    def combine(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "cell" not in t.column_names:
            return pa.table({"label": pa.array([], pa.int64()),
                             "dim": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64()),
                             "sum_q": pa.array([], pa.int64()),
                             "mean": pa.array([], pa.float64())})
        cells = t["cell"].to_numpy(zero_copy_only=False)
        u, inv = np.unique(cells, return_inverse=True)
        s = np.zeros(len(u), np.int64)
        n = np.zeros(len(u), np.int64)
        np.add.at(s, inv, t["s"].to_numpy(zero_copy_only=False))
        np.add.at(n, inv, t["n"].to_numpy(zero_copy_only=False))
        mean = (s.astype(np.float64) / n.astype(np.float64)
                / float(1 << quant_bits))
        # cells decode with the GLOBAL dim count, shipped via closure
        return pa.table({
            "label": pa.array(u // _dims_holder[0], pa.int64()),
            "dim": pa.array(u % _dims_holder[0] + 1, pa.int64()),
            "n": pa.array(n), "sum_q": pa.array(s),
            "mean": pa.array(mean, pa.float64()),
        })

    # probe the dimensionality from the first NON-NULL vector among a
    # small local prefix (never .schema() on a lazy mapped dataset; the
    # vec length is data, not schema); every partial then validates its
    # own block against it, so mixed widths raise instead of silently
    # decoding to wrong (label, dim) cells
    probe_rows = ds.limit(64).take_all()
    dims = next((len(r[vec_col]) for r in probe_rows
                 if r.get(vec_col) is not None), None)
    if dims is None:
        raise ValueError("label_prototypes: no non-null vector in the "
                         "first 64 rows — cannot probe dimensionality")
    _dims_holder = [dims]

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)
    return partitioned_map(partials, combine, key="cell",
                           sort_keys=["cell"],
                           num_partitions=num_partitions)


def simplified_silhouette(ds, *, vec_col: str = "embedding",
                          id_col: str = "vec_id",
                          group_col: str = "label",
                          quant_bits: int = 8):
    """Simplified silhouette score per row — the cluster-quality /
    label-audit signal: ``a`` = squared distance to the OWN group
    centroid, ``b`` = min squared distance to any OTHER group's
    centroid, ``sil = (b - a) / max(a, b)`` (0 when both are 0).
    Rows near a foreign centroid (sil < 0) are relabel/mislabel
    candidates; per-group mean sil ranks cluster coherence.

    "Simplified" = centroid-based (Hruschka et al.), not the all-pairs
    original — O(rows x groups) instead of O(rows^2), the standard
    at-scale variant.  Uses squared distances (monotone in distance,
    sqrt-free) so every quantity stays in the exact-int pipeline of
    ``group_centroid_distance``: each ``d_h`` is
    ``double(ss_h) / double(n_h^2) / 2^(2 qb)`` — two IEEE divisions
    from exactly-represented integers, identical to the SQL replay.
    ``b`` = min over identically-computed doubles, so any rational
    tie collapses to the same value on both sides; no argmin column
    is emitted (an argmin label could tie on equal doubles).

    Requires >= 2 groups (raises otherwise).  NULL group/vector rows
    drop.  Output: ``(id, group, n:int64, a, b, sil)``.

    Reference analog: none — companion of group_centroid_distance /
    label_prototypes in the embedding-QA family.
    """
    gvals, n_arr, s_mat = _collect_group_stats(
        ds, vec_col=vec_col, group_col=group_col,
        quant_bits=quant_bits)
    if len(gvals) < 2:
        raise ValueError("simplified_silhouette: needs >= 2 groups, "
                         f"got {len(gvals)}")
    stats_ref = ray.put((gvals, n_arr, s_mat))
    scale = float(1 << (2 * quant_bits))

    def score(batch: pa.Table) -> pa.Table:
        gvals_, n_, s_ = ray.get(stats_ref)
        batch = batch.filter(pc.and_(pc.is_valid(batch[group_col]),
                                     pc.is_valid(batch[vec_col])))
        out_empty = pa.table({
            id_col: batch[id_col].slice(0, 0),
            group_col: batch[group_col].slice(0, 0),
            "n": pa.array([], pa.int64()),
            "a": pa.array([], pa.float64()),
            "b": pa.array([], pa.float64()),
            "sil": pa.array([], pa.float64())})
        if batch.num_rows == 0:
            return out_empty
        xq, dims = _batch_mat(batch, vec_col, quant_bits)
        if s_.size and dims != s_.shape[1]:
            raise ValueError(
                f"embedding dims differ across blocks: {dims} here "
                f"vs {s_.shape[1]} in the fitted stats")
        pos = pc.index_in(batch[group_col].combine_chunks(),
                          value_set=pa.array(gvals_)).to_numpy(
            zero_copy_only=False).astype(np.int64)
        rows = xq.shape[0]
        k = len(gvals_)
        d = np.empty((rows, k), np.float64)
        for h in range(k):
            diff = xq * int(n_[h]) - s_[h]
            m = int(np.abs(diff).max()) if diff.size else 0
            if m and dims * m * m >= 2 ** 53:
                raise ValueError(
                    f"dims·max|n·xq−s|² = {dims * m * m} ≥ 2^53 — "
                    "lower quant_bits so distances stay exact")
            ss = np.sum(diff * diff, axis=1)
            d[:, h] = (ss.astype(np.float64)
                       / float(int(n_[h]) * int(n_[h])) / scale)
        a = d[np.arange(rows), pos]
        d[np.arange(rows), pos] = np.inf
        b = d.min(axis=1)
        maxab = np.maximum(a, b)
        sil = np.where(maxab == 0.0, 0.0,
                       (b - a) / np.where(maxab == 0.0, 1.0, maxab))
        return pa.table({
            id_col: batch[id_col],
            group_col: batch[group_col],
            "n": pa.array(n_[pos]),
            "a": pa.array(a), "b": pa.array(b),
            "sil": pa.array(sil)})

    return ds.map_batches(score, batch_format="pyarrow",
                          zero_copy_batch=True)


def k_center_select(ds, *, vec_col: str = "embedding",
                    id_col: str = "vec_id", k: int = 8,
                    quant_bits: int = 8):
    """Greedy k-center (Gonzalez farthest-point) coreset selection —
    pick ``k`` maximally-spread rows of an embedding table: the
    diversity-sampling primitive for training-data curation (seed a
    labeling batch, pick eval probes, initialize kmeans).  2-approx
    of the optimal covering radius.

    Fully deterministic and integer-exact: vectors quantize half-up
    (the q116 grid) and every distance is an EXACT int64
    ``Σ(xq−cq)²`` — argmax comparisons and ties (min id) never touch
    floats, so a serial replay is bit-identical.  The first center is
    the min id; each round selects the point farthest from its
    nearest chosen center; ``radius2`` is that farthest quantized
    squared distance (the covering radius before the pick), NULL for
    the seed row.  Stops early once every remaining point coincides
    with a center (radius2 == 0 would only repeat duplicates).

    Scale shape: blocks prep once into (id, xq) tables held in the
    object store; each of the ``k`` rounds runs ONE tiny task per
    block that mins the stored per-row distance against the single
    NEW center (vectors never reshuffle, driver sees only per-block
    (max, argmax-id, argmax-vec) summaries).  O(k · blocks) tasks,
    O(rows · dims) ints per block resident.

    Reference analog: none — companion of kmeans/semdedup in the
    embedding-curation family (the deterministic alternative to
    kmeans++ seeding).
    """
    if k < 1:
        raise ValueError("k_center_select: k must be >= 1")

    def prep(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.and_(pc.is_valid(batch[id_col]),
                                     pc.is_valid(batch[vec_col])))
        if batch.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "__xq": pa.array([],
                                              pa.list_(pa.int64()))})
        xq, dims = _batch_mat(batch, vec_col, quant_bits)
        m = int(np.abs(xq).max()) if xq.size else 0
        if m and dims * (2 * m) * (2 * m) >= 2 ** 63:
            raise ValueError("k_center_select: quantized grid too "
                             "fine for exact int64 distances — lower "
                             "quant_bits")
        return pa.table({id_col: batch[id_col].cast(pa.int64()),
                         "__xq": pa.array(list(xq),
                                          pa.list_(pa.int64()))})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True, batch_size=None)
    refs = materialized_block_refs(prepped)

    @ray.remote
    def seed(blk: pa.Table):
        if blk.num_rows == 0:
            return None
        ids = blk[id_col].to_numpy(zero_copy_only=False)
        j = int(np.argmin(ids))
        return (int(ids[j]), np.asarray(blk["__xq"][j].as_py(),
                                        np.int64))

    @ray.remote(num_returns=2)
    def update(blk: pa.Table, mind, cq: np.ndarray):
        if blk.num_rows == 0:
            return np.zeros(0, np.int64), None
        ids = blk[id_col].to_numpy(zero_copy_only=False)
        arr = blk["__xq"].combine_chunks()
        flat = arr.flatten().to_numpy(zero_copy_only=False)
        xq = flat.reshape(blk.num_rows, len(cq))
        diff = xq - cq
        d2 = np.sum(diff * diff, axis=1)
        nm = d2 if mind is None else np.minimum(mind, d2)
        mx = int(nm.max())
        cand = np.flatnonzero(nm == mx)
        j = cand[int(np.argmin(ids[cand]))]
        return nm, (mx, int(ids[j]), xq[j])

    seeds = [s for s in ray.get([seed.remote(r) for r in refs])
             if s is not None]
    if not seeds:
        return pa.table({"sel_ord": pa.array([], pa.int64()),
                         id_col: pa.array([], pa.int64()),
                         "radius2": pa.array([], pa.int64())})
    c_id, c_vec = min(seeds, key=lambda s: s[0])
    sel = [(0, c_id, None)]
    mind_refs = [None] * len(refs)
    for rnd in range(1, k):
        pairs = [update.remote(r, m, c_vec)
                 for r, m in zip(refs, mind_refs)]
        mind_refs = [p[0] for p in pairs]
        bests = [b for b in ray.get([p[1] for p in pairs])
                 if b is not None]
        mx, bid, bvec = max(bests, key=lambda b: (b[0], -b[1]))
        if mx == 0:
            break  # every remaining point coincides with a center
        sel.append((rnd, bid, mx))
        c_id, c_vec = bid, bvec
    return pa.table({
        "sel_ord": pa.array([r for r, _, _ in sel], pa.int64()),
        id_col: pa.array([i for _, i, _ in sel], pa.int64()),
        "radius2": pa.array([d for _, _, d in sel], pa.int64())})


def mahalanobis_outliers(ds, *, vec_col: str = "embedding",
                         id_col: str = "vec_id",
                         label_col: str = "label",
                         quant_bits: int = 10, proj_bits: int = 20,
                         eps: float = 1e-9):
    """Per-label Mahalanobis outlier distances over an embedding
    column — for each row, the squared Mahalanobis distance to its
    OWN label's distribution (covariance-aware: a point 2σ along a
    high-variance direction scores low, 2σ along a tight direction
    scores high), the multivariate upgrade of ``robust_zscore`` and
    the label-noise / mislabeled-sample audit for training corpora.

    Exactness (the q92 PCA recipe, per label): vectors quantize
    half-up to ``2^quant_bits``; per-label ``(n, Σq, ΣqqT)`` are
    INT64-exact partials (driver-tiny combine, one row per label per
    block); the covariance is reconstructed in identical float64 ops
    both sides, whitened by a driver-side ``eigh`` (deterministic on
    identical input); per-row projections are INTEGER matmuls against
    ``round(V·2^proj_bits)`` so every score is exact-int/2^k − offset;
    ``maha² = Σ_c score_c²/max(λ_c, eps)`` accumulates in FIXED
    component order with elementwise ops — the whole chain is
    shape-independent and replays bit-identically (fixture oracle).

    Overflow contract: ``d · max|q| · 2^proj_bits < 2^63`` (raises);
    Gram cells stay int64 to ~3e13 rows at ``quant_bits=10``, |x|≤1.

    Returns ``(id_col, label (int64), maha2:float64)``; NULL
    label/vector rows drop.  Reference analog: none (multivariate
    outlier audit next to group_centroid_distance / PCA).
    """
    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.and_(pc.is_valid(batch[label_col]),
                                     pc.is_valid(batch[vec_col])))
        if batch.num_rows == 0:
            return pa.table({
                "lab": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64()),
                "s": pa.array([], pa.list_(pa.int64())),
                "g": pa.array([], pa.list_(pa.int64()))})
        xq, dims = _batch_mat(batch, vec_col, quant_bits)
        lab = batch[label_col].combine_chunks().cast(
            pa.int64()).to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(lab, return_inverse=True)
        k = len(uniq)
        cnt = np.bincount(inv, minlength=k).astype(np.int64)
        s = np.zeros((k, dims), np.int64)
        np.add.at(s, inv, xq)
        gram = np.zeros((k, dims * dims), np.int64)
        for i, _u in enumerate(uniq):
            rows = xq[inv == i]
            gram[i] = (rows.T @ rows).reshape(-1)
        return pa.table({
            "lab": pa.array(uniq),
            "n": pa.array(cnt),
            "s": pa.array(list(s), pa.list_(pa.int64())),
            "g": pa.array(list(gram), pa.list_(pa.int64()))})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)
    stats: dict = {}
    dims = 0
    for b in ray.get(materialized_block_refs(partials)):
        if b.num_rows == 0:
            continue
        for lv, nv, sv, gv in zip(b["lab"].to_pylist(),
                                  b["n"].to_pylist(),
                                  b["s"].to_pylist(),
                                  b["g"].to_pylist()):
            sv = np.asarray(sv, np.int64)
            gv = np.asarray(gv, np.int64)
            dims = len(sv)
            cur = stats.get(lv)
            if cur is None:
                stats[lv] = [nv, sv.copy(), gv.copy()]
            else:
                cur[0] += nv
                cur[1] += sv
                cur[2] += gv
    if not stats:
        return pa.table({id_col: pa.array([], pa.int64()),
                         "label": pa.array([], pa.int64()),
                         "maha2": pa.array([], pa.float64())})

    params = mahalanobis_params(stats, dims,
                                quant_bits=quant_bits,
                                proj_bits=proj_bits, eps=eps)
    params_ref = ray.put(params)

    scale = float(1 << (quant_bits + proj_bits))

    def score(batch: pa.Table) -> pa.Table:
        p = ray.get(params_ref)
        batch = batch.filter(pc.and_(pc.is_valid(batch[label_col]),
                                     pc.is_valid(batch[vec_col])))
        if batch.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "label": pa.array([], pa.int64()),
                             "maha2": pa.array([], pa.float64())})
        xq, d_blk = _batch_mat(batch, vec_col, quant_bits)
        mq = int(np.abs(xq).max()) if len(xq) else 0
        if mq and d_blk * mq > (2**63 - 1) >> proj_bits:
            raise ValueError("mahalanobis_outliers int64 projection "
                             "guard exceeded; lower proj_bits")
        lab = batch[label_col].combine_chunks().cast(
            pa.int64()).to_numpy(zero_copy_only=False)
        ids = batch[id_col].combine_chunks().cast(
            pa.int64()).to_numpy(zero_copy_only=False)
        out_d2 = np.empty(len(lab), np.float64)
        for lv in np.unique(lab):
            prm = p.get(int(lv))
            if prm is None:
                raise ValueError(f"mahalanobis_outliers: label {lv} "
                                 "missing from the fitted stats")
            vq, offsets, lam = prm
            sel = lab == lv
            si = xq[sel] @ vq
            d2 = np.zeros(int(sel.sum()), np.float64)
            for c in range(vq.shape[1]):
                sc = si[:, c].astype(np.float64) / scale - offsets[c]
                d2 = d2 + (sc * sc) / lam[c]
            out_d2[sel] = d2
        return pa.table({id_col: pa.array(ids),
                         "label": pa.array(lab),
                         "maha2": pa.array(out_d2)})

    return ds.map_batches(score, batch_format="pyarrow",
                          zero_copy_batch=True)


def mahalanobis_params(stats: dict, dims: int, *, quant_bits: int,
                       proj_bits: int, eps: float):
    """The ONE authoritative per-label whitening-parameter
    derivation (shared by the distributed scorer, the fixture replay
    and the tests — the bit-identical claim rests on there being a
    single copy): covariance from exact int sufficient stats via a
    fixed float64 op sequence, driver eigh, integer-rounded
    components, Python-int exact offsets."""
    out = {}
    for lv in sorted(stats):
        n, S, G = stats[lv]
        mean = S.astype(np.float64) / (float(n)
                                       * float(1 << quant_bits))
        e2 = (G.reshape(dims, dims).astype(np.float64)
              / (float(n) * float(1 << (2 * quant_bits))))
        cov = e2 - np.outer(mean, mean)
        lam, V = np.linalg.eigh(cov)
        lam = np.maximum(lam, eps)
        vq = np.round(V * float(1 << proj_bits)).astype(np.int64)
        denom = float(n) * float(1 << (quant_bits + proj_bits))
        offsets = np.array([
            float(sum(int(a) * int(b) for a, b in zip(S, vq[:, c])))
            / denom
            for c in range(dims)])
        out[int(lv)] = (vq, offsets, lam)
    return out


def mmd_drift(ds, *, vec_col: str = "embedding",
              group_col: str = "label", quant_bits: int = 8):
    """Pairwise kernel two-sample test (MMD², quadratic kernel
    ``k(x,y) = (xᵀy)²``) between every pair of groups — DO two
    embedding slices come from the same distribution?  The
    second-moment-sensitive drift test the centroid distance (mean
    only) and W1 (scalar columns only) can't give: with the
    quadratic kernel, ``MMD² = 2·E[k(x,y)] − E'[k(x,x')] −
    E'[k(y,y')]`` reduces EXACTLY to Gram-matrix traces —

        Σ_{i,i'} (x_iᵀx_{i'})² = tr(G_a²),   G_a = X_aᵀX_a
        Σ_{i,j}  (x_iᵀy_j)²   = tr(G_a·G_b)

    — so the whole statistic comes from per-group integer sufficient
    statistics: quantized Grams ``G`` (d² int cells) and the
    diagonal-correction ``s4 = Σ_i ||q_i||²²`` (unbiased within-group
    expectations exclude i = i′).  One streaming pass, driver-tiny
    combine, NO shuffle, NO pair enumeration.

    Exactness: trace products are exact Python ints; each
    expectation is ONE correctly-rounded cast+division
    (``float(num)/float(den)``, HUGEINT in SQL), and ``mmd2 =
    2·exy − exx − eyy`` evaluates in that fixed left-assoc IEEE
    order — bit-exact both sides.  Guard: per-block ``s4`` partials
    stay int64 for ``rows·(d·(2^qb·|x|max)²)² < 2^63``.

    Emits one row per unordered pair ``(g_a < g_b)``: ``(g_a:int64,
    g_b:int64, n_a, n_b, exy, exx, eyy, mmd2)``.  Groups with < 2
    rows emit no pairs (unbiased denominators).  NULL group/vector
    rows drop.  Reference analog: none (distribution-shift family:
    q133/q179/q237).
    """
    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.and_(pc.is_valid(batch[group_col]),
                                     pc.is_valid(batch[vec_col])))
        empty = pa.table({"g": pa.array([], pa.int64()),
                          "n": pa.array([], pa.int64()),
                          "s4": pa.array([], pa.int64()),
                          "gram": pa.array([],
                                           pa.list_(pa.int64()))})
        if batch.num_rows == 0:
            return empty
        xq, dims = _batch_mat(batch, vec_col, quant_bits)
        rn2 = (xq * xq).sum(axis=1)
        mx = int(rn2.max(initial=0))
        if mx and len(xq) > (2**63 - 1) // max(mx * mx, 1):
            raise ValueError("mmd_drift int64 s4 guard exceeded; "
                             "lower quant_bits")
        g = batch[group_col].combine_chunks().cast(
            pa.int64()).to_numpy(zero_copy_only=False)
        uniq = np.unique(g)
        out_g, out_n, out_s4, out_gram = [], [], [], []
        for gv in uniq:
            sel = g == gv
            rows = xq[sel]
            out_g.append(int(gv))
            out_n.append(int(sel.sum()))
            out_s4.append(int((rn2[sel] * rn2[sel]).sum()))
            out_gram.append((rows.T @ rows).reshape(-1))
        return pa.table({
            "g": pa.array(out_g, pa.int64()),
            "n": pa.array(out_n, pa.int64()),
            "s4": pa.array(out_s4, pa.int64()),
            "gram": pa.array([list(x) for x in out_gram],
                             pa.list_(pa.int64()))})

    stats: dict = {}
    for b in ray.get(materialized_block_refs(
            ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None))):
        if b.num_rows == 0:
            continue
        for gv, n, s4, gr in zip(b["g"].to_pylist(),
                                 b["n"].to_pylist(),
                                 b["s4"].to_pylist(),
                                 b["gram"].to_pylist()):
            cur = stats.get(gv)
            # object dtype: cross-block Gram cells accumulate as
            # Python ints — per-block partials are int64-guarded but
            # their SUM is not
            gr = np.asarray(gr, np.int64).astype(object)
            if cur is None:
                stats[gv] = [n, s4, gr]
            else:
                cur[0] += n
                cur[1] += s4
                cur[2] = cur[2] + gr

    def tr_prod(a: np.ndarray, b: np.ndarray) -> int:
        return sum(int(x) * int(y) for x, y in zip(a, b))

    groups = sorted(g for g, v in stats.items() if v[0] >= 2)
    cols = {k: [] for k in ("g_a", "g_b", "n_a", "n_b", "exy",
                            "exx", "eyy", "mmd2")}
    within = {}
    for g in groups:
        n, s4, gr = stats[g]
        within[g] = np.float64(tr_prod(gr, gr) - s4) \
            / np.float64(n * (n - 1))
    for i, ga in enumerate(groups):
        for gb in groups[i + 1:]:
            na, _, gra = stats[ga]
            nb, _, grb = stats[gb]
            exy = np.float64(tr_prod(gra, grb)) / np.float64(na * nb)
            exx, eyy = within[ga], within[gb]
            mmd2 = np.float64(2.0) * exy - exx - eyy
            cols["g_a"].append(ga)
            cols["g_b"].append(gb)
            cols["n_a"].append(na)
            cols["n_b"].append(nb)
            cols["exy"].append(float(exy))
            cols["exx"].append(float(exx))
            cols["eyy"].append(float(eyy))
            cols["mmd2"].append(float(mmd2))
    return pa.table({
        "g_a": pa.array(cols["g_a"], pa.int64()),
        "g_b": pa.array(cols["g_b"], pa.int64()),
        "n_a": pa.array(cols["n_a"], pa.int64()),
        "n_b": pa.array(cols["n_b"], pa.int64()),
        "exy": pa.array(cols["exy"], pa.float64()),
        "exx": pa.array(cols["exx"], pa.float64()),
        "eyy": pa.array(cols["eyy"], pa.float64()),
        "mmd2": pa.array(cols["mmd2"], pa.float64())})


def outlier_explanation(ds, *, vec_col: str = "embedding",
                        id_col: str = "vec_id",
                        quant_bits: int = 10):
    """Per-row outlier EXPLANATION — for every vector, which dimension
    deviates most from the corpus (its largest per-dim z-score), so an
    anomaly flag comes with a "because feature j is 5σ off" statement
    instead of a bare score: the interpretability companion of
    :func:`mahalanobis_params` (whole-vector distance) and the robust-z
    flags (per-scalar).

    Exactness: vectors quantize half-up to ``2^quant_bits`` ints
    (the q209 convention); per-dim ``n, S=Σq, Q=Σq²`` are exact int
    partials (driver combine in Python ints), and

        z_j = |n·q_j − S_j| / sqrt(n·Q_j − S_j²)

    is ONE IEEE division of exact integers per (row, dim) — the
    sqrt(n)-scaled z-score, monotone in the usual z, identical in SQL
    with an unnest + GROUP BY replay.  The argmax is ``(z DESC,
    dim ASC)``: equal doubles resolve on the dimension index both
    sides.  Constant dimensions (zero variance) are excluded from the
    argmax; a row drops only if EVERY dimension is constant.

    Two streaming passes (stats, then explain); the stats broadcast is
    3·d ints.  Rows with NULL id/vector drop.  Returns ``(id_col,
    dim:int64 — 1-based, z:float64)``.
    """
    def stats(b: pa.Table) -> pa.Table:
        empty = pa.table({"j": pa.array([], pa.int64()),
                          "n": pa.array([], pa.int64()),
                          "s": pa.array([], pa.int64()),
                          "q": pa.array([], pa.int64())})
        if b.num_rows == 0 or vec_col not in b.column_names:
            return empty
        keep = pc.fill_null(pc.and_(pc.is_valid(b[id_col]),
                                    pc.is_valid(b[vec_col])), False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        if b.num_rows == 0:
            return empty
        qm, d = _batch_mat(b, vec_col, quant_bits)
        return pa.table({
            "j": pa.array(np.arange(1, d + 1, dtype=np.int64)),
            "n": pa.array(np.full(d, len(qm), np.int64)),
            "s": pa.array(qm.sum(axis=0).astype(np.int64)),
            "q": pa.array((qm.astype(np.int64) ** 2).sum(axis=0)
                          .astype(np.int64))})

    agg: dict = {}
    for blk in ray.get(materialized_block_refs(
            ds.map_batches(stats, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None))):
        if "j" not in blk.column_names:
            continue
        for j, n, s, q in zip(blk["j"].to_pylist(),
                              blk["n"].to_pylist(),
                              blk["s"].to_pylist(),
                              blk["q"].to_pylist()):
            cur = agg.setdefault(j, [0, 0, 0])
            cur[0] += n
            cur[1] += s
            cur[2] += q
    if not agg:
        raise ValueError("outlier_explanation: empty input")
    d = max(agg)
    n_tot = agg[1][0]
    S = np.array([agg[j][1] for j in range(1, d + 1)], np.int64)
    # V enters the z formula only as a double (sqrt operand), so keep
    # the exact Python ints and convert directly — correctly-rounded
    # like SQL's CAST(HUGEINT AS DOUBLE); forcing int64 would overflow
    # past ~5M unit-scale vectors
    V_int = [n_tot * agg[j][2] - agg[j][1] ** 2
             for j in range(1, d + 1)]
    ok_dim = np.array([v > 0 for v in V_int], bool)
    if not ok_dim.any():
        raise ValueError("outlier_explanation: all dimensions "
                         "constant")
    V = np.array([float(v) for v in V_int], np.float64)
    S_ref = ray.put((n_tot, S, V, ok_dim))

    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    id_type = base.field(id_col).type

    def explain(b: pa.Table) -> pa.Table:
        # typed empty from the input schema (the e854ab8 convention):
        # a hard-coded int64 would conflict with string doc ids
        empty = pa.table({id_col: pa.array([], id_type),
                          "dim": pa.array([], pa.int64()),
                          "z": pa.array([], pa.float64())})
        if b.num_rows == 0 or vec_col not in b.column_names:
            return empty
        keep = pc.fill_null(pc.and_(pc.is_valid(b[id_col]),
                                    pc.is_valid(b[vec_col])), False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        if b.num_rows == 0:
            return empty
        n_t, Sv, Vv, okd = ray.get(S_ref)
        qm, _ = _batch_mat(b, vec_col, quant_bits)
        num = np.abs(n_t * qm.astype(np.int64) - Sv[None, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            z = num.astype(np.float64) / np.sqrt(Vv)[None, :]
        z[:, ~okd] = -np.inf       # constant dims never win
        pick = np.argmax(z, axis=1)      # first max == (z desc, j asc)
        return pa.table({
            id_col: b[id_col],
            "dim": pa.array((pick + 1).astype(np.int64)),
            "z": pa.array(z[np.arange(len(pick)), pick],
                          pa.float64())})

    return ds.map_batches(explain, batch_format="pyarrow",
                          zero_copy_batch=True)


def group_embedding_diversity(ds, *, vec_col: str = "embedding",
                              group_col: str = "label",
                              quant_bits: int = 10):
    """Per-group embedding diversity — the mean pairwise squared
    distance within each group WITHOUT enumerating pairs, via the
    Gram identity ``Σ_{i≠j}|x_i−x_j|² = 2n·Σ|x_i|² − 2|Σx_i|²``:
    the data-mixing signal ("how redundant is this source?") that
    SemDeDup-style curation thresholds on, computed from the same
    O(d)-sized exact sufficient statistics as the centroid ops.

    Exactness: vectors quantize half-up (q209 convention);
    ``n, T = ΣΣq², S_d = Σq_d`` are exact integer partials combined
    as Python ints; the result is the FIXED sequence
    ``double(2nT − 2ΣS_d²) / double(n(n−1)) / 2^(2·quant_bits)`` —
    bit-exact in SQL with HUGEINT sums and the same two divisions.
    Groups with n < 2 emit NULL.  NULL group/vector rows drop.

    One streaming pass; the shuffle is the per-block (group, n, T, S)
    partial rows.  Returns ``(group_col, n:int64,
    mean_d2:float64)``.
    """
    def partial(b: pa.Table) -> pa.Table:
        gtype = (b.schema.field(group_col).type
                 if group_col in b.column_names else pa.int64())
        empty = pa.table({group_col: pa.array([], gtype),
                          "n": pa.array([], pa.int64()),
                          "t": pa.array([], pa.int64()),
                          "s": pa.array([], pa.list_(pa.int64()))})
        if b.num_rows == 0 or vec_col not in b.column_names:
            return empty
        b = b.filter(pc.fill_null(
            pc.and_(pc.is_valid(b[group_col]),
                    pc.is_valid(b[vec_col])), False))
        if b.num_rows == 0:
            return empty
        xq, dims = _batch_mat(b, vec_col, quant_bits)
        xq = xq.astype(np.int64)
        gd = pc.dictionary_encode(b[group_col].combine_chunks())
        codes = gd.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)
        g = len(gd.dictionary)
        cnt = np.bincount(codes, minlength=g).astype(np.int64)
        tt = np.zeros(g, np.int64)
        np.add.at(tt, codes, (xq * xq).sum(axis=1))
        s = np.zeros((g, dims), np.int64)
        np.add.at(s, codes, xq)
        return pa.table({group_col: gd.dictionary,
                         "n": pa.array(cnt),
                         "t": pa.array(tt),
                         "s": pa.array(list(s), pa.list_(pa.int64()))})

    agg: dict = {}
    for blk in ray.get(materialized_block_refs(
            ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None))):
        if "n" not in blk.column_names:
            continue
        for gv, n, t, s in zip(blk[group_col].to_pylist(),
                               blk["n"].to_pylist(),
                               blk["t"].to_pylist(),
                               blk["s"].to_pylist()):
            cur = agg.get(gv)
            if cur is None:
                agg[gv] = [n, t, [int(x) for x in s]]
            else:
                if len(s) != len(cur[2]):
                    raise ValueError(
                        "group_embedding_diversity: embedding "
                        f"dimensionality differs across blocks "
                        f"({len(cur[2])} vs {len(s)}) for group "
                        f"{gv!r}")
                cur[0] += n
                cur[1] += t
                cur[2] = [a + int(x) for a, x in zip(cur[2], s)]
    if not agg:
        raise ValueError("group_embedding_diversity: empty input")
    gvals = sorted(agg)
    ns, md = [], []
    scale = float(1 << (2 * quant_bits))
    for gv in gvals:
        n, t, s = agg[gv]
        ns.append(n)
        if n < 2:
            md.append(None)
        else:
            num = 2 * n * t - 2 * sum(x * x for x in s)
            md.append(float(num) / float(n * (n - 1)) / scale)
    gtype = (ds.schema().base_schema
             if hasattr(ds.schema(), "base_schema")
             else ds.schema()).field(group_col).type
    return pa.table({group_col: pa.array(gvals, gtype),
                     "n": pa.array(ns, pa.int64()),
                     "mean_d2": pa.array(md, pa.float64())})


def embedding_period_drift(ds, *, vec_col: str = "embedding",
                           id_col: str = "vec_id",
                           label_col: str = "label",
                           quant_bits: int = 10):
    """Per-label embedding-centroid drift between the two halves of
    the id span — the cheap monitorable next to the global two-sample
    MMD (q253): has label L's mean embedding direction moved?
    Reports the SIGNED squared cosine between the two halves'
    centroid-sum vectors: ``sign(dot) · (dot)² / (|s1|²·|s2|²)`` —
    1.0 = identical direction, near 0 = orthogonal drift, negative =
    flipped.

    Exactness: vectors quantize half-up (the q116 convention);
    per-BLOCK sums accumulate in int64 with an explicit magnitude
    guard (raises with quantize-coarser guidance near 2⁶²), and the
    CROSS-block combine runs in exact Python ints on the driver — so
    dots/norms/products never wrap; the output is ONE float64
    division of two exact products, replayed bit-exactly by a
    HUGEINT ``unnest`` SQL oracle.  Embeddings must be fully finite
    (null/NaN ELEMENTS inside a list raise — the oracle's per-element
    NULL skipping has no cheap engine mirror).  Labels missing a side, or with a zero centroid on
    either side, emit NULL.  The split is the q217 midpoint cut of
    the id span.  NULL label/id/vector rows drop; mixed embedding
    widths raise.

    One partial-sums pass ((label, side, dim) int64 rows per block,
    shared Arrow combine) — no shuffle.  Returns ``(label_col,
    n_before:int64, n_after:int64, cos2_signed:float64)``.
    Reference analog: none (drift family)."""
    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    ltype = base.field(label_col).type

    def prep(b: pa.Table) -> pa.Table:
        keep = pc.fill_null(
            pc.and_(pc.and_(pc.is_valid(b[label_col]),
                            pc.is_valid(b[id_col])),
                    pc.is_valid(b[vec_col])), False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        return b.select([label_col, id_col, vec_col])

    refs = materialized_block_refs(
        ds.map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True))
    empty = pa.table({label_col: pa.array([], ltype),
                      "n_before": pa.array([], pa.int64()),
                      "n_after": pa.array([], pa.int64()),
                      "cos2_signed": pa.array([], pa.float64())})
    span = global_span_cut(refs, col=id_col, num=1, den=2)
    if span is None:
        return empty
    cut = span[2]

    @ray.remote
    def partial(blk, cut_):
        if blk.num_rows == 0 or label_col not in blk.column_names:
            return pa.table({"lab": pa.array([], ltype),
                             "side": pa.array([], pa.int8()),
                             "d": pa.array([], pa.int64()),
                             "s": pa.array([], pa.int64())})
        flat_chk = blk[vec_col].combine_chunks().flatten()
        if flat_chk.null_count or not np.isfinite(
                flat_chk.to_numpy(zero_copy_only=False)).all():
            raise ValueError(
                "embedding_period_drift: null or non-finite "
                "elements inside embedding lists — clean upstream "
                "(the SQL oracle's NULL-element skipping has no "
                "engine mirror)")
        xq, dims = _batch_mat(blk, vec_col, quant_bits)
        ids = blk[id_col].to_numpy(zero_copy_only=False).astype(
            np.int64)
        side = (ids > cut_).astype(np.int64)
        gd = pc.dictionary_encode(blk[label_col].combine_chunks())
        codes = gd.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)
        cell = codes * 2 + side
        ucell, inv = np.unique(cell, return_inverse=True)
        # a-priori wrap guard (checked BEFORE accumulating — a
        # post-hoc check could read an already-wrapped value)
        if xq.size and blk.num_rows * int(np.abs(xq).max()) >= 2 ** 62:
            raise ValueError(
                "embedding_period_drift: per-block centroid sum "
                "could exceed int64 — lower quant_bits or shrink "
                "blocks")
        # per (label, side): n (sentinel d = -1) + per-dim sums
        sums = np.zeros((len(ucell), dims), np.int64)
        np.add.at(sums, inv, xq.astype(np.int64))
        cnt = np.bincount(inv).astype(np.int64)
        lab_vals = gd.dictionary.take(
            pa.array(ucell // 2, pa.int64()))
        k = len(ucell)
        d_col = np.concatenate(
            [np.full((k, 1), -1, np.int64),
             np.tile(np.arange(dims, dtype=np.int64), (k, 1))],
            axis=1).ravel()
        s_col = np.concatenate([cnt[:, None], sums], axis=1).ravel()
        reps = pa.array(
            np.repeat(np.arange(k), dims + 1), pa.int64())
        return pa.table({
            "lab": lab_vals.take(reps),
            "side": pa.array(
                np.repeat((ucell % 2).astype(np.int8), dims + 1)),
            "d": pa.array(d_col),
            "s": pa.array(s_col)})

    # cross-block combine in exact Python ints (the deliberate
    # object-int exception, like outlier_explanation / mmd Gram: an
    # Arrow int64 sum here could wrap past 2^63 exactly where the
    # docstring promises exactness); bounded by labels×2×(dims+1)
    # rows per block
    per: dict = {}
    for blk in ray.get([partial.remote(r, cut) for r in refs]):
        if blk.num_rows == 0 or "lab" not in blk.column_names:
            continue
        lab = blk["lab"].to_pylist()
        side = blk["side"].to_numpy(zero_copy_only=False)
        dd = blk["d"].to_numpy(zero_copy_only=False)
        ssum = blk["s"].to_numpy(zero_copy_only=False)
        for i in range(len(lab)):
            key = (lab[i], int(side[i]))
            ent = per.setdefault(key, {"n": 0, "v": {}})
            if int(dd[i]) == -1:
                ent["n"] += int(ssum[i])
            else:
                ent["v"][int(dd[i])] = ent["v"].get(int(dd[i]), 0) \
                    + int(ssum[i])
    if not per:
        return empty
    labels = sorted({k[0] for k in per})
    out_l, out_nb, out_na, out_c = [], [], [], []
    for L in labels:
        a = per.get((L, 0))
        b = per.get((L, 1))
        out_l.append(L)
        out_nb.append(a["n"] if a else 0)
        out_na.append(b["n"] if b else 0)
        if not a or not b:
            out_c.append(None)
            continue
        dims_all = sorted(set(a["v"]) | set(b["v"]))
        dot = sum(a["v"].get(d, 0) * b["v"].get(d, 0)
                  for d in dims_all)
        u2 = sum(a["v"].get(d, 0) ** 2 for d in dims_all)
        v2 = sum(b["v"].get(d, 0) ** 2 for d in dims_all)
        if u2 == 0 or v2 == 0:
            out_c.append(None)
            continue
        val = float(dot * dot) / float(u2 * v2)
        out_c.append(-val if dot < 0 else val)
    return pa.table({label_col: pa.array(out_l, ltype),
                     "n_before": pa.array(out_nb, pa.int64()),
                     "n_after": pa.array(out_na, pa.int64()),
                     "cos2_signed": pa.array(out_c, pa.float64())})
