"""Distributed k-means (Lloyd's iterations) over an embedding column —
the iterative-algorithm shape on Ray Data: per-iteration broadcast of the
centroids, streaming assignment + per-cluster partial sums in
``map_batches``, a tiny driver-side combine (k × dims floats), repeat.

Exactness contract (what makes the result verifiable): vectors are
quantized to dyadic fractions (``round(x * 2^q) / 2^q``) as step one, so
every per-cluster sum is a sum of exactly-representable multiples of
``2^-q`` whose partial sums stay far below 2^53 — EXACT in float64 under
ANY grouping.  The result is therefore bit-identical for any block
structure, any cluster size, and for the serial replay oracle.  Distances
use the expanded ``(x-c)^2`` form reduced with ``.sum(axis=-1)`` — numpy's
pairwise reduction over a fixed-length contiguous last axis, the same
bits regardless of leading batch shape (no BLAS, whose accumulation
order varies with matrix shape).  Ties in the argmin break to the lowest
cluster id on both sides.

Init is deterministic: the vectors of the ``k`` smallest ids.  At 100 TB
swap for a sampled init (`ds.limit` over a hash sample) — the iteration
structure is unchanged; one broadcast + one streaming pass per iteration,
the exchange moves k×dims partial rows per block, never vectors.

Reference analog: none (the reference clusters model-selection results
with DBSCAN, `selection/groupsel.py`); this is a beyond-reference scale
operator for embedding-table organization (IVF training, dedup
bucketing, corpus balancing).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from .partition import materialized_block_refs, partitioned_map


def quantize(x: np.ndarray, quant_bits: int) -> np.ndarray:
    """Dyadic quantization: round to multiples of 2^-quant_bits (exact
    float64 values; np.round half-even, mirrored by the replay)."""
    s = float(1 << quant_bits)
    return np.round(x.astype(np.float64) * s) / s


def assign(x: np.ndarray, cents: np.ndarray) -> np.ndarray:
    """Nearest centroid per row; first-min tie-break.  (n,d) × (k,d) →
    (n,) int64.  Expanded-difference distances, pairwise-summed over the
    contiguous last axis — deterministic bits for any n."""
    d = ((x[:, None, :] - cents[None, :, :]) ** 2).sum(axis=-1)
    return np.argmin(d, axis=1).astype(np.int64)


def _iterate_serial(x: np.ndarray, k: int, iters: int):
    """Reference serial implementation (used by tests and the fixture
    oracle): identical arithmetic to the distributed path."""
    cents = x[:k].copy()
    for _ in range(iters):
        a = assign(x, cents)
        for j in range(k):
            m = a == j
            if m.any():
                cents[j] = x[m].sum(axis=0) / float(m.sum())
    return cents, assign(x, cents)


def kmeans_fit(ds, *, vec_col: str = "embedding", id_col: str = "vec_id",
               k: int = 8, iters: int = 5, quant_bits: int = 10,
               batch_size: int = 4096):
    """Fit k-means on ``ds[vec_col]``; returns ``(centroids ndarray,
    assignments Dataset[(id_col, cluster:int64)])``."""
    from .rank import top_k

    def to_mat(batch: pa.Table) -> np.ndarray:
        arr = batch[vec_col].combine_chunks()
        # flatten() honors list offsets (``.values`` would leak rows of a
        # sliced array)
        flat = arr.flatten().to_numpy(zero_copy_only=False)
        return quantize(flat.reshape(len(arr), -1), quant_bits)

    # deterministic init: vectors of the k smallest ids (driver-tiny)
    cents = to_mat(top_k(ds, [id_col], False, k))
    if cents.shape[0] < k:
        raise ValueError(f"need at least k={k} rows, got {cents.shape[0]}")
    dims = cents.shape[1]

    for _ in range(iters):
        cents_ref = ray.put(cents)

        def partials(batch: pa.Table) -> pa.Table:
            c = ray.get(cents_ref)
            x = to_mat(batch)
            a = assign(x, c)
            sums = np.zeros((len(c), x.shape[1]), np.float64)
            np.add.at(sums, a, x)         # exact: dyadic values
            n = np.bincount(a, minlength=len(c)).astype(np.int64)
            return pa.table({
                "cluster": pa.array(np.arange(len(c)), pa.int64()),
                "n": pa.array(n),
                "s": pa.array(list(sums), pa.list_(pa.float64())),
            })

        blocks = ray.get(materialized_block_refs(
            ds.map_batches(partials, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=batch_size)))
        tot_n = np.zeros(k, np.int64)
        tot_s = np.zeros((k, dims), np.float64)
        for b in blocks:
            if b.num_rows == 0:
                continue
            # a block may hold several concatenated partial tables —
            # accumulate by the cluster column (sums exact: dyadic)
            cl = b["cluster"].to_numpy(zero_copy_only=False)
            np.add.at(tot_n, cl, b["n"].to_numpy(zero_copy_only=False))
            arr = b["s"].combine_chunks()
            flat = arr.flatten().to_numpy(zero_copy_only=False)
            np.add.at(tot_s, cl, flat.reshape(len(cl), dims))
        nz = tot_n > 0
        cents = cents.copy()
        cents[nz] = tot_s[nz] / tot_n[nz, None].astype(np.float64)

    cents_ref = ray.put(cents)

    def label(batch: pa.Table) -> pa.Table:
        c = ray.get(cents_ref)
        x = to_mat(batch)
        return pa.table({
            id_col: batch[id_col].cast(pa.int64()),
            "cluster": pa.array(assign(x, c), pa.int64()),
        })

    labels = ds.map_batches(label, batch_format="pyarrow",
                            zero_copy_batch=True, batch_size=batch_size)
    return cents, labels


def kmeans_cluster_stats(ds, *, vec_col: str = "embedding",
                         id_col: str = "vec_id", k: int = 8,
                         iters: int = 5, quant_bits: int = 10,
                         stat_dims: int = 3):
    """Per-cluster summary of the final assignment — every column exact
    under any summation order (counts, int64 id sums, dyadic dim sums,
    dyadic sum of squared norms), so the serial replay is bit-identical.
    Returns a Dataset ``(cluster, n, id_sum, xx_sum, s0..s{stat_dims-1})``.
    """
    cents, labels = kmeans_fit(ds, vec_col=vec_col, id_col=id_col, k=k,
                               iters=iters, quant_bits=quant_bits)
    cents_ref = ray.put(cents)

    def stats(batch: pa.Table) -> pa.Table:
        c = ray.get(cents_ref)
        arr = batch[vec_col].combine_chunks()
        flat = arr.flatten().to_numpy(zero_copy_only=False)
        x = quantize(flat.reshape(len(arr), -1), quant_bits)
        a = assign(x, c)
        ids = batch[id_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        n = np.bincount(a, minlength=k).astype(np.int64)
        id_sum = np.zeros(k, np.int64)
        np.add.at(id_sum, a, ids)
        xx = (x ** 2).sum(axis=-1)        # exact dyadic per point
        xx_sum = np.zeros(k, np.float64)
        np.add.at(xx_sum, a, xx)
        cols = {"cluster": pa.array(np.arange(k), pa.int64()),
                "n": pa.array(n), "id_sum": pa.array(id_sum),
                "xx_sum": pa.array(xx_sum)}
        for d in range(stat_dims):
            s = np.zeros(k, np.float64)
            np.add.at(s, a, x[:, d])
            cols[f"s{d}"] = pa.array(s)
        return pa.table(cols)

    parts = ds.map_batches(stats, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=4096)

    def combine_all(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        g = df.groupby("cluster", as_index=False, sort=True).sum()
        out = {"cluster": pa.array(g["cluster"].to_numpy(np.int64)),
               "n": pa.array(g["n"].to_numpy(np.int64)),
               "id_sum": pa.array(g["id_sum"].to_numpy(np.int64)),
               "xx_sum": pa.array(g["xx_sum"].to_numpy(np.float64))}
        for d in range(stat_dims):
            out[f"s{d}"] = pa.array(g[f"s{d}"].to_numpy(np.float64))
        return pa.table(out)

    return partitioned_map(parts, combine_all, key="cluster",
                           sort_keys=["cluster"], num_partitions=1)
