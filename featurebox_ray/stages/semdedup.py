"""SemDeDup-style semantic deduplication over an embedding column
(Abbas et al. 2023): k-means the corpus, then mark within-cluster
duplicates by cosine similarity — near-duplicate pruning that scales as
Σ cluster² instead of corpus².

Distributed shape: the k-means fit is the streaming broadcast-iterate
from :mod:`.kmeans`; one more streaming pass assigns clusters and
carries the QUANTIZED vector; a single cluster-keyed exchange
co-locates each cluster and the partition kernel does the pairwise
test vectorized.

Exactness contract (what makes a fixture replay bit-identical): vectors
are dyadically quantized (kmeans.quantize), so every pairwise dot and
every squared norm is an EXACT float64 (products are multiples of
2^-2q with magnitude far below 2^53/2^2q — any summation order,
including BLAS matmul, gives the same true value).  The duplicate rule
is per-pair and scan-order-free: row v is a duplicate iff some row u
with a SMALLER id in the same cluster has cos(u, v) >= threshold,
tested as ``dot > 0 and dot² >= t²·|u|²·|v|²`` — deterministic IEEE
ops on exact inputs, so any partitioning and the serial replay agree
bit-for-bit.  (Keep-lowest-id mirrors exact_dedup's survivor rule; a
removed u still disqualifies later v — pairwise, not transitive.)

At 100 TB: clusters larger than ``max_group`` are skipped with a
warning (their rows pass through marked kept) — raise k so cluster
sizes stay bounded; the exchange ships one quantized vector per row
exactly once.

Reference analog: none (the reference's DBSCAN groups model-selection
results, selection/groupsel.py); this is the beyond-reference
embedding-dedup path alongside q24's pair-join.
"""

from __future__ import annotations

import warnings

import numpy as np
import pyarrow as pa
import ray

from .kmeans import assign, kmeans_fit, quantize
from .partition import partitioned_map


def _cluster_dups(x: np.ndarray, threshold: float) -> np.ndarray:
    """is_dup per row of one id-sorted cluster matrix (m, d)."""
    m = x.shape[0]
    if m < 2:
        return np.zeros(m, bool)
    g = x @ x.T                      # exact: dyadic inputs (see module doc)
    diag = np.diag(g).copy()
    t2 = float(threshold) * float(threshold)
    mask = (g > 0) & (g * g >= t2 * np.outer(diag, diag))
    return np.triu(mask, 1).any(axis=0)


def semantic_dedup(ds, *, vec_col: str = "embedding",
                   id_col: str = "vec_id", k: int = 8, iters: int = 5,
                   quant_bits: int = 10, threshold: float = 0.9,
                   num_partitions: int = 8, max_group: int = 65536,
                   batch_size: int = 4096):
    """Returns ``(id_col, cluster int64, is_dup int64)`` — one row per
    input row; ``is_dup=1`` rows are the prune candidates."""
    cents, _ = kmeans_fit(ds, vec_col=vec_col, id_col=id_col, k=k,
                          iters=iters, quant_bits=quant_bits,
                          batch_size=batch_size)
    cents_ref = ray.put(cents)

    def label_with_vec(batch: pa.Table) -> pa.Table:
        c = ray.get(cents_ref)
        arr = batch[vec_col].combine_chunks()
        flat = arr.flatten().to_numpy(zero_copy_only=False)
        x = quantize(flat.reshape(len(arr), -1), quant_bits)
        a = assign(x, c)
        return pa.table({
            id_col: batch[id_col].cast(pa.int64()),
            "cluster": pa.array(a, pa.int64()),
            "__qvec": pa.array(list(x), pa.list_(pa.float64())),
        })

    tagged = ds.map_batches(label_with_vec, batch_format="pyarrow",
                            zero_copy_batch=True, batch_size=batch_size)

    def kernel(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        cl = t["cluster"].to_numpy(zero_copy_only=False)
        arr = t["__qvec"].combine_chunks()
        flat = arr.flatten().to_numpy(zero_copy_only=False)
        x = flat.reshape(len(arr), -1) if len(arr) else flat.reshape(0, 0)
        dup = np.zeros(len(ids), bool)
        # rows arrive sorted by (cluster, id): contiguous runs per cluster
        bounds = np.flatnonzero(np.diff(cl)) + 1
        for s, e in zip(np.concatenate([[0], bounds]),
                        np.concatenate([bounds, [len(cl)]])):
            if e - s > max_group:
                warnings.warn(
                    f"semantic_dedup: cluster {cl[s]} has {e - s} rows > "
                    f"max_group={max_group}; skipped (rows kept) — "
                    "raise k to bound cluster sizes")
                continue
            dup[s:e] = _cluster_dups(x[s:e], threshold)
        return pa.table({
            id_col: t[id_col],
            "cluster": t["cluster"],
            "is_dup": pa.array(dup.astype(np.int64)),
        })

    return partitioned_map(tagged, kernel, key="cluster",
                           sort_keys=["cluster", id_col],
                           num_partitions=num_partitions)


def semantic_dedup_serial(tbl: pa.Table, *, vec_col: str = "embedding",
                          id_col: str = "vec_id", k: int = 8,
                          iters: int = 5, quant_bits: int = 10,
                          threshold: float = 0.9,
                          max_group: int = 65536) -> pa.Table:
    """Single-process replay with identical arithmetic (tests/oracle) —
    including the distributed kernel's ``max_group`` skip rule, so
    replay and engine agree even on a corpus with an oversized
    cluster."""
    from .kmeans import _iterate_serial

    order = np.argsort(tbl[id_col].to_numpy(zero_copy_only=False),
                       kind="stable")
    t = tbl.take(pa.array(order, pa.int64()))
    ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    arr = t[vec_col].combine_chunks()
    x = quantize(arr.flatten().to_numpy(zero_copy_only=False)
                 .reshape(len(arr), -1), quant_bits)
    _, a = _iterate_serial(x, k, iters)
    dup = np.zeros(len(ids), bool)
    for j in range(k):
        m = np.flatnonzero(a == j)
        if len(m) > max_group:
            continue
        dup[m] = _cluster_dups(x[m], threshold)
    return pa.table({
        id_col: pa.array(ids),
        "cluster": pa.array(a, pa.int64()),
        "is_dup": pa.array(dup.astype(np.int64)),
    })
