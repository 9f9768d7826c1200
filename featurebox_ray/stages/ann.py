"""Approximate-nearest-neighbor search over an embedding column.

* :func:`brute_force_topk` — baseline: the query matrix is broadcast once
  (``ray.put``), every batch does one numpy matmul against it, per-batch
  local top-k, then a tiny global top-k reduce per query.  This streams: no
  stage ever materializes the corpus.
* :func:`ivf_topk` — scale path: k-means-ish coarse quantizer (trained on a
  driver-side sample), corpus bucketed by nearest centroid (groupby), query
  probes only the ``nprobe`` closest buckets.

No reference analog; part of the engine's large-scale training-data surface.
"""

from __future__ import annotations

import hashlib
import os
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .partition import (each_group, materialized_block_refs, partitioned_map,
                        partitioned_refs)


def _normalize(M: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(M, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return M / n


class _BatchTopK:
    """Actor: holds the normalized query matrix; per batch emits local
    top-k (query_id, vec_id, cosine) triples."""

    def __init__(self, queries_ref, k: int, vec_col: str, id_col: str):
        Q = queries_ref if isinstance(queries_ref, np.ndarray) else ray.get(queries_ref)
        self.Q = _normalize(np.asarray(Q, dtype=np.float64))
        self.k = k
        self.vec_col = vec_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        empty = pa.table({"query_id": pa.array([], pa.int32()),
                          self.id_col: pa.array([], pa.int64()),
                          "cosine": pa.array([], pa.float64())})
        if n == 0:
            return empty
        V = _normalize(np.stack(batch[self.vec_col].to_numpy(zero_copy_only=False)).astype(np.float64))
        ids = np.asarray(batch[self.id_col].to_pylist(), dtype=np.int64)
        sims = self.Q @ V.T  # (q, n)
        k = min(self.k, n)
        nq = self.Q.shape[0]
        out_q = np.empty(nq * k, np.int32)
        out_id = np.empty(nq * k, np.int64)
        out_c = np.empty(nq * k, np.float64)
        for q in range(nq):  # loop over queries (few); deterministic ties:
            order = np.lexsort((ids, -sims[q]))[:k]  # cosine desc, id asc
            out_q[q * k:(q + 1) * k] = q
            out_id[q * k:(q + 1) * k] = ids[order]
            out_c[q * k:(q + 1) * k] = sims[q][order]
        return pa.table({
            "query_id": pa.array(out_q),
            self.id_col: pa.array(out_id),
            "cosine": pa.array(out_c),
        })


def brute_force_topk(ds, queries: np.ndarray, *, k: int = 10,
                     vec_col: str = "embedding", id_col: str = "vec_id",
                     batch_size: int = 4096, concurrency=(2, 8)):
    """Exact cosine top-k per query.  Returns Dataset
    ``(query_id, vec_id, cosine)`` with exactly k rows per query (ties by
    larger cosine; deterministic final sort on (cosine desc, vec_id))."""
    qref = ray.put(np.asarray(queries, dtype=np.float64))
    local = ds.map_batches(
        _BatchTopK,
        fn_constructor_args=(qref, k, vec_col, id_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
        concurrency=concurrency,
    )

    def global_topk(group: pa.Table) -> pa.Table:
        df = group.to_pandas()
        df = df.sort_values(["cosine", id_col], ascending=[False, True]).head(k)
        return pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)

    return partitioned_map(local, each_group(global_topk, ["query_id"]),
                           key="query_id", sort_keys=["query_id"])


def train_centroids(sample: np.ndarray, n_centroids: int, iters: int = 10,
                    seed: int = 11) -> np.ndarray:
    """Tiny numpy k-means on a driver-side sample (coarse quantizer)."""
    rng = np.random.default_rng(seed)
    X = _normalize(np.asarray(sample, dtype=np.float64))
    C = X[rng.choice(len(X), size=min(n_centroids, len(X)), replace=False)]
    for _ in range(iters):
        assign = np.argmax(X @ C.T, axis=1)
        for c in range(len(C)):
            m = assign == c
            if m.any():
                C[c] = X[m].mean(axis=0)
        C = _normalize(C)
    return C


def ivf_topk(ds, queries: np.ndarray, *, k: int = 10, n_centroids: int = 16,
             nprobe: int = 4, vec_col: str = "embedding", id_col: str = "vec_id",
             sample_size: int = 10000, seed: int = 11,
             centroid_init: str = "kmeans", sub_buckets: int = 4,
             bucket_cap: int = 100_000,
             centroid_cache: Optional[str] = None):
    """IVF-style ANN: bucket corpus by nearest (cosine) centroid; each
    query scans only its ``nprobe`` closest buckets.  Approximate
    (recall < 1 when nprobe < n_centroids).

    ``centroid_init``:
      * ``"kmeans"`` — k-means on a driver-side sample (default).
      * ``"first"`` — centroids are the corpus vectors with
        ``id_col < n_centroids``, zero training iterations.  Fully
        deterministic and SQL-replayable (the q25 DuckDB oracle recomputes
        the identical assignment/probe/search), so the whole IVF machinery
        — bucketing, probing, in-bucket exact search, global merge — is
        value-hash-checked; swap back to "kmeans" for quality.

    ``sub_buckets`` / ``bucket_cap``: each centroid's inverted list is
    split into hash sub-partitions — at least ``sub_buckets`` of them,
    and automatically MORE for hot centroids:
    ``max(sub_buckets, ceil(centroid_rows / bucket_cap))``, sized from
    exact per-centroid counts (per-block partials, driver combine over
    n_centroids rows — no shuffle).  A skewed corpus where one
    centroid attracts half the vectors therefore still yields
    ~bucket_cap-row search tasks; the search kernel additionally
    RAISES if a group exceeds ``2·bucket_cap`` (hash-variance margin)
    rather than silently building an oversized in-task table.  The
    global per-query top-k reduce merges sub-bucket results, so the
    split count never changes the answer.

    ``centroid_cache``: path to persist trained kmeans centroids (atomic
    ``.npz`` holding the centroids plus a ``(n_centroids, seed,
    sample_size, sample-bytes hash)`` fingerprint); subsequent calls
    against the SAME corpus/params reuse them instead of retraining.
    The fingerprint hashes the training SAMPLE (already read anyway — no
    extra full-corpus pass), so a cache from a different corpus, seed or
    sample is retrained and overwritten, never silently reused; legacy
    ``.npy`` caches without a fingerprint are also retrained."""
    if centroid_init == "first":
        rows = sorted(
            ds.filter(expr=f"{id_col} < {n_centroids}").take(n_centroids * 2),
            key=lambda r: r[id_col])
        C = _normalize(np.stack([r[vec_col] for r in rows]).astype(np.float64))
    else:
        sample = np.stack(
            [r[vec_col] for r in ds.limit(sample_size).take(sample_size)]
        )
        C = None
        fp = None
        if centroid_cache is not None:
            digest = hashlib.blake2b(
                np.ascontiguousarray(sample, np.float64).tobytes(),
                digest_size=8).digest()
            fp = np.array([n_centroids, seed, sample_size,
                           int.from_bytes(digest, "little", signed=True)],
                          dtype=np.int64)
            if os.path.exists(centroid_cache):
                try:
                    z = np.load(centroid_cache, allow_pickle=False)
                    if isinstance(z, np.lib.npyio.NpzFile):
                        with z:
                            if ("fingerprint" in z and "C" in z
                                    and np.array_equal(z["fingerprint"], fp)):
                                C = np.asarray(z["C"], dtype=np.float64)
                except Exception:
                    # corrupt/truncated/foreign file: same treatment as a
                    # stale fingerprint — retrain and overwrite below
                    C = None
                # stale/foreign/legacy-.npy cache: fall through, retrain
        if C is None:
            C = train_centroids(sample, n_centroids, seed=seed)
            if centroid_cache is not None:
                os.makedirs(os.path.dirname(centroid_cache) or ".",
                            exist_ok=True)
                np.savez(centroid_cache + ".tmp.npz", C=C, fingerprint=fp)
                os.replace(centroid_cache + ".tmp.npz", centroid_cache)
    cref = ray.put(C)
    Q = _normalize(np.asarray(queries, dtype=np.float64))
    # ties (equal cosine): stable sort keeps the lower centroid id first,
    # matching the SQL oracle's (cosine DESC, c_id) ordering
    probe = np.argsort(-(Q @ C.T), axis=1, kind="stable")[:, :nprobe]
    # bucket -> queries probing it
    bucket_queries = {}
    for qi in range(len(Q)):
        for b in probe[qi]:
            bucket_queries.setdefault(int(b), []).append(qi)
    bq_ref = ray.put((Q, bucket_queries))

    class Assign:
        def __init__(self):
            self.C = ray.get(cref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return batch.append_column("__cent",
                                           pa.array([], pa.int32()))
            V = _normalize(np.stack(batch[vec_col].to_numpy(zero_copy_only=False)).astype(np.float64))
            # argmax picks the FIRST max index on ties = lowest centroid id
            a = np.argmax(V @ self.C.T, axis=1).astype(np.int32)
            return batch.append_column("__cent", pa.array(a))

    with_cent = ds.map_batches(Assign, batch_format="pyarrow",
                               zero_copy_batch=True,
                               concurrency=(1, 4)).materialize()

    # exact per-centroid counts (per-block partials; n_centroids ×
    # n_blocks rows reach the driver) size each centroid's sub-split
    def cent_counts(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "__cent" not in b.column_names:
            return pa.table({"cent": pa.array([], pa.int32()),
                             "n": pa.array([], pa.int64())})
        c = np.bincount(b["__cent"].to_numpy(zero_copy_only=False),
                        minlength=n_centroids).astype(np.int64)
        return pa.table({"cent": pa.array(
            np.arange(n_centroids, dtype=np.int32)),
            "n": pa.array(c)})

    cdf = with_cent.map_batches(cent_counts, batch_format="pyarrow",
                                zero_copy_batch=True,
                                batch_size=None).to_pandas()
    counts = np.zeros(n_centroids, np.int64)
    np.add.at(counts, cdf["cent"].to_numpy(), cdf["n"].to_numpy())
    sub_count = np.maximum(
        max(int(sub_buckets), 1),
        -(-counts // max(int(bucket_cap), 1))).astype(np.int64)

    # one exchange key per (centroid, sub) search bucket, so a hot
    # centroid's sub-buckets hash to different gathers
    max_sub = int(sub_count.max())

    def add_sub(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "__cent" not in batch.column_names:
            return (batch.append_column("__sub", pa.array([], pa.int32()))
                    .append_column("__bucket", pa.array([], pa.int64())))
        cent = batch["__cent"].to_numpy(zero_copy_only=False)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        with np.errstate(over="ignore"):
            sub = ((ids * np.uint64(0x9E3779B97F4A7C15))
                   % sub_count[cent].astype(np.uint64)).astype(np.int32)
        bucket = cent.astype(np.int64) * max_sub + sub
        return (batch.append_column("__sub", pa.array(sub))
                .append_column("__bucket", pa.array(bucket)))

    assigned = with_cent.map_batches(add_sub, batch_format="pyarrow",
                                     zero_copy_batch=True)

    def search_bucket(group: pa.Table) -> pa.Table:
        empty = pa.table({"query_id": pa.array([], pa.int32()),
                          id_col: pa.array([], pa.int64()),
                          "cosine": pa.array([], pa.float64())})
        if group.num_rows == 0:
            return empty
        if group.num_rows > 2 * bucket_cap:
            raise ValueError(
                f"ivf_topk: search bucket holds {group.num_rows} rows "
                f"> 2×bucket_cap ({bucket_cap}) — the cap-driven "
                "sub-split failed (duplicate ids hashing identically, "
                "or counts/assignment drift); lower bucket_cap or "
                "check id uniqueness")
        Qm, bq = ray.get(bq_ref)
        cent = int(group["__cent"][0].as_py())
        qids = bq.get(cent, [])
        if not qids:
            return empty
        V = _normalize(np.stack(group[vec_col].to_numpy(zero_copy_only=False)).astype(np.float64))
        ids = np.asarray(group[id_col].to_pylist(), dtype=np.int64)
        sims = Qm[qids] @ V.T
        kk = min(k, len(ids))
        out_q = np.empty(len(qids) * kk, np.int32)
        out_id = np.empty(len(qids) * kk, np.int64)
        out_c = np.empty(len(qids) * kk, np.float64)
        for qi, q in enumerate(qids):  # few queries; deterministic ties
            order = np.lexsort((ids, -sims[qi]))[:kk]  # cosine desc, id asc
            out_q[qi * kk:(qi + 1) * kk] = q
            out_id[qi * kk:(qi + 1) * kk] = ids[order]
            out_c[qi * kk:(qi + 1) * kk] = sims[qi][order]
        return pa.table({
            "query_id": pa.array(out_q),
            id_col: pa.array(out_id),
            "cosine": pa.array(out_c),
        })

    local = partitioned_refs(
        assigned, each_group(search_bucket, ["__cent", "__sub"]),
        key="__bucket", sort_keys=["__cent", "__sub"])

    def global_topk(group: pa.Table) -> pa.Table:
        df = group.to_pandas()
        df = df.sort_values(["cosine", id_col], ascending=[False, True]).head(k)
        return pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)

    return partitioned_map([local], each_group(global_topk, ["query_id"]),
                           key="query_id", sort_keys=["query_id"])


def threshold_similarity_join(ds, queries: np.ndarray, *,
                              threshold_num: int,
                              vec_col: str = "embedding",
                              id_col: str = "vec_id",
                              quant_bits: int = 8,
                              query_ids: "np.ndarray | None" = None):
    """Integer-exact threshold similarity join — every (query, corpus)
    pair whose QUANTIZED dot product clears a threshold.  The semantic
    decontamination shape: the benchmark/test set is the small side
    (broadcast once via ``ray.put``), the training corpus streams, and
    any training doc too similar to a test doc is flagged.

    Exactness (full SQL oracle, no fixture): both sides quantize
    half-UP (``floor(x·2^qb + 0.5)`` — the cohesion.py convention, IEEE
    -exact in SQL), the score is the raw int64 dot product of quantized
    vectors (exact, guarded < 2^63), and the join keeps
    ``dot >= threshold_num`` where ``threshold_num`` is the caller's
    integer threshold in quantized units (for cosine-like semantics
    pre-normalize the vectors upstream and pass
    ``round(t · 2^(2·qb))``).

    Unlike :func:`brute_force_topk` (per-query k best), this emits ALL
    pairs above the bar — the right contract for contamination, where
    "how many" is unknown.  Per batch: one integer matmul + one mask;
    no shuffle of the corpus.  Returns ``(query_id, id_col,
    dot:int64)``.
    """
    from .cohesion import _batch_mat, quantize_half_up

    Q = quantize_half_up(np.asarray(queries, np.float64), quant_bits)
    if query_ids is None:
        query_ids = np.arange(len(Q), dtype=np.int64)
    qids = np.asarray(query_ids, np.int64)
    q_ref = ray.put((Q, qids))
    thr = int(threshold_num)

    def join_batch(batch: pa.Table) -> pa.Table:
        Q_, qids_ = ray.get(q_ref)
        empty = pa.table({"query_id": pa.array([], pa.int64()),
                          id_col: pa.array([], pa.int64()),
                          "dot": pa.array([], pa.int64())})
        batch = batch.filter(pc.is_valid(batch[vec_col]))
        if batch.num_rows == 0 or len(Q_) == 0:
            return empty
        # cohesion._batch_mat validates uniform list lengths — a ragged
        # batch must raise, never silently reshape into misaligned rows
        V, dims = _batch_mat(batch, vec_col, quant_bits)
        if Q_.shape[1] != dims:
            raise ValueError(f"query dims {Q_.shape[1]} != corpus "
                             f"dims {dims}")
        mq = int(np.abs(Q_).max()) if Q_.size else 0
        mv = int(np.abs(V).max()) if V.size else 0
        if mq and mv and mq * mv * dims >= 2 ** 63:
            raise ValueError("quantized dot product may overflow "
                             "int64 — lower quant_bits")
        dots = V @ Q_.T  # (n, q) int64 exact
        rows, qs = np.nonzero(dots >= thr)
        if len(rows) == 0:
            return empty
        ids = batch[id_col].combine_chunks().take(
            pa.array(rows, pa.int64()))
        return pa.table({
            "query_id": pa.array(qids_[qs]),
            id_col: ids,
            "dot": pa.array(dots[rows, qs]),
        })

    return ds.map_batches(join_batch, batch_format="pyarrow",
                          zero_copy_batch=True)


def mmr_select(ds, query: np.ndarray, *, k: int = 10,
               pool_m: int = 64, lambda_num: int = 7,
               lambda_den: int = 10, quant_bits: int = 8,
               vec_col: str = "embedding", id_col: str = "vec_id"):
    """Maximal-marginal-relevance diverse top-k — pick ``k`` vectors
    that are RELEVANT to ``query`` but mutually DIVERSE (the eval-set /
    demonstration-selection primitive):

        pick argmax  λ·rel(x) − (1−λ)·max_{s∈selected} sim(x, s)

    Distributed shape: relevance is one streaming integer-matmul pass
    (query broadcast once) with per-batch partial top-``pool_m``
    carrying the quantized vectors; the global pool (``pool_m`` ×
    dims int64 cells — tiny) reduces on the driver, and the greedy
    loop runs there over the pool's exact integer dot products.

    Exactness: λ = ``lambda_num / lambda_den`` stays INTEGER —
    ``score = lambda_num·rel − (lambda_den − lambda_num)·maxsim`` —
    so every comparison is exact int64 and the greedy order is a pure
    function of the data with (score desc, id asc) tie-break; a serial
    replay reproduces it bit-exactly (greedy selection is recursive —
    not SQL-expressible; q131 uses a replay fixture).

    Returns a driver-side ``pa.Table`` ``(rank:int64, id, rel:int64,
    score:int64)`` of the k selections in pick order.
    """
    from .cohesion import _batch_mat, quantize_half_up

    Qv = quantize_half_up(np.asarray(query, np.float64).reshape(1, -1),
                          quant_bits)[0]
    q_ref = ray.put(Qv)

    def partial(batch: pa.Table) -> pa.Table:
        Q_ = ray.get(q_ref)
        batch = batch.filter(pc.is_valid(batch[vec_col]))
        empty = pa.table({id_col: pa.array([], pa.int64()),
                          "rel": pa.array([], pa.int64()),
                          "vq": pa.array([], pa.list_(pa.int64()))})
        if batch.num_rows == 0:
            return empty
        V, dims = _batch_mat(batch, vec_col, quant_bits)
        if dims != len(Q_):
            raise ValueError(f"query dims {len(Q_)} != corpus {dims}")
        rel = V @ Q_
        ids = (batch[id_col].combine_chunks().cast(pa.int64())
               .to_numpy(zero_copy_only=False))
        order = np.lexsort((ids, -rel))[:pool_m]
        return pa.table({
            id_col: pa.array(ids[order]),
            "rel": pa.array(rel[order]),
            "vq": pa.array(list(V[order]), pa.list_(pa.int64())),
        })

    pool_parts = ds.map_batches(partial, batch_format="pyarrow",
                                zero_copy_batch=True, batch_size=None)

    blocks = [b for b in ray.get(materialized_block_refs(pool_parts))
              if b.num_rows > 0]
    out_empty = pa.table({"rank": pa.array([], pa.int64()),
                          id_col: pa.array([], pa.int64()),
                          "rel": pa.array([], pa.int64()),
                          "score": pa.array([], pa.int64())})
    if not blocks:
        return out_empty
    pool = pa.concat_tables(blocks, promote_options="default")
    ids = pool[id_col].to_numpy(zero_copy_only=False)
    rel = pool["rel"].to_numpy(zero_copy_only=False)
    V = np.stack([np.asarray(v, np.int64)
                  for v in pool["vq"].to_pylist()])
    order = np.lexsort((ids, -rel))[:pool_m]
    ids, rel, V = ids[order], rel[order], V[order]
    lam, lam_c = int(lambda_num), int(lambda_den) - int(lambda_num)
    sims = V @ V.T  # exact int64 pool similarities (pool is tiny)
    picked: list = []
    maxsim = np.full(len(ids), np.iinfo(np.int64).min)
    avail = np.ones(len(ids), bool)
    for r in range(min(k, len(ids))):
        if r == 0:
            score = lam * rel
        else:
            score = lam * rel - lam_c * maxsim
        # argmax among AVAILABLE items with (score desc, id asc)
        # tie-break — never negate a sentinel (−INT64_MIN wraps)
        cand = np.flatnonzero(avail)
        best = cand[np.lexsort((ids[cand], -score[cand]))[0]]
        picked.append((r, int(ids[best]), int(rel[best]),
                       int(score[best])))
        avail[best] = False
        maxsim = np.maximum(maxsim, sims[:, best])
    return pa.table({
        "rank": pa.array([p[0] for p in picked], pa.int64()),
        id_col: pa.array([p[1] for p in picked], pa.int64()),
        "rel": pa.array([p[2] for p in picked], pa.int64()),
        "score": pa.array([p[3] for p in picked], pa.int64()),
    })


def hard_negatives(ds, catalog=None, *, vec_col: str = "embedding",
                   id_col: str = "vec_id", label_col: str = "label",
                   quant_bits: int = 8, concurrency=(1, 8)):
    """Hard-negative mining — for every vector, the single most-similar
    vector carrying a DIFFERENT label (the contrastive-training /
    metric-learning pair miner; also the confusable-class probe).

    The catalog (``catalog`` Dataset or ``ds`` itself) reduces to one
    quantized int matrix + ids + labels built ONCE per actor from
    materialized block refs; the query stream runs one integer matmul
    per batch with same-label and self columns masked, then an argmax
    with the deterministic ``(dot desc, id asc)`` tie-break.  All
    arithmetic is the half-up-quantized exact int64 dot of
    :func:`threshold_similarity_join`, so a full SQL oracle replays it
    (unnest self-join + QUALIFY row_number).

    Rows with NULL vector/label drop from BOTH roles; a query row with
    no different-label counterpart emits nothing.  Returns
    ``(id_col, label, neg_id:int64, neg_label, dot:int64)``.

    Scale: the catalog must fit a worker's heap (ids+labels+V int64 —
    ~0.5 GiB per 1M×64-d); past that, run the label-blind
    ``knn.knn_join`` and post-filter label mismatches from its k
    candidates (recall trades like any IVF).
    """
    from .cohesion import _batch_mat

    src = catalog if catalog is not None else ds
    refs = materialized_block_refs(src)

    class Miner:
        def __init__(self):
            blocks = [b for b in ray.get(list(refs))
                      if isinstance(b, pa.Table) and b.num_rows]
            ids, labs, vecs = [], [], []
            for b in blocks:
                keep = pc.and_(pc.is_valid(b[vec_col]),
                               pc.is_valid(b[label_col]))
                b = b.filter(keep)
                if b.num_rows == 0:
                    continue
                ids.append(b[id_col].to_numpy(zero_copy_only=False)
                           .astype(np.int64))
                labs.append(b[label_col].to_numpy(zero_copy_only=False)
                            .astype(np.int64))
                Q, _d = _batch_mat(b, vec_col, quant_bits)
                vecs.append(Q)
            if ids:
                self.ids = np.concatenate(ids)
                self.labs = np.concatenate(labs)
                self.V = np.concatenate(vecs, axis=0)
                # deterministic catalog order for the argmax tie-break
                order = np.argsort(self.ids, kind="stable")
                self.ids = self.ids[order]
                self.labs = self.labs[order]
                self.V = self.V[order]
            else:
                self.ids = np.empty(0, np.int64)
                self.labs = np.empty(0, np.int64)
                self.V = np.empty((0, 1), np.int64)

        def __call__(self, batch: pa.Table) -> pa.Table:
            empty = pa.table({id_col: pa.array([], pa.int64()),
                              "label": pa.array([], pa.int64()),
                              "neg_id": pa.array([], pa.int64()),
                              "neg_label": pa.array([], pa.int64()),
                              "dot": pa.array([], pa.int64())})
            keep = pc.and_(pc.is_valid(batch[vec_col]),
                           pc.is_valid(batch[label_col]))
            if not pc.all(keep).as_py():
                batch = batch.filter(keep)
            if batch.num_rows == 0 or len(self.ids) == 0:
                return empty
            qids = batch[id_col].to_numpy(
                zero_copy_only=False).astype(np.int64)
            qlabs = batch[label_col].to_numpy(
                zero_copy_only=False).astype(np.int64)
            X, _d = _batch_mat(batch, vec_col, quant_bits)
            dots = X @ self.V.T                       # exact int64
            bad = ((qlabs[:, None] == self.labs[None, :])
                   | (qids[:, None] == self.ids[None, :]))
            NEG = np.iinfo(np.int64).min
            masked = np.where(bad, NEG, dots)
            # argmax with (dot desc, id asc): catalog is id-sorted, so
            # np.argmax's first-max IS the smallest id among ties
            best = np.argmax(masked, axis=1)
            ok = masked[np.arange(len(best)), best] != NEG
            best = best[ok]
            return pa.table({
                id_col: pa.array(qids[ok]),
                "label": pa.array(qlabs[ok]),
                "neg_id": pa.array(self.ids[best]),
                "neg_label": pa.array(self.labs[best]),
                "dot": pa.array(dots[ok, best]),
            })

    return ds.map_batches(Miner, batch_format="pyarrow",
                          zero_copy_batch=True,
                          concurrency=concurrency)
