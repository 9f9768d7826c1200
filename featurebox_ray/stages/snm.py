"""Sorted-neighborhood near-duplicate detection (SNM) — the classic
windowed blocking strategy (Hernandez & Stolfo's merge/purge): impose a
TOTAL order on the corpus by a cheap blocking key (here: document
length, then id), and compare only pairs within ``window`` positions of
each other in that order.  Complements the probabilistic families
(MinHash-LSH / SimHash / embedding-LSH in ``stages/dedup.py``) with a
deterministic, exact-recall-within-window blocker whose candidate count
is exactly ``n·window`` — no skew, no tuning of band/row trade-offs.

Scale shape:
  1. rank: ``rank.global_row_number`` (range sort read in range
     order; blocks move once, driver holds one count per block);
  2. band the rank space: each row replicates to rank-buckets
     ``r//W`` and ``r//W − 1`` (≤2×), so every pair with rank distance
     ≤ W is co-located in exactly one bucket (the LOWER row's own
     bucket ``r_i//W`` — the emit-once rule, no cross-bucket dupes);
  3. ONE bucket-keyed exchange (``partition.partitioned_map``), then a
     vectorized per-partition kernel: tokenize each doc once
     (``dedup._batch_token_hashes`` — Arrow split + per-distinct
     blake2b), per-offset candidate slices, exact token-set Jaccard per
     candidate (sorted-unique uint64 intersect).

The document text rides the sort and the (≤2×) bucket exchange — at
100 TB swap step 3's payload for doc ids + a semi-join token fetch
(the ``dedup.verify_jaccard_pairs`` shape); the windowed pair algebra
is unchanged.

Exactness contract: candidate set is a pure integer predicate on exact
global ranks (``1 ≤ r_j − r_i ≤ W``); the verdict is the integer
cross-multiply ``100·|A∩B| ≥ tau100·|A∪B|`` over DISTINCT whitespace
tokens, and the reported similarity is ``double(int)/double(int)`` —
all bit-exact in a DuckDB window + self-join replay.  Zero-token
documents are dropped BEFORE ranking (mirror the filter in the
oracle's rank CTE).

Reference analog: the reference dedups feature columns by exact
content hash (``stages/dedup.py`` cites tools/exports.py); SNM is the
corpus-scale near-dup counterpart, SURVEY.md §2.8 / the LLM-pipeline
dedup family.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from featurebox_ray.stages.dedup import _batch_token_hashes, split_tokens
from featurebox_ray.stages.partition import partitioned_map
from featurebox_ray.stages.rank import global_row_number


def snm_neardup(ds, *, id_col: str = "doc_id", text_col: str = "text",
                sort_cols=("n_chars",), window: int = 10,
                tau100: int = 60, num_partitions: int = 16):
    """Near-dup pairs within ``window`` positions of the
    ``(sort_cols, id_col)`` total order whose distinct-token Jaccard
    ``≥ tau100/100``.

    Returns ``(id_a, id_b, jaccard:float64)`` with ``id_a`` the
    lower-RANK document of the pair.  ``sort_cols`` must be null-free
    integer/string columns; ``(sort_cols, id_col)`` must be unique.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if not 1 <= tau100 <= 100:
        raise ValueError("tau100 must be in [1, 100]")
    W = int(window)
    sort_cols = list(sort_cols)

    def prep(batch: pa.Table) -> pa.Table:
        cols = [id_col, text_col, *sort_cols]
        batch = batch.select(cols)
        _, off = split_tokens(batch[text_col])
        n_tok = np.diff(off)
        if (n_tok == 0).any():
            batch = batch.filter(pa.array(n_tok > 0))
        return batch

    ranked = global_row_number(
        ds.map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True),
        order_cols=[*sort_cols, id_col])

    def explode(batch: pa.Table) -> pa.Table:
        # 1-based g_rank -> 0-based r; row -> buckets r//W and r//W - 1
        r = (batch["g_rank"].to_numpy(zero_copy_only=False)
             .astype(np.int64) - 1)
        own = r // W
        prev = own - 1
        keep_prev = prev >= 0
        idx = np.concatenate([np.arange(len(r)),
                              np.flatnonzero(keep_prev)])
        bucket = np.concatenate([own, prev[keep_prev]])
        sub = batch.select([id_col, text_col]).take(pa.array(idx))
        return sub.append_column("r", pa.array(np.concatenate(
            [r, r[keep_prev]]))).append_column("bucket",
                                               pa.array(bucket))

    exploded = ranked.map_batches(explode, batch_format="pyarrow",
                                  zero_copy_batch=True)

    id_type = pa.int64()

    def kernel(t: pa.Table) -> pa.Table:
        empty = pa.table({"id_a": pa.array([], id_type),
                          "id_b": pa.array([], id_type),
                          "jaccard": pa.array([], pa.float64())})
        if t.num_rows < 2:
            return empty
        r = t["r"].to_numpy(zero_copy_only=False)
        bucket = t["bucket"].to_numpy(zero_copy_only=False)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        hashes, off = _batch_token_hashes(t[text_col])
        toks = [np.unique(hashes[off[i]:off[i + 1]])
                for i in range(t.num_rows)]
        ii_all, jj_all = [], []
        m = t.num_rows
        for d in range(1, W + 1):
            i = np.arange(m - d)
            ok = ((bucket[i + d] == bucket[i])
                  & (r[i + d] - r[i] == d)
                  & (r[i] // W == bucket[i]))   # emit-once rule
            i = i[ok]
            if i.size:
                ii_all.append(i)
                jj_all.append(i + d)
        if not ii_all:
            return empty
        ii = np.concatenate(ii_all)
        jj = np.concatenate(jj_all)
        out_a, out_b, out_j = [], [], []
        for i, j in zip(ii.tolist(), jj.tolist()):
            a, b = toks[i], toks[j]
            ni = np.intersect1d(a, b, assume_unique=True).size
            u = a.size + b.size - ni
            if 100 * ni >= tau100 * u:          # integer predicate
                out_a.append(int(ids[i]))
                out_b.append(int(ids[j]))
                out_j.append(float(ni) / float(u))
        return pa.table({"id_a": pa.array(out_a, id_type),
                         "id_b": pa.array(out_b, id_type),
                         "jaccard": pa.array(out_j, pa.float64())})

    return partitioned_map(exploded, kernel, key="bucket",
                           sort_keys=["bucket", "r"],
                           num_partitions=num_partitions)
