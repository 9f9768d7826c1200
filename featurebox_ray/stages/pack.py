"""Sequence packing — assign documents to fixed-token-budget packs
(training-batch construction: concatenate short docs until the context
window is full, never splitting a doc).

Deterministic distributed spec: docs bucket by
``knuth_hash(id) % n_buckets`` (the engine's one key hash, so the
assignment is a pure function of ids — stable across runs, partition
counts and cluster sizes); within a bucket docs order by
``(knuth_hash(id), id)`` (a
deterministic uniform shuffle, avoiding length-sorted pathologies) and
greedy NEXT-FIT packs them: accumulate docs until adding the next one
would exceed ``budget``, then open a new pack.  A single doc larger
than the budget gets its own pack.  Pack ids are globally unique and
namespaced by the BUCKET value (not the physical partition):
``bucket * 2^40 + local_pack``.

The greedy boundary scan is per-PACK, not per-row: each pack boundary
is one ``searchsorted`` into the partition's token cumsum (number of
iterations = number of packs ≈ total_tokens / budget), so the kernel
stays vectorized in the sense that matters — work per ROW is numpy.

Output: one row per doc ``(id_col, n_tokens, pack_id:int64,
pack_pos:int64)`` — join it back to the corpus to materialize pack
text.  Replay oracle: the same arithmetic runs serially per bucket
(q69 fixture); packing is order-defined, so no SQL window expresses it.

Reference analog: none (beyond-reference LLM-data operator, the
downstream consumer of ``stages/chunk.py``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .sample import knuth_hash

PACK_SHIFT = 40  # local pack ids stay below 2^40; partitions below 2^23


def pack_partition(ids: np.ndarray, n_tokens: np.ndarray, *,
                   budget: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pack one partition's docs.  Returns ``(order, local_pack,
    pack_pos)`` where ``order`` sorts the inputs into packing order."""
    h = knuth_hash(ids, op="pack_sequences")
    order = np.lexsort((ids, h))
    tok = n_tokens[order].astype(np.int64)
    c = np.cumsum(tok)
    n = len(tok)
    local_pack = np.empty(n, np.int64)
    starts = []
    s = 0
    pack = 0
    while s < n:
        base = c[s - 1] if s else 0
        j = int(np.searchsorted(c, base + budget, side="right"))
        if j == s:          # oversized doc: its own pack
            j = s + 1
        local_pack[s:j] = pack
        starts.append(s)
        pack += 1
        s = j
    starts_arr = np.asarray(starts, np.int64)
    pack_pos = np.arange(n, dtype=np.int64) - starts_arr[local_pack]
    return order, local_pack, pack_pos


def pack_sequences(ds, *, id_col: str = "doc_id",
                   n_tokens_col: str = "n_tokens", budget: int = 2048,
                   num_partitions: int = 32, n_buckets: int = 256):
    """Assign every doc a ``(pack_id, pack_pos)`` under the deterministic
    next-fit spec above.  One keyed exchange; rows with NULL id or
    NULL/negative token counts raise.

    ``n_buckets`` (the pack-id namespace) is DECOUPLED from
    ``num_partitions`` (physical parallelism): buckets are a pure
    function of ids, so the packing result is identical at any cluster
    size / partition count, and many buckets per partition keep the
    exchange balanced (hashing exactly P tiny bucket ints into P
    partitions would collapse onto a fraction of the gather tasks)."""
    from .partition import partitioned_map

    if budget < 1:
        raise ValueError("budget must be >= 1")
    if not 1 <= n_buckets < (1 << 23):
        raise ValueError("n_buckets must be in [1, 2^23)")

    BUCKET = "__pack_bucket"

    def add_bucket(b: pa.Table) -> pa.Table:
        col = b[id_col]
        if col.null_count:
            raise ValueError("pack_sequences requires non-null ids")
        ids = col.to_numpy(zero_copy_only=False).astype(np.int64)
        bucket = (knuth_hash(ids, op="pack_sequences")
                  % np.uint64(n_buckets)).astype(np.int64)
        return b.append_column(BUCKET, pa.array(bucket))

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            out = t.drop_columns([BUCKET])
            out = out.append_column("pack_id", pa.array([], pa.int64()))
            return out.append_column("pack_pos", pa.array([], pa.int64()))
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ntc = t[n_tokens_col]
        if ntc.null_count:
            raise ValueError("pack_sequences requires non-null token counts")
        tok = ntc.to_numpy(zero_copy_only=False).astype(np.int64)
        if tok.size and int(tok.min()) < 0:
            raise ValueError("pack_sequences requires non-negative "
                             "token counts")
        # one gather partition may hold SEVERAL bucket values (the
        # exchange hashes the bucket column again): pack each bucket's
        # run independently — rows arrive sorted by BUCKET, and pack ids
        # are namespaced by the BUCKET value, not the physical partition
        bvals = t[BUCKET].to_numpy(zero_copy_only=False).astype(np.int64)
        run_starts = np.flatnonzero(
            np.concatenate([[True], bvals[1:] != bvals[:-1]]))
        run_ends = np.append(run_starts[1:], len(bvals))
        take_idx = np.empty(len(bvals), np.int64)
        pack_id = np.empty(len(bvals), np.int64)
        pack_pos = np.empty(len(bvals), np.int64)
        for s, e in zip(run_starts, run_ends):
            order, local_pack, pos = pack_partition(
                ids[s:e], tok[s:e], budget=budget)
            take_idx[s:e] = order + s
            pack_id[s:e] = ((np.int64(bvals[s]) << np.int64(PACK_SHIFT))
                            + local_pack)
            pack_pos[s:e] = pos
        out = t.take(pa.array(take_idx, pa.int64())).drop_columns([BUCKET])
        return (out.append_column("pack_id", pa.array(pack_id))
                .append_column("pack_pos", pa.array(pack_pos)))

    bucketed = ds.map_batches(add_bucket, batch_format="pyarrow",
                              zero_copy_batch=True)
    return partitioned_map(bucketed, kernel, key=BUCKET,
                           sort_keys=[BUCKET],
                           num_partitions=num_partitions)
