"""Density-based clustering (DBSCAN) over an embedding column with
integer-exact similarity — the cluster-then-curate primitive
(semantic topic groups, spam blobs, template families) that k-means
(fixed k, spherical) and semantic_dedup (dedup-oriented) don't give:
clusters of arbitrary shape, plus an explicit NOISE verdict per row.

Neighborhood = ``quantized_dot(a, b) >= threshold_num`` (the
half-up-quantized exact int64 dot of threshold_similarity_join — for
cosine semantics pre-normalize and pass ``round(t · 2^(2·qb))``); a
row is CORE iff it has ≥ ``min_pts`` neighbors besides itself;
clusters are connected components of the core-core neighbor graph
labeled by MIN core id (order-independent); border rows (non-core
with ≥ 1 core neighbor) attach to the MIN label among their core
neighbors (the q34-replay "lowest reachable cluster" convention);
everything else is noise (NULL cluster).  Every rule is exact-int or
min-fold, so the result is partition-invariant and an independent
serial replay (classic BFS DBSCAN) verifies it bit-for-bit.

Shape: the id-sorted quantized catalog broadcasts once per actor
(heap bound documented in hard_negatives); pass A counts neighbors
per row (one integer matmul per batch); pass B emits core-core edges
and border adjacency; components resolve by driver union-find over
CORE edges only (the documented driver bound — core adjacency, not
all pairs); border labels fold via ONE border-keyed exchange.  At
larger-than-heap corpora, swap the catalog for the IVF-bucketed pair
search (`dedup.embedding_neardup` shape) — the downstream
core/component/attach logic is unchanged.

Reference analog: selection/groupsel.py clusters FEATURES driver-side
with sklearn DBSCAN (cluster at groupsel.py:64); this is the
row-space distributed counterpart.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["dbscan_embed"]


def dbscan_embed(ds, *, vec_col: str = "embedding",
                 id_col: str = "vec_id", threshold_num: int,
                 min_pts: int = 4, quant_bits: int = 8,
                 num_partitions: int = 8, concurrency=(1, 8)):
    """Returns ``(id_col:int64, cluster:int64 — NULL for noise,
    is_core:int64)``; NULL-vector rows drop."""
    import ray

    from .cohesion import _batch_mat
    from .components import union_find_min_labels
    from .knn import _guard_dot
    from .partition import materialized_block_refs, partitioned_map

    in_refs = list(materialized_block_refs(ds))

    def input_ds():
        return ray.data.from_arrow_refs(list(in_refs))

    thr = int(threshold_num)

    class _Catalog:
        """Per-actor id-sorted quantized catalog (hard_negatives
        pattern)."""

        def __init__(self):
            ids, vecs = [], []
            for b in ray.get(list(in_refs)):
                if not isinstance(b, pa.Table) or b.num_rows == 0:
                    continue
                b = b.filter(pc.is_valid(b[vec_col]))
                if b.num_rows == 0:
                    continue
                ids.append(b[id_col].to_numpy(zero_copy_only=False)
                           .astype(np.int64))
                Q, _d = _batch_mat(b, vec_col, quant_bits)
                vecs.append(Q)
            if ids:
                self.ids = np.concatenate(ids)
                self.V = np.concatenate(vecs, axis=0)
                order = np.argsort(self.ids, kind="stable")
                self.ids = self.ids[order]
                self.V = self.V[order]
                m = int(np.abs(self.V).max(initial=0))
                _guard_dot(m, m, self.V.shape[1])
            else:
                self.ids = np.empty(0, np.int64)
                self.V = np.empty((0, 1), np.int64)

    class CountNbrs(_Catalog):
        def __call__(self, batch: pa.Table) -> pa.Table:
            batch = batch.filter(pc.is_valid(batch[vec_col]))
            if batch.num_rows == 0 or len(self.ids) == 0:
                return pa.table({"id": pa.array([], pa.int64()),
                                 "cnt": pa.array([], pa.int64())})
            qids = batch[id_col].to_numpy(
                zero_copy_only=False).astype(np.int64)
            X, _d = _batch_mat(batch, vec_col, quant_bits)
            nbr = (X @ self.V.T) >= thr
            nbr &= qids[:, None] != self.ids[None, :]
            return pa.table({"id": pa.array(qids),
                             "cnt": pa.array(
                                 nbr.sum(axis=1).astype(np.int64))})

    counts = input_ds().map_batches(CountNbrs,
                                    batch_format="pyarrow",
                                    zero_copy_batch=True,
                                    concurrency=concurrency)
    cid, ccnt = [], []
    for b in ray.get(materialized_block_refs(counts)):
        if b.num_rows:
            cid.append(b["id"].to_numpy(zero_copy_only=False))
            ccnt.append(b["cnt"].to_numpy(zero_copy_only=False))
    if not cid:
        return pa.table({id_col: pa.array([], pa.int64()),
                         "cluster": pa.array([], pa.int64()),
                         "is_core": pa.array([], pa.int64())})
    all_ids = np.concatenate(cid)
    all_cnt = np.concatenate(ccnt)
    core_ids = np.sort(all_ids[all_cnt >= min_pts])
    core_ref = ray.put(core_ids)

    edge_empty = pa.table({"lo": pa.array([], pa.int64()),
                           "hi": pa.array([], pa.int64()),
                           "kind": pa.array([], pa.int8())})

    class EmitEdges(_Catalog):
        """kind 0: core-core edge (lo<hi); kind 1: border->core
        adjacency (lo=border id, hi=core id); kind 2: noise marker
        (lo=id, hi=-1)."""

        def __init__(self):
            super().__init__()
            cores = ray.get(core_ref)
            self.is_core_cat = np.isin(self.ids, cores,
                                       assume_unique=False)

        def __call__(self, batch: pa.Table) -> pa.Table:
            batch = batch.filter(pc.is_valid(batch[vec_col]))
            if batch.num_rows == 0 or len(self.ids) == 0:
                return edge_empty
            qids = batch[id_col].to_numpy(
                zero_copy_only=False).astype(np.int64)
            cores = ray.get(core_ref)
            q_is_core = np.isin(qids, cores)
            X, _d = _batch_mat(batch, vec_col, quant_bits)
            Vc = self.V[self.is_core_cat]
            ic = self.ids[self.is_core_cat]
            if len(ic) == 0:
                # every valid row is noise
                return pa.table({
                    "lo": pa.array(qids),
                    "hi": pa.array(np.full(len(qids), -1, np.int64)),
                    "kind": pa.array(np.full(len(qids), 2, np.int8))})
            nbr = (X @ Vc.T) >= thr
            nbr &= qids[:, None] != ic[None, :]
            r, c = np.nonzero(nbr)
            lo_list, hi_list, kind_list = [], [], []
            # core rows: undirected core-core edges, lo < hi once
            cc = q_is_core[r] & (qids[r] < ic[c])
            lo_list.append(qids[r[cc]])
            hi_list.append(ic[c[cc]])
            kind_list.append(np.zeros(int(cc.sum()), np.int8))
            # border rows: all core adjacency
            bb = ~q_is_core[r]
            lo_list.append(qids[r[bb]])
            hi_list.append(ic[c[bb]])
            kind_list.append(np.ones(int(bb.sum()), np.int8))
            # noise: non-core rows with zero core neighbors
            has_core_nbr = nbr.any(axis=1)
            nz = ~q_is_core & ~has_core_nbr
            lo_list.append(qids[nz])
            hi_list.append(np.full(int(nz.sum()), -1, np.int64))
            kind_list.append(np.full(int(nz.sum()), 2, np.int8))
            return pa.table({
                "lo": pa.array(np.concatenate(lo_list)),
                "hi": pa.array(np.concatenate(hi_list)),
                "kind": pa.array(np.concatenate(kind_list))})

    edges = input_ds().map_batches(EmitEdges,
                                   batch_format="pyarrow",
                                   zero_copy_batch=True,
                                   concurrency=concurrency)
    edge_refs = list(materialized_block_refs(edges))

    # driver union-find over CORE-CORE edges only
    ea, eb = [], []
    for b in ray.get(edge_refs):
        if b.num_rows == 0:
            continue
        kind = b["kind"].to_numpy(zero_copy_only=False)
        sel = kind == 0
        if sel.any():
            ea.append(b["lo"].to_numpy(zero_copy_only=False)[sel])
            eb.append(b["hi"].to_numpy(zero_copy_only=False)[sel])
    if ea:
        labels = union_find_min_labels(np.concatenate(ea),
                                       np.concatenate(eb))
    else:
        labels = {}
    # isolated cores label themselves
    core_lab = np.array([labels.get(int(i), int(i))
                         for i in core_ids], np.int64)
    lab_ref = ray.put((core_ids, core_lab))

    core_table = pa.table({
        id_col: pa.array(core_ids),
        "cluster": pa.array(core_lab),
        "is_core": pa.array(np.ones(len(core_ids), np.int64))})

    out_empty = pa.table({id_col: pa.array([], pa.int64()),
                          "cluster": pa.array([], pa.int64()),
                          "is_core": pa.array([], pa.int64())})

    def border_kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "lo" not in t.column_names:
            return out_empty
        kind = t["kind"].to_numpy(zero_copy_only=False)
        lo = t["lo"].to_numpy(zero_copy_only=False)
        hi = t["hi"].to_numpy(zero_copy_only=False)
        cids, clab = ray.get(lab_ref)
        noise = kind == 2
        nz_ids = lo[noise]
        bsel = kind == 1
        blo, bhi = lo[bsel], hi[bsel]
        if len(blo):
            lab = clab[np.searchsorted(cids, bhi)]
            # min label per border id (rows sorted by lo)
            new = np.concatenate([[True], blo[1:] != blo[:-1]])
            rid = np.cumsum(new.astype(np.int64)) - 1
            starts = np.flatnonzero(new)
            best = np.full(len(starts), np.iinfo(np.int64).max)
            np.minimum.at(best, rid, lab)
            btab = pa.table({
                id_col: pa.array(blo[starts]),
                "cluster": pa.array(best),
                "is_core": pa.array(np.zeros(len(starts), np.int64))})
        else:
            btab = out_empty
        ntab = pa.table({
            id_col: pa.array(nz_ids),
            "cluster": pa.nulls(len(nz_ids), pa.int64()),
            "is_core": pa.array(np.zeros(len(nz_ids), np.int64))})
        return pa.concat_tables([btab, ntab])

    def drop_core_edges(b: pa.Table) -> pa.Table:
        # core-core rows were already consumed by the union-find —
        # shipping them through the border exchange would be pure
        # shuffle waste (they dominate on dense data)
        return b.filter(pc.not_equal(b["kind"], 0))

    non_core = partitioned_map(
        ray.data.from_arrow_refs(edge_refs).map_batches(
            drop_core_edges, batch_format="pyarrow",
            zero_copy_batch=True),
        border_kernel, key="lo", sort_keys=["lo", "hi"],
        num_partitions=num_partitions)

    return ray.data.from_arrow(core_table).union(non_core)
