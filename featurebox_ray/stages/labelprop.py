"""Semi-supervised label propagation over an embedding similarity
graph — spread a small set of trusted labels (human-reviewed docs,
known-spam seeds, verified languages) to the unlabeled bulk: each
round, every unlabeled row takes the MAJORITY label among its
currently-labeled neighbors (quantized dot ≥ threshold — the
dbscan_embed neighborhood), ties to the SMALLEST label, seeds
clamped.  The weak-supervision expansion step of a curation pipeline
(label a million docs from a thousand).

Determinism: labels are STICKY — a row is labeled ONCE (the round it
first gains a labeled neighbor, recorded in ``round_labeled``) and
never revised, so there is no oscillation by construction and the
result is exactly reproducible and partition-invariant (majority
votes are exact int counts, tie-break total).  Rounds cap the spread
DEPTH (raise ``n_rounds`` to reach further); the loop stops early
when a round labels nothing.  An independent serial replay (fixture
oracle) recomputes the identical rounds.

Shape: the id-sorted quantized catalog broadcasts once per actor
(hard_negatives heap bound); the neighbor adjacency is computed ONCE
(one integer matmul per block) and materialized as (src, dst) refs;
each round is one map over those refs against the freshly-broadcast
label vector plus a driver-tiny fold of per-src majorities (bounded
by the labeled frontier).  Beyond-heap corpora: swap the catalog for
the bucketed pair search and run the rounds as a vertex program on
``graph.superstep`` — the vote kernel is unchanged.

Reference analog: none (weak-supervision extension next to
dbscan_embed / mutual_nn_pairs / knn_join).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .partition import materialized_block_refs, sum_partials

__all__ = ["label_propagation"]


def label_propagation(ds, *, vec_col: str = "embedding",
                      id_col: str = "vec_id",
                      label_col: str = "label",
                      threshold_num: int, n_rounds: int = 5,
                      quant_bits: int = 8, concurrency=(1, 8)):
    """Rows with non-NULL ``label_col`` are seeds (clamped); NULL
    labels propagate.  Returns ``(id_col:int64, label_out:int64 —
    NULL if never reached, is_seed:int64, round_labeled:int64 — 0
    for seeds, NULL if never labeled)``.  NULL-vector rows drop.
    """
    from .cohesion import _batch_mat
    from .knn import _guard_dot

    in_refs = list(materialized_block_refs(ds))
    thr = int(threshold_num)

    class Adjacency:
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

        def __call__(self, batch: pa.Table) -> pa.Table:
            batch = batch.filter(pc.is_valid(batch[vec_col]))
            empty = pa.table({"src": pa.array([], pa.int64()),
                              "dst": pa.array([], pa.int64())})
            if batch.num_rows == 0 or len(self.ids) == 0:
                return empty
            qids = batch[id_col].to_numpy(
                zero_copy_only=False).astype(np.int64)
            X, _d = _batch_mat(batch, vec_col, quant_bits)
            nbr = (X @ self.V.T) >= thr
            nbr &= qids[:, None] != self.ids[None, :]
            r, c = np.nonzero(nbr)
            return pa.table({"src": pa.array(qids[r]),
                             "dst": pa.array(self.ids[c])})

    adj_refs = list(materialized_block_refs(
        ray.data.from_arrow_refs(list(in_refs)).map_batches(
            Adjacency, batch_format="pyarrow",
            zero_copy_batch=True, concurrency=concurrency)))

    # node inventory + seed labels (driver-held, the documented
    # catalog-heap regime)
    all_ids, all_labs = [], []
    for b in ray.get(list(in_refs)):
        if not isinstance(b, pa.Table) or b.num_rows == 0:
            continue
        b = b.filter(pc.is_valid(b[vec_col]))
        if b.num_rows == 0:
            continue
        all_ids.append(b[id_col].to_numpy(zero_copy_only=False)
                       .astype(np.int64))
        lab_col = b[label_col].combine_chunks().cast(pa.int64())
        if lab_col.null_count < len(lab_col):
            mn = pc.min(lab_col).as_py()
            if mn is not None and mn < 0:
                raise ValueError(
                    "label_propagation: negative seed labels "
                    "collide with the unlabeled sentinel")
        all_labs.append(
            pc.fill_null(lab_col, -1).to_numpy(
                zero_copy_only=False).astype(np.int64))
    if not all_ids:
        return pa.table({id_col: pa.array([], pa.int64()),
                         "label_out": pa.array([], pa.int64()),
                         "is_seed": pa.array([], pa.int64()),
                         "round_labeled": pa.array([], pa.int64())})
    ids = np.concatenate(all_ids)
    labs = np.concatenate(all_labs)
    order = np.argsort(ids, kind="stable")
    ids, labs = ids[order], labs[order]
    is_seed = labs != -1
    rounded = np.where(is_seed, np.int64(0), np.int64(-1))
    cur = labs.copy()

    for rnd in range(1, n_rounds + 1):
        lab_ref = ray.put((ids, cur))

        def vote(b: pa.Table) -> pa.Table:
            cids, clabs = ray.get(lab_ref)
            if b.num_rows == 0 or "src" not in b.column_names:
                return pa.table({"src": pa.array([], pa.int64()),
                                 "lab": pa.array([], pa.int64()),
                                 "cnt": pa.array([], pa.int64())})
            src = b["src"].to_numpy(zero_copy_only=False)
            dst = b["dst"].to_numpy(zero_copy_only=False)
            nl = clabs[np.searchsorted(cids, dst)]
            keep = nl != -1
            src, nl = src[keep], nl[keep]
            if len(src) == 0:
                return pa.table({"src": pa.array([], pa.int64()),
                                 "lab": pa.array([], pa.int64()),
                                 "cnt": pa.array([], pa.int64())})
            o = np.lexsort((nl, src))
            s, l_ = src[o], nl[o]
            new = np.concatenate([[True], (s[1:] != s[:-1])
                                  | (l_[1:] != l_[:-1])])
            st = np.flatnonzero(new)
            cnt = np.diff(np.append(st, len(s)))
            return pa.table({"src": pa.array(s[st]),
                             "lab": pa.array(l_[st]),
                             "cnt": pa.array(cnt.astype(np.int64))})

        votes = ray.data.from_arrow_refs(list(adj_refs)).map_batches(
            vote, batch_format="pyarrow", zero_copy_batch=True)
        tally = sum_partials(ray.get(materialized_block_refs(votes)),
                             keys=["src", "lab"], vals=["cnt"])
        if tally is None:
            break
        # majority with (count desc, label asc) per src
        su, lu, tot = (tally[c].to_numpy() for c in ("src", "lab", "cnt"))
        o2 = np.lexsort((lu, -tot, su))
        su, lu = su[o2], lu[o2]
        first = np.concatenate([[True], su[1:] != su[:-1]])
        win_src, win_lab = su[first], lu[first]
        pos = np.searchsorted(ids, win_src)
        upd = (~is_seed[pos]) & (cur[pos] == -1)
        changed_pos = pos[upd]
        if len(changed_pos) == 0:
            break
        cur[changed_pos] = win_lab[upd]
        rounded[changed_pos] = rnd

    return pa.table({
        id_col: pa.array(ids),
        "label_out": pa.array(cur, pa.int64(),
                              mask=(cur == -1)),
        "is_seed": pa.array(is_seed.astype(np.int64)),
        "round_labeled": pa.array(rounded, pa.int64(),
                                  mask=(rounded == -1))})
