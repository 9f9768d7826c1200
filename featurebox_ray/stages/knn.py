"""Large-large k-nearest-neighbor JOIN over embedding tables — neither
side broadcasts (the scale path past ``ann.brute_topk``'s broadcast-
query contract): link a new document batch to a catalog, build kNN
graphs for semdedup-style clustering, dataset-to-dataset retrieval.

IVF-bucketed, multi-probe:

1. coarse centroids are the ``n_centroids`` smallest-id right rows
   (the q25 ``centroid_init="first"`` determinism contract — zero
   training, fully replayable), quantized and broadcast once;
2. every right row rides to its ONE nearest-centroid bucket, every
   left row to its ``n_probe`` nearest buckets (exact integer squared
   distances over half-up-quantized vectors: ranking ties break to the
   lower centroid index);
3. ONE bucket-keyed exchange co-locates; per bucket an exact int64
   matmul scores all (left, right) pairs and keeps each left row's
   top-``k`` under ``(dot desc, right_id asc)``;
4. a second, candidate-sized exchange keyed by left id merges the
   per-bucket winners into the final global top-``k``.

Recall is approximate (a true neighbor outside the probed buckets is
missed — raise ``n_probe`` for recall, like any IVF index); the result
is a PURE FUNCTION of the inputs and parameters (quantized integer
arithmetic end to end, deterministic tie-breaks), so the serial numpy
replay in ``_oracle_replays.replay_knn_join`` is bit-identical and the
distributed run is partition-invariant.

Shuffle volume: right rows ship once, left rows ×``n_probe``, then
``left × k`` candidate triples.  Bucket skew follows the embedding
distribution — with trained centroids pass them through the same
quantizer and keep the "first" mode for replay tests.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions import segments as seg

from .cohesion import _batch_mat



def _assign(Vq: np.ndarray, Cq: np.ndarray, n_probe: int) -> np.ndarray:
    """(n, n_probe) nearest-centroid indices by exact integer squared
    distance, ties to the lower index.  |v|² is constant per row, so
    the ranking score is ``−2·v·c + |c|²`` (exact int64)."""
    if len(Vq) == 0:
        return np.empty((0, n_probe), np.int64)
    c2 = np.einsum("ij,ij->i", Cq, Cq)
    score = -2 * (Vq @ Cq.T) + c2[None, :]
    order = np.argsort(score, axis=1, kind="stable")
    return order[:, :n_probe].astype(np.int64)


def _guard_dot(maxl: int, maxr: int, dims: int):
    if maxl and maxr and dims * maxl * maxr >= 2 ** 63:
        raise OverflowError(
            "integer dot products exceed int64 — lower quant_bits")


def knn_join(left, right, *, k: int = 5, n_centroids: int = 8,
             n_probe: int = 2, vec_col: str = "embedding",
             left_id: str = "vec_id", right_id: str = "vec_id",
             quant_bits: int = 10, num_partitions: int = 16):
    """For each left row, the ``k`` nearest right rows by quantized
    dot product (descending; cosine when inputs are pre-normalized).
    Returns ``(left_id, rank:int64 1-based, right_id, dot:int64)``.
    Left rows whose probed buckets hold no right rows emit nothing.

    Centroid contract: the right side must contain ``n_centroids`` rows
    with the globally smallest ids reachable via ``right_id <
    4·n_centroids`` (dense-ish ids; pass a pre-filtered right side
    otherwise).
    """
    import ray

    from .partition import partitioned_map

    if k < 1 or n_probe < 1 or n_centroids < 1:
        raise ValueError("k, n_probe, n_centroids must be >= 1")
    if n_probe > n_centroids:
        raise ValueError("n_probe cannot exceed n_centroids")

    rows = sorted(
        right.filter(expr=f"{right_id} < {4 * n_centroids}").take(
            4 * n_centroids),
        key=lambda r: r[right_id])[:n_centroids]
    if len(rows) < n_centroids:
        raise ValueError(
            f"centroid scan found only {len(rows)} right rows with "
            f"{right_id} < {4 * n_centroids}; pass a denser right side "
            "or fewer n_centroids")
    from .cohesion import quantize_half_up

    Cq = quantize_half_up(
        np.stack([np.asarray(r[vec_col], np.float64) for r in rows]),
        quant_bits)
    cent_ref = ray.put(Cq)

    def right_map(b: pa.Table) -> pa.Table:
        Vq, _ = _batch_mat(b, vec_col, quant_bits)
        buckets = _assign(Vq, ray.get(cent_ref), 1)[:, 0]
        return pa.table({
            "__bucket": pa.array(buckets),
            "rid": b[right_id].combine_chunks().cast(pa.int64()),
            "vec": b[vec_col],
        })

    def left_map(b: pa.Table) -> pa.Table:
        Vq, _ = _batch_mat(b, vec_col, quant_bits)
        probes = _assign(Vq, ray.get(cent_ref), n_probe)
        n = b.num_rows
        rep = pa.array(np.repeat(np.arange(n), n_probe), pa.int64())
        return pa.table({
            "__bucket": pa.array(probes.ravel()),
            "lid": b[left_id].combine_chunks().cast(
                pa.int64()).take(rep),
            "vec": b[vec_col].combine_chunks().take(rep),
        })

    r_bucketed = right.map_batches(right_map, batch_format="pyarrow",
                                   zero_copy_batch=True)
    l_probes = left.map_batches(left_map, batch_format="pyarrow",
                                zero_copy_batch=True)

    cand_schema = pa.schema([("lid", pa.int64()), ("rid", pa.int64()),
                             ("dot", pa.int64())])

    def bucket_kernel(rt: pa.Table, lt: pa.Table) -> pa.Table:
        if rt.num_rows == 0 or lt.num_rows == 0:
            return cand_schema.empty_table()
        rb = rt["__bucket"].to_numpy(zero_copy_only=False)
        lb = lt["__bucket"].to_numpy(zero_copy_only=False)
        Rq, dims = _batch_mat(rt, "vec", quant_bits)
        Lq, _ = _batch_mat(lt, "vec", quant_bits)
        rids = rt["rid"].to_numpy(zero_copy_only=False)
        lids = lt["lid"].to_numpy(zero_copy_only=False)
        out_l, out_r, out_d = [], [], []
        starts = seg.run_starts(lb)
        ends = np.append(starts[1:], len(lb))
        for s, e in zip(starts, ends):
            r0, r1 = np.searchsorted(rb, [lb[s], lb[s] + 1])
            if r0 == r1:
                continue
            R = Rq[r0:r1]
            L = Lq[s:e]
            _guard_dot(int(np.abs(L).max()), int(np.abs(R).max()), dims)
            dots = L @ R.T
            # each side sorted by (bucket, id): R columns already ascend
            # by rid, so a stable descending-dot argsort breaks ties to
            # the smaller right id
            order = np.argsort(-dots, axis=1, kind="stable")[:, :k]
            kk = order.shape[1]
            out_l.append(np.repeat(lids[s:e].astype(np.int64), kk))
            out_r.append(rids[r0:r1].astype(np.int64)[order.ravel()])
            out_d.append(np.take_along_axis(dots, order, 1).ravel())
        if not out_l:
            return cand_schema.empty_table()
        return pa.table({"lid": pa.array(np.concatenate(out_l)),
                         "rid": pa.array(np.concatenate(out_r)),
                         "dot": pa.array(np.concatenate(out_d))})

    cands = partitioned_map([r_bucketed, l_probes], bucket_kernel,
                            key="__bucket",
                            sort_keys=[["__bucket", "rid"],
                                       ["__bucket", "lid"]],
                            num_partitions=num_partitions)

    def add_negdot(t: pa.Table) -> pa.Table:
        d = t["dot"].to_numpy(zero_copy_only=False)
        return t.append_column("__negdot", pa.array(-d, pa.int64()))

    prepped = cands.map_batches(add_negdot, batch_format="pyarrow",
                                zero_copy_batch=True)

    out_schema = pa.schema([("left_id", pa.int64()),
                            ("rank", pa.int64()),
                            ("right_id", pa.int64()),
                            ("dot", pa.int64())])

    def merge_kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "lid" not in t.column_names:
            return out_schema.empty_table()
        lid = t["lid"].to_numpy(zero_copy_only=False)
        rid = t["rid"].to_numpy(zero_copy_only=False)
        dot = t["dot"].to_numpy(zero_copy_only=False)
        n = len(lid)
        first = np.concatenate([[True], lid[1:] != lid[:-1]])
        # a right row reachable through two probed buckets would
        # duplicate; buckets partition right rows (n_probe=1 on the
        # right side), so (lid, rid) pairs are unique by construction
        seg_start = np.maximum.accumulate(
            np.where(first, np.arange(n), 0))
        rank = np.arange(n) - seg_start
        keep = rank < k
        return pa.table({
            "left_id": pa.array(lid[keep]),
            "rank": pa.array(rank[keep] + 1),
            "right_id": pa.array(rid[keep]),
            "dot": pa.array(dot[keep]),
        })

    return partitioned_map(prepped, merge_kernel, key="lid",
                           sort_keys=["lid", "__negdot", "rid"],
                           num_partitions=num_partitions)


def mutual_nn_pairs(ds, *, vec_col: str = "embedding",
                    id_col: str = "vec_id", quant_bits: int = 8,
                    num_partitions: int = 8, concurrency=(1, 8)):
    """Mutual nearest-neighbor pairs — ``(a, b)`` where b is a's
    single most-similar vector AND a is b's: the reciprocal-best-match
    criterion that cuts hub-dominated false matches in entity
    alignment / bilingual lexicon induction / near-dup seeding (a hub
    that is everyone's NN almost never has them as ITS NN).

    Exactness: the half-up-quantized exact int64 dot everywhere
    (hard_negatives convention); each row's NN uses the deterministic
    ``(dot desc, id asc)`` tie-break over an id-sorted broadcast
    catalog; mutuality is a set intersection of exact (lo, hi) rows —
    a full SQL oracle replays it (unnest self-join + QUALIFY +
    reciprocal self-join).

    Shape: catalog built once per actor from materialized refs (heap
    bound documented in :func:`hard_negatives`), one integer matmul
    per batch; the n NN rows then ride ONE lo-keyed exchange where a
    run of length 2 marks a mutual pair.  NULL-vector rows drop.

    Returns ``(id_a:int64, id_b:int64, dot:int64)`` with
    ``id_a < id_b``.  Reference analog: none (retrieval-quality
    extension of knn_join / hard_negatives).
    """
    import pyarrow.compute as pc
    import ray

    from .cohesion import _batch_mat
    from .partition import materialized_block_refs, partitioned_map

    # materialize once: the catalog AND the query pass both read these
    # refs — ds.map_batches on the lazy input would re-execute its
    # whole upstream plan a second time
    refs = list(materialized_block_refs(ds))

    class NN:
        def __init__(self):
            ids, vecs = [], []
            for b in ray.get(list(refs)):
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
                _guard_dot(int(np.abs(self.V).max(initial=0)),
                           int(np.abs(self.V).max(initial=0)),
                           self.V.shape[1])
            else:
                self.ids = np.empty(0, np.int64)
                self.V = np.empty((0, 1), np.int64)

        def __call__(self, batch: pa.Table) -> pa.Table:
            empty = pa.table({"lo": pa.array([], pa.int64()),
                              "hi": pa.array([], pa.int64()),
                              "dot": pa.array([], pa.int64())})
            batch = batch.filter(pc.is_valid(batch[vec_col]))
            if batch.num_rows == 0 or len(self.ids) < 2:
                return empty
            qids = batch[id_col].to_numpy(
                zero_copy_only=False).astype(np.int64)
            X, _d = _batch_mat(batch, vec_col, quant_bits)
            dots = X @ self.V.T
            NEG = np.iinfo(np.int64).min
            self_mask = qids[:, None] == self.ids[None, :]
            masked = np.where(self_mask, NEG, dots)
            best = np.argmax(masked, axis=1)
            ok = masked[np.arange(len(best)), best] != NEG
            a = qids[ok]
            bid = self.ids[best[ok]]
            d = masked[np.flatnonzero(ok), best[ok]]
            return pa.table({
                "lo": pa.array(np.minimum(a, bid)),
                "hi": pa.array(np.maximum(a, bid)),
                "dot": pa.array(d)})

    nn = ray.data.from_arrow_refs(list(refs)).map_batches(
        NN, batch_format="pyarrow", zero_copy_batch=True,
        concurrency=concurrency)

    empty = pa.table({"id_a": pa.array([], pa.int64()),
                      "id_b": pa.array([], pa.int64()),
                      "dot": pa.array([], pa.int64())})

    def mutual_kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "lo" not in t.column_names:
            return empty
        lo = t["lo"].to_numpy(zero_copy_only=False)
        hi = t["hi"].to_numpy(zero_copy_only=False)
        d = t["dot"].to_numpy(zero_copy_only=False)
        new = np.concatenate([[True], (lo[1:] != lo[:-1])
                              | (hi[1:] != hi[:-1])])
        starts = np.flatnonzero(new)
        lens = np.diff(np.append(starts, len(lo)))
        sel = starts[lens == 2]
        return pa.table({"id_a": pa.array(lo[sel]),
                         "id_b": pa.array(hi[sel]),
                         "dot": pa.array(d[sel])})

    return partitioned_map(nn, mutual_kernel, key="lo",
                           sort_keys=["lo", "hi"],
                           num_partitions=num_partitions)


def knn_classifier_eval(ds, *, vec_col: str = "embedding",
                        id_col: str = "vec_id",
                        label_col: str = "label", k: int = 5,
                        quant_bits: int = 8, concurrency=(1, 8)):
    """Leave-one-out k-NN classification report — every row is
    classified by the majority label of its k most-similar OTHER rows
    (exact int dots, (dot desc, id asc) neighbor order, (count desc,
    label asc) vote ties), and the per-class confusion tallies roll
    up to precision / recall / F1.  The label-quality audit for an
    embedding space: low LOO accuracy on a class = mislabeled or
    unseparated data (the evaluation-side sibling of
    ``hard_negatives``).

    Exactness: neighbor sets and votes are all-integer and totally
    tie-broken, per-class (tp, fp, fn) are exact int sums
    (driver-tiny combine over per-block partials), and each metric is
    ONE int/int division (``f1 = 2tp/(2tp+fp+fn)``) — a full SQL
    oracle replays everything (unnest self-join + two QUALIFYs + the
    identical divisions).

    The id-sorted catalog broadcasts once per actor (hard_negatives
    heap bound).  NULL vector/label rows drop from both roles.
    Classes with no predictions emit NULL precision.  Returns
    ``(label:int64, n_true:int64, tp:int64, fp:int64, fn:int64,
    precision:float64, recall:float64, f1:float64)``.

    Reference analog: the reference CVs sklearn classifiers over
    feature matrices (selection/quickmethod.py); this is the
    distributed LOO evaluation over row embeddings.
    """
    import pyarrow.compute as pc
    import ray

    from .cohesion import _batch_mat
    from .partition import materialized_block_refs, sum_partials

    refs = list(materialized_block_refs(ds))

    class Vote:
        def __init__(self):
            ids, labs, vecs = [], [], []
            for b in ray.get(list(refs)):
                if not isinstance(b, pa.Table) or b.num_rows == 0:
                    continue
                b = b.filter(pc.and_(pc.is_valid(b[vec_col]),
                                     pc.is_valid(b[label_col])))
                if b.num_rows == 0:
                    continue
                ids.append(b[id_col].to_numpy(zero_copy_only=False)
                           .astype(np.int64))
                labs.append(b[label_col].to_numpy(
                    zero_copy_only=False).astype(np.int64))
                Q, _d = _batch_mat(b, vec_col, quant_bits)
                vecs.append(Q)
            if ids:
                self.ids = np.concatenate(ids)
                self.labs = np.concatenate(labs)
                self.V = np.concatenate(vecs, axis=0)
                order = np.argsort(self.ids, kind="stable")
                self.ids = self.ids[order]
                self.labs = self.labs[order]
                self.V = self.V[order]
                if len(self.ids) > 1 and bool(
                        (self.ids[1:] == self.ids[:-1]).any()):
                    raise ValueError(
                        "knn_classifier_eval: duplicate ids — the "
                        "LOO self-mask needs unique ids")
                m = int(np.abs(self.V).max(initial=0))
                _guard_dot(m, m, self.V.shape[1])
            else:
                self.ids = np.empty(0, np.int64)
                self.labs = np.empty(0, np.int64)
                self.V = np.empty((0, 1), np.int64)

        def __call__(self, batch: pa.Table) -> pa.Table:
            empty = pa.table({"lab": pa.array([], pa.int64()),
                              "kind": pa.array([], pa.int8()),
                              "cnt": pa.array([], pa.int64())})
            batch = batch.filter(pc.and_(pc.is_valid(batch[vec_col]),
                                         pc.is_valid(
                                             batch[label_col])))
            if batch.num_rows == 0 or len(self.ids) <= k:
                return empty
            qids = batch[id_col].to_numpy(
                zero_copy_only=False).astype(np.int64)
            qlabs = batch[label_col].to_numpy(
                zero_copy_only=False).astype(np.int64)
            X, _d = _batch_mat(batch, vec_col, quant_bits)
            dots = X @ self.V.T
            NEG = np.iinfo(np.int64).min
            dots = np.where(qids[:, None] == self.ids[None, :],
                            NEG, dots)
            # exact (dot desc, id asc) top-k WITH boundary ties:
            # all rows strictly above the kth dot value join, and
            # ties AT the kth value fill the remaining slots in
            # ascending id order (integer dots tie often — bare
            # argpartition would pick an arbitrary tied subset and
            # diverge from the SQL oracle)
            m = dots.shape[1]
            # kth-largest WITHOUT negation: -NEG wraps back to
            # INT64_MIN (the q131 sentinel lesson) and would shift
            # the boundary by one
            thr = np.partition(dots, m - k, axis=1)[:, m - k]
            greater = dots > thr[:, None]
            equal = dots == thr[:, None]
            need = k - greater.sum(axis=1)
            big = np.iinfo(np.int64).max
            eq_ids = np.where(equal, self.ids[None, :], big)
            ranks = np.argsort(eq_ids, axis=1, kind="stable")
            rank_of = np.empty_like(ranks)
            rows = np.arange(len(qids))[:, None]
            rank_of[rows, ranks] = np.arange(m)[None, :]
            chosen = greater | (equal & (rank_of < need[:, None]))
            # majority with (count desc, label asc): classes scanned
            # ascending, argmax keeps the first (smallest) on ties
            classes = np.unique(self.labs)
            cnts = np.stack([
                (chosen & (self.labs[None, :] == c)).sum(axis=1)
                for c in classes], axis=1)
            pred = classes[np.argmax(cnts, axis=1)]
            # per-class partials: kind 0 = n_true, 1 = tp, 2 = fp,
            # 3 = fn
            labs_all = np.concatenate([qlabs, qlabs[pred == qlabs],
                                       pred[pred != qlabs],
                                       qlabs[pred != qlabs]])
            kinds = np.concatenate([
                np.zeros(len(qlabs), np.int8),
                np.ones(int((pred == qlabs).sum()), np.int8),
                np.full(int((pred != qlabs).sum()), 2, np.int8),
                np.full(int((pred != qlabs).sum()), 3, np.int8)])
            uq, inv = np.unique(
                np.stack([labs_all, kinds.astype(np.int64)]),
                axis=1, return_inverse=True)
            sums = np.zeros(uq.shape[1], np.int64)
            np.add.at(sums, inv, 1)
            return pa.table({"lab": pa.array(uq[0]),
                             "kind": pa.array(
                                 uq[1].astype(np.int8)),
                             "cnt": pa.array(sums)})

    parts_ds = ray.data.from_arrow_refs(list(refs)).map_batches(
        Vote, batch_format="pyarrow", zero_copy_batch=True,
        concurrency=concurrency)
    agg = sum_partials(ray.get(materialized_block_refs(parts_ds)),
                       keys=["lab", "kind"], vals=["cnt"])
    lab = (np.empty(0, np.int64) if agg is None
           else agg["lab"].to_numpy())
    classes, ci = np.unique(lab, return_inverse=True)
    cells = np.zeros((len(classes), 4), np.int64)
    if agg is not None:
        cells[ci, agg["kind"].to_numpy()] = agg["cnt"].to_numpy()
    n_true, tp, fp, fn = cells.T

    def ratio(num, den):
        # one IEEE division per class; NULL where the count is 0
        return pa.array(num / np.where(den == 0, 1, den), pa.float64(),
                        mask=den == 0)

    return pa.table({
        "label": pa.array(classes, pa.int64()),
        "n_true": pa.array(n_true), "tp": pa.array(tp),
        "fp": pa.array(fp), "fn": pa.array(fn),
        "precision": ratio(tp, tp + fp),
        "recall": ratio(tp, n_true),
        "f1": ratio(2 * tp, 2 * tp + fp + fn)})
