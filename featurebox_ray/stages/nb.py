"""Multinomial Naive Bayes corpus classifier — the fastText-shaped
language-ID / quality-filter stage of an LLM data pipeline (train a
bag-of-words classifier on a labeled column, score every document),
built on the same exact-count plan as the bigram LM.

Physical plan (two passes, one keyed exchange, zero corpus shuffle):

1. **Vocabulary**: exact global top-``top_v`` terms
   (:func:`~featurebox_ray.stages.tfidf.top_terms`, deterministic
   ``(count desc, term asc)`` boundary); OOV tokens share one UNK slot.
2. **Class counts**: classes and their document counts (the priors)
   come from one tiny ``groupby().count()``; per block, each token maps
   to ``cell = slot · n_classes + class`` and per-block ``(cell, cnt)``
   int64 partials ride ONE cell-keyed exchange (bytes moved =
   O(blocks × distinct cells), never tokens).  The fitted model is a
   dense ``(V+1) × n_classes`` int64 matrix + per-class totals.
3. **Score pass** (streaming map): the model broadcasts once via
   ``ray.put``; each batch computes per-token
   ``log2((c[slot,cls] + k) / (tot_cls + k·(V+1)))``, reduces each
   document's contiguous slice with ``np.add.reduceat`` (positionally
   invariant — the q112 contract), adds ``log2(N_cls / N)`` and takes
   the argmax class (ties to the lexically first class).

Exactness contract: all counts are int64 (order-independent); the
float path is a fixed elementwise expression + reduceat + one add +
argmax, so the distributed result is BIT-IDENTICAL to a serial replay
under any partitioning.  No SQL oracle (log2); the q153 fixture
replays the arithmetic serially from Counters.

Scale notes (100 TB): model broadcast is O(V · classes) int64 — tiny;
training is one corpus read + one tiny exchange; scoring one more
read.  Rows with NULL label are excluded from training but still
scored.

Reference analog: the reference's classifier zoo
(selection/quickmethod.py:44-163 ``dict_method_clf``) operates on
dense small matrices; this is its corpus-scale text sibling.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .lm import _token_slots
from .partition import materialized_block_refs, partitioned_refs, sum_partials
from .tfidf import top_terms


def fit_multinomial_nb(ds, *, text_col: str = "text",
                       label_col: str = "lang", top_v: int = 512,
                       num_partitions: int = 8,
                       id_col: str = "doc_id"):
    """Train the classifier.  Returns ``(vterms, classes, cell_counts,
    class_docs)``: the sorted vocab array, sorted class values, the
    dense ``(V+1) × n_classes`` token-count matrix and per-class
    document counts."""
    vocab_ds = top_terms(ds, id_col=id_col, text_col=text_col, k=top_v,
                         by="term_count", num_partitions=num_partitions)
    vblocks = [b for b in ray.get(materialized_block_refs(vocab_ds))
               if b.num_rows > 0]
    if vblocks:
        vocab = pa.concat_tables(vblocks, promote_options="default")
        vterms = vocab["term"].combine_chunks().take(
            pc.sort_indices(vocab["term"]))
    else:
        vterms = pa.array([], pa.string())
    n_slots = len(vterms) + 1

    # class doc counts: per-block value_counts partials combined on the
    # driver (null-safe, and bytes moved = classes × blocks — no
    # all-to-all for a tiny dimension table)
    def label_partial(batch: pa.Table) -> pa.Table:
        lab = batch[label_col].combine_chunks()
        lab = lab.filter(pc.is_valid(lab))
        vc = lab.value_counts()
        if len(vc) == 0:
            return pa.table({"lab": pa.array([], pa.string()),
                             "cnt": pa.array([], pa.int64())})
        return pa.table({"lab": vc.field("values").cast(pa.string()),
                         "cnt": vc.field("counts")})

    lab_ds = ds.map_batches(label_partial, batch_format="pyarrow",
                            zero_copy_batch=True)
    cls_counts = sum_partials(ray.get(materialized_block_refs(lab_ds)),
                              keys=["lab"], vals=["cnt"])
    if cls_counts is None:
        raise ValueError("fit_multinomial_nb: no non-null labels")
    cls_arr = cls_counts["lab"].combine_chunks()
    classes = cls_arr.to_pylist()
    class_docs = cls_counts["cnt"].to_numpy()
    n_classes = len(classes)

    def cell_partial(batch: pa.Table) -> pa.Table:
        lab = batch[label_col].combine_chunks()
        cidx = pc.fill_null(pc.index_in(lab, value_set=cls_arr),
                            -1).to_numpy(zero_copy_only=False).astype(
            np.int64)
        slots, counts = _token_slots(batch[text_col].combine_chunks(),
                                     vterms)
        cls_rep = np.repeat(cidx, counts)
        keep = cls_rep >= 0
        cell = slots[keep] * n_classes + cls_rep[keep]
        u, c = np.unique(cell, return_counts=True)
        return pa.table({"cell": pa.array(u, pa.int64()),
                         "cnt": pa.array(c.astype(np.int64))})

    def cell_combine(t: pa.Table) -> pa.Table:
        p = t["cell"].to_numpy(zero_copy_only=False)
        c = t["cnt"].to_numpy(zero_copy_only=False)
        u, inv = np.unique(p, return_inverse=True)
        sums = np.zeros(len(u), np.int64)
        np.add.at(sums, inv, c)
        return pa.table({"cell": pa.array(u, pa.int64()),
                         "cnt": pa.array(sums)})

    partials = ds.map_batches(cell_partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)
    cell_refs = partitioned_refs(partials, cell_combine, key="cell",
                                 sort_keys=["cell"],
                                 num_partitions=num_partitions)
    counts = np.zeros((n_slots, n_classes), np.int64)
    for b in ray.get(cell_refs):
        if b.num_rows == 0:
            continue
        cell = b["cell"].to_numpy(zero_copy_only=False)
        cnt = b["cnt"].to_numpy(zero_copy_only=False)
        counts[cell // n_classes, cell % n_classes] += cnt
    return vterms, classes, counts, class_docs


def nb_token_logprobs(slots: np.ndarray, counts_mat: np.ndarray,
                      totals: np.ndarray, n_slots: int,
                      add_k: float) -> np.ndarray:
    """``log2 p(token|class)`` matrix ``(n_tokens, n_classes)`` — ONE
    fixed elementwise expression shared by the distributed score pass
    and the serial replay so both sides round identically."""
    num = counts_mat[slots, :].astype(np.float64) + add_k
    den = totals.astype(np.float64) + add_k * n_slots
    return np.log2(num / den)


def multinomial_nb_predict(ds, *, model=None, text_col: str = "text",
                           label_col: str = "lang",
                           id_col: str = "doc_id", top_v: int = 512,
                           add_k: float = 1.0,
                           num_partitions: int = 8):
    """Score every row with the fitted classifier.  Emits
    ``(id_col, n_tokens:int64, pred:string, logprob:float64)`` — the
    predicted class and its total log2 posterior (prior + token
    likelihoods; zero-token docs get the prior argmax).

    ``model``: a prefitted :func:`fit_multinomial_nb` tuple to score a
    corpus other than the training one; default trains on ``ds``.
    """
    if model is None:
        model = fit_multinomial_nb(ds, text_col=text_col,
                                   label_col=label_col, top_v=top_v,
                                   num_partitions=num_partitions,
                                   id_col=id_col)
    vterms, classes, counts_mat, class_docs = model
    n_slots = len(vterms) + 1
    totals = counts_mat.sum(axis=0)
    n_docs = int(class_docs.sum())
    log_prior = np.log2(class_docs.astype(np.float64)
                        / np.float64(n_docs))
    model_ref = ray.put((vterms, np.asarray(classes, object),
                         counts_mat, totals))

    def score(batch: pa.Table) -> pa.Table:
        vt, cls, cm, tot = ray.get(model_ref)
        slots, tok_counts = _token_slots(
            batch[text_col].combine_chunks(), vt)
        n_rows = len(tok_counts)
        lp_tok = nb_token_logprobs(slots, cm, tot, n_slots, add_k)
        starts = np.concatenate(
            [[0], np.cumsum(tok_counts)[:-1]]).astype(np.int64)
        has = tok_counts > 0
        scores = np.empty((n_rows, len(cls)), np.float64)
        for c in range(len(cls)):
            col = np.zeros(n_rows, np.float64)
            if np.any(has):
                col[has] = np.add.reduceat(lp_tok[:, c], starts[has])
            scores[:, c] = col + log_prior[c]
        best = np.argmax(scores, axis=1)
        return pa.table({
            id_col: batch[id_col],
            "n_tokens": pa.array(tok_counts.astype(np.int64)),
            "pred": pa.array(cls[best], pa.string()),
            "logprob": pa.array(scores[np.arange(n_rows), best]),
        })

    return ds.map_batches(score, batch_format="pyarrow",
                          zero_copy_batch=True)
