"""Bigram language-model perplexity scoring — the KenLM-shaped quality
filter of the CCNet recipe (Wenzek et al. 2020): train an n-gram LM on
the corpus (here n=2 with add-k smoothing over an exact top-V
vocabulary + UNK), then score every document by per-token log2
probability and perplexity.  Low perplexity ⇒ the document looks like
the corpus; gibberish and boilerplate score high.

Physical plan (two passes, one keyed exchange, zero corpus shuffle):

1. **Vocabulary**: :func:`~featurebox_ray.stages.tfidf.top_terms`
   (``by="term_count"``) computes the exact global top-``top_v`` terms
   (deterministic ``(count desc, term asc)`` boundary).  Out-of-vocab
   tokens map to a single UNK id ``V``.
2. **Bigram counts**: per block, tokens map to vocab slots
   (``pc.index_in`` against the sorted vocab — one searchsorted-shaped
   lookup per batch) and adjacent within-document pairs encode as one
   int64 ``u*(V+1)+v``.  Per-block partial ``(pair, cnt)`` rows ride ONE
   pair-keyed exchange (the shuffle moves O(blocks × distinct-bigrams)
   tiny rows, never tokens).  Context counts need no second exchange:
   ``ctx(u) = Σ_v c(u,v)`` is a row-sum of the bigram table.
3. **Score pass** (streaming map): the fitted model — sorted pair ids,
   counts, context counts — broadcasts ONCE via ``ray.put`` (≤ (V+1)²
   int64 cells, ~0.5 MiB at V=256); each batch recomputes its bigrams
   and scores ``p(w_i|w_{i-1}) = (c(u,v) + k) / (ctx(u) + k·(V+1))``.

Exactness contract: counts are int64 (order-independent-exact); each
document's ``logprob = Σ log2 p`` reduces with ``np.add.reduceat`` over
the doc's own contiguous bigram slice — reduceat is positionally
invariant (a slice's sum depends only on the slice contents, verified
in tests), and ``np.log2`` / ``np.exp2`` are elementwise-deterministic
on this host — so the distributed result is BIT-IDENTICAL to a serial
replay applying the same reduction under any partitioning.  No SQL oracle (log2 of a rational is not expressible
exactly); the q112 fixture replays the arithmetic serially.

Scale notes (100 TB): the model broadcast is O(V²) worst-case — fine
for the quality-filter regime (V ≤ a few thousand); for open-vocab LMs
swap step 3's broadcast for the semi-join fetch shape of
``dedup.verify_jaccard_pairs`` (route doc bigrams to count partitions).
Training reads the corpus once, scoring once more — the same
two-tokenize trade as ``tfidf.tfidf_topk``.

Reference analog: none (the reference has no text pipeline); this is a
beyond-reference LLM-training-data operator alongside
``tfidf.corpus_freq_score`` (its integer-exact little sibling) and the
Gopher repetition signals.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .dedup import adjacent_token_indices, split_tokens
from .partition import (materialized_block_refs, partitioned_map,
                        partitioned_refs)
from .tfidf import top_terms


def _token_slots(texts, vterms) -> tuple[np.ndarray, np.ndarray]:
    """Tokenize ``texts`` and map each token to its vocab slot
    (position in the SORTED vocab array) or UNK = len(vterms).
    Returns (slots, per-row token counts)."""
    flat, off = split_tokens(pc.fill_null(texts, ""))
    counts = np.diff(off)
    if len(flat) == 0:
        return np.empty(0, np.int64), counts
    pos = pc.fill_null(pc.index_in(flat, value_set=vterms),
                       len(vterms)).to_numpy(zero_copy_only=False)
    return pos.astype(np.int64), counts


def _doc_bigrams(slots: np.ndarray, counts: np.ndarray,
                 n_slots: int) -> tuple[np.ndarray, np.ndarray]:
    """Adjacent within-document (u, v) pairs as ``u*n_slots + v`` in
    document order.  Returns (pair ids, per-row bigram counts)."""
    n_bi = np.maximum(counts - 1, 0)
    if len(slots) == 0:
        return np.empty(0, np.int64), n_bi
    sel = adjacent_token_indices(counts)
    pair = slots[sel] * n_slots + slots[sel + 1]
    return pair, n_bi


def fit_bigram_lm(ds, *, text_col: str = "text", top_v: int = 256,
                  num_partitions: int = 8, id_col: str = "doc_id"):
    """Train the corpus bigram model.  Returns ``(vterms, pair_sorted,
    pair_cnts, ctx)``: the sorted vocab array, sorted int64 bigram ids
    with their global counts, and per-context totals (length V+1,
    UNK last)."""
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
    n_slots = len(vterms) + 1  # + UNK

    def pair_partial(batch: pa.Table) -> pa.Table:
        slots, counts = _token_slots(batch[text_col].combine_chunks(),
                                     vterms)
        pair, _ = _doc_bigrams(slots, counts, n_slots)
        u, c = np.unique(pair, return_counts=True)
        return pa.table({"pair": pa.array(u, pa.int64()),
                         "cnt": pa.array(c.astype(np.int64))})

    def pair_combine(t: pa.Table) -> pa.Table:
        p = t["pair"].to_numpy(zero_copy_only=False)
        c = t["cnt"].to_numpy(zero_copy_only=False)
        u, inv = np.unique(p, return_inverse=True)
        sums = np.zeros(len(u), np.int64)
        np.add.at(sums, inv, c)
        return pa.table({"pair": pa.array(u, pa.int64()),
                         "cnt": pa.array(sums)})

    partials = ds.map_batches(pair_partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)
    pair_refs = partitioned_refs(partials, pair_combine, key="pair",
                                 sort_keys=["pair"],
                                 num_partitions=num_partitions)
    blocks = [b for b in ray.get(pair_refs) if b.num_rows > 0]
    if blocks:
        pairs = pa.concat_tables(blocks, promote_options="default")
        pr = pairs["pair"].to_numpy(zero_copy_only=False)
        cn = pairs["cnt"].to_numpy(zero_copy_only=False)
        order = np.argsort(pr, kind="stable")
        pair_sorted, pair_cnts = pr[order], cn[order]
    else:
        pair_sorted = np.empty(0, np.int64)
        pair_cnts = np.empty(0, np.int64)
    ctx = np.zeros(n_slots, np.int64)
    np.add.at(ctx, pair_sorted // n_slots, pair_cnts)
    return vterms, pair_sorted, pair_cnts, ctx


def score_bigrams(pair: np.ndarray, pair_sorted: np.ndarray,
                  pair_cnts: np.ndarray, ctx: np.ndarray,
                  n_slots: int, add_k: float) -> np.ndarray:
    """log2 p(v|u) for each encoded bigram, add-k smoothed.  Shared by
    the distributed score pass and the serial replay so both sides run
    the IDENTICAL float expression."""
    if len(pair_sorted) == 0:
        c_uv = np.zeros(len(pair), np.float64)
    else:
        idx = np.searchsorted(pair_sorted, pair)
        idx_c = np.minimum(idx, len(pair_sorted) - 1)
        hit = pair_sorted[idx_c] == pair
        c_uv = np.where(hit, pair_cnts[idx_c], 0).astype(np.float64)
    c_u = ctx[pair // n_slots].astype(np.float64)
    p = (c_uv + add_k) / (c_u + add_k * n_slots)
    return np.log2(p)


def bigram_lm_perplexity(ds, *, id_col: str = "doc_id",
                         text_col: str = "text", top_v: int = 256,
                         add_k: float = 0.5, num_partitions: int = 8,
                         model=None):
    """Per-document bigram-LM log-probability and perplexity.

    Emits one row per input row: ``(id_col, n_bigrams:int64,
    logprob:float64, ppl:float64)``; documents with fewer than two
    tokens (including null text) get ``n_bigrams=0, logprob=0.0,
    ppl=NULL``.  ``ppl = 2^(-logprob / n_bigrams)``.

    ``model``: pass a prefitted :func:`fit_bigram_lm` tuple to score a
    different corpus than the one trained on (decontamination-style
    cross-scoring); default trains on ``ds`` itself.
    """
    if model is None:
        model = fit_bigram_lm(ds, text_col=text_col, top_v=top_v,
                              num_partitions=num_partitions,
                              id_col=id_col)
    vterms, pair_sorted, pair_cnts, ctx = model
    n_slots = len(vterms) + 1
    model_ref = ray.put((vterms, pair_sorted, pair_cnts, ctx))

    def score(batch: pa.Table) -> pa.Table:
        vt, ps, pcnt, cx = ray.get(model_ref)
        slots, counts = _token_slots(batch[text_col].combine_chunks(), vt)
        pair, n_bi = _doc_bigrams(slots, counts, n_slots)
        logp = score_bigrams(pair, ps, pcnt, cx, n_slots, add_k)
        # per-document sequential sum (reduceat reduces left-to-right in
        # document token order -> partition-invariant, replayable)
        starts = np.concatenate([[0], np.cumsum(n_bi)[:-1]]).astype(
            np.int64)
        lp_doc = np.zeros(len(n_bi), np.float64)
        has = n_bi > 0
        if np.any(has):
            lp_doc[has] = np.add.reduceat(logp, starts[has])
        with np.errstate(divide="ignore", invalid="ignore"):
            ppl = np.exp2(-(lp_doc / n_bi))
        return pa.table({
            id_col: batch[id_col],
            "n_bigrams": pa.array(n_bi.astype(np.int64)),
            "logprob": pa.array(lp_doc),
            "ppl": pa.array(np.where(has, ppl, np.nan), pa.float64(),
                            mask=~has),
        })

    return ds.map_batches(score, batch_format="pyarrow",
                          zero_copy_batch=True)


def kn_bigram_topk(ds, *, group_col: str = "source",
                   text_col: str = "text", k: int = 15,
                   num_partitions: int = 8):
    """Per-group interpolated KNESER-NEY bigram table (top-``k`` rows)
    — the standard smoothed n-gram estimate (Kneser & Ney 1995; Chen &
    Goodman 1998) with absolute discount fixed at ``d = 3/4``:

        p(w2|w1) = (c - d)/tot(w1) + (d·F(w1)/tot(w1)) · B(w2)/T

    where ``c`` is the bigram count, ``tot(w1)`` the left-context
    total, ``F(w1)`` the distinct-continuation count, ``B(w2)`` the
    distinct-history count (the continuation unigram) and ``T`` the
    group's distinct-bigram-type count.  The continuation term is what
    distinguishes KN from add-k (``fit_bigram_lm``): a word seen in
    many CONTEXTS gets backoff mass, a frequent-but-fixed collocate
    does not — the right statistic for corpus-mixing decisions.

    Exactness: with ``d = 3/4`` every quantity clears denominators —

        p = ((4c − 3)·T + 3·F·B) / (4·tot·T)

    — two exact int64 products (guarded: raises when ``4·tot·T ≥
    2^53``; numerator ≤ denominator since p ≤ 1), ONE int→double cast
    pair and ONE division, so DuckDB replays bit-for-bit.  Tie-break
    ``(p desc, w1 asc, w2 asc)`` is total both sides.

    Shape: per-block ``(group, w1, w2, cnt)`` partials (Arrow C++
    tokenizer + group_by; the shuffle moves O(blocks × distinct
    bigrams) partial rows, never tokens); ONE group-keyed exchange
    merges counts and derives tot/F/B/T with run-length arithmetic —
    a group's distinct bigrams must fit its partition (bounded-vocab
    contract: this is a SMOOTHING TABLE for quality filtering, not an
    open-vocab LM; prune the vocabulary upstream for web-scale text).

    Returns ``(group_col, w1, w2, c:int64, kn_p:float64)``, ≤ k rows
    per group, sorted (group, p desc, w1, w2).  Reference analog: none
    (corpus-quality extension next to bigram_lm_perplexity).
    """
    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.fill_null(pc.is_valid(batch[group_col]),
                                    False),
                       pc.fill_null(pc.is_valid(batch[text_col]),
                                    False))
        if not pc.all(keep).as_py():
            batch = batch.filter(keep)
        flat, off = split_tokens(batch[text_col])
        if len(flat) == 0:
            return pa.table({group_col: batch[group_col].slice(0, 0),
                             "w1": pa.array([], pa.string()),
                             "w2": pa.array([], pa.string()),
                             "cnt": pa.array([], pa.int64())})
        row_ids = np.repeat(np.arange(batch.num_rows), np.diff(off))
        i = np.flatnonzero(row_ids[1:] == row_ids[:-1])
        g = batch[group_col].combine_chunks().take(
            pa.array(row_ids[i], pa.int64()))
        t = pa.table({group_col: g,
                      "w1": flat.take(pa.array(i, pa.int64())),
                      "w2": flat.take(pa.array(i + 1, pa.int64()))})
        agg = t.group_by([group_col, "w1", "w2"]).aggregate(
            [([], "count_all")])
        return agg.rename_columns([group_col, "w1", "w2", "cnt"])

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)

    gtype = ds.schema()
    gtype = getattr(gtype, "base_schema", gtype).field(group_col).type
    empty = pa.table({group_col: pa.array([], gtype),
                      "w1": pa.array([], pa.string()),
                      "w2": pa.array([], pa.string()),
                      "c": pa.array([], pa.int64()),
                      "kn_p": pa.array([], pa.float64())})

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "w1" not in t.column_names:
            return empty
        # merge duplicate (g, w1, w2) partial rows: input sorted
        garr = t[group_col].combine_chunks()
        gdict = pc.dictionary_encode(garr)
        w1dict = pc.dictionary_encode(t["w1"].combine_chunks())
        w2dict = pc.dictionary_encode(t["w2"].combine_chunks())
        gc = gdict.indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        w1c = w1dict.indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        w2c = w2dict.indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        cnt = t["cnt"].to_numpy(zero_copy_only=False)
        new = np.ones(len(gc), bool)
        new[1:] = ((gc[1:] != gc[:-1]) | (w1c[1:] != w1c[:-1])
                   | (w2c[1:] != w2c[:-1]))
        starts = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        c = np.zeros(len(starts), np.int64)
        np.add.at(c, seg, cnt)
        gs, w1s, w2s = gc[starts], w1c[starts], w2c[starts]
        # per-group totals / type counts
        g_new = np.ones(len(gs), bool)
        g_new[1:] = gs[1:] != gs[:-1]
        g_seg = np.cumsum(g_new) - 1
        tot = np.zeros(int(g_seg[-1]) + 1, np.int64)
        np.add.at(tot, g_seg, c)
        types = np.bincount(g_seg).astype(np.int64)
        den = 4 * tot * types
        if den.size and int(den.max()) >= 2 ** 53:
            raise ValueError("kn_bigram_topk: 4*tot*types >= 2^53 "
                             "breaks the exact-double contract; "
                             "prune the vocabulary")
        # F(g, w1): rows are sorted by (g, w1, w2) -> run-length on w1
        f_new = g_new | np.concatenate([[True], w1s[1:] != w1s[:-1]])
        f_seg = np.cumsum(f_new) - 1
        f_cnt = np.bincount(f_seg).astype(np.int64)
        F = f_cnt[f_seg]
        # B(g, w2): unique over composite (g, w2)
        comp = gs * (w2s.max() + 1 if len(w2s) else 1) + w2s
        _, inv, b_cnt = np.unique(comp, return_inverse=True,
                                  return_counts=True)
        B = b_cnt[inv].astype(np.int64)
        num = (4 * c - 3) * types[g_seg] + 3 * F * B
        p = num.astype(np.float64) / den[g_seg].astype(np.float64)
        # top-k per group by (p desc, w1 asc, w2 asc): rows are table-
        # sorted by (g, w1, w2) strings, so position IS the (w1, w2)
        # ascending tie-break (dictionary codes are first-appearance
        # order, not lexicographic — do not sort on them)
        order = np.lexsort((np.arange(len(gs)), -p, gs))
        gs_o = gs[order]
        gg_new = np.ones(len(gs_o), bool)
        gg_new[1:] = gs_o[1:] != gs_o[:-1]
        rank = np.arange(len(gs_o)) - np.flatnonzero(gg_new)[
            np.cumsum(gg_new) - 1]
        pick = order[rank < k]
        return pa.table({
            group_col: gdict.dictionary.take(
                pa.array(gs[pick], pa.int64())),
            "w1": w1dict.dictionary.take(
                pa.array(w1s[pick], pa.int64())),
            "w2": w2dict.dictionary.take(
                pa.array(w2s[pick], pa.int64())),
            "c": pa.array(c[pick]),
            "kn_p": pa.array(p[pick]),
        })

    return partitioned_map(partials, kernel, key=group_col,
                           sort_keys=[group_col, "w1", "w2"],
                           num_partitions=num_partitions)
