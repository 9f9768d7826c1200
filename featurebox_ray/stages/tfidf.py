"""Distributed TF-IDF — term-frequency × inverse-document-frequency over a
document table, with per-document top-k term extraction.

Three-stage shape (the classic two-pass text pipeline at scale):

1. **TF / partial-DF pass** (streaming map): tokenize each batch
   (``stages/dedup.split_tokens`` — Arrow C++ whitespace splitter), count
   terms per document (documents are rows, so TF is batch-local), and emit
   per-term partial document counts.
2. **DF aggregate** (the one keyed exchange): sum partial DFs per term —
   the shuffle moves ``(term, count)`` pairs, never documents.
3. **Score pass** (streaming map): the DF vocabulary broadcasts once
   (``ray.put`` of a sorted term array + counts; lookups are one
   ``searchsorted`` per batch) and each batch re-derives its TFs and picks
   its documents' top-k terms.

IDF here is the exact rational ``N / df`` (no logarithm): ``ln`` differs
in ulps between libm implementations, while ``tf * (N / df)`` is two IEEE
ops that DuckDB reproduces bit-exactly — the ranking is the same
monotone transform, and results value-hash end to end.

Scale notes (100 TB): the vocabulary broadcast is O(distinct terms); for
open-vocabulary corpora cap it (min-DF prune inside stage 2 — terms with
df=1 can never rank above a repeated term within the same doc) or swap
stage 3's broadcast for the semi-join fetch shape of
``dedup.verify_jaccard_pairs``.  Tokenization runs twice (stages 1 and 3)
to keep the exchange term-sized; materializing the tokenized table
instead would ship every token through the object store.

Reference analog: none (the reference has no text pipeline); this is a
beyond-reference LLM-data operator alongside dedup/ANN/text-analysis.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .dedup import adjacent_token_indices, split_tokens
from .partition import (materialized_block_refs, partitioned_map,
                        partitioned_refs, sum_partials)


def _doc_term_tf(batch: pa.Table, id_col: str, text_col: str):
    """(doc_ids, terms, tf) for every distinct (doc, term) pair in the
    batch — vectorized: tokenize, lexsort (row, term), run-length."""
    texts = batch[text_col].combine_chunks()
    flat, off = split_tokens(texts)
    n_rows = batch.num_rows
    if len(flat) == 0:
        return (np.empty(0, np.int64), flat, np.empty(0, np.int64))
    row_ids = np.repeat(np.arange(n_rows), np.diff(off))
    # dictionary-encode tokens once; runs of equal (row, code) give TF
    dct = pc.dictionary_encode(flat)
    codes = dct.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((codes, row_ids))
    r_s, c_s = row_ids[order], codes[order]
    new_run = np.ones(len(r_s), bool)
    new_run[1:] = (r_s[1:] != r_s[:-1]) | (c_s[1:] != c_s[:-1])
    starts = np.flatnonzero(new_run)
    tf = np.diff(np.concatenate([starts, [len(r_s)]]))
    doc_idx = r_s[starts]
    docs = batch[id_col].combine_chunks().take(
        pa.array(doc_idx, pa.int64()))
    terms = dct.dictionary.take(pa.array(c_s[starts], pa.int64()))
    return docs, terms, tf.astype(np.int64)


def tfidf_topk(ds, *, id_col: str = "doc_id", text_col: str = "text",
               k: int = 3, num_partitions: int = 8,
               n_docs: int | None = None):
    """Top-k terms per document by ``tf * (N / df)``, ties broken by
    ascending term.  Returns ``(id_col, term, tf:int64, tfidf:float64)``.

    ``n_docs``: pass the corpus row count when ``ds`` ends in expensive
    lazy stages — the default ``ds.count()`` is metadata-cheap on a
    parquet read but executes the full chain on a mapped dataset (the
    same hazard as ``.schema()``, see ``fused_features_backfill``'s
    ``left_schema``).
    """
    if n_docs is None:
        n_docs = ds.count()

    def df_partial(batch: pa.Table) -> pa.Table:
        _, terms, _ = _doc_term_tf(batch, id_col, text_col)
        # every (doc, term) pair is distinct -> per-term pair count is
        # this batch's document frequency
        dct = pc.dictionary_encode(terms) if len(terms) else None
        if dct is None:
            return pa.table({"term": pa.array([], pa.string()),
                             "df": pa.array([], pa.int64())})
        counts = np.bincount(
            dct.indices.to_numpy(zero_copy_only=False),
            minlength=len(dct.dictionary))
        return pa.table({"term": dct.dictionary,
                         "df": pa.array(counts.astype(np.int64))})

    def df_combine(t: pa.Table) -> pa.Table:
        dct = pc.dictionary_encode(t["term"].combine_chunks())
        sums = np.zeros(len(dct.dictionary), np.int64)
        np.add.at(sums, dct.indices.to_numpy(zero_copy_only=False),
                  t["df"].to_numpy(zero_copy_only=False))
        return pa.table({"term": dct.dictionary, "df": pa.array(sums)})

    partials = ds.map_batches(df_partial, batch_format="pyarrow",
                              zero_copy_batch=True)
    df_refs = partitioned_refs(partials, df_combine, key="term",
                               sort_keys=["term"],
                               num_partitions=num_partitions)
    blocks = [b for b in ray.get(df_refs) if b.num_rows > 0]
    if not blocks:
        empty = pa.schema([(id_col, pa.int64()), ("term", pa.string()),
                           ("tf", pa.int64()), ("tfidf", pa.float64())])
        return ray.data.from_arrow(empty.empty_table())
    vocab = pa.concat_tables(blocks, promote_options="default")
    # vocabulary sorted by term (Arrow bytewise = DuckDB binary collation):
    # `index_in` positions double as the ascending-term tie-break key
    vocab = vocab.take(pc.sort_indices(vocab["term"]))
    vterms = vocab["term"].combine_chunks()
    vdfs = vocab["df"].to_numpy(zero_copy_only=False).astype(np.float64)
    vocab_ref = ray.put((vterms, vdfs))

    def score(batch: pa.Table) -> pa.Table:
        vterms_, vdfs_ = ray.get(vocab_ref)
        docs, terms, tf = _doc_term_tf(batch, id_col, text_col)
        if len(tf) == 0:
            return pa.table({id_col: docs, "term": terms,
                             "tf": pa.array([], pa.int64()),
                             "tfidf": pa.array([], pa.float64())})
        pos = pc.index_in(terms, value_set=vterms_).to_numpy(
            zero_copy_only=False).astype(np.int64)
        df = vdfs_[pos]
        tfidf = tf.astype(np.float64) * (float(n_docs) / df)
        # top-k per doc by (tfidf desc, term asc = vocab pos asc); docs
        # are contiguous after the lexsort
        doc_np = docs.to_numpy(zero_copy_only=False)
        order = np.lexsort((pos, -tfidf, doc_np))
        d_s = doc_np[order]
        starts = np.flatnonzero(
            np.concatenate([[True], d_s[1:] != d_s[:-1]]))
        run_id = np.cumsum(
            np.concatenate([[0], (d_s[1:] != d_s[:-1]).astype(np.int64)]))
        rank = np.arange(len(d_s)) - starts[run_id]
        sel = order[rank < k]
        sel_arr = pa.array(sel, pa.int64())
        return pa.table({
            id_col: docs.take(sel_arr),
            "term": terms.take(sel_arr),
            "tf": pa.array(tf[sel], pa.int64()),
            "tfidf": pa.array(tfidf[sel], pa.float64()),
        })

    return ds.map_batches(score, batch_format="pyarrow",
                          zero_copy_batch=True)


def top_terms(ds, *, id_col: str = "doc_id", text_col: str = "text",
              k: int = 10, by: str = "doc_freq", num_partitions: int = 8):
    """Exact global heavy hitters: the ``k`` most frequent terms in the
    corpus, by document frequency (``by="doc_freq"``, counts each doc
    once per term) or total occurrences (``by="term_count"``).

    Classic exact distributed top-k — no Misra-Gries/count-min error
    bound needed because counts fully aggregate before any truncation:

    1. per-block partial ``(term, count)`` rows (vectorized run-length);
    2. ONE term-keyed exchange sums partials per term (the shuffle moves
       O(blocks × vocab) tiny rows, never tokens);
    3. each partition emits its LOCAL top-k (sound: per-term counts are
       already global after step 2, so the global top-k is a subset of
       the union of partition-local top-ks);
    4. the ≤ k × partitions survivors meet in one final partition for
       the global pick.

    Deterministic total order ``(count desc, term asc)`` — the LIMIT
    boundary is stable and SQL replays it bit-exactly.  Returns
    ``(term:string, cnt:int64)``.

    ``doc_freq`` assumes one row per document (the document-table
    contract shared with :func:`tfidf_topk`): (doc, term) pairs dedupe
    within a block, so a doc_id duplicated ACROSS blocks counts once
    per row, where SQL ``count(DISTINCT doc_id)`` counts once globally.
    Run :func:`~featurebox_ray.stages.dedup.exact_dedup` first if the
    corpus may contain duplicate ids.
    """
    if by not in ("doc_freq", "term_count"):
        raise ValueError("by must be 'doc_freq' or 'term_count'")

    def partial(batch: pa.Table) -> pa.Table:
        if by == "doc_freq":
            _, terms, _ = _doc_term_tf(batch, id_col, text_col)
            if len(terms) == 0:
                return pa.table({"term": pa.array([], pa.string()),
                                 "cnt": pa.array([], pa.int64())})
            dct = pc.dictionary_encode(terms)
            counts = np.bincount(
                dct.indices.to_numpy(zero_copy_only=False),
                minlength=len(dct.dictionary))
        else:
            flat, _ = split_tokens(batch[text_col].combine_chunks())
            if len(flat) == 0:
                return pa.table({"term": pa.array([], pa.string()),
                                 "cnt": pa.array([], pa.int64())})
            dct = pc.dictionary_encode(flat)
            counts = np.bincount(
                dct.indices.to_numpy(zero_copy_only=False),
                minlength=len(dct.dictionary))
        return pa.table({"term": dct.dictionary,
                         "cnt": pa.array(counts.astype(np.int64))})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)
    return _exact_topk_exchange(partials, k=k,
                                num_partitions=num_partitions)


def _exact_topk_exchange(partials, *, k: int, num_partitions: int):
    """Shared tail of the exact heavy-hitters plan: sum ``(term, cnt)``
    partials per term on one keyed exchange, partition-local top-k
    (sound post-summation), one final global pick under the
    deterministic ``(count desc, term asc)`` order."""
    from .rank import range_top

    def sum_local_topk(t: pa.Table) -> pa.Table:
        # local top-k by (count desc, term asc), terms compared bytewise
        s = t.group_by("term", use_threads=False).aggregate(
            [("cnt", "sum")])
        s = pa.table({"term": s["term"], "cnt": s["cnt_sum"]})
        return s.sort_by([("cnt", "descending"),
                          ("term", "ascending")]).slice(0, k)

    local = partitioned_map(partials, sum_local_topk, key="term",
                            sort_keys=[], num_partitions=num_partitions)
    # survivors are already fully summed; just order and cut
    return range_top(local, ["cnt", "term"], [True, False], k)


def top_bigrams(ds, *, id_col: str = "doc_id", text_col: str = "text",
                k: int = 20, num_partitions: int = 8):
    """Exact global top-k adjacent word bigrams — corpus collocation
    analysis (boilerplate detection, common-phrase mining) on the same
    exact heavy-hitters plan as :func:`top_terms`: per-block partial
    ``(bigram, cnt)`` rows (vectorized: adjacency mask over the token
    offsets + one ``binary_join_element_wise``), one term-keyed exchange,
    local-then-global top-k under ``(count desc, bigram asc)``.

    Returns ``(bigram:string, cnt:int64)``.  The bigram string is the
    two tokens joined by a single space — exactly SQL's
    ``array_to_string(list_slice(tokens, i, i+1), ' ')``, so the oracle
    replays it 1:1 (the q26/q84 gram convention).
    """

    def partial(batch: pa.Table) -> pa.Table:
        texts = pc.fill_null(batch[text_col].combine_chunks(), "")
        flat, off = split_tokens(texts)
        empty = pa.table({"term": pa.array([], pa.string()),
                          "cnt": pa.array([], pa.int64())})
        if len(flat) < 2:
            return empty
        counts = np.diff(off)
        sel = adjacent_token_indices(counts)
        if len(sel) == 0:
            return empty
        a = flat.take(pa.array(sel, pa.int64()))
        b = flat.take(pa.array(sel + 1, pa.int64()))
        grams = pc.binary_join_element_wise(a, b, " ")
        dct = pc.dictionary_encode(grams)
        cnt = np.bincount(dct.indices.to_numpy(zero_copy_only=False),
                          minlength=len(dct.dictionary))
        return pa.table({"term": dct.dictionary.cast(pa.string()),
                         "cnt": pa.array(cnt.astype(np.int64))})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)
    out = _exact_topk_exchange(partials, k=k,
                               num_partitions=num_partitions)

    def rename(t: pa.Table) -> pa.Table:
        return t.rename_columns(["bigram", "cnt"])

    return out.map_batches(rename, batch_format="pyarrow",
                           zero_copy_batch=True)


def skipgram_pairs(ds, *, id_col: str = "doc_id",
                   text_col: str = "text", window: int = 3,
                   k: int = 20, num_partitions: int = 8):
    """Exact global top-k skip-gram co-occurrence pairs — ordered token
    pairs ``(a, b)`` where ``b`` follows ``a`` within ``window``
    positions in the same document, counted corpus-wide (the word2vec /
    PMI context-window statistic, generalizing :func:`top_bigrams` from
    distance 1 to distance ≤ ``window``).

    Per-block kernel stays fully vectorized: one pass per distance
    ``d ∈ [1, window]`` selects flat-token indices whose ``i`` and
    ``i+d`` share a row (the :func:`adjacent_token_indices` mask
    generalized), all distances concatenate into ONE dictionary-encode
    + bincount; then the shared exact heavy-hitters tail (one term-keyed
    exchange, local-then-global top-k under ``(count desc, pair asc)``).
    Bytes shuffled = distinct pairs per block, never tokens.

    Returns ``(pair:string, cnt:int64)`` with the two tokens joined by
    one space — SQL replays via a position self-join on the unnested
    token list (``b.i > a.i AND b.i <= a.i + window``).
    """
    if window < 1:
        raise ValueError("window must be >= 1")

    def partial(batch: pa.Table) -> pa.Table:
        texts = pc.fill_null(batch[text_col].combine_chunks(), "")
        flat, off = split_tokens(texts)
        empty = pa.table({"term": pa.array([], pa.string()),
                          "cnt": pa.array([], pa.int64())})
        n = len(flat)
        if n < 2:
            return empty
        counts = np.diff(off)
        row_ids = np.repeat(np.arange(len(counts)), counts)
        firsts, seconds = [], []
        for d in range(1, window + 1):
            if n <= d:
                break
            sel = np.flatnonzero(row_ids[d:] == row_ids[:-d])
            if len(sel):
                firsts.append(sel)
                seconds.append(sel + d)
        if not firsts:
            return empty
        ia = np.concatenate(firsts)
        ib = np.concatenate(seconds)
        a = flat.take(pa.array(ia, pa.int64()))
        b = flat.take(pa.array(ib, pa.int64()))
        grams = pc.binary_join_element_wise(a, b, " ")
        dct = pc.dictionary_encode(grams)
        cnt = np.bincount(dct.indices.to_numpy(zero_copy_only=False),
                          minlength=len(dct.dictionary))
        return pa.table({"term": dct.dictionary.cast(pa.string()),
                         "cnt": pa.array(cnt.astype(np.int64))})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)
    out = _exact_topk_exchange(partials, k=k,
                               num_partitions=num_partitions)

    def rename(t: pa.Table) -> pa.Table:
        return t.rename_columns(["pair", "cnt"])

    return out.map_batches(rename, batch_format="pyarrow",
                           zero_copy_batch=True)


def corpus_freq_score(ds, *, id_col: str = "doc_id",
                      text_col: str = "text", top_v: int = 512,
                      num_partitions: int = 8):
    """Corpus-frequency familiarity scoring — the integer-exact core of
    the CCNet/KenLM quality-filter recipe (Wenzek et al. 2020): docs
    whose tokens are common in the corpus score high, gibberish scores
    low.  Instead of a log-probability LM score (libm ulps differ across
    engines), the score is pure int64 counting, so it is exact under any
    summation order AND replayable in SQL:

    1. :func:`top_terms` computes the exact global top-``top_v``
       vocabulary with total occurrence counts (term-keyed exchange of
       per-block partials; the shuffle moves O(blocks × vocab) rows);
    2. the tiny ``(term, count)`` vocabulary is ``ray.put`` ONCE and
       every score task reads it from the object store — no shuffle
       touches the documents themselves;
    3. per block, ``pc.index_in`` maps tokens to vocab slots and two
       bincount/add.at passes produce per-doc ``n_tokens``,
       ``n_invocab`` (tokens found in the vocabulary) and ``fam_sum``
       (sum of the corpus counts of in-vocab tokens, int64).

    Zero-token (and null-text) documents emit nothing, matching SQL
    ``unnest``.  Downstream filters use e.g. ``n_invocab / n_tokens``
    (OOV rate) or ``fam_sum / n_tokens`` (mean familiarity).

    Reference analog: none; added-for-100-TB corpus cleaning alongside
    the Gopher repetition signals (stages/repetition.py).
    """
    vocab_ds = top_terms(ds, id_col=id_col, text_col=text_col, k=top_v,
                         by="term_count", num_partitions=num_partitions)
    blocks = [b for b in ray.get(materialized_block_refs(vocab_ds))
              if b.num_rows > 0]
    out_schema = pa.schema([(id_col, pa.int64()),
                            ("n_tokens", pa.int64()),
                            ("n_invocab", pa.int64()),
                            ("fam_sum", pa.int64())])
    if not blocks:
        return ray.data.from_arrow(out_schema.empty_table())
    vocab = pa.concat_tables(blocks, promote_options="default")
    vterms = vocab["term"].combine_chunks()
    vcnts = vocab["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    vocab_ref = ray.put((vterms, vcnts))

    def score(batch: pa.Table) -> pa.Table:
        vterms_, vcnts_ = ray.get(vocab_ref)
        texts = pc.fill_null(batch[text_col].combine_chunks(), "")
        flat, off = split_tokens(texts)
        n = batch.num_rows
        counts = np.diff(off)
        if len(flat) == 0:
            # preserve the caller's id type (out_schema fixes int64 only
            # for the vocab-empty early return, where no batch exists)
            return pa.table({
                id_col: batch[id_col].combine_chunks().slice(0, 0),
                "n_tokens": pa.array([], pa.int64()),
                "n_invocab": pa.array([], pa.int64()),
                "fam_sum": pa.array([], pa.int64())})
        pos = pc.fill_null(pc.index_in(flat, value_set=vterms_), -1
                           ).to_numpy(zero_copy_only=False).astype(np.int64)
        row_ids = np.repeat(np.arange(n), counts)
        iv = pos >= 0
        fam = np.zeros(n, np.int64)
        np.add.at(fam, row_ids[iv], vcnts_[pos[iv]])
        niv = np.bincount(row_ids[iv], minlength=n).astype(np.int64)
        keep = counts > 0
        ids = batch[id_col].combine_chunks().filter(pa.array(keep))
        return pa.table({
            id_col: ids,
            "n_tokens": pa.array(counts[keep].astype(np.int64)),
            "n_invocab": pa.array(niv[keep]),
            "fam_sum": pa.array(fam[keep]),
        })

    return ds.map_batches(score, batch_format="pyarrow",
                          zero_copy_batch=True)


def collocation_pmi(ds, *, id_col: str = "doc_id", text_col: str = "text",
                    min_count: int = 5, k: int = 20,
                    num_partitions: int = 8):
    """Top-k collocations by pointwise-mutual-information-style
    association — phrase mining / tokenizer-merge candidates.  The
    score is kept RATIONAL (``c_xy·N / (c_x·c_y)``, the PMI argument
    before the log — log is monotone, so the ranking is identical and
    the score replays in SQL bit-exactly, the q53 no-``ln`` trick).

    One corpus scan emits tagged per-block partials (unigram counts +
    adjacent-bigram counts, the q119 gram convention ``w1 ' ' w2``
    split into two columns); the emit is materialized once and
    branched.  Unigram totals ride one term-keyed exchange and the
    table PRUNED to ``c_x >= min_count`` broadcasts via ``ray.put``
    (sound: a candidate bigram with ``c_xy >= min_count`` implies both
    words have ``c_x >= c_xy >= min_count``).  Bigram totals ride one
    w1-keyed exchange; the scoring kernel filters ``c_xy >= min_count``,
    attaches ``c_x``/``c_y`` with ``pc.index_in`` lookups and computes
    the score as ONE IEEE division of exact int64 products (overflow
    guarded — at web scale raise ``min_count`` or pre-shard by corpus).

    Returns the global top-``k`` under ``(score desc, w1 asc, w2 asc)``:
    ``(w1, w2, c_xy:int64, c_x:int64, c_y:int64, pmi_score:float64)``.
    """
    from .rank import range_top

    if min_count < 1:
        raise ValueError("min_count must be >= 1")

    def partial(batch: pa.Table) -> pa.Table:
        texts = pc.fill_null(batch[text_col].combine_chunks(), "")
        flat, off = split_tokens(texts)
        empty = pa.table({"w1": pa.array([], pa.string()),
                          "w2": pa.array([], pa.string()),
                          "cnt": pa.array([], pa.int64())})
        if len(flat) == 0:
            return empty
        dct = pc.dictionary_encode(flat)
        ucnt = np.bincount(dct.indices.to_numpy(zero_copy_only=False),
                           minlength=len(dct.dictionary))
        uni = pa.table({
            "w1": dct.dictionary.cast(pa.string()),
            "w2": pa.nulls(len(dct.dictionary), pa.string()),
            "cnt": pa.array(ucnt.astype(np.int64))})
        counts = np.diff(off)
        sel = adjacent_token_indices(counts)
        if len(sel) == 0:
            return uni
        a = flat.take(pa.array(sel, pa.int64()))
        b = flat.take(pa.array(sel + 1, pa.int64()))
        # collision-free two-column combine: join with a space (tokens
        # are whitespace-split, so ' ' can never occur inside a token)
        grams = pc.binary_join_element_wise(a, b, " ")
        gdct = pc.dictionary_encode(grams)
        gcnt = np.bincount(gdct.indices.to_numpy(zero_copy_only=False),
                           minlength=len(gdct.dictionary))
        gs = pc.split_pattern(gdct.dictionary.cast(pa.string()), " ")
        goff = np.asarray(gs.offsets)
        gflat = gs.values
        bi = pa.table({
            "w1": gflat.take(pa.array(goff[:-1], pa.int64())),
            "w2": gflat.take(pa.array(goff[1:] - 1, pa.int64())),
            "cnt": pa.array(gcnt.astype(np.int64))})
        return pa.concat_tables([uni, bi])

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)
    refs = materialized_block_refs(partials)

    def uni_branch(t: pa.Table) -> pa.Table:
        m = pc.is_null(t["w2"])
        return t.filter(m).select(["w1", "cnt"])

    def bi_branch(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_valid(t["w2"]))

    def sum_by_key(cols):
        def combine(t: pa.Table) -> pa.Table:
            if t.num_rows == 0 or cols[0] not in t.column_names:
                return pa.schema(
                    [(c, pa.string()) for c in cols] +
                    [("cnt", pa.int64())]).empty_table()
            key = (t[cols[0]].combine_chunks() if len(cols) == 1 else
                   pc.binary_join_element_wise(
                       t[cols[0]].combine_chunks(),
                       t[cols[1]].combine_chunks(), " "))
            dct = pc.dictionary_encode(key)
            sums = np.zeros(len(dct.dictionary), np.int64)
            np.add.at(sums, dct.indices.to_numpy(zero_copy_only=False),
                      t["cnt"].to_numpy(zero_copy_only=False))
            firsts = np.full(len(dct.dictionary), -1, np.int64)
            idxs = dct.indices.to_numpy(zero_copy_only=False)
            firsts[idxs[::-1]] = np.arange(len(idxs) - 1, -1, -1)
            out = {c: t[c].combine_chunks().take(
                pa.array(firsts, pa.int64())) for c in cols}
            out["cnt"] = pa.array(sums)
            return pa.table(out)
        return combine

    uni_ds = ray.data.from_arrow_refs(list(refs)).map_batches(
        uni_branch, batch_format="pyarrow", zero_copy_batch=True)
    bi_ds = ray.data.from_arrow_refs(list(refs)).map_batches(
        bi_branch, batch_format="pyarrow", zero_copy_batch=True)

    uni_tot = partitioned_refs(uni_ds, sum_by_key(["w1"]), key="w1",
                               sort_keys=["w1"],
                               num_partitions=num_partitions)
    bi_tot = partitioned_refs(bi_ds, sum_by_key(["w1", "w2"]), key="w1",
                              sort_keys=["w1", "w2"],
                              num_partitions=num_partitions)

    out_schema = pa.schema([
        ("w1", pa.string()), ("w2", pa.string()), ("c_xy", pa.int64()),
        ("c_x", pa.int64()), ("c_y", pa.int64()),
        ("pmi_score", pa.float64())])

    # unigram table: prune to c_x >= min_count, broadcast once
    ublocks = [b for b in ray.get(uni_tot) if b.num_rows > 0]
    if not ublocks:
        return ray.data.from_arrow(out_schema.empty_table())
    utab = pa.concat_tables(ublocks, promote_options="default")
    utab = utab.filter(pc.greater_equal(utab["cnt"], min_count))
    utab = utab.take(pc.sort_indices(utab["w1"]))
    uterms = utab["w1"].combine_chunks()
    ucnts = utab["cnt"].to_numpy(zero_copy_only=False)
    uni_ref = ray.put((uterms, ucnts))

    # N = total adjacent-bigram occurrences (tiny exact reduce)
    @ray.remote
    def _sum_n(*blocks):
        return int(sum(
            int(pc.sum(b["cnt"]).as_py() or 0) for b in blocks
            if "cnt" in b.column_names))

    n_total = ray.get(_sum_n.remote(*bi_tot))
    if n_total == 0:
        return ray.data.from_arrow(out_schema.empty_table())

    def score(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "w1" not in t.column_names:
            return out_schema.empty_table()
        t = t.filter(pc.greater_equal(t["cnt"], min_count))
        if t.num_rows == 0:
            return out_schema.empty_table()
        uterms_, ucnts_ = ray.get(uni_ref)
        p1 = pc.index_in(t["w1"], value_set=uterms_).to_numpy(
            zero_copy_only=False).astype(np.int64)
        p2 = pc.index_in(t["w2"], value_set=uterms_).to_numpy(
            zero_copy_only=False).astype(np.int64)
        # c_xy >= min_count implies both words survived the prune
        c_xy = t["cnt"].to_numpy(zero_copy_only=False)
        c_x = ucnts_[p1]
        c_y = ucnts_[p2]
        if int(c_xy.max()) * n_total >= 2 ** 63 or \
                int(c_x.max()) * int(c_y.max()) >= 2 ** 63:
            raise OverflowError(
                "PMI integer products exceed int64 — raise min_count "
                "or score per corpus shard")
        num = c_xy.astype(np.int64) * np.int64(n_total)
        den = c_x * c_y
        return pa.table({
            "w1": t["w1"], "w2": t["w2"],
            "c_xy": pa.array(c_xy.astype(np.int64)),
            "c_x": pa.array(c_x.astype(np.int64)),
            "c_y": pa.array(c_y.astype(np.int64)),
            "pmi_score": pa.array(num.astype(np.float64) /
                                  den.astype(np.float64))})

    scored = ray.data.from_arrow_refs(bi_tot).map_batches(
        score, batch_format="pyarrow", zero_copy_batch=True)
    return range_top(scored, ["pmi_score", "w1", "w2"],
                     [True, False, False], k)


def vocab_overlap(ds, *, group_col: str, text_col: str = "text",
                  num_partitions: int = 8):
    """Pairwise vocabulary overlap between groups — the corpus-
    similarity matrix (which sources/languages share wording): for
    every group pair, the number of distinct tokens both use and the
    Jaccard of their distinct-token vocabularies.

    One streaming pass collapses each block to distinct ``(token,
    group)`` pairs (two dictionary encodes + one ``np.unique`` — the
    shuffle moves distinct pairs, never tokens); ONE token-keyed
    exchange finishes the cross-block dedup and expands each token's
    sorted distinct-group run to unordered pairs with the repeat/arange
    gather (the q128 shape; ``grp_a < grp_b`` bytewise matches SQL);
    per-partition partial pair counts plus per-group distinct-token
    size partials ride back as one tiny table (≤ partitions·|G|²
    rows) combined in a single task.  Jaccard = ONE IEEE division of
    exact int64 counts (bit-exact in SQL).  NULL groups and NULL texts
    drop.  Returns ``(grp_a, grp_b, inter:int64, n_a:int64, n_b:int64,
    jaccard:float64)`` for pairs with ``inter >= 1``.
    """
    row_schema = pa.schema([("w", pa.string()), ("g", pa.string())])

    def partial(batch: pa.Table) -> pa.Table:
        g_col = batch[group_col].combine_chunks().cast(pa.string())
        valid = np.asarray(pc.is_valid(g_col))
        texts = pc.fill_null(batch[text_col].combine_chunks(), "")
        flat, off = split_tokens(texts)
        if len(flat) == 0:
            return row_schema.empty_table()
        counts = np.diff(off)
        g_rep = g_col.take(pa.array(
            np.repeat(np.arange(len(counts)), counts), pa.int64()))
        keep = np.repeat(valid, counts)
        if not keep.all():
            flat = flat.filter(pa.array(keep))
            g_rep = g_rep.filter(pa.array(keep))
        if len(flat) == 0:
            return row_schema.empty_table()
        wenc = pc.dictionary_encode(flat)
        genc = pc.dictionary_encode(g_rep)
        ng = len(genc.dictionary)
        combo = (wenc.indices.to_numpy(zero_copy_only=False).astype(
            np.int64) * ng
            + genc.indices.to_numpy(zero_copy_only=False))
        u = np.unique(combo)
        return pa.table({
            "w": wenc.dictionary.take(pa.array(u // ng, pa.int64())
                                      ).cast(pa.string()),
            "g": genc.dictionary.take(pa.array(u % ng, pa.int64())
                                      ).cast(pa.string()),
        })

    rows = ds.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=None)

    part_schema = pa.schema([("g_a", pa.string()),
                             ("g_b", pa.string()),
                             ("cnt", pa.int64())])

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "w" not in t.column_names:
            return part_schema.empty_table()
        wv = t["w"].combine_chunks()
        gv = t["g"].combine_chunks()
        wenc = pc.dictionary_encode(wv)
        genc = pc.dictionary_encode(gv)
        wc = wenc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        gc = genc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        # cross-block dedup: rows sorted by (w, g) -> adjacent compare
        first = np.concatenate(
            [[True], (wc[1:] != wc[:-1]) | (gc[1:] != gc[:-1])])
        wc, gc = wc[first], gc[first]
        ng = len(genc.dictionary)
        # per-group distinct-token sizes (partial)
        sizes = np.bincount(gc, minlength=ng).astype(np.int64)
        size_tab = pa.table({
            "g_a": genc.dictionary.cast(pa.string()),
            "g_b": pa.nulls(ng, pa.string()),
            "cnt": pa.array(sizes)})
        # expand each token run (groups ascend bytewise: sorted by g)
        run_start = np.concatenate([[True], wc[1:] != wc[:-1]])
        starts = np.flatnonzero(run_start)
        lens = np.diff(np.concatenate([starts, [len(wc)]]))
        run_id = np.cumsum(run_start) - 1
        pos = np.arange(len(wc)) - starts[run_id]
        later = lens[run_id] - pos - 1
        total = int(later.sum())
        if total == 0:
            return size_tab
        a_idx = np.repeat(np.arange(len(wc)), later)
        cum = np.concatenate([[0], np.cumsum(later)])
        b_idx = a_idx + (np.arange(total) - cum[a_idx]) + 1
        pk = gc[a_idx] * ng + gc[b_idx]
        pu, pinv = np.unique(pk, return_inverse=True)
        cnt = np.bincount(pinv).astype(np.int64)
        pair_tab = pa.table({
            "g_a": genc.dictionary.take(
                pa.array(pu // ng, pa.int64())).cast(pa.string()),
            "g_b": genc.dictionary.take(
                pa.array(pu % ng, pa.int64())).cast(pa.string()),
            "cnt": pa.array(cnt)})
        return pa.concat_tables([size_tab, pair_tab])

    partials = partitioned_refs(rows, kernel, key="w",
                                sort_keys=["w", "g"],
                                num_partitions=num_partitions)
    blocks = [b for b in ray.get(partials) if b.num_rows > 0]
    out_schema = pa.schema([
        ("grp_a", pa.string()), ("grp_b", pa.string()),
        ("inter", pa.int64()), ("n_a", pa.int64()),
        ("n_b", pa.int64()), ("jaccard", pa.float64())])
    if not blocks:
        return ray.data.from_arrow(out_schema.empty_table())
    t = pa.concat_tables(blocks, promote_options="default")
    # size rows carry g_b = NULL; combine each side with one Arrow
    # group_by sum (UTF-8 byte order == the old sorted() tuple order)
    is_size = pc.is_null(t["g_b"])
    st = (t.filter(is_size).group_by(["g_a"])
          .aggregate([("cnt", "sum")]).sort_by([("g_a", "ascending")]))
    pt = (t.filter(pc.invert(is_size)).group_by(["g_a", "g_b"])
          .aggregate([("cnt", "sum")])
          .sort_by([("g_a", "ascending"), ("g_b", "ascending")]))
    if pt.num_rows == 0:
        return ray.data.from_arrow(out_schema.empty_table())
    sg = st["g_a"].combine_chunks()
    sn = st["cnt_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
    ia = pc.index_in(pt["g_a"], value_set=sg).to_numpy(
        zero_copy_only=False).astype(np.int64)
    ib = pc.index_in(pt["g_b"], value_set=sg).to_numpy(
        zero_copy_only=False).astype(np.int64)
    inter = pt["cnt_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
    n_a, n_b = sn[ia], sn[ib]
    jac = inter.astype(np.float64) / (n_a + n_b - inter).astype(
        np.float64)
    return ray.data.from_arrow(pa.table({
        "grp_a": pt["g_a"].combine_chunks(),
        "grp_b": pt["g_b"].combine_chunks(),
        "inter": pa.array(inter),
        "n_a": pa.array(n_a),
        "n_b": pa.array(n_b),
        "jaccard": pa.array(jac),
    }))


def rising_terms(ds, *, id_col: str = "doc_id", text_col: str = "text",
                 split_id: int, k: int = 20, num_partitions: int = 8):
    """Rising-term detection — rank terms by how much more frequent
    they are in the LATE half of the corpus (``id > split_id``) than
    the early half, by the add-one-smoothed ratio
    ``(late+1)/(early+1)`` (corpus drift monitoring: new jargon,
    emerging topics, contamination bursts; the term-level sibling of
    the q133 categorical drift monitor).

    Per-block partials count each term per side in one dictionary
    encode + bincount over ``2·code+side``; ONE term-keyed exchange
    sums, then local-then-global top-k.  The ranking key is the
    DOUBLE ratio on both engines (one division of exact ints each —
    identical doubles, ``(ratio desc, term asc)`` ties) so the LIMIT
    boundary replays exactly.  NULL ids drop; NULL text = no tokens.

    Returns ``(term, early:int64, late:int64, rise:float64)``.
    """
    from .rank import range_top

    def partial(batch: pa.Table) -> pa.Table:
        ids_col = batch[id_col]
        if ids_col.null_count:
            batch = batch.filter(pc.is_valid(ids_col))
        texts = pc.fill_null(batch[text_col].combine_chunks(), "")
        flat, off = split_tokens(texts)
        empty = pa.table({"term": pa.array([], pa.string()),
                          "early": pa.array([], pa.int64()),
                          "late": pa.array([], pa.int64())})
        if len(flat) == 0:
            return empty
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(
            np.int64)
        side = np.repeat((ids > split_id).astype(np.int64),
                         np.diff(off))
        dct = pc.dictionary_encode(flat)
        codes = dct.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)
        cnt = np.bincount(2 * codes + side,
                          minlength=2 * len(dct.dictionary))
        early = cnt[0::2].astype(np.int64)
        late = cnt[1::2].astype(np.int64)
        return pa.table({"term": dct.dictionary.cast(pa.string()),
                         "early": pa.array(early),
                         "late": pa.array(late)})

    def local_topk(t: pa.Table) -> pa.Table:
        s = t.group_by("term", use_threads=False).aggregate(
            [("early", "sum"), ("late", "sum")])
        early, late = s["early_sum"], s["late_sum"]
        rise = pc.divide(pc.add(late, 1).cast(pa.float64()),
                         pc.add(early, 1).cast(pa.float64()))
        s = pa.table({"term": s["term"], "early": early, "late": late,
                      "rise": rise})
        return s.sort_by([("rise", "descending"),
                          ("term", "ascending")]).slice(0, k)

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)
    local = partitioned_map(partials, local_topk, key="term",
                            sort_keys=[], num_partitions=num_partitions)
    return range_top(local, ["rise", "term"], [True, False], k)


def _group_term_counts(batch: pa.Table, group_col: str,
                       text_col: str) -> pa.Table:
    """Per-batch ``(group, term, cnt:int64)`` partials — one dictionary
    encode over ``group·V + term`` composite codes, no Python loop.
    NULL groups form a group; NULL text contributes no tokens.  Shared
    by :func:`top_terms_per_group` and :func:`chi2_keyness`."""
    texts = pc.fill_null(batch[text_col].combine_chunks(), "")
    flat, off = split_tokens(texts)
    gtype = batch.schema.field(group_col).type
    empty = pa.table({group_col: pa.array([], gtype),
                      "term": pa.array([], pa.string()),
                      "cnt": pa.array([], pa.int64())})
    if len(flat) == 0:
        return empty
    g_arr = batch[group_col].combine_chunks()
    gd = pc.dictionary_encode(g_arr)
    n_named = len(gd.dictionary)
    gi = gd.indices
    gcodes = (pc.fill_null(gi, n_named) if gi.null_count
              else gi).to_numpy(zero_copy_only=False).astype(
        np.int64)
    rep_g = np.repeat(gcodes, np.diff(off))
    td = pc.dictionary_encode(flat)
    tcodes = td.indices.to_numpy(zero_copy_only=False).astype(
        np.int64)
    v = len(td.dictionary)
    comp = rep_g * v + tcodes
    u, cnt = np.unique(comp, return_counts=True)
    g_out = u // v
    gdict = gd.dictionary
    if gi.null_count:
        gdict = pa.concat_arrays([gdict.combine_chunks()
                                  if isinstance(gdict,
                                                pa.ChunkedArray)
                                  else gdict,
                                  pa.nulls(1, gdict.type)])
    return pa.table({
        group_col: gdict.take(pa.array(g_out, pa.int64())),
        "term": td.dictionary.take(
            pa.array(u % v, pa.int64())).cast(pa.string()),
        "cnt": pa.array(cnt.astype(np.int64)),
    })


def top_terms_per_group(ds, *, group_col: str, id_col: str = "doc_id",
                        text_col: str = "text", k: int = 5,
                        num_partitions: int = 8):
    """Exact per-group heavy hitters — the ``k`` most frequent terms
    WITHIN each group (per-source boilerplate discovery, per-language
    stopword induction; the grouped sibling of :func:`top_terms`).

    Per-block ``(group, term, cnt)`` partials (one dictionary encode
    over ``group·V + term`` composite codes); ONE group-keyed exchange
    co-locates each group's partials so the kernel can finish the sums
    and cut the per-group top-k under the deterministic
    ``(count desc, term asc)`` boundary.  Bytes shuffled = distinct
    (group, term) pairs per block.  NULL groups form a group; NULL
    text = no tokens.

    Returns ``(group_col, term, cnt:int64)``, ≤ k rows per group.
    """
    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    out_gtype = base.field(group_col).type

    def partial(batch: pa.Table) -> pa.Table:
        return _group_term_counts(batch, group_col, text_col)

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "term" not in t.column_names:
            return pa.table({group_col: pa.array([], out_gtype),
                             "term": pa.array([], pa.string()),
                             "cnt": pa.array([], pa.int64())})
        g_arr = t[group_col].combine_chunks()
        gd = pc.dictionary_encode(g_arr)
        n_named = len(gd.dictionary)
        gi = gd.indices
        gcodes = (pc.fill_null(gi, n_named) if gi.null_count
                  else gi).to_numpy(zero_copy_only=False).astype(
            np.int64)
        td = pc.dictionary_encode(t["term"].combine_chunks())
        tcodes = td.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)
        v = len(td.dictionary)
        comp = gcodes * v + tcodes
        u, inv = np.unique(comp, return_inverse=True)
        sums = np.zeros(len(u), np.int64)
        np.add.at(sums, inv, t["cnt"].to_numpy(zero_copy_only=False))
        # per-group top-k by (cnt desc, term asc): term rank bytewise
        term_rank = pc.sort_indices(td.dictionary)
        tinv = np.empty(v, np.int64)
        tinv[term_rank.to_numpy(zero_copy_only=False)] = np.arange(v)
        gk = u // v
        order = np.lexsort((tinv[u % v], -sums, gk))
        gk_s = gk[order]
        starts = np.flatnonzero(np.concatenate(
            [[True], gk_s[1:] != gk_s[:-1]]))
        run_id = np.cumsum(np.concatenate(
            [[0], (gk_s[1:] != gk_s[:-1]).astype(np.int64)]))
        rank = np.arange(len(gk_s)) - starts[run_id]
        sel = order[rank < k]
        gdict = gd.dictionary
        if gi.null_count:
            gdict = pa.concat_arrays([gdict, pa.nulls(1, gdict.type)])
        return pa.table({
            group_col: gdict.take(pa.array(gk[sel], pa.int64())),
            "term": td.dictionary.take(
                pa.array((u % v)[sel], pa.int64())).cast(pa.string()),
            "cnt": pa.array(sums[sel]),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)
    return partitioned_map(partials, kernel, key=group_col,
                           sort_keys=[group_col, "term"],
                           num_partitions=num_partitions)


def chi2_keyness(ds, *, group_col: str = "source",
                 text_col: str = "text", k: int = 15,
                 min_count: int = 5, num_partitions: int = 8):
    """Per-group keyword extraction by chi-square keyness — for each
    group (source / language / label), the ``k`` terms most
    OVER-represented in that group relative to the rest of the corpus
    (the corpus-linguistics "keyness" statistic; the per-source
    boilerplate / topic-signature discovery step of a corpus audit).

    For term t in group s, the 2×2 contingency is (a = t-in-s tokens,
    b = t-elsewhere, A−a = other-in-s, B−b = other-elsewhere) and

        chi2 = N·(aB − bA)² / (ab·(N−ab)·A·B),   ab = a+b, N = A+B

    Kept terms need ``a ≥ min_count`` and strict over-representation
    ``a·N > ab·A`` (the signed direction — chi2 alone is symmetric).

    Exactness: every integer factor is bounded by ``(N/2)² < 2^53``
    (guarded — raises when N ≥ 94,906,265 tokens; at that scale swap
    the SQL replay for a Python-int fixture), so ``aB−bA``, ``A·B``
    and ``ab·(N−ab)`` are all exactly-representable doubles and the
    FIXED op sequence

        chi2 = ((d(aB−bA)/d(A·B))·d(aB−bA)/d(ab·(N−ab)))·d(N)

    replays bit-for-bit in DuckDB (BIGINT→DOUBLE below 2^53 is exact;
    HUGEINT→DOUBLE is NOT correctly rounded — measured ~1% of casts —
    which is why the single-division N·(aB−bA)²/den form is avoided).

    Plan: per-block ``(group, term, cnt)`` partials (shared
    ``_group_term_counts``), materialized ONCE and consumed twice —
    a driver-tiny per-group token-total pass (≤ blocks × groups
    rows), then ONE term-keyed exchange where each term's global
    count completes and the pruned candidates (a ≥ min_count) score
    via exact Python ints; local top-k per group per partition is
    sound because a (group, term) score is final inside its term
    partition.  Driver merges ≤ partitions×groups×k rows.  NULL
    groups drop (filter upstream to keep them).

    Returns a pa.Table ``(group_col, term, cnt, chi2)`` sorted by
    (group, chi2 desc, term asc), ≤ k rows per group.  Reference
    analog: none — beyond-reference corpus-audit operator alongside
    top_terms_per_group / vocab_coverage.
    """
    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.fill_null(pc.is_valid(batch[group_col]), False)
        if not pc.all(keep).as_py():
            batch = batch.filter(keep)
        return _group_term_counts(batch, group_col, text_col)

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)
    refs = materialized_block_refs(partials)

    # pass 1 (driver-tiny): per-group token totals A_s and N
    def block_totals(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "term" not in b.column_names:
            return pa.table({"g": pa.array([], pa.string()),
                             "tot": pa.array([], pa.int64())})
        agg = b.group_by(group_col).aggregate([("cnt", "sum")])
        return pa.table({"g": agg[group_col].cast(pa.string()),
                         "tot": agg["cnt_sum"]})

    totals: dict[str, int] = {}
    tot_blocks = ray.data.from_arrow_refs(refs).map_batches(
        block_totals, batch_format="pyarrow",
        zero_copy_batch=True).take_all()
    for r in tot_blocks:
        totals[r["g"]] = totals.get(r["g"], 0) + int(r["tot"])
    n_total = sum(totals.values())
    if n_total >= 94_906_265:  # sqrt(2^53): A·B could pass 2^53
        raise ValueError("chi2_keyness: corpus too large for the "
                         "exact-double decomposition — use a "
                         "Python-int fixture replay at this scale")
    totals_ref = ray.put(totals)

    gtype = pa.string() if not refs else None  # resolved in kernel

    def kernel(t: pa.Table) -> pa.Table:
        empty_g = (t.schema.field(group_col).type
                   if "term" in t.column_names else pa.string())
        empty = pa.table({group_col: pa.array([], empty_g),
                          "term": pa.array([], pa.string()),
                          "cnt": pa.array([], pa.int64()),
                          "chi2": pa.array([], pa.float64())})
        if t.num_rows == 0 or "term" not in t.column_names:
            return empty
        tots = ray.get(totals_ref)
        n_tok = sum(tots.values())
        td = pc.dictionary_encode(t["term"].combine_chunks())
        tcodes = td.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)
        g_arr = t[group_col].combine_chunks()
        gd = pc.dictionary_encode(g_arr)
        gcodes = gd.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)
        v = len(gd.dictionary)
        comp = tcodes * v + gcodes
        u, inv = np.unique(comp, return_inverse=True)
        a = np.zeros(len(u), np.int64)
        np.add.at(a, inv, t["cnt"].to_numpy(zero_copy_only=False))
        ut = u // v
        # per-term global count ab (term runs contiguous in u)
        tstart = np.flatnonzero(np.concatenate(
            [[True], ut[1:] != ut[:-1]]))
        ab_run = np.add.reduceat(a, tstart)
        ab = np.repeat(ab_run, np.diff(np.append(tstart, len(u))))
        A_by_code = np.array(
            [int(tots.get(gd.dictionary[i].as_py(), 0))
             for i in range(v)], np.int64)
        A = A_by_code[u % v]
        # prune, then exact Python-int scoring on survivors only
        cand = np.flatnonzero(a >= min_count)
        rows_g, rows_t, rows_a, rows_chi = [], [], [], []
        for i in cand:
            ai, abi, Ai = int(a[i]), int(ab[i]), int(A[i])
            bi, Bi = abi - ai, n_tok - Ai
            if ai * n_tok <= abi * Ai:  # not over-represented
                continue
            inner = ai * Bi - bi * Ai
            chi2 = ((float(inner) / float(Ai * Bi)) * float(inner)
                    / float(abi * (n_tok - abi))) * float(n_tok)
            rows_g.append(int(u[i] % v))
            rows_t.append(int(ut[i]))
            rows_a.append(ai)
            rows_chi.append(chi2)
        if not rows_g:
            return empty
        # local top-k per group: (chi2 desc, term asc) — term order
        # is bytewise over the partition dictionary
        term_rank = pc.sort_indices(td.dictionary)
        tinv = np.empty(len(td.dictionary), np.int64)
        tinv[term_rank.to_numpy(zero_copy_only=False)] = np.arange(
            len(td.dictionary))
        gk = np.array(rows_g, np.int64)
        chi = np.array(rows_chi, np.float64)
        tk = np.array(rows_t, np.int64)
        order = np.lexsort((tinv[tk], -chi, gk))
        gk_s = gk[order]
        starts = np.flatnonzero(np.concatenate(
            [[True], gk_s[1:] != gk_s[:-1]]))
        run_id = np.cumsum(np.concatenate(
            [[0], (gk_s[1:] != gk_s[:-1]).astype(np.int64)]))
        rank = np.arange(len(gk_s)) - starts[run_id]
        sel = order[rank < k]
        return pa.table({
            group_col: gd.dictionary.take(pa.array(gk[sel])),
            "term": td.dictionary.take(
                pa.array(tk[sel])).cast(pa.string()),
            "cnt": pa.array(np.array(rows_a, np.int64)[sel]),
            "chi2": pa.array(chi[sel])})

    scored = partitioned_refs(
        [refs], kernel, key="term",
        sort_keys=["term", group_col],
        num_partitions=num_partitions)

    # driver merge: ≤ partitions × groups × k rows
    blocks = [b for b in ray.get(scored)
              if b.num_rows and "term" in b.column_names]
    if not blocks:
        return pa.table({group_col: pa.array([], gtype or pa.string()),
                         "term": pa.array([], pa.string()),
                         "cnt": pa.array([], pa.int64()),
                         "chi2": pa.array([], pa.float64())})
    allt = pa.concat_tables(blocks).combine_chunks()
    gd = pc.dictionary_encode(allt[group_col].combine_chunks())
    gcodes = gd.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    term_rank = pc.sort_indices(allt["term"])
    tinv = np.empty(allt.num_rows, np.int64)
    tinv[term_rank.to_numpy(zero_copy_only=False)] = np.arange(
        allt.num_rows)
    chi = allt["chi2"].to_numpy(zero_copy_only=False)
    order = np.lexsort((tinv, -chi, gcodes))
    gk_s = gcodes[order]
    starts = np.flatnonzero(np.concatenate(
        [[True], gk_s[1:] != gk_s[:-1]]))
    run_id = np.cumsum(np.concatenate(
        [[0], (gk_s[1:] != gk_s[:-1]).astype(np.int64)]))
    rank = np.arange(len(gk_s)) - starts[run_id]
    sel = order[rank < k]
    return allt.take(pa.array(sel, pa.int64()))


def novelty_curve(ds, *, id_col: str = "doc_id", text_col: str = "text",
                  bucket_size: int = 250, num_partitions: int = 8):
    """Marginal-novelty curve — how much NEW vocabulary each successive
    slice of the corpus contributes: every term maps to the doc bucket
    (``doc_id // bucket_size``) where it first appears, and the curve
    is the per-bucket count of first appearances plus its running
    total.  The diminishing-returns diagnostic behind data-acquisition
    decisions ("does the next 10 TB still add vocabulary?").

    Plan: per-block ``(term, min_doc)`` partials (tokenize once,
    vectorized per-term min over dictionary codes), ONE term-keyed
    exchange takes the global min per term and collapses to
    ``(bucket, count)`` partials, and the driver merges ≤ buckets ×
    partitions tiny rows (Python-int sums) and prefix-sums the curve —
    the shuffle moves distinct terms, never tokens.

    Returns a pa.Table ``(bucket:int64, n_new_terms:int64,
    cum_new_terms:int64)``; NULL ``id_col`` rows drop.
    """
    def partial(batch: pa.Table) -> pa.Table:
        empty = pa.table({"term": pa.array([], pa.string()),
                          "md": pa.array([], pa.int64())})
        if batch.num_rows == 0:
            return empty
        keep = pc.is_valid(batch[id_col])
        if not pc.all(keep).as_py():
            batch = batch.filter(keep)
        texts = pc.fill_null(batch[text_col].combine_chunks(), "")
        flat, off = split_tokens(texts)
        if len(flat) == 0:
            return empty
        docs = batch[id_col].to_numpy(zero_copy_only=False)
        row_ids = np.repeat(np.arange(batch.num_rows), np.diff(off))
        dct = pc.dictionary_encode(flat)
        codes = dct.indices.to_numpy(zero_copy_only=False)
        md = np.full(len(dct.dictionary), np.iinfo(np.int64).max)
        np.minimum.at(md, codes, docs[row_ids])
        return pa.table({"term": dct.dictionary.cast(pa.string()),
                         "md": pa.array(md, pa.int64())})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)

    def bucket_kernel(t: pa.Table) -> pa.Table:
        empty = pa.table({"bucket": pa.array([], pa.int64()),
                          "cnt": pa.array([], pa.int64())})
        if t.num_rows == 0 or "term" not in t.column_names:
            return empty
        dct = pc.dictionary_encode(t["term"].combine_chunks())
        codes = dct.indices.to_numpy(zero_copy_only=False)
        md = np.full(len(dct.dictionary), np.iinfo(np.int64).max)
        np.minimum.at(md, codes,
                      t["md"].to_numpy(zero_copy_only=False))
        b = md // bucket_size
        u, c = np.unique(b, return_counts=True)
        return pa.table({"bucket": pa.array(u, pa.int64()),
                         "cnt": pa.array(c.astype(np.int64))})

    bparts = partitioned_refs(partials, bucket_kernel, key="term",
                              sort_keys=["term"],
                              num_partitions=num_partitions)

    comb = sum_partials(ray.get(bparts), keys=["bucket"], vals=["cnt"])
    if comb is None:
        return pa.table({"bucket": pa.array([], pa.int64()),
                         "n_new_terms": pa.array([], pa.int64()),
                         "cum_new_terms": pa.array([], pa.int64())})
    counts = comb["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table({
        "bucket": comb["bucket"].combine_chunks().cast(pa.int64()),
        "n_new_terms": pa.array(counts),
        "cum_new_terms": pa.array(np.cumsum(counts).astype(np.int64))})


def vocab_coverage(ds, *, group_col: str = "source",
                   text_col: str = "text",
                   num_partitions: int = 32):
    """Vocabulary-coverage audit per group — Good-Turing unseen mass
    and the Chao1 richness estimator: "how much of this source's
    vocabulary have we actually seen?"  The corpus-completeness
    signal for deciding whether a source needs more crawling before
    its token statistics stabilize.

    Per group: ``n_tokens``, ``vocab`` (distinct terms), ``hapax``
    (terms seen once), ``dis`` (seen twice),
    ``unseen_mass = hapax / n_tokens`` (Good-Turing: probability the
    next token is a NEW type) and
    ``chao1 = vocab + hapax^2 / (2*dis)`` (NULL when ``dis`` = 0).
    Counts are exact int64; each ratio is ONE division (plus one
    addition for chao1) of exactly-represented integers — DuckDB
    replays bit-for-bit.

    Plan: per-block ``(group, term, cnt)`` partials (the top_terms
    shape), ONE term-keyed exchange — a (term, group) pair's total
    lives wholly in its term partition, so the kernel collapses runs
    and emits per-group ``(vocab, hapax, dis, n)`` partials, combined
    on the driver (groups are few).  Tokenization is
    ``dedup.split_tokens`` (Python str.split semantics == the RE2
    ``\\S+`` the oracle uses).  NULL group rows drop; NULL text is no
    tokens.

    Reference analog: none — companion of top_terms / corpus_freq in
    the corpus-statistics family.
    """
    def partial(b: pa.Table) -> pa.Table:
        gtype = b.schema.field(group_col).type
        empty = pa.table({group_col: pa.array([], gtype),
                          "term": pa.array([], pa.string()),
                          "cnt": pa.array([], pa.int64())})
        keep = pc.fill_null(pc.is_valid(b[group_col]), False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        if b.num_rows == 0:
            return empty
        texts = pc.fill_null(b[text_col].combine_chunks(), "")
        flat, off = split_tokens(texts)
        if len(flat) == 0:
            return empty
        row_of = np.repeat(np.arange(b.num_rows), np.diff(off))
        gd = pc.dictionary_encode(b[group_col].combine_chunks())
        gcodes = gd.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)[row_of]
        td = pc.dictionary_encode(flat)
        tcodes = td.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)
        cell = gcodes * len(td.dictionary) + tcodes
        uc, inv = np.unique(cell, return_inverse=True)
        n = np.zeros(len(uc), np.int64)
        np.add.at(n, inv, 1)
        return pa.table({
            group_col: gd.dictionary.take(
                pa.array(uc // len(td.dictionary), pa.int64())),
            "term": td.dictionary.take(
                pa.array(uc % len(td.dictionary), pa.int64())),
            "cnt": pa.array(n)})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)

    def kernel(t: pa.Table) -> pa.Table:
        gtype = t.schema.field(group_col).type
        empty = pa.table({group_col: pa.array([], gtype),
                          "v": pa.array([], pa.int64()),
                          "n1": pa.array([], pa.int64()),
                          "n2": pa.array([], pa.int64()),
                          "n": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        # sorted by (term, group): collapse (term, group) runs
        tc = pc.dictionary_encode(t["term"].combine_chunks())
        tcodes = tc.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)
        gc = pc.dictionary_encode(t[group_col].combine_chunks())
        gcodes = gc.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)
        cnt = t["cnt"].to_numpy(zero_copy_only=False)
        new = np.concatenate([[True], (tcodes[1:] != tcodes[:-1])
                              | (gcodes[1:] != gcodes[:-1])])
        starts = np.flatnonzero(new)
        tot = np.add.reduceat(cnt, starts)
        g_run = gcodes[starts]
        ng = len(gc.dictionary)
        v = np.bincount(g_run, minlength=ng).astype(np.int64)
        n1 = np.bincount(g_run[tot == 1], minlength=ng).astype(
            np.int64)
        n2 = np.bincount(g_run[tot == 2], minlength=ng).astype(
            np.int64)
        ntok = np.zeros(ng, np.int64)
        np.add.at(ntok, g_run, tot)
        present = np.flatnonzero(v)
        return pa.table({
            group_col: gc.dictionary.take(
                pa.array(present, pa.int64())),
            "v": pa.array(v[present]), "n1": pa.array(n1[present]),
            "n2": pa.array(n2[present]),
            "n": pa.array(ntok[present])})

    per_part = partitioned_refs(partials, kernel, key="term",
                                sort_keys=["term", group_col],
                                num_partitions=num_partitions)

    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    gtype = base.field(group_col).type
    comb = sum_partials(ray.get(per_part),
                        keys=[group_col],
                        vals=["v", "n1", "n2", "n"])
    if comb is None:
        return pa.table({
            group_col: pa.array([], gtype),
            "n_tokens": pa.array([], pa.int64()),
            "vocab": pa.array([], pa.int64()),
            "hapax": pa.array([], pa.int64()),
            "dis": pa.array([], pa.int64()),
            "unseen_mass": pa.array([], pa.float64()),
            "chao1": pa.array([], pa.float64())})
    vocab = [int(x) for x in comb["v"].to_pylist()]
    hapax = [int(x) for x in comb["n1"].to_pylist()]
    dis = [int(x) for x in comb["n2"].to_pylist()]
    ntok = [int(x) for x in comb["n"].to_pylist()]
    unseen = [float(h) / float(n) for h, n in zip(hapax, ntok)]
    chao1 = [None if d == 0
             else float(v) + float(h * h) / float(2 * d)
             for v, h, d in zip(vocab, hapax, dis)]
    return pa.table({
        group_col: comb[group_col].combine_chunks().cast(gtype),
        "n_tokens": pa.array(ntok, pa.int64()),
        "vocab": pa.array(vocab, pa.int64()),
        "hapax": pa.array(hapax, pa.int64()),
        "dis": pa.array(dis, pa.int64()),
        "unseen_mass": pa.array(unseen, pa.float64()),
        "chao1": pa.array(chao1, pa.float64())})


def set_cover_select(ds, *, id_col: str = "doc_id",
                     text_col: str = "text", k: int = 16,
                     ngram: int = 1):
    """Greedy maximum-coverage corpus selection — pick ``k``
    documents that together cover the most distinct vocabulary, each
    round taking the doc with the largest count of terms NOT yet
    covered (the classic (1−1/e)-approximate submodular greedy; the
    lexical-diversity counterpart of k_center_select's geometric
    spread).  Standard for seeding a tokenizer-training or
    human-review subset.

    Deterministic and hash-exact: terms map to the engine's 60-bit
    md5 prefix (one md5 per distinct term per block — the documented
    replayable-hash cost); every gain is an exact integer; ties break
    to the smallest id; selection stops early when the best marginal
    gain is 0.  A serial replay is bit-identical (pure int compares).

    Scale shape: blocks prep ONCE into (id, sorted unique term-hash
    list) tables held in the object store; each round broadcasts the
    covered-set array (``ray.put``) and runs one task per block that
    computes per-doc uncovered counts via a sorted ``np.isin`` —
    vectors never reshuffle, the driver sees per-block (gain, id,
    winner-terms) summaries.  O(k · blocks) tasks.  The covered set
    grows to the UNION of selected docs' vocabularies (bounded by k ·
    max-doc-vocab, driver-resident — fine for the k's this is for).

    Output: ``(sel_ord, id, gain, covered_total)``.  Reference
    analog: none — companion of k_center_select / budget_select in
    the curation family.
    """
    from .sketch import _md5_60

    if k < 1:
        raise ValueError("set_cover_select: k must be >= 1")

    def prep(b: pa.Table) -> pa.Table:
        keep = pc.fill_null(pc.is_valid(b[id_col]), False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        empty = pa.table({id_col: pa.array([], pa.int64()),
                          "__th": pa.array([],
                                           pa.list_(pa.int64()))})
        if b.num_rows == 0:
            return empty
        texts = pc.fill_null(b[text_col].combine_chunks(), "")
        flat, off = split_tokens(texts)
        counts = np.diff(off)
        if ngram == 2:
            # coverage unit = space-joined within-doc bigrams (tiny
            # unigram vocabularies make unigram cover vacuous)
            ai = adjacent_token_indices(counts)
            if len(ai) == 0:
                return empty
            flat = pc.binary_join_element_wise(
                flat.take(pa.array(ai, pa.int64())),
                flat.take(pa.array(ai + 1, pa.int64())), " ")
            row_all = np.repeat(np.arange(b.num_rows), counts)
            row_of = row_all[ai]
        elif ngram == 1:
            row_of = np.repeat(np.arange(b.num_rows), counts)
        else:
            raise ValueError("set_cover_select: ngram must be 1 or 2")
        if len(flat) == 0:
            # all docs in the block tokenized to nothing: emit the
            # ids with empty term lists (zero gain everywhere)
            return pa.table({
                id_col: b[id_col].combine_chunks().cast(pa.int64()),
                "__th": pa.ListArray.from_arrays(
                    pa.array(np.zeros(b.num_rows + 1, np.int32)),
                    pa.array([], pa.int64()))})
        td = pc.dictionary_encode(flat)
        hv = _md5_60(td.dictionary.to_pylist())
        th = hv[td.indices.to_numpy(zero_copy_only=False)]
        # per-doc sorted unique hashes
        order = np.lexsort((th, row_of))
        r_s, t_s = row_of[order], th[order]
        keep2 = np.concatenate(
            [[True], (r_s[1:] != r_s[:-1]) | (t_s[1:] != t_s[:-1])])
        r_s, t_s = r_s[keep2], t_s[keep2]
        lens = np.bincount(r_s, minlength=b.num_rows)
        offs = np.concatenate([[0], np.cumsum(lens)])
        lists = pa.ListArray.from_arrays(
            pa.array(offs, pa.int32()), pa.array(t_s, pa.int64()))
        return pa.table({id_col: b[id_col].combine_chunks().cast(
            pa.int64()), "__th": lists})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True, batch_size=None)
    refs = materialized_block_refs(prepped)

    @ray.remote
    def best(blk: pa.Table, cov_ref):
        if blk.num_rows == 0:
            return None
        cov = cov_ref
        ids = blk[id_col].to_numpy(zero_copy_only=False)
        arr = blk["__th"].combine_chunks()
        # rebase offsets/values (a sliced array may not start at 0)
        offs = np.asarray(arr.offsets, np.int64)
        flat = arr.values.slice(
            offs[0], offs[-1] - offs[0]).to_numpy(
            zero_copy_only=False)
        offs = offs - offs[0]
        lens = np.diff(offs)
        uncovered = (~np.isin(flat, cov)).astype(np.int64)
        # reduceat only over NON-EMPTY segments: a clipped-offsets
        # call would shorten the last non-empty doc's segment when
        # zero-token docs trail it in the block
        gains = np.zeros(len(ids), np.int64)
        nz = np.flatnonzero(lens > 0)
        if len(nz):
            gains[nz] = np.add.reduceat(uncovered, offs[:-1][nz])
        mx = int(gains.max()) if len(gains) else 0
        cand = np.flatnonzero(gains == mx)
        j = cand[int(np.argmin(ids[cand]))]
        lo, hi = int(offs[j]), int(offs[j + 1])
        terms = flat[lo:hi]
        return (mx, int(ids[j]),
                terms[~np.isin(terms, cov)])

    covered = np.zeros(0, np.int64)
    out = []
    for rnd in range(k):
        cov_ref = ray.put(covered)
        bests = [b for b in
                 ray.get([best.remote(r, cov_ref) for r in refs])
                 if b is not None]
        if not bests:
            break
        mx, bid, terms = max(bests, key=lambda b: (b[0], -b[1]))
        if mx == 0:
            break
        covered = np.union1d(covered, terms)
        out.append((rnd, bid, mx, len(covered)))
    return pa.table({
        "sel_ord": pa.array([r[0] for r in out], pa.int64()),
        id_col: pa.array([r[1] for r in out], pa.int64()),
        "gain": pa.array([r[2] for r in out], pa.int64()),
        "covered_total": pa.array([r[3] for r in out], pa.int64())})


def bm25_topk(ds, *, id_col: str = "doc_id", text_col: str = "text",
              query_terms: "list[str]" = None, k: int = 10):
    """BM25 retrieval scoring against a fixed query-term set — the
    standard lexical ranking function (Robertson & Walker 1994) with
    the canonical parameters ``k1 = 1.2``, ``b = 0.75``:

        score(d, t) = idf(t) · tf·(k1+1) / (tf + k1·(1−b + b·dl/avgdl))

    IDF here is the RAW odds ratio ``(N − df + ½)/(df + ½)`` — BM25's
    ``ln`` is a monotone transform that never changes the ranking, and
    dropping it keeps every quantity an exact integer ratio (the q53
    tf·(N/df) convention: libm ``ln`` ulps differ across engines).

    Exactness: with k1 = 6/5 and b = 3/4, multiplying through by
    ``10·S`` (S = Σ dl, the corpus token count) clears every
    denominator:

        score = ((2N−2df+1)/(2df+1)) · (22·S·tf)/(10·S·tf + 3·S + 9·N·dl)

    — four exact int64 operands (guarded < 2^53), TWO divisions and
    ONE multiply in a fixed order, bit-exact in SQL.  Ties break
    (score desc, doc_id asc) — total both sides.

    Plan: pass 1 streams per-block partials (Σdl, doc count, per-term
    df) — a driver-tiny combine (blocks × (2 + |terms|) rows); pass 2
    re-tokenizes, scores docs containing a query term, and emits a
    per-block local top-k per term (sound: scores are final once the
    globals broadcast), driver-merged to the global top-k — blocks ×
    terms × k tiny rows, no exchange at all.

    Returns ``(term, doc_id, tf:int64, dl:int64, score:float64)``, ≤ k
    rows per query term, sorted (term, score desc, doc_id).
    Reference analog: none (retrieval-scoring extension next to
    tfidf_topk / inverted_index).
    """
    if not query_terms:
        raise ValueError("bm25_topk requires query_terms")
    qterms = sorted(set(query_terms))
    qarr = pa.array(qterms, pa.string())

    def prep(b: pa.Table):
        keep = pc.and_(pc.fill_null(pc.is_valid(b[id_col]), False),
                       pc.fill_null(pc.is_valid(b[text_col]), False))
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        flat, off = split_tokens(b[text_col])
        dl = np.diff(off).astype(np.int64)
        # tf per (row, query-term): index_in against the query set
        slot = pc.index_in(flat, value_set=qarr)
        sl = slot.to_numpy(zero_copy_only=False)
        row_ids = np.repeat(np.arange(b.num_rows), dl)
        hit = ~np.isnan(sl) if sl.dtype.kind == "f" else sl >= 0
        tf = np.zeros((b.num_rows, len(qterms)), np.int64)
        if hit.any():
            np.add.at(tf, (row_ids[hit],
                           sl[hit].astype(np.int64)), 1)
        return b, dl, tf

    def partial(b: pa.Table) -> pa.Table:
        b, dl, tf = prep(b)
        df = (tf > 0).sum(axis=0).astype(np.int64)
        return pa.table({
            "s": pa.array([int(dl.sum())], pa.int64()),
            "c": pa.array([len(dl)], pa.int64()),
            **{f"df{i}": pa.array([int(df[i])], pa.int64())
               for i in range(len(qterms))},
        })

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True,
                           batch_size=None).to_pandas()
    S = int(parts["s"].sum())
    C = int(parts["c"].sum())
    DF = [int(parts[f"df{i}"].sum()) for i in range(len(qterms))]
    if 22 * S * max(C, 1) >= 2 ** 53:
        raise ValueError("bm25_topk: 22*S*tf risks leaving the exact "
                         "int->double range; shard the corpus")
    glob_ref = ray.put((S, C, DF))

    empty = pa.table({"term": pa.array([], pa.string()),
                      id_col: pa.array([], pa.int64()),
                      "tf": pa.array([], pa.int64()),
                      "dl": pa.array([], pa.int64()),
                      "score": pa.array([], pa.float64())})

    def score_block(b: pa.Table) -> pa.Table:
        S, C, DF = ray.get(glob_ref)
        b, dl, tf = prep(b)
        if b.num_rows == 0 or S == 0:
            return empty
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(
            np.int64)
        out = []
        for i, term in enumerate(qterms):
            rows = np.flatnonzero(tf[:, i])
            if len(rows) == 0:
                continue
            tfi = tf[rows, i]
            dli = dl[rows]
            idf = (float(2 * C - 2 * DF[i] + 1)
                   / float(2 * DF[i] + 1))
            num = (22 * S * tfi).astype(np.float64)
            den = (10 * S * tfi + 3 * S
                   + 9 * C * dli).astype(np.float64)
            score = idf * (num / den)
            order = np.lexsort((ids[rows], -score))[:k]
            pick = rows[order]
            out.append(pa.table({
                "term": pa.array([term] * len(pick), pa.string()),
                id_col: pa.array(ids[pick]),
                "tf": pa.array(tf[pick, i]),
                "dl": pa.array(dl[pick]),
                "score": pa.array(score[order]),
            }))
        return pa.concat_tables(out) if out else empty

    local = ds.map_batches(score_block, batch_format="pyarrow",
                           zero_copy_batch=True,
                           batch_size=None).to_pandas()
    if len(local) == 0:
        return empty
    local = local.sort_values(
        ["term", "score", id_col],
        ascending=[True, False, True]).groupby(
        "term", sort=True).head(k).reset_index(drop=True)
    return pa.Table.from_pandas(local, preserve_index=False).cast(
        empty.schema)


def weighted_jaccard(ds, *, group_col: str, text_col: str,
                     num_partitions: int = 16):
    """Pairwise WEIGHTED Jaccard similarity between groups' token
    frequency BAGS — ``Σ_t min(c_a(t), c_b(t)) / Σ_t max(c_a(t),
    c_b(t))`` over whitespace token counts: the multiset upgrade of
    :func:`vocab_overlap`'s set Jaccard (a corpus that uses the same
    vocabulary but in wildly different proportions scores high on
    set overlap and low here — the histogram-shape corpus-similarity
    audit).

    Exactness: per-(token, group) counts are exact int64 (per-block
    partials collapse blocks to distinct pairs); ONE token-keyed
    exchange finishes the counts and emits per-pair ``(Σmin, Σmax)``
    partials from each token run (absent group = 0, so max-side
    contributions of solo tokens are counted via per-group totals:
    Σmax = total_a + total_b − Σmin — the identity keeps the kernel
    to present-pairs only); the driver merges pair partials + group
    totals as Python ints and emits ONE division per pair.  SQL
    replays with a FULL-JOIN-free GROUP BY (Σmin via LEAST on an
    inner join; totals via plain sums).

    NULL group/text rows drop.  Emits ``(g_a, g_b, sum_min:int64,
    sum_max:int64, wjac:float64)`` for unordered pairs with
    ``g_a < g_b``.  Reference analog: none (corpus-similarity
    family: q148 / q216 / q253).
    """
    def prep(b: pa.Table) -> pa.Table:
        keep = pc.fill_null(pc.and_(pc.is_valid(b[group_col]),
                                    pc.is_valid(b[text_col])),
                            False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        empty = pa.table({"g": pa.array([], pa.string()),
                          "tok": pa.array([], pa.string()),
                          "cnt": pa.array([], pa.int64())})
        if b.num_rows == 0:
            return empty
        toks = pc.split_pattern_regex(
            pc.fill_null(b[text_col].combine_chunks(), ""),
            r"\s+")
        g = b[group_col].combine_chunks().cast(pa.string())
        lens = pc.list_value_length(toks).to_numpy(
            zero_copy_only=False)
        flat = pc.list_flatten(toks)
        genc = pc.dictionary_encode(g)
        gi = genc.indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        grep = np.repeat(gi, lens)
        te = pc.dictionary_encode(flat)
        ti = te.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)
        # drop empty-string tokens from split artifacts
        tvals = te.dictionary.cast(pa.string())
        is_empty = pc.equal(tvals, "").to_numpy(
            zero_copy_only=False)
        keep_tok = ~is_empty[ti]
        grep, ti = grep[keep_tok], ti[keep_tok]
        n_tok = len(te.dictionary)
        cell = grep * n_tok + ti
        uc, inv = np.unique(cell, return_inverse=True)
        cnt = np.zeros(len(uc), np.int64)
        np.add.at(cnt, inv, 1)
        gd = genc.dictionary.cast(pa.string())
        return pa.table({
            "g": gd.take(pa.array(uc // n_tok, pa.int64())),
            "tok": tvals.take(pa.array(uc % n_tok, pa.int64())),
            "cnt": pa.array(cnt)})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True, batch_size=None)

    pair_empty = pa.table({"ga": pa.array([], pa.string()),
                           "gb": pa.array([], pa.string()),
                           "smin": pa.array([], pa.int64()),
                           "tot_g": pa.array([], pa.string()),
                           "tot": pa.array([], pa.int64())})

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "tok" not in t.column_names:
            return pair_empty
        from ..functions.segments import triangular_pairs

        toks = t["tok"].combine_chunks()
        tc = pc.dictionary_encode(toks).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        ge = pc.dictionary_encode(t["g"].combine_chunks())
        gc = ge.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)
        cnt = t["cnt"].to_numpy(zero_copy_only=False)
        # merge cross-block (tok, g) duplicates (sorted by tok, g)
        new_run = np.concatenate([[True], (tc[1:] != tc[:-1])
                                  | (gc[1:] != gc[:-1])])
        starts = np.flatnonzero(new_run)
        rid = np.cumsum(new_run.astype(np.int64)) - 1
        mc = np.zeros(len(starts), np.int64)
        np.add.at(mc, rid, cnt)
        mt, mg = tc[starts], gc[starts]
        n_groups = len(ge.dictionary)
        totals = np.zeros(n_groups, np.int64)
        np.add.at(totals, mg, mc)
        # per-token pair expansion (groups sorted within run)
        tok_new = np.concatenate([[True], mt[1:] != mt[:-1]])
        tstarts = np.flatnonzero(tok_new)
        tlens = np.diff(np.append(tstarts, len(mt)))
        ts2, tl2 = tstarts[tlens >= 2], tlens[tlens >= 2]
        if len(ts2):
            i, j, _g = triangular_pairs(ts2, tl2)
            pa_g, pb_g = mg[i], mg[j]
            pmin = np.minimum(mc[i], mc[j])
            pair_cell = pa_g * n_groups + pb_g
            up, inv = np.unique(pair_cell, return_inverse=True)
            psum = np.zeros(len(up), np.int64)
            np.add.at(psum, inv, pmin)
            gas = ge.dictionary.take(
                pa.array(up // n_groups, pa.int64())).cast(
                pa.string())
            gbs = ge.dictionary.take(
                pa.array(up % n_groups, pa.int64())).cast(
                pa.string())
        else:
            gas = pa.array([], pa.string())
            gbs = pa.array([], pa.string())
            psum = np.empty(0, np.int64)
        n_p = len(psum)
        gt = ge.dictionary.cast(pa.string())
        n_t = n_groups
        return pa.table({
            "ga": pa.concat_arrays(
                [gas, pa.nulls(n_t, pa.string())]),
            "gb": pa.concat_arrays(
                [gbs, pa.nulls(n_t, pa.string())]),
            "smin": pa.array(np.concatenate(
                [psum, np.zeros(n_t, np.int64)])),
            "tot_g": pa.concat_arrays(
                [pa.nulls(n_p, pa.string()), gt]),
            "tot": pa.array(np.concatenate(
                [np.zeros(n_p, np.int64), totals]))})

    parts = partitioned_refs(prepped, kernel, key="tok",
                             sort_keys=["tok", "g"],
                             num_partitions=num_partitions)
    pair_min: dict = {}
    group_tot: dict = {}
    for b in ray.get(parts):
        if b.num_rows == 0 or "ga" not in b.column_names:
            continue
        for ga, gb, sm, tg, tv in zip(b["ga"].to_pylist(),
                                      b["gb"].to_pylist(),
                                      b["smin"].to_pylist(),
                                      b["tot_g"].to_pylist(),
                                      b["tot"].to_pylist()):
            if tg is not None:
                group_tot[tg] = group_tot.get(tg, 0) + tv
            else:
                # dictionary CODE order inside a kernel is arbitrary,
                # so a pair may arrive as (A,B) or (B,A) — normalize
                key = (ga, gb) if ga < gb else (gb, ga)
                pair_min[key] = pair_min.get(key, 0) + sm
    out = {k: [] for k in ("ga", "gb", "smin", "smax", "wjac")}
    groups = sorted(group_tot)
    for i, ga in enumerate(groups):
        for gb in groups[i + 1:]:
            sm = pair_min.get((ga, gb), 0)
            sx = group_tot[ga] + group_tot[gb] - sm
            out["ga"].append(ga)
            out["gb"].append(gb)
            out["smin"].append(sm)
            out["smax"].append(sx)
            out["wjac"].append(float(sm) / float(sx) if sx else None)
    return pa.table({
        "g_a": pa.array(out["ga"], pa.string()),
        "g_b": pa.array(out["gb"], pa.string()),
        "sum_min": pa.array(out["smin"], pa.int64()),
        "sum_max": pa.array(out["smax"], pa.int64()),
        "wjac": pa.array(out["wjac"], pa.float64())})


def topk_two_pass(ds, *, text_col: str = "text", k: int = 10,
                  summary_width: int = 4096,
                  max_candidates: int = 200_000):
    """Exact global heavy hitters WITHOUT a shuffle — the two-pass
    candidates-then-verify alternative to :func:`top_terms` for
    clusters where even a tiny-row exchange is unwelcome (or the
    vocabulary is too hot to hash-partition evenly).

    Pass 1: each block reduces its tokens to EXACT local counts
    truncated to the ``summary_width`` largest (count desc, term asc),
    plus the block's largest DROPPED count ``u_b`` (its local error
    bound — a Misra-Gries/Space-Saving-style summary, but with exact
    kept counts).  The driver combines: for every surviving term,
    ``LB = Σ kept counts`` and ``UB = LB + Σ u_b over the blocks that
    did NOT keep it``; any term seen nowhere has ``UB = Σ u_b``.

    Soundness gate: the k-th largest LB must exceed ``Σ u_b``
    (otherwise an entirely-unseen term could still be top-k — the
    operator RAISES and you widen the summary; with Zipfian corpora
    the gate passes at modest widths).  The candidate set
    ``{t : UB_t ≥ k-th LB}`` then provably contains the true top-k.

    Pass 2: exact counts of the (broadcast) candidate set only —
    ``is_in`` filter per block, driver sum — and the final pick by
    the same deterministic ``(count desc, term asc)`` order as
    :func:`top_terms`, so the result is IDENTICAL (and SQL-oracled
    identically); only the communication shape differs: two streaming
    map passes + driver-held summaries, zero exchange.

    Counts are total occurrences (``top_terms(by="term_count")``
    semantics).  Returns ``(term:string, cnt:int64)``.
    """
    empty = pa.table({"term": pa.array([], pa.string()),
                      "cnt": pa.array([], pa.int64())})

    def summary(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or text_col not in b.column_names:
            return empty
        flat, _ = split_tokens(b[text_col].combine_chunks())
        if len(flat) == 0:
            return empty
        dct = pc.dictionary_encode(flat)
        counts = np.bincount(
            dct.indices.to_numpy(zero_copy_only=False),
            minlength=len(dct.dictionary)).astype(np.int64)
        t = pa.table({"term": dct.dictionary,
                      "cnt": pa.array(counts)})
        order = pc.sort_indices(t, sort_keys=[("cnt", "descending"),
                                              ("term", "ascending")])
        kept = t.take(order[:summary_width])
        u_b = (int(t["cnt"].take(order[summary_width:][:1])[0].as_py())
               if len(order) > summary_width else 0)
        # sentinel term=NULL carries this block's error bound u_b
        return pa.table({
            "term": pa.concat_arrays(
                [kept["term"].combine_chunks(),
                 pa.nulls(1, pa.string())]),
            "cnt": pa.concat_arrays(
                [kept["cnt"].combine_chunks(),
                 pa.array([u_b], pa.int64())])})

    lb: dict = {}
    su: dict = {}           # Σ u_b over blocks where the term was kept
    u_total = 0
    for blk in ray.get(materialized_block_refs(
            ds.map_batches(summary, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None))):
        if "term" not in blk.column_names or blk.num_rows == 0:
            continue
        terms = blk["term"].to_pylist()
        cnts = blk["cnt"].to_pylist()
        u_b = cnts[-1] if terms[-1] is None else 0
        u_total += u_b
        for t, c in zip(terms, cnts):
            if t is None:
                continue
            lb[t] = lb.get(t, 0) + c
            su[t] = su.get(t, 0) + u_b
    if len(lb) < k:
        raise ValueError(f"topk_two_pass: only {len(lb)} distinct "
                         f"terms for k={k}")
    kth_lb = sorted(lb.values(), reverse=True)[k - 1]
    if kth_lb <= u_total:
        raise ValueError(
            f"topk_two_pass: k-th lower bound {kth_lb} <= total "
            f"error bound {u_total}; raise summary_width")
    cand = [t for t, v in lb.items()
            if v + (u_total - su[t]) >= kth_lb]
    if len(cand) > max_candidates:
        raise ValueError(f"topk_two_pass: {len(cand)} candidates "
                         "exceed max_candidates; raise summary_width")
    cand_ref = ray.put(pa.array(sorted(cand), pa.string()))

    def exact(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or text_col not in b.column_names:
            return empty
        flat, _ = split_tokens(b[text_col].combine_chunks())
        if len(flat) == 0:
            return empty
        flat = flat.filter(pc.is_in(flat, value_set=ray.get(cand_ref)))
        if len(flat) == 0:
            return empty
        dct = pc.dictionary_encode(flat)
        counts = np.bincount(
            dct.indices.to_numpy(zero_copy_only=False),
            minlength=len(dct.dictionary)).astype(np.int64)
        return pa.table({"term": dct.dictionary,
                         "cnt": pa.array(counts)})

    tot = sum_partials(ray.get(materialized_block_refs(
        ds.map_batches(exact, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None))),
        keys=["term"], vals=["cnt"])
    if tot is None:
        return empty
    return tot.sort_by([("cnt", "descending"), ("term", "ascending")]
                       ).slice(0, k).cast(empty.schema)
