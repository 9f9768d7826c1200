"""C4/Gopher-style corpus cleaning — the canonical LLM-data filter
chain composed from this engine's stages, in the order a 100 TB run
wants them:

1. **exact dedup** first (text-keyed exchange; removes whole-row
   copies before any per-doc compute is spent on them),
2. **one streaming pass** computing repetition signals
   (:mod:`..stages.repetition`) and benchmark-overlap hits
   (:mod:`..stages.decontam`) together — the batch is tokenized ONCE
   (the ``split_tokens`` pair threads through every gram kernel) and
   never leaves the worker,
3. **predicate filter** with dyadic thresholds (exactly representable
   doubles, so the SQL replay's comparisons are bit-identical).

Output: ``(doc_id, n_tokens)`` of the surviving documents.  Every
stage streams; the only exchange is exact-dedup's text-keyed one; the
decontamination set is one broadcast.

Reference analog: none (beyond-reference; composition of q17+q72+q73).
"""

from __future__ import annotations

import functools

import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..stages.decontam import (_resolve_bench, bench_ngram_set,
                               count_overlap_hits)
from ..stages.dedup import exact_dedup, split_tokens
from ..stages.repetition import repetition_features_fn


def clean_corpus(docs, bench, *, id_col: str = "doc_id",
                 text_col: str = "text", ngram_n: int = 5,
                 min_tokens: int = 20, max_dup_word: float = 0.5,
                 max_top_bigram: float = 0.125,
                 max_top_trigram: float = 0.0625,
                 num_partitions: int = 32, batch_size=None):
    """``docs`` → surviving ``(id_col, n_tokens)``.  ``bench`` is a
    Dataset of benchmark docs (reduced here) or a ready
    ``bench_ngram_set`` ObjectRef.  Thresholds default to dyadic values
    (see module docstring)."""
    if isinstance(bench, ray.ObjectRef):
        bench_ref = bench
    else:
        bench_ref = bench_ngram_set(bench, text_col=text_col, n=ngram_n)

    surv = exact_dedup(docs, text_col=text_col, id_col=id_col,
                       num_partitions=num_partitions)

    def score_and_filter(batch: pa.Table) -> pa.Table:
        texts = batch[text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        pre = split_tokens(texts)  # tokenize ONCE for all four kernels
        rep = repetition_features_fn(batch, id_col=id_col,
                                     text_col=text_col, pre=pre)
        hashes, by_hash = _resolve_bench(bench_ref)
        hits = count_overlap_hits(texts, hashes, by_hash,
                                  ngram_n, batch.num_rows, pre=pre)
        n_tok = rep["n_tokens"].to_numpy(zero_copy_only=False)
        keep = ((n_tok >= min_tokens)
                & (rep["dup_word_frac"].to_numpy(zero_copy_only=False)
                   <= max_dup_word)
                & (rep["top_bigram_frac"].to_numpy(zero_copy_only=False)
                   <= max_top_bigram)
                & (rep["top_trigram_frac"].to_numpy(zero_copy_only=False)
                   <= max_top_trigram)
                & (hits == 0))
        return rep.select([id_col, "n_tokens"]).filter(pa.array(keep))

    return surv.map_batches(score_and_filter, batch_format="pyarrow",
                            zero_copy_batch=True, batch_size=batch_size)


def curate_corpus(docs, *, id_col: str = "doc_id",
                  text_col: str = "text", group_col: str = "source",
                  min_words: int = 5, min_stop_hits: int = 0,
                  alpha: float = 0.5, token_budget: int = 10000):
    """End-to-end corpus curation chain — the standard pre-training
    data recipe composed from the engine's exact primitives, each
    stage streaming into the next:

    1. **quality filter** — Gopher/C4 rules
       (:func:`~featurebox_ray.stages.text.gopher_quality_fn`,
       integer-exact thresholds), keep-only;
    2. **temperature rebalance** — share ∝ p^α downsample by
       ``group_col`` over the SURVIVORS
       (:func:`~featurebox_ray.stages.sample.temperature_rebalance`,
       α as an IEEE sqrt chain);
    3. **budget selection** — best docs by ``(n_words desc, id asc)``
       under a global token budget
       (:func:`~featurebox_ray.stages.rank.budget_select`, exact
       running totals).

    Every decision is integer/IEEE-exact, so the WHOLE chain replays
    as one SQL query of chained CTEs (q168).  Returns the selected
    rows ``(id_col, group_col, gq_n_words, cum_cost)``.
    """
    from ..stages.rank import budget_select
    from ..stages.sample import temperature_rebalance
    from ..stages.text import gopher_quality_fn

    fn = functools.partial(gopher_quality_fn, text_col=text_col,
                           min_words=min_words,
                           min_stop_hits=min_stop_hits)
    scored = docs.map_batches(fn, batch_format="pyarrow",
                              zero_copy_batch=True)
    kept = scored.map_batches(
        lambda b: b.filter(b["gq_keep"].combine_chunks())
        .select([id_col, group_col, "gq_n_words"]),
        batch_format="pyarrow", zero_copy_batch=True)
    mixed = temperature_rebalance(kept, group_col=group_col,
                                  key_col=id_col, alpha=alpha)
    keyed = mixed.map_batches(
        lambda b: b.append_column(
            "__neg_id", pc.negate(b[id_col].combine_chunks())),
        batch_format="pyarrow", zero_copy_batch=True)
    out = budget_select(keyed, order_cols=["gq_n_words", "__neg_id"],
                        cost_col="gq_n_words", budget=token_budget,
                        descending=True)
    return out.drop_columns(["__neg_id"])


def prep_corpus(docs, *, id_col: str = "doc_id",
                text_col: str = "text", group_col: str = "source",
                limit: int = 300, num_partitions: int = 16):
    """End-to-end training-corpus prep: prefix-duplicate removal →
    Gopher quality rules → deterministic weighted interleave — the
    three-stage path a crawl shard takes from raw parquet to a
    reproducible training order.  Sibling of ``curate_corpus`` (which
    mixes by temperature + token budget); this one dedups structurally
    and schedules by source stride.

    Stages (each independently oracled as q207/q156/q208; the
    composition is checked end-to-end as ONE chained-CTE SQL replay —
    the q168 convention):

    1. ``prefix_dedup`` on (id, text) — drop truncation dups and
       exact-dup texts (max id survives);
    2. ``bloom_semi_join`` back to the full rows (exact semi join;
       kept-id side streams, no driver set);
    3. ``gopher_quality_fn(min_words=5, min_stop_hits=0)`` — keep
       only rows passing the integer-exact quality rules;
    4. ``weighted_interleave`` with ``w = len(source) % 3 + 1`` —
       first ``limit`` rows of the stride schedule.

    Output: ``(source, id, rn, pos, ord)`` with ``ord <= limit``.
    """
    from ..stages.bloom import bloom_semi_join
    from ..stages.sample import weighted_interleave
    from ..stages.substr import prefix_dedup
    from ..stages.text import gopher_quality_fn

    kept_ids = prefix_dedup(
        docs.map_batches(lambda b: b.select([id_col, text_col]),
                         batch_format="pyarrow",
                         zero_copy_batch=True),
        id_col=id_col, text_col=text_col)
    deduped = bloom_semi_join(docs, kept_ids, on=id_col,
                              num_partitions=num_partitions)
    fn = functools.partial(gopher_quality_fn, text_col=text_col,
                           min_words=5, min_stop_hits=0)
    scored = deduped.map_batches(fn, batch_format="pyarrow",
                                 zero_copy_batch=True)

    def keep_weight(b: pa.Table) -> pa.Table:
        b = b.filter(b["gq_keep"].combine_chunks())
        lens = pc.utf8_length(pc.fill_null(
            b[group_col], "")).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        return pa.table({
            group_col: b[group_col], id_col: b[id_col],
            "__w": pa.array(lens % 3 + 1, pa.int64())})

    kept = scored.map_batches(keep_weight, batch_format="pyarrow",
                              zero_copy_batch=True)
    return weighted_interleave(kept, source_col=group_col,
                               id_col=id_col, weight_col="__w",
                               limit=limit,
                               num_partitions=num_partitions)
