"""Distributed BPE merge-rule training (Sennrich et al. 2016): learn the
top-``num_merges`` byte-pair merges from corpus word frequencies.

Two-phase shape — the shape every tokenizer-training pipeline uses:

1. **Word-count reduction** (the distributed part, corpus-sized): one
   streaming pass emits per-block ``(word, count)`` partials, one
   term-keyed exchange sums them.  This is the only pass that touches
   the corpus.
2. **Merge loop** (vocabulary-sized, runs in ONE Ray task): the classic
   iteration — count symbol pairs weighted by word frequency, take the
   best pair, fuse it everywhere, repeat.  Its cost is
   O(vocab × merges), INDEPENDENT of corpus bytes; at 100 TB the vocab
   table is still ~10⁶ rows, so a single task is the right physical
   plan (min-count pruning bounds it further if the corpus is
   open-vocabulary).

Determinism: counts are exact integers; the best pair is chosen by
``(count desc, (left, right) lexicographic asc)`` — a total order, so
any execution and the serial replay pick identical merges.  Word
symbols are the word's characters plus a trailing ``</w>`` marker
symbol (the Sennrich formulation that distinguishes word-final units).

Reference analog: none (beyond-reference LLM-data operator; the
BPE-ish regex TOKEN COUNTER lives in stages/text.py — this learns the
merge table itself).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .dedup import split_tokens
from .partition import materialized_block_refs, partitioned_map

END = "</w>"


def word_counts(ds, *, text_col: str = "text", num_partitions: int = 8):
    """Corpus → ``(word, cnt int64)`` — per-block partials, one
    term-keyed exchange (the top_terms shape without the top-k cut)."""
    def partial(batch: pa.Table) -> pa.Table:
        flat, _ = split_tokens(batch[text_col].combine_chunks())
        if len(flat) == 0:
            return pa.table({"word": pa.array([], pa.string()),
                             "cnt": pa.array([], pa.int64())})
        dct = pc.dictionary_encode(flat)
        counts = np.bincount(dct.indices.to_numpy(zero_copy_only=False),
                             minlength=len(dct.dictionary))
        return pa.table({"word": dct.dictionary,
                         "cnt": pa.array(counts.astype(np.int64))})

    def sum_counts(t: pa.Table) -> pa.Table:
        dct = pc.dictionary_encode(t["word"].combine_chunks())
        sums = np.zeros(len(dct.dictionary), np.int64)
        np.add.at(sums, dct.indices.to_numpy(zero_copy_only=False),
                  t["cnt"].to_numpy(zero_copy_only=False))
        return pa.table({"word": dct.dictionary,
                         "cnt": pa.array(sums)})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)
    return partitioned_map(partials, sum_counts, key="word",
                           sort_keys=["word"],
                           num_partitions=num_partitions)


def merge_loop(words, counts, num_merges: int):
    """The Sennrich iteration over a (word, count) vocabulary.  Returns
    ``[(rank, left, right, pair_count), ...]`` (may stop early when no
    pair remains).  Total-order tie-break: (count desc, pair asc)."""
    vocab = [tuple(w) + (END,) for w in words]
    counts = [int(c) for c in counts]
    merges = []
    for rank in range(num_merges):
        pair_counts: dict = {}
        for sym, c in zip(vocab, counts):
            for i in range(len(sym) - 1):
                p = (sym[i], sym[i + 1])
                pair_counts[p] = pair_counts.get(p, 0) + c
        if not pair_counts:
            break
        best = min(pair_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        (lft, rgt), cnt = best
        merges.append((rank, lft, rgt, cnt))
        fused = lft + rgt
        new_vocab = []
        for sym in vocab:
            out = []
            i = 0
            while i < len(sym):
                if (i + 1 < len(sym) and sym[i] == lft
                        and sym[i + 1] == rgt):
                    out.append(fused)
                    i += 2
                else:
                    out.append(sym[i])
                    i += 1
            new_vocab.append(tuple(out))
        vocab = new_vocab
    return merges


def bpe_train(ds, *, text_col: str = "text", num_merges: int = 20,
              num_partitions: int = 8) -> pa.Table:
    """Learn the merge table; returns a driver-tiny ``pa.Table``
    ``(merge_rank, left, right, pair_count)`` (num_merges rows).  The
    corpus pass is distributed; the merge loop runs in one Ray task over
    the reduced vocabulary (see module docstring for why that is the
    right plan at any corpus size)."""
    wc = word_counts(ds, text_col=text_col, num_partitions=num_partitions)
    refs = materialized_block_refs(wc)

    @ray.remote
    def train(*blocks):
        tbls = [b for b in blocks if b.num_rows]
        if not tbls:
            return pa.table({"merge_rank": pa.array([], pa.int64()),
                             "left": pa.array([], pa.string()),
                             "right": pa.array([], pa.string()),
                             "pair_count": pa.array([], pa.int64())})
        t = pa.concat_tables(tbls, promote_options="default")
        merges = merge_loop(t["word"].to_pylist(),
                            t["cnt"].to_numpy(zero_copy_only=False),
                            num_merges)
        return pa.table({
            "merge_rank": pa.array([m[0] for m in merges], pa.int64()),
            "left": pa.array([m[1] for m in merges], pa.string()),
            "right": pa.array([m[2] for m in merges], pa.string()),
            "pair_count": pa.array([m[3] for m in merges], pa.int64()),
        })

    return ray.get(train.remote(*refs))
