"""Distributed inverted-index build — term → sorted posting list, the
retrieval-side companion to the TF-IDF scorer (``stages/tfidf.py``).

Shape: one streaming pass emits distinct ``(term, doc_id)`` pairs per
batch (the ``_doc_term_tf`` tokenize + run-length kernel), then ONE
term-keyed exchange groups each term's postings; the kernel is
run-length math + a vectorized int→string cast + ``binary_join`` —
no per-term Python.  Postings are emitted as a CSV string so the
DuckDB replay (``array_to_string(list_sort(list(doc_id)), ',')``)
value-hashes byte-identically.

At 100 TB: the exchange moves (term, doc_id) pairs — tokens never
ship twice — and partitions by term hash, so each output partition is
an independent, separately-writable index shard.  ``min_df`` prunes
the hapax tail (usually >50% of vocabulary) inside the kernel, before
any list is built.

Reference analog: none (beyond-reference LLM-data operator).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .partition import partitioned_map
from .tfidf import _doc_term_tf


def inverted_index(ds, *, id_col: str = "doc_id", text_col: str = "text",
                   num_partitions: int = 8, min_df: int = 1):
    """Corpus → ``(term, df int64, postings str)``; postings is the
    comma-joined ascending doc-id list."""
    def pairs(batch: pa.Table) -> pa.Table:
        docs, terms, _ = _doc_term_tf(batch, id_col, text_col)
        if len(terms) == 0:
            return pa.table({"term": pa.array([], pa.string()),
                             id_col: pa.array([], pa.int64())})
        return pa.table({"term": terms,
                         id_col: docs.cast(pa.int64())
                         if isinstance(docs, (pa.Array, pa.ChunkedArray))
                         else pa.array(docs, pa.int64())})

    def build(t: pa.Table) -> pa.Table:
        # partition arrives sorted by (term, doc_id): contiguous runs
        empty = pa.table({"term": pa.array([], pa.string()),
                          "df": pa.array([], pa.int64()),
                          "postings": pa.array([], pa.large_string())})
        if t.num_rows == 0:
            return empty
        terms = t["term"].combine_chunks()
        codes = pc.dictionary_encode(terms).indices.to_numpy(
            zero_copy_only=False)
        new = np.ones(len(codes), bool)
        new[1:] = codes[1:] != codes[:-1]
        starts = np.flatnonzero(new)
        df = np.diff(np.concatenate([starts, [len(codes)]]))
        keep = df >= min_df
        if not keep.any():
            return empty
        starts_k, df_k = starts[keep], df[keep]
        ids_str = pc.cast(t[id_col].combine_chunks(), pa.string())
        # per-surviving-term gather over the flat string ids (vectorized
        # base+within arithmetic, no per-term Python)
        if keep.all():
            vals = ids_str
        else:
            total = int(df_k.sum())
            base = np.repeat(starts_k, df_k)
            within = (np.arange(total)
                      - np.repeat(np.concatenate([[0],
                                                  np.cumsum(df_k)[:-1]]),
                                  df_k))
            vals = ids_str.take(pa.array(base + within, pa.int64()))
        # 64-bit offsets: a partition of a 100 TB corpus can exceed 2^31
        # postings, where int32 offsets would wrap silently
        off = np.concatenate([[0], np.cumsum(df_k)]).astype(np.int64)
        flat_vals = (vals.combine_chunks()
                     if isinstance(vals, pa.ChunkedArray) else vals)
        lists = pa.LargeListArray.from_arrays(
            pa.array(off, pa.int64()), flat_vals.cast(pa.large_string()))
        # large_list input requires a large_string separator (q68 lesson);
        # output stays large_string (a single partition's postings bytes
        # can exceed the int32 string-offset limit too)
        postings = pc.binary_join(lists, pa.scalar(",", pa.large_string()))
        return pa.table({
            "term": terms.take(pa.array(starts_k, pa.int64())),
            "df": pa.array(df_k.astype(np.int64)),
            "postings": postings,
        })

    prs = ds.map_batches(pairs, batch_format="pyarrow",
                         zero_copy_batch=True, batch_size=None)
    return partitioned_map(prs, build, key="term",
                           sort_keys=["term", id_col],
                           num_partitions=num_partitions)
