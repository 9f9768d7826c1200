"""Benchmark decontamination — token n-gram overlap against a broadcast
eval set (the GPT-3 / Pile recipe: a training document is contaminated
when it shares any length-``n`` token n-gram with a held-out benchmark).

Distributed shape (map-only, NO shuffle):

* The benchmark side is tiny by construction (an eval set, ≤ ~10⁷
  n-grams).  One streaming ``map_batches`` pass emits per-block UNIQUE
  gram strings; a single Ray task unions them and builds the broadcast
  object — a sorted uint64 hash array (8 B/gram, the prefilter) plus a
  hash→gram dict (the exact verifier).  The driver only ever holds an
  ``ObjectRef``.
* The corpus side streams: per batch, grams are built vectorized
  (Arrow whitespace split → one ``binary_join_element_wise`` over
  shifted flat-token views), hashed with the same vectorized polynomial
  as the partitioner, and probed with one ``searchsorted``.  Only
  candidate hits (true matches + ~0 hash collisions) drop to exact
  string comparison, so the decision is EXACT string semantics — the
  DuckDB oracle replays it with plain ``IN`` over regexp-extracted
  n-grams — while the common no-hit path touches nothing but the hash
  array.

At 100 TB the corpus pass is embarrassingly parallel (no exchange);
the broadcast object is ``ray.put`` once and shared per node by the
object store.

Reference analog: none (beyond-reference training-data operator;
see Brown et al. 2020 App. C / Gao et al. 2021 §6 for the method).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .dedup import split_tokens
from .partition import _hash_string_values, materialized_block_refs

# Per-worker cache of the resolved broadcast object: ray.get zero-copies
# the numpy hash array but RE-UNPICKLES the by_hash dict on every call —
# for a ~10^7-gram set that unpickle would dominate every batch (the
# dedup._MH_CACHE pattern).  Keyed by ObjectRef; one benchmark set per
# pipeline, so a tiny bound suffices.
_BENCH_CACHE: dict = {}


def _resolve_bench(bench_ref):
    got = _BENCH_CACHE.get(bench_ref)
    if got is None:
        if len(_BENCH_CACHE) >= 4:
            _BENCH_CACHE.clear()
        got = ray.get(bench_ref)
        _BENCH_CACHE[bench_ref] = got
    return got


def batch_ngrams(texts, n: int, *, pre=None) -> Tuple[pa.Array, np.ndarray]:
    """Vectorized word-n-gram STRINGS for a batch: returns
    ``(grams, gram_doc)`` where ``grams`` is a flat StringArray of
    space-joined n-grams and ``gram_doc[i]`` the row index each gram
    came from.  Rows with fewer than ``n`` tokens yield no grams
    (mirrors the SQL replay's ``len(toks) >= n`` windowing).
    ``pre``: an already-computed ``split_tokens(texts)`` pair, so a
    caller building several gram widths tokenizes once."""
    flat, off = pre if pre is not None else split_tokens(texts)
    m = len(flat)
    nrows = len(off) - 1
    if m < n:
        return pa.array([], pa.string()), np.empty(0, np.int64)
    counts = np.diff(off)
    row_ids = np.repeat(np.arange(nrows, dtype=np.int64), counts)
    w = m - n + 1
    # window starting at flat position p stays inside its doc iff
    # p + n <= doc_end(p)
    ends = off[row_ids[:w] + 1]
    valid = (np.arange(w, dtype=np.int64) + n) <= ends
    views = [flat.slice(j, w) for j in range(n)]
    grams_all = pc.binary_join_element_wise(*views, " ")
    grams = grams_all.filter(pa.array(valid))
    return grams, row_ids[:w][valid]


def _unique_grams_fn(batch: pa.Table, *, text_col: str, n: int) -> pa.Table:
    grams, _ = batch_ngrams(batch[text_col], n)
    return pa.table({"gram": pc.unique(grams)})


def bench_ngram_set(bench_ds, *, text_col: str = "text", n: int = 5):
    """Reduce a (small) benchmark Dataset to one broadcast object:
    ``ObjectRef[(sorted_hashes: uint64[:], by_hash: dict[int, str |
    tuple[str, ...]])]``.  The union runs IN a Ray task — gram strings
    never stream through the driver."""
    per_block = bench_ds.map_batches(
        _unique_grams_fn, batch_format="pyarrow", zero_copy_batch=True,
        fn_kwargs={"text_col": text_col, "n": n})
    refs = materialized_block_refs(per_block)

    @ray.remote
    def union(*blocks):
        seen: set = set()
        for b in blocks:
            if b.num_rows:
                seen.update(b["gram"].to_pylist())
        grams = pa.array(sorted(seen), pa.string())
        h = _hash_string_values(grams) if len(grams) else np.empty(
            0, np.uint64)
        by_hash: dict = {}
        for hv, g in zip(h.tolist(), grams.to_pylist()):
            prev = by_hash.get(hv)
            if prev is None:
                by_hash[hv] = g
            elif isinstance(prev, tuple):
                by_hash[hv] = prev + (g,)
            else:
                by_hash[hv] = (prev, g)
        order = np.argsort(h)
        return h[order], by_hash

    return union.remote(*refs)


def count_overlap_hits(texts, hashes: np.ndarray, by_hash: dict, n: int,
                       nrows: int, *, pre=None) -> np.ndarray:
    """Per-row count of DISTINCT n-grams present in the broadcast set:
    vectorized hash prefilter (one searchsorted), exact string verify on
    candidates only (true hits + ~0 collisions, never the full batch)."""
    hits = np.zeros(nrows, np.int64)
    grams, gram_doc = batch_ngrams(texts, n, pre=pre)
    if len(grams) and len(hashes):
        h = _hash_string_values(grams)
        idx = np.searchsorted(hashes, h)
        idx_c = np.minimum(idx, len(hashes) - 1)
        cand_pos = np.flatnonzero(hashes[idx_c] == h)
        if len(cand_pos):
            cand_grams = grams.take(
                pa.array(cand_pos, pa.int64())).to_pylist()
            matched: set = set()
            for p, g in zip(cand_pos.tolist(), cand_grams):
                entry = by_hash.get(int(h[p]))
                ok = (g in entry) if isinstance(entry, tuple) \
                    else (g == entry)
                if ok:
                    matched.add((int(gram_doc[p]), g))
            for d, _ in matched:
                hits[d] += 1
    return hits


def ngram_decontaminate(ds, bench, *, id_col: str = "doc_id",
                        text_col: str = "text", n: int = 5,
                        batch_size=None):
    """Tag every document with ``n_hits`` = the number of DISTINCT
    length-``n`` token n-grams it shares with the benchmark set
    (0 = clean).  ``bench`` is a Dataset (reduced here) or an
    ``ObjectRef`` already produced by :func:`bench_ngram_set`.

    Output: ``(id_col, n_hits int64)`` — one row per input row."""
    if isinstance(bench, ray.ObjectRef):
        bench_ref = bench
    else:
        bench_ref = bench_ngram_set(bench, text_col=text_col, n=n)

    def tag(batch: pa.Table) -> pa.Table:
        hashes, by_hash = _resolve_bench(bench_ref)
        hits = count_overlap_hits(batch[text_col], hashes, by_hash, n,
                                  batch.num_rows)
        return pa.table({
            id_col: batch[id_col].cast(pa.int64()),
            "n_hits": pa.array(hits),
        })

    return ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=batch_size)
