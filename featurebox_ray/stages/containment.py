"""Set-containment similarity join — for every query document, find
corpus documents containing at least a ``threshold`` fraction of the
query's distinct tokens (``|A∩B| / |A|``).  Containment is the
ASYMMETRIC cousin of Jaccard (``stages/dedup.py:ngram_jaccard_join``):
it catches a short query embedded verbatim inside a long document —
the clone-detection / benchmark-contamination semantics where the
contaminating document may be arbitrarily large.

Physical plan — the classic inverted-index join, LARGE×LARGE with no
broadcast:

1. both sides tokenize to DISTINCT ``(doc, token)`` pairs per block;
2. ONE token-keyed exchange co-locates each token's postings.  Inside
   a token run the kernel counts the corpus df; tokens with
   ``df > max_df`` are DROPPED ENTIRELY (stopword cap — bounds the
   pair fan-out to ``max_df × Σ query postings`` and is part of the
   operator's documented semantics, mirrored by the oracle's HAVING);
   kept tokens emit ``(qid, cid, 1)`` cross pairs plus one
   ``(qid, NULL, 1)`` query-length row per query posting — pre-summed
   inside the kernel;
3. ONE qid-keyed exchange finishes ``inter`` per (qid, cid) and
   ``qlen`` per qid and filters by EXACT integer cross-multiplication
   ``inter · den ≥ num · qlen`` (threshold as a rational), so the
   decision — and the reported ``containment = inter/qlen`` single
   IEEE division — replays bit-exactly in SQL.

Queries whose kept-token set is empty match nothing (``qlen = 0``).
NULL ids drop; NULL text is empty.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions import segments as seg
from .partition import partitioned_map, partitioned_refs

__all__ = ["containment_join"]


def _distinct_postings(ds, id_col, text_col, out: str):
    """(token:string, ``out``:int64) distinct per-doc postings."""
    from .dedup import split_tokens

    def fn(b: pa.Table) -> pa.Table:
        empty = pa.table({"token": pa.array([], pa.string()),
                          out: pa.array([], pa.int64())})
        keep = pc.is_valid(b[id_col])
        if not pc.all(pc.fill_null(keep, False)).as_py():
            b = b.filter(keep)
        if b.num_rows == 0:
            return empty
        texts = pc.fill_null(b[text_col].combine_chunks(), "")
        flat, off = split_tokens(texts)
        if len(flat) == 0:
            return empty
        ids = b[id_col].combine_chunks().cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        if len(ids) and ids.min() < 0:
            raise ValueError("containment_join: ids must be "
                             "non-negative (-1 is the qlen sentinel)")
        row_ids = np.repeat(np.arange(b.num_rows), np.diff(off))
        enc = pc.dictionary_encode(flat)
        codes = enc.indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        dct = enc.dictionary
        pair = np.unique(row_ids * np.int64(len(dct)) + codes)
        toks = dct.take(pa.array(pair % len(dct), pa.int64()))
        doc = pa.array(ids[(pair // len(dct)).astype(np.int64)],
                       pa.int64())
        return pa.table({"token": toks.cast(pa.string()), out: doc})

    return ds.map_batches(fn, batch_format="pyarrow",
                          zero_copy_batch=True)


def containment_join(query_ds, corpus_ds, *, id_col: str = "doc_id",
                     text_col: str = "text", threshold: float = 0.5,
                     max_df: int = 64, num_partitions: int = 16,
                     max_expansion: int = 50_000_000):
    """Returns ``(qid:int64, cid:int64, inter:int64, qlen:int64,
    containment:float64)`` for pairs with ``inter/qlen ≥ threshold``
    over tokens whose corpus df ≤ ``max_df``."""
    frac = Fraction(threshold).limit_denominator(1_000_000)
    num, den = frac.numerator, frac.denominator

    postings = [_distinct_postings(query_ds, id_col, text_col, "qid"),
                _distinct_postings(corpus_ds, id_col, text_col, "cid")]

    mid_empty = pa.table({"qid": pa.array([], pa.int64()),
                          "cid": pa.array([], pa.int64()),
                          "cnt": pa.array([], pa.int64())})

    def token_kernel(qt: pa.Table, ct: pa.Table) -> pa.Table:
        if qt.num_rows == 0:
            return mid_empty
        q, c = seg.ints(qt, "qid"), seg.ints(ct, "cid")
        # token runs of each side, on one shared token numbering
        rq, rc = seg.shared_key_codes(
            qt["token"], ct["token"] if ct.num_rows
            else pa.array([], pa.string()))
        nq = np.bincount(rq, minlength=len(rq) + len(rc) + 1)
        nc = np.bincount(rc, minlength=len(nq))
        keep_tok = nc <= max_df
        n_pairs = int((nq * nc * keep_tok).sum())
        if n_pairs > max_expansion:
            raise ValueError("containment_join: pair expansion "
                             f"{n_pairs} exceeds max_expansion — "
                             "lower max_df")
        kq = keep_tok[rq]
        out_q, rq = q[kq], rq[kq]
        # qlen rows: one per kept query posting
        parts = [(out_q, np.full(len(out_q), -1, np.int64))]
        if n_pairs:
            # cross q×c inside each kept token run: for each kept query
            # posting, the span of corpus postings of its token (corpus
            # postings are sorted by token)
            lo = np.searchsorted(rc, rq, "left")
            hi = np.searchsorted(rc, rq, "right")
            spans = hi - lo
            gid = np.repeat(np.arange(len(rq)), spans)
            idx = (np.arange(spans.sum())
                   - np.repeat(np.cumsum(spans) - spans, spans)
                   + lo[gid])
            parts.append((out_q[gid], c[idx]))
        pq = np.concatenate([p[0] for p in parts])
        pcid = np.concatenate([p[1] for p in parts])
        if len(pq) == 0:  # no kept query postings in this partition
            return mid_empty
        # pre-sum duplicate (qid, cid) pairs inside the kernel
        order = np.lexsort((pcid, pq))
        pq, pcid = pq[order], pcid[order]
        first = np.concatenate([[True], (pq[1:] != pq[:-1])
                                | (pcid[1:] != pcid[:-1])])
        st = np.flatnonzero(first)
        cnt = np.diff(np.concatenate([st, [len(pq)]]))
        return pa.table({
            "qid": pa.array(pq[st], pa.int64()),
            "cid": pa.array(pcid[st], pa.int64(),
                            mask=pcid[st] == -1),
            "cnt": pa.array(cnt.astype(np.int64))})

    mid = partitioned_refs(postings, token_kernel, key="token",
                           sort_keys=[["token", "qid"], ["token", "cid"]],
                           num_partitions=num_partitions)

    out_empty = pa.table({"qid": pa.array([], pa.int64()),
                          "cid": pa.array([], pa.int64()),
                          "inter": pa.array([], pa.int64()),
                          "qlen": pa.array([], pa.int64()),
                          "containment": pa.array([], pa.float64())})

    def qid_kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "qid" not in t.column_names:
            return out_empty
        q = t["qid"].to_numpy(zero_copy_only=False)
        c = pc.fill_null(t["cid"], -1).to_numpy(
            zero_copy_only=False).astype(np.int64)
        cnt = t["cnt"].to_numpy(zero_copy_only=False)
        # combine partials: sorted by (qid, cid nulls-as--1 first)
        order = np.lexsort((c, q))
        q, c, cnt = q[order], c[order], cnt[order]
        first = np.concatenate([[True], (q[1:] != q[:-1])
                                | (c[1:] != c[:-1])])
        st = np.flatnonzero(first)
        tot = np.add.reduceat(cnt, st)
        qv, cv = q[st].astype(np.int64), c[st]
        is_len = cv == -1
        # qlen per qid: the -1 rows (present for every qid with any
        # kept posting)
        uq = qv[is_len]
        qlen = tot[is_len]
        pos = np.searchsorted(uq, qv)
        ok = ~is_len
        ql = qlen[pos[ok]]
        inter = tot[ok]
        keep = inter * den >= num * ql
        return pa.table({
            "qid": pa.array(qv[ok][keep]),
            "cid": pa.array(cv[ok][keep]),
            "inter": pa.array(inter[keep].astype(np.int64)),
            "qlen": pa.array(ql[keep].astype(np.int64)),
            "containment": pa.array(
                inter[keep].astype(np.float64)
                / ql[keep].astype(np.float64), pa.float64())})

    return partitioned_map([mid], qid_kernel, key="qid",
                           sort_keys=["qid", "cid"],
                           num_partitions=num_partitions)
