"""Exact-substring duplicate-span detection (the ExactSubstr recipe of
Lee et al. 2022, "Deduplicating Training Data Makes Language Models
Better") re-expressed as two keyed exchanges — no suffix array, no
driver-side state:

1. every document emits one row per word ``k``-gram: ``(gram key,
   doc_id, pos)`` — the honest one-row-per-token cost of ExactSubstr,
   streamed block by block;
2. ONE gram-keyed exchange: a sorted run of the same gram key with
   ``>= min_count`` occurrences (across the whole corpus, same-doc
   repeats included) marks every one of its ``(doc_id, pos)`` rows
   duplicated; unique grams are dropped right there, so the second
   exchange moves only duplicated positions;
3. ONE doc-keyed exchange: each document's duplicated gram positions
   become token intervals ``[pos, pos + k)`` and overlapping/adjacent
   intervals merge into maximal spans (gaps-and-islands over the sorted
   positions — with fixed ``k`` the interval ends are monotone, so one
   vectorized compare per row suffices).

Gram keys come in two modes:

- ``hash_mode="md5"`` — the full 128-bit md5 digest of the space-joined
  gram, shipped as TWO int64 columns (identical equality classes to the
  hex string DuckDB groups by, but the exchange moves 16 bytes + int
  sorts, never strings); every gram of a block hashes in one
  vectorized pass (`dedup.row_gram_md5`, shared with the q26 text
  fingerprint).  DuckDB ``md5()`` replays the whole decision procedure
  bit-exactly → full SQL value oracle (q84).
- ``hash_mode="poly"`` — the vectorized uint64 polynomial shingle hash
  shared with MinHash (`dedup._batch_shingles`): zero Python per row,
  the 100-TB path.  Output is identical barring a ~2^-64-per-pair hash
  collision; not byte-replayable in SQL (tested against md5 mode
  instead).

Reference analog: none (the reference has no substring dedup); this is
an added-for-100-TB corpus-cleaning primitive alongside exact/MinHash/
SimHash dedup (stages/dedup.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..functions import segments as seg
from .partition import (materialized_block_refs, partitioned_map,
                        partitioned_refs, sum_partials)

__all__ = ["dup_spans", "dup_token_stats", "ngram_novelty",
           "prefix_dedup", "cross_source_grams"]


def _gram_emit_md5(batch: pa.Table, id_col: str, text_col: str,
                   k: int) -> pa.Table:
    from .dedup import row_gram_md5, split_tokens

    texts = pc.fill_null(batch[text_col].combine_chunks(), "")
    dig, n_grams = row_gram_md5(*split_tokens(texts), k)
    doc_idx = np.repeat(np.arange(len(n_grams)), n_grams)
    first = np.repeat(np.cumsum(n_grams) - n_grams, n_grams)
    pos = np.arange(len(dig), dtype=np.int64) - first  # 0-based
    # full 128-bit digest as TWO int64 columns: exactly md5's equality
    # classes (what the SQL oracle groups by) but the exchange ships 16
    # bytes + int sorts instead of 32-char hex strings
    gh = dig.view("<i8")
    ids = (batch[id_col].combine_chunks()
           .take(pa.array(doc_idx, pa.int64())))
    return pa.table({
        "gh": pa.array(gh[:, 0].copy()),
        "gh2": pa.array(gh[:, 1].copy()),
        id_col: ids,
        "pos": pa.array(pos + 1),  # 1-based, matches SQL generate_series
    })


def _gram_emit_poly(batch: pa.Table, id_col: str, text_col: str,
                    k: int) -> pa.Table:
    from .dedup import _batch_shingles

    texts = pc.fill_null(batch[text_col].combine_chunks(), "")
    sh, off = _batch_shingles(texts, k)
    n_grams = np.diff(off)  # shingle counts per row (0 for short docs)
    doc_idx = np.repeat(np.arange(len(n_grams)), n_grams)
    first = np.repeat(np.cumsum(n_grams) - n_grams, n_grams)
    pos = np.arange(int(n_grams.sum()), dtype=np.int64) - first
    ids = (batch[id_col].combine_chunks()
           .take(pa.array(doc_idx, pa.int64())))
    return pa.table({
        "gh": pa.array(sh.view(np.int64)),  # uint64 bits as int64 key
        "gh2": pa.array(np.zeros(len(sh), np.int64)),
        id_col: ids,
        "pos": pa.array(pos + 1),
    })


def _keep_dup_runs(t: pa.Table, id_col: str, min_count: int) -> pa.Table:
    """Sorted by (gh, gh2): keep rows whose full-digest run is
    >= min_count long (pure int compares, no strings).  Shared by
    dup_spans and dup_token_stats — the run-marking contract lives in
    exactly one place."""
    n = t.num_rows
    if n == 0:
        return t.select([id_col, "pos"])
    h1 = t["gh"].to_numpy(zero_copy_only=False)
    h2 = t["gh2"].to_numpy(zero_copy_only=False)
    new_run = np.empty(n, np.bool_)
    new_run[0] = True
    new_run[1:] = (h1[1:] != h1[:-1]) | (h2[1:] != h2[:-1])
    run_id = np.cumsum(new_run) - 1
    run_len = np.bincount(run_id)
    return t.filter(pa.array(run_len[run_id] >= min_count)).select(
        [id_col, "pos"])


def _marked_dup_positions(grams, *, id_col: str, min_count: int,
                          num_partitions: int):
    """ONE gram-keyed exchange: (doc, pos) of every gram whose corpus
    count >= min_count."""
    return partitioned_map(
        grams, lambda t: _keep_dup_runs(t, id_col, min_count),
        key="gh", sort_keys=["gh", "gh2"],
        num_partitions=num_partitions)


def _check_hash_mode(hash_mode: str):
    if hash_mode not in ("md5", "poly"):
        raise ValueError(f"hash_mode must be 'md5' or 'poly', got "
                         f"{hash_mode!r}")
    return _gram_emit_md5 if hash_mode == "md5" else _gram_emit_poly


def dup_spans(ds, *, id_col: str = "doc_id", text_col: str = "text",
              k: int = 8, min_count: int = 2, num_partitions: int = 16,
              hash_mode: str = "md5"):
    """Maximal duplicated-substring spans per document.

    Returns ``(id_col, span_start, span_end, span_len)`` — 1-based token
    indices, ``span_end`` exclusive — one row per maximal merged span of
    word ``k``-grams occurring ``>= min_count`` times corpus-wide.
    Overlapping AND adjacent spans merge (they describe one removable
    region).  Documents with no duplicated gram emit nothing.
    """
    emit = _check_hash_mode(hash_mode)

    grams = ds.map_batches(
        lambda b: emit(b, id_col, text_col, k),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None)

    dups = _marked_dup_positions(grams, id_col=id_col,
                                 min_count=min_count,
                                 num_partitions=num_partitions)

    def merge_spans(t: pa.Table) -> pa.Table:
        """Sorted by (doc, pos): intervals [pos, pos+k) have monotone
        ends within a doc, so island breaks are one shifted compare."""
        n = t.num_rows
        out_schema = pa.schema([
            pa.field(id_col, t.schema.field(id_col).type),
            pa.field("span_start", pa.int64()),
            pa.field("span_end", pa.int64()),
            pa.field("span_len", pa.int64())])
        if n == 0:
            return out_schema.empty_table()
        ids = t[id_col].combine_chunks()
        # group on dictionary codes — ids never round-trip through pandas
        codes = pc.dictionary_encode(ids).indices.to_numpy(
            zero_copy_only=False)
        s = t["pos"].to_numpy(zero_copy_only=False).astype(np.int64)
        e = s + k
        brk = np.empty(n, np.bool_)
        brk[0] = True
        brk[1:] = (codes[1:] != codes[:-1]) | (s[1:] > e[:-1])
        starts = np.flatnonzero(brk)
        ends = np.concatenate([starts[1:], [n]]) - 1  # last row of island
        span_start = s[starts]
        span_end = e[ends]
        return pa.table({
            id_col: ids.take(pa.array(starts, pa.int64())),
            "span_start": pa.array(span_start),
            "span_end": pa.array(span_end),
            "span_len": pa.array(span_end - span_start),
        })

    return partitioned_map(dups, merge_spans, key=id_col,
                           sort_keys=[id_col, "pos"],
                           num_partitions=num_partitions)


def dup_token_stats(ds, *, id_col: str = "doc_id", text_col: str = "text",
                    k: int = 8, min_count: int = 2,
                    num_partitions: int = 16, hash_mode: str = "md5"):
    """Per-document duplicated-token fraction — the ExactSubstr DECISION
    signal (what fraction of a doc is covered by corpus-duplicated
    ``k``-gram spans).

    Same two-exchange plan as :func:`dup_spans`, but the final doc-keyed
    exchange also takes one tiny ``(doc, n_tokens)`` row per document as
    a second input (no separate join, no schema probe on a lazy mapped
    dataset), so the kernel emits every tokenized document exactly once:
    ``(id_col, n_tokens:int64, dup_tokens:int64, dup_frac:float64)``
    with ``dup_frac`` one IEEE division of small ints (bit-exact in SQL,
    the percent_rank precedent).  Zero-token documents emit nothing.

    The corpus is SCANNED ONCE: the count rows ride the gram-emit pass
    as ``pos=0`` rows (``gh`` = token count), the materialized emit
    splits into the gram branch and the count branch without
    re-executing the read (one extra in-memory tokenize per batch for
    the counts — Arrow C++, cheap next to the gram hashing).
    """
    from .dedup import split_tokens

    emit = _check_hash_mode(hash_mode)

    def emit_all(b: pa.Table) -> pa.Table:
        g = emit(b, id_col, text_col, k)
        texts = pc.fill_null(b[text_col].combine_chunks(), "")
        _, off = split_tokens(texts)
        counts = np.diff(off)
        keep = counts > 0
        nk = int(keep.sum())
        cnt_rows = pa.table({
            "gh": pa.array(counts[keep].astype(np.int64)),
            "gh2": pa.array(np.zeros(nk, np.int64)),
            id_col: b[id_col].combine_chunks().filter(pa.array(keep)),
            "pos": pa.array(np.zeros(nk, np.int64)),  # marker: count row
        })
        return pa.concat_tables([g, cnt_rows])

    emitted = ds.map_batches(emit_all, batch_format="pyarrow",
                             zero_copy_batch=True, batch_size=None)
    # one scan: materialize the emit once, branch without re-execution
    refs = materialized_block_refs(emitted)

    def gram_branch(t: pa.Table) -> pa.Table:
        p = t["pos"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(p > 0))

    def count_branch(t: pa.Table) -> pa.Table:
        p = t["pos"].to_numpy(zero_copy_only=False)
        c = t.filter(pa.array(p == 0))
        return pa.table({id_col: c[id_col], "n_tok": c["gh"]})

    grams = ray.data.from_arrow_refs(list(refs)).map_batches(
        gram_branch, batch_format="pyarrow", zero_copy_batch=True)
    counts_ds = ray.data.from_arrow_refs(list(refs)).map_batches(
        count_branch, batch_format="pyarrow", zero_copy_batch=True)

    dups = _marked_dup_positions(grams, id_col=id_col,
                                 min_count=min_count,
                                 num_partitions=num_partitions)

    def stats_kernel(dups: pa.Table, counts: pa.Table) -> pa.Table:
        out_schema = pa.schema([
            pa.field(id_col, counts.schema.field(id_col).type),
            pa.field("n_tokens", pa.int64()),
            pa.field("dup_tokens", pa.int64()),
            pa.field("dup_frac", pa.float64())])
        if counts.num_rows + dups.num_rows == 0:
            return out_schema.empty_table()
        ids = counts[id_col].combine_chunks()
        cc, dc = seg.shared_key_codes(
            ids, dups[id_col] if dups.num_rows else ids.slice(0, 0))
        # per-doc dup coverage: islands over the dup rows, sorted by
        # (doc, pos) (with fixed k, dup interval ends are monotone per
        # doc)
        dup_tokens = np.zeros(len(cc) + len(dc) + 1, np.int64)
        if len(dc):
            d_s = dups["pos"].to_numpy(zero_copy_only=False).astype(
                np.int64)
            d_e = d_s + k
            d_first = np.empty(len(dc), np.bool_)
            d_first[0] = True
            d_first[1:] = dc[1:] != dc[:-1]
            d_brk = d_first | np.concatenate(
                [[True], d_s[1:] > d_e[:-1]])
            starts = np.flatnonzero(d_brk)
            ends = np.concatenate([starts[1:], [len(dc)]]) - 1
            np.add.at(dup_tokens, dc[starts], d_e[ends] - d_s[starts])
        # one output row per count row (every tokenized doc)
        ntoks = counts["n_tok"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        dups_per_doc = dup_tokens[cc]
        return pa.table({
            id_col: ids,
            "n_tokens": pa.array(ntoks),
            "dup_tokens": pa.array(dups_per_doc),
            "dup_frac": pa.array(dups_per_doc.astype(np.float64)
                                 / ntoks.astype(np.float64)),
        })

    return partitioned_map([dups, counts_ds], stats_kernel, key=id_col,
                           sort_keys=[[id_col, "pos"], [id_col]],
                           num_partitions=num_partitions)


def ngram_novelty(ds, *, id_col: str = "doc_id", text_col: str = "text",
                  k: int = 3, num_partitions: int = 16,
                  hash_mode: str = "md5"):
    """Per-document n-gram novelty — the fraction of a document's
    DISTINCT word ``k``-grams whose corpus-wide first occurrence (by
    min ``id_col``) is this document (novelty 1.0 = all-new content,
    0.0 = everything seen in an earlier doc; the incremental-ingest
    "how much new text does this shard add" signal, a per-doc
    refinement of exact/near dedup).

    Two keyed exchanges, both pre-aggregated: (1) per-block DISTINCT
    ``(gram key, doc)`` pairs (a doc is one row, so block-local
    distinct is global) ride a gram-keyed exchange whose kernel marks
    ``doc == first doc of the gram run`` and collapses straight to
    per-doc ``(n, novel)`` partials — the second shuffle moves
    O(partitions × docs) partial rows, never grams; (2) a doc-keyed
    exchange sums partials together with zero-gram marker rows (its
    second input) so short docs emit ``n_grams=0, novelty=NULL``.

    Gram keys follow the :func:`dup_spans` convention: ``md5`` mode is
    SQL-replayable (its equality classes ARE string equality, so the
    oracle can group by the gram string directly); ``poly`` is the
    vectorized 100-TB path, identical barring ~2^-64 collisions.
    Returns ``(id_col, n_grams:int64, n_novel:int64,
    novelty:float64)``; novelty = one double/double division.
    """
    emit = _check_hash_mode(hash_mode)

    def distinct_pairs(batch: pa.Table) -> pa.Table:
        g = emit(batch, id_col, text_col, k)
        gh = g["gh"].to_numpy(zero_copy_only=False)
        gh2 = g["gh2"].to_numpy(zero_copy_only=False)
        ids = g[id_col].to_numpy(zero_copy_only=False)
        if len(gh) == 0:    # a block of only short/NULL docs
            return pa.table({"gh": pa.array([], pa.int64()),
                             "gh2": pa.array([], pa.int64()),
                             id_col: pa.array([], pa.int64())})
        order = np.lexsort((ids, gh2, gh))
        gh, gh2, ids = gh[order], gh2[order], ids[order]
        first = np.concatenate([[True], (gh[1:] != gh[:-1])
                                | (gh2[1:] != gh2[:-1])
                                | (ids[1:] != ids[:-1])])
        return pa.table({"gh": pa.array(gh[first]),
                         "gh2": pa.array(gh2[first]),
                         id_col: pa.array(ids[first], pa.int64())})

    def gram_kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "gh" not in t.column_names:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64()),
                             "novel": pa.array([], pa.int64())})
        gh = t["gh"].to_numpy(zero_copy_only=False)
        gh2 = t["gh2"].to_numpy(zero_copy_only=False)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        run_start = np.concatenate([[True], (gh[1:] != gh[:-1])
                                    | (gh2[1:] != gh2[:-1])])
        # rows are sorted by (gh, gh2, doc): the run head IS min doc
        first_doc = ids[np.maximum.accumulate(
            np.where(run_start, np.arange(len(ids)), 0))]
        novel = (ids == first_doc).astype(np.int64)
        u, inv = np.unique(ids, return_inverse=True)
        n = np.bincount(inv, minlength=len(u)).astype(np.int64)
        nv = np.zeros(len(u), np.int64)
        np.add.at(nv, inv, novel)
        return pa.table({id_col: pa.array(u, pa.int64()),
                         "n": pa.array(n), "novel": pa.array(nv)})

    pairs = ds.map_batches(distinct_pairs, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None)
    partials = partitioned_refs(pairs, gram_kernel, key="gh",
                                sort_keys=["gh", "gh2", id_col],
                                num_partitions=num_partitions)

    def markers(batch: pa.Table) -> pa.Table:
        # int64 ids, as gram_kernel emits them, so the two concatenate
        ids = batch[id_col].cast(pa.int64())
        z = pa.array(np.zeros(batch.num_rows, np.int64))
        return pa.table({id_col: ids, "n": z, "novel": z})

    marks = ds.map_batches(markers, batch_format="pyarrow",
                           zero_copy_batch=True)

    def combine(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or id_col not in t.column_names:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "n_grams": pa.array([], pa.int64()),
                             "n_novel": pa.array([], pa.int64()),
                             "novelty": pa.array([], pa.float64())})
        ids = t[id_col].to_numpy(zero_copy_only=False)
        u, inv = np.unique(ids, return_inverse=True)
        n = np.zeros(len(u), np.int64)
        nv = np.zeros(len(u), np.int64)
        np.add.at(n, inv, t["n"].to_numpy(zero_copy_only=False))
        np.add.at(nv, inv, t["novel"].to_numpy(zero_copy_only=False))
        novelty = nv.astype(np.float64) / np.maximum(n, 1).astype(
            np.float64)
        return pa.table({id_col: pa.array(u, pa.int64()),
                         "n_grams": pa.array(n),
                         "n_novel": pa.array(nv),
                         "novelty": pa.array(novelty, pa.float64(),
                                             mask=n == 0)})

    def combine_both(partials: pa.Table, marks: pa.Table) -> pa.Table:
        full = [t for t in (partials, marks) if t.num_rows]
        return combine(pa.concat_tables(full, promote_options="default")
                       if full else partials)

    return partitioned_map([partials, marks], combine_both, key=id_col,
                           sort_keys=[[], []],
                           num_partitions=num_partitions)


def prefix_dedup(ds, *, id_col: str = "doc_id",
                 text_col: str = "text"):
    """Prefix-duplicate removal — drop every document whose text is a
    PROPER prefix of another document's text, and collapse exact-text
    duplicates to one survivor (the max ``id_col``).  The classic
    truncation-dup cleaner for web corpora: a crawler that cut a page
    at 1 kB and a recrawl that got 10 kB produce a prefix pair; only
    the longer one should train.

    Algorithm: ONE distributed range sort by ``(text, id)``
    (``rank._range_sort``, the only all-to-all: each row's successor
    is a global-order question), then a single adjacent compare per
    row — in a byte-lexicographic order, ``a`` is a prefix of ANY later
    string iff it is a prefix of its IMMEDIATE successor (every string
    between them starts with ``a``), so adjacency is sufficient.
    Block boundaries: the sorted blocks are read in range order (the
    global_row_number idiom), each contributes its first text to the
    driver, and each block's last row compares against the next
    block's first text.

    The per-row compare is vectorized over the Arrow string buffers
    (offset/byte arrays + ``np.minimum.reduceat`` over ragged
    equal-byte segments) — no per-row Python, no fixed-width unicode
    blow-up.  Codepoint vs byte prefix is equivalent on valid UTF-8
    (a byte prefix that is itself a complete string ends on a
    codepoint boundary), so DuckDB's ``starts_with`` over
    ``lead(text) OVER (ORDER BY text, id)`` replays the kept set
    exactly.  NULL-text rows drop (mirror in SQL).

    Returns the kept ``(id)`` rows.  Reference analog: none —
    companion of ``dup_spans`` / exact_dedup in the corpus-cleaning
    family (SURVEY.md dedup suite).
    """
    from .rank import _blocks_in_order, _range_sort

    def prep(b: pa.Table) -> pa.Table:
        keep = pc.fill_null(pc.is_valid(b[text_col]), False)
        t = pa.table({id_col: b[id_col], text_col: b[text_col]})
        if not pc.all(keep).as_py():
            t = t.filter(keep)
        return t

    sd, _ = _range_sort(ds.map_batches(prep, batch_format="pyarrow",
                                       zero_copy_batch=True),
                        [text_col, id_col], False)
    refs = [r for r, _ in _blocks_in_order(sd)]

    @ray.remote
    def first_text(blk: pa.Table):
        return blk.column(text_col)[0].as_py()

    @ray.remote
    def keep_non_prefix(blk: pa.Table, boundary) -> pa.Table:
        ids = blk.column(id_col).combine_chunks()
        texts = blk.column(text_col).combine_chunks().cast(
            pa.large_string())
        if boundary is not None:
            texts = pa.concat_arrays(
                [texts, pa.array([boundary], pa.large_string())])
        offs = np.frombuffer(texts.buffers()[1], np.int64)[
            texts.offset: texts.offset + len(texts) + 1]
        vals = np.frombuffer(texts.buffers()[2], np.uint8)
        lens = np.diff(offs)
        n = blk.num_rows
        # row i is a prefix of row i+1?
        has_succ = np.arange(n) < (len(texts) - 1)
        cand = has_succ & (lens[:n] <= np.append(
            lens[1:], 0)[:n])
        # zero-length texts are trivially prefixes of any successor
        is_pref = np.zeros(n, bool)
        ci = np.flatnonzero(cand)
        if len(ci):
            clen = lens[ci]
            nz = ci[clen > 0]
            is_pref[ci[clen == 0]] = True
            if len(nz):
                cnt = lens[nz]
                base = np.repeat(offs[nz], cnt)
                rel = (np.arange(int(cnt.sum()))
                       - np.repeat(np.cumsum(cnt) - cnt, cnt))
                a = vals[base + rel]
                b = vals[np.repeat(offs[nz + 1], cnt) + rel]
                eq = (a == b).astype(np.int8)
                segs = np.cumsum(cnt) - cnt
                allq = np.minimum.reduceat(eq, segs)
                is_pref[nz] = allq.astype(bool)
        return pa.table({id_col: ids.filter(
            pa.array(~is_pref))})

    # each boundary travels task to task as a ref, never via the driver
    firsts = [first_text.remote(r) for r in refs[1:]]
    out_refs = [keep_non_prefix.remote(r, boundary)
                for r, boundary in zip(refs, [*firsts, None])]
    if not out_refs:
        schema = ds.schema()
        base = getattr(schema, "base_schema", schema)
        return ray.data.from_arrow(pa.table(
            {id_col: pa.array([], base.field(id_col).type)}))
    return ray.data.from_arrow_refs(out_refs)


def cross_source_grams(ds, *, group_col: str = "source",
                       text_col: str = "text", k: int = 8,
                       num_partitions: int = 32):
    """Cross-source contamination matrix — for every pair of sources,
    how many DISTINCT word ``k``-grams they share.  The corpus-QA
    screen for mirror sites, syndicated boilerplate, and benchmark
    leakage BETWEEN collections (q84's dup_spans finds the spans; this
    aggregates "who copies whom" at the source level).

    One row per unordered source pair (lexicographic ``src_a <
    src_b``): ``shared_grams`` = exact count of distinct k-grams
    present in both.  Counts are exact int64 — DuckDB replays by
    grouping the gram STRINGS directly (md5 halves have identical
    equality classes, the q84/q155 pattern).

    Plan: per block, (gram-md5-halves, source) rows LOCALLY deduped
    (Arrow group_by) so the exchange ships each (gram, source) once
    per block; ONE gram-keyed exchange; inside a partition each
    gram's distinct sources expand to pairs via ``triangular_pairs``
    (sources per gram <= |sources|, tiny); per-partition (src_a,
    src_b, n) partials combine on the driver (<= |sources|^2 cells).
    Grams hash with md5 (the q84 md5 mode, vectorized per block) so
    the SQL replay can group the same keys.

    Reference analog: none — companion of vocab_overlap (q148) /
    dup_spans (q84) in the corpus-QA family.
    """
    def emit(b: pa.Table) -> pa.Table:
        gtype = b.schema.field(group_col).type
        empty = pa.table({"gh": pa.array([], pa.int64()),
                          "gh2": pa.array([], pa.int64()),
                          group_col: pa.array([], gtype)})
        keep = pc.fill_null(pc.is_valid(b[group_col]), False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        if b.num_rows == 0:
            return empty
        g = _gram_emit_md5(b, group_col, text_col, k)
        if g.num_rows == 0:
            return empty
        return pa.table({
            "gh": g["gh"], "gh2": g["gh2"],
            group_col: g[group_col],
        }).group_by(["gh", "gh2", group_col]).aggregate([])

    def kernel(t: pa.Table) -> pa.Table:
        gtype = t.schema.field(group_col).type
        empty = pa.table({"src_a": pa.array([], gtype),
                          "src_b": pa.array([], gtype),
                          "n": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        gh = t["gh"].to_numpy(zero_copy_only=False)
        gh2 = t["gh2"].to_numpy(zero_copy_only=False)
        sd = pc.dictionary_encode(t[group_col].combine_chunks())
        sc = sd.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)
        # cross-block dedup of (gram, source) triples (sorted)
        first = np.concatenate(
            [[True], (gh[1:] != gh[:-1]) | (gh2[1:] != gh2[:-1])
             | (sc[1:] != sc[:-1])])
        gh, gh2, sc = gh[first], gh2[first], sc[first]
        gnew = np.concatenate(
            [[True], (gh[1:] != gh[:-1]) | (gh2[1:] != gh2[:-1])])
        starts = np.flatnonzero(gnew)
        lens = np.diff(np.append(starts, len(gh)))
        from ..functions.segments import triangular_pairs

        ig, jg, _ = triangular_pairs(starts.astype(np.int64),
                                     lens.astype(np.int64))
        if len(ig) == 0:
            return empty
        ns = len(sd.dictionary)
        cell = sc[ig] * ns + sc[jg]
        uc, inv = np.unique(cell, return_inverse=True)
        n = np.zeros(len(uc), np.int64)
        np.add.at(n, inv, 1)
        return pa.table({
            "src_a": sd.dictionary.take(pa.array(uc // ns,
                                                 pa.int64())),
            "src_b": sd.dictionary.take(pa.array(uc % ns,
                                                 pa.int64())),
            "n": pa.array(n)})

    partials = ds.map_batches(emit, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)
    cells = partitioned_refs(partials, kernel, key="gh",
                             sort_keys=["gh", "gh2", group_col],
                             num_partitions=num_partitions)
    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    gtype = base.field(group_col).type
    agg = sum_partials(ray.get(cells), keys=["src_a", "src_b"], vals=["n"])
    if agg is None:
        return pa.table({"src_a": pa.array([], gtype),
                         "src_b": pa.array([], gtype),
                         "shared_grams": pa.array([], pa.int64())})
    return pa.table({"src_a": agg["src_a"].cast(gtype),
                     "src_b": agg["src_b"].cast(gtype),
                     "shared_grams": agg["n"]})
