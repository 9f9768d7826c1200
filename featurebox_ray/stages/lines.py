"""Corpus line-level dedup / boilerplate removal (the CCNet / Dolma
paragraph-dedup recipe): drop every line that occurs in >= ``min_docs``
distinct documents (navigation chrome, cookie banners, repeated
footers), then reassemble each document from its surviving lines in
their original order.

This generalizes the reference's duplicate-feature rejection
(``symbol/base.py:712-731`` content-equality scan) from whole columns
to intra-document text units, at corpus scale.

Plan (two keyed exchanges, corpus scanned ONCE):

1. one streaming map splits each document into ``(doc, pos, line)``
   rows (Arrow C++ ``split_pattern`` + ragged offsets — zero per-row
   Python) and appends one tiny ``(doc, n_lines)`` marker row per
   document (the ``dup_token_stats`` shape); the emit is materialized
   once and branched without re-execution;
2. the line rows ride ONE line-keyed exchange; each partition counts
   distinct documents per line with run masks over its
   ``(line, doc, pos)`` sort (all occurrences of a line are co-located,
   so the count is exact) and emits only rows of lines below the bar;
3. survivors and the marker rows ride ONE doc-keyed exchange as two
   inputs; each document renders in a single vectorized ``list-offsets +
   binary_join`` pass (the q41/q100 render shape — never a per-group
   UDF).

Shuffle volume: exchange 1 moves the line rows (~input bytes), exchange
2 moves survivors + one marker row per doc.  No driver-side state, no
caps, no whole-dataset materialization beyond the branched emit (which
streams through the object store and spills like any block set).

SQL replay is exact: line splitting is the same separator, the distinct
count is ``count(DISTINCT doc_id)``, and the reassembly is
``string_agg(line, sep ORDER BY pos)`` — all strings and int64, no
floats anywhere.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..functions import segments as seg
from .partition import (materialized_block_refs, partitioned_map,
                        partitioned_refs)


def _line_rows(texts: pa.ChunkedArray, sep: str):
    """Vectorized split: returns (flat line StringArray of the VALID
    rows' lines, per-row line counts over ALL rows).  NULL texts
    contribute zero lines (they are filtered before the split, so no
    assumption about Arrow's offset layout for null list slots)."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    valid = np.asarray(pc.is_valid(texts))
    vtexts = texts.filter(pa.array(valid)) if not valid.all() else texts
    parts = pc.split_pattern(vtexts, sep)
    off = np.asarray(parts.offsets).astype(np.int64)
    flat = parts.values.slice(off[0], off[-1] - off[0])
    counts = np.zeros(len(texts), np.int64)
    counts[valid] = np.diff(off)
    return flat, counts


def _adj_change(col: pa.Array) -> np.ndarray:
    """Boolean mask: row differs from the previous row.  Strings go
    through dictionary codes (no per-row Python compares)."""
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type) \
            or pa.types.is_binary(col.type):
        v = col.dictionary_encode().indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
    else:
        v = col.to_numpy(zero_copy_only=False)
    out = np.empty(len(v), np.bool_)
    out[0] = True
    out[1:] = v[1:] != v[:-1]
    return out


def remove_duplicate_lines(ds, *, id_col: str = "doc_id",
                           text_col: str = "text", sep: str = "\n",
                           min_docs: int = 2, num_partitions: int = 16):
    """Boilerplate removal: drop lines occurring in >= ``min_docs``
    distinct documents, reassemble the rest.

    Returns one row per document with non-NULL ``text_col``:
    ``(id_col, clean_text:string, n_lines:int64, n_kept:int64)`` —
    ``clean_text`` is NULL when every line was removed (SQL
    ``string_agg`` over zero rows), matching the DuckDB replay
    bit-for-bit.
    """
    if min_docs < 1:
        raise ValueError("min_docs must be >= 1")

    def emit_all(b: pa.Table) -> pa.Table:
        texts = b[text_col].combine_chunks() if isinstance(
            b[text_col], pa.ChunkedArray) else b[text_col]
        flat, counts = _line_rows(texts, sep)
        ids = b[id_col].combine_chunks()
        n = len(flat)
        # ragged positions: 0..counts[i]-1 per doc
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]]) if len(
            counts) else np.empty(0, np.int64)
        pos = np.arange(n, dtype=np.int64) - np.repeat(starts, counts)
        line_part = pa.table({
            id_col: ids.take(pa.array(
                np.repeat(np.arange(len(counts)), counts), pa.int64())),
            "pos": pa.array(pos, pa.int64()),
            "line": flat.cast(pa.string()),
            "n_lines": pa.nulls(n, pa.int64()),
        })
        # one marker per doc that produced lines (NULL text -> none)
        has = counts > 0
        nh = int(has.sum())
        marker = pa.table({
            id_col: ids.filter(pa.array(has)),
            "pos": pa.array(np.full(nh, -1, np.int64)),
            "line": pa.nulls(nh, pa.string()),
            "n_lines": pa.array(counts[has].astype(np.int64)),
        })
        return pa.concat_tables([line_part, marker])

    emitted = ds.map_batches(emit_all, batch_format="pyarrow",
                             zero_copy_batch=True, batch_size=None)
    refs = materialized_block_refs(emitted)

    def line_branch(t: pa.Table) -> pa.Table:
        p = t["pos"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(p >= 0)).drop_columns(["n_lines"])

    def marker_branch(t: pa.Table) -> pa.Table:
        p = t["pos"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(p < 0)).select([id_col, "n_lines"])

    lines_ds = ray.data.from_arrow_refs(list(refs)).map_batches(
        line_branch, batch_format="pyarrow", zero_copy_batch=True)
    markers_ds = ray.data.from_arrow_refs(list(refs)).map_batches(
        marker_branch, batch_format="pyarrow", zero_copy_batch=True)

    def freq_kernel(t: pa.Table) -> pa.Table:
        """Partition sorted by (line, id, pos): keep rows of lines seen
        in < min_docs distinct docs."""
        out_schema = pa.schema([
            pa.field(id_col, t.schema.field(id_col).type
                     if id_col in t.column_names else pa.int64()),
            pa.field("pos", pa.int64()),
            pa.field("line", pa.string()),
        ])
        if t.num_rows == 0 or "line" not in t.column_names:
            return out_schema.empty_table()
        line_first = _adj_change(t["line"].combine_chunks())
        run_id = np.cumsum(line_first) - 1
        n_runs = int(run_id[-1]) + 1
        # distinct docs per line: rows sorted by (line, id) -> a doc is
        # "first" at a line-change or an id-change
        doc_first = line_first | _adj_change(t[id_col].combine_chunks())
        doc_counts = np.bincount(run_id[doc_first], minlength=n_runs)
        keep = doc_counts[run_id] < min_docs
        return t.select([id_col, "pos", "line"]).filter(pa.array(keep))

    survivors = partitioned_refs(lines_ds, freq_kernel, key="line",
                                 sort_keys=["line", id_col, "pos"],
                                 num_partitions=num_partitions)

    def render_kernel(lines: pa.Table, markers: pa.Table) -> pa.Table:
        """Survivors sorted by (id, pos) and one marker row per doc:
        render each doc's survivors with one binary_join pass."""
        out_schema = pa.schema([
            pa.field(id_col, markers.schema.field(id_col).type
                     if id_col in markers.column_names else pa.int64()),
            pa.field("clean_text", pa.string()),
            pa.field("n_lines", pa.int64()),
            pa.field("n_kept", pa.int64()),
        ])
        if markers.num_rows == 0 and lines.num_rows == 0:
            return out_schema.empty_table()
        ids = markers[id_col].combine_chunks()
        mc, lc = seg.shared_key_codes(
            ids, lines[id_col] if lines.num_rows else ids.slice(0, 0),
            nulls_distinct=True)
        starts = seg.run_starts(mc)
        n_docs = len(starts)
        doc = seg.lookup(mc[starts], lc)
        if (doc < 0).any():
            raise AssertionError(
                "render kernel: survivor lines of a document with no "
                "marker row")
        kept_counts = np.bincount(doc, minlength=n_docs)
        offsets = np.concatenate([[0], np.cumsum(kept_counts)]).astype(
            np.int64)
        pieces = (lines["line"].combine_chunks() if lines.num_rows
                  else pa.array([], pa.string()))
        joined = pc.binary_join(
            pa.LargeListArray.from_arrays(
                pa.array(offsets, pa.int64()),
                pc.cast(pieces, pa.large_string())),
            pa.scalar(sep, pa.large_string()))
        joined = pc.if_else(pa.array(kept_counts > 0), joined,
                            pa.nulls(n_docs, pa.large_string()))
        first = pa.array(starts, pa.int64())
        return pa.table({
            id_col: ids.take(first),
            "clean_text": pc.cast(joined, pa.string()),
            "n_lines": markers["n_lines"].combine_chunks().take(first),
            "n_kept": pa.array(kept_counts.astype(np.int64)),
        })

    return partitioned_map([survivors, markers_ds], render_kernel,
                           key=id_col, sort_keys=[[id_col, "pos"], [id_col]],
                           num_partitions=num_partitions)
