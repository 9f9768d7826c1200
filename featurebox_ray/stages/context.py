"""Context-window trim — the LLM training-sample context-assembly
primitive: for every turn, how many of the IMMEDIATELY PRECEDING turns
of the same conversation fit into a token budget, walking backwards
from the nearest turn (the suffix-of-history rule every chat-format
sample builder applies before rendering a training example).

For row i (in ``(ts, seq)`` order within a key) with non-negative
per-row token counts, the kept context is the longest suffix
``[j, i-1]`` of the history with ``Σ tokens ≤ budget``.  Token prefix
sums are non-decreasing, so ``j`` is one ``searchsorted`` over the
GLOBAL exclusive prefix array (tokens ≥ 0 ⇒ globally non-decreasing)
clamped to the segment start — the whole kernel is two cumsums and one
binary search, no per-row Python, exact int64 everywhere.

SQL replay: ``j`` = the count of same-key rows with exclusive prefix
``E_r < E_i − budget`` (a strict-< rank query — the q151 tagged-union
window trick), and the kept token total is ``E_i − E_j`` via one
equi-join on ``(key, rn = j+1)``.

One key-keyed exchange; negative token counts raise (they would break
the monotone prefix).  Reference analog: none (the reference has no
text pipeline); sibling of ``stages/pack.py``'s sequence packing.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .partition import partitioned_map

__all__ = ["context_trim"]


def context_trim(ds, *, key_col: str, ts_col: str, seq_col: str,
                 tokens_col: str, budget: int,
                 num_partitions: int = 16):
    """Per-row greedy-suffix context fit: returns ``(key_col, seq_col,
    n_ctx:int64, ctx_tokens:int64)`` — how many immediately preceding
    same-key rows fit in ``budget`` tokens and their exact total.
    NULL key/ts/seq rows drop; NULL token counts count 0 (SQL
    ``coalesce``)."""
    B = int(budget)
    if B < 0:
        raise ValueError("context_trim: budget must be >= 0")

    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    key_type = base.field(key_col).type
    seq_type = base.field(seq_col).type

    def prep(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.and_(pc.is_valid(b[key_col]),
                               pc.is_valid(b[ts_col])),
                       pc.is_valid(b[seq_col]))
        keep = pc.fill_null(keep, False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        ts = b[ts_col].combine_chunks()
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.int64())
        tok = pc.fill_null(b[tokens_col].combine_chunks(), 0).cast(
            pa.int64())
        if b.num_rows and pc.min(tok).as_py() < 0:
            raise ValueError("context_trim: negative token counts")
        return pa.table({key_col: b[key_col], "__t": ts,
                         "__s": b[seq_col], "__tok": tok})

    empty = pa.table({key_col: pa.array([], key_type),
                      seq_col: pa.array([], seq_type),
                      "n_ctx": pa.array([], pa.int64()),
                      "ctx_tokens": pa.array([], pa.int64())})

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        keys = t[key_col].combine_chunks()
        tok = t["__tok"].to_numpy(zero_copy_only=False)
        codes = pc.dictionary_encode(keys).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        from ..functions.segments import segment_ids

        seg_start, _row_in_seg, _is_start = segment_ids(codes)
        # E[i] = exclusive prefix of tokens (global; non-decreasing)
        E = np.concatenate([[0], np.cumsum(tok)])[:-1]
        j = np.searchsorted(E, E - B, "left")
        j = np.maximum(j, seg_start)
        idx = np.arange(len(codes))
        n_ctx = idx - j
        ctx_tokens = E - E[j]
        return pa.table({
            key_col: keys,
            seq_col: t["__s"],
            "n_ctx": pa.array(n_ctx.astype(np.int64)),
            "ctx_tokens": pa.array(ctx_tokens.astype(np.int64)),
        })

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, kernel, key=key_col,
                           sort_keys=[key_col, "__t", "__s"],
                           num_partitions=num_partitions)
