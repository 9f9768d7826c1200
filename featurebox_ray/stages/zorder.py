"""Z-order (Morton-curve) data layout — map two dimension columns onto
one space-filling-curve key and rank the table by it, so that a
downstream range-partitioned write co-locates rows that are close in
BOTH dimensions (the multi-dimensional clustering step behind
Delta/Iceberg ``OPTIMIZE ZORDER BY``; at 100 TB this is what turns two
independent range filters into block-level pruning).

Everything is integer-exact and order-free:

1. one metadata-sized pass collects global per-column int64 min/max
   (one partial row per block, combined on the driver);
2. each value quantizes to ``bits`` levels via
   ``((x - min) * (2^bits - 1)) // (max - min)`` — pure int64 floor
   arithmetic (guarded against overflow), identical in SQL;
3. the two quantized coordinates interleave bitwise into the Morton
   code with the classic magic-number spread (vectorized numpy; the
   same shift/mask expression replays in DuckDB BIGINT math);
4. the exact global rank under ``(z, *tie_cols)`` comes from
   ``rank.global_row_number`` (range sort + metadata-only offsets).

Output: ``(*tie_cols, zval:int64, zrank:int64)``.

Reference analog: none (single-node engines don't lay out storage);
added-for-100-TB layout primitive, same family as ``stages/salt.py``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .partition import materialized_block_refs

__all__ = ["zorder_layout", "morton_interleave2"]

_MASKS = (
    (32, 0x00000000FFFFFFFF),
    (16, 0x0000FFFF0000FFFF),
    (8, 0x00FF00FF00FF00FF),
    (4, 0x0F0F0F0F0F0F0F0F),
    (2, 0x3333333333333333),
    (1, 0x5555555555555555),
)


def morton_interleave2(qx: np.ndarray, qy: np.ndarray,
                       bits: int) -> np.ndarray:
    """Interleave two ``bits``-wide non-negative int arrays into the
    2-D Morton code (x gets the even bit positions)."""
    if bits > 31:
        raise ValueError("morton_interleave2: bits must be <= 31 so the "
                         "interleaved code fits in int64")

    def spread(v: np.ndarray) -> np.ndarray:
        v = v.astype(np.uint64)
        for sh, mask in _MASKS:
            if sh >= 2 * bits:
                continue
            v = (v | (v << np.uint64(sh))) & np.uint64(mask)
        return v

    return (spread(qx) | (spread(qy) << np.uint64(1))).astype(np.int64)


def _col_as_int64(b: pa.Table, c: str) -> pa.ChunkedArray:
    col = b[c].combine_chunks()
    if pa.types.is_timestamp(col.type):
        col = col.cast(pa.int64())
    return col.cast(pa.int64())


def zorder_layout(ds, *, x_col: str, y_col: str, tie_cols,
                  bits: int = 16, num_partitions: int = 32):
    """Z-order rank of ``ds`` by integer/timestamp columns ``x_col`` /
    ``y_col``: quantize both to ``bits`` levels over their global
    [min, max], interleave into the Morton code, and attach the exact
    global 1-based rank under ``(zval, *tie_cols)``.  ``tie_cols`` must
    make the order total (include a unique id) and be null-free; rows
    with NULL in either dimension are dropped (document filters
    upstream if they must be kept)."""
    tie_cols = list(tie_cols)
    keep_cols = tie_cols + [x_col, y_col]

    def prep(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(b[x_col]), pc.is_valid(b[y_col]))
        keep = pc.fill_null(keep, False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        cols = {c: b[c] for c in tie_cols}
        cols["__x"] = _col_as_int64(b, x_col)
        cols["__y"] = _col_as_int64(b, y_col)
        return pa.table(cols)

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)

    # pass 1: one (min,max) partial row per block per dimension
    def mm_partial(b: pa.Table) -> pa.Table:
        outs = {}
        for c in ("__x", "__y"):
            if b.num_rows:
                mm = pc.min_max(b[c])
                outs[c + "_min"] = [mm["min"].as_py()]
                outs[c + "_max"] = [mm["max"].as_py()]
            else:
                outs[c + "_min"] = [None]
                outs[c + "_max"] = [None]
        return pa.table({k: pa.array(v, pa.int64())
                         for k, v in outs.items()})

    refs = materialized_block_refs(prepped)
    prepped = ray.data.from_arrow_refs(list(refs))
    parts = ray.data.from_arrow_refs(list(refs)).map_batches(
        mm_partial, batch_format="pyarrow", batch_size=None,
        zero_copy_batch=True).take_all()
    bounds = {}
    for c in ("__x", "__y"):
        lo = min((r[c + "_min"] for r in parts
                  if r[c + "_min"] is not None), default=0)
        hi = max((r[c + "_max"] for r in parts
                  if r[c + "_max"] is not None), default=0)
        width = hi - lo
        if width * ((1 << bits) - 1) >= (1 << 63):
            raise ValueError(
                f"zorder_layout: range of {c} ({width}) x 2^{bits} "
                "overflows int64 — pre-scale the column or lower bits")
        bounds[c] = (lo, width)
    (x_lo, x_w), (y_lo, y_w) = bounds["__x"], bounds["__y"]
    levels = (1 << bits) - 1

    def add_z(b: pa.Table) -> pa.Table:
        x = b["__x"].to_numpy(zero_copy_only=False)
        y = b["__y"].to_numpy(zero_copy_only=False)
        qx = ((x - x_lo) * levels) // x_w if x_w else np.zeros_like(x)
        qy = ((y - y_lo) * levels) // y_w if y_w else np.zeros_like(y)
        z = morton_interleave2(qx, qy, bits)
        cols = {c: b[c] for c in tie_cols}
        cols["zval"] = pa.array(z, pa.int64())
        return pa.table(cols)

    zd = prepped.map_batches(add_z, batch_format="pyarrow",
                             zero_copy_batch=True)

    from .rank import global_row_number

    ranked = global_row_number(zd, order_cols=["zval"] + tie_cols,
                               rank_col="zrank")
    return ranked.select_columns(tie_cols + ["zval", "zrank"])


def morton_sql_expr(x_expr: str, y_expr: str, bits: int) -> str:
    """The DuckDB BIGINT expression computing the same Morton code —
    used by oracles; kept next to the numpy kernel so the two spreads
    stay in lockstep."""
    def spread(e: str) -> str:
        v = e
        for sh, mask in _MASKS:
            if sh >= 2 * bits:
                continue
            v = f"(({v} | ({v} << {sh})) & {mask})"
        return v

    return f"({spread(x_expr)} | ({spread(y_expr)} << 1))"
