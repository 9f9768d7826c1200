"""Flagship transcript pipeline, fused single-shuffle variant.

The staged pipeline (scalar → window → asof) pays TWO conv-hash shuffles:
one for the window stage, one for the as-of join.  Both stages need the
identical partitioning (key=conv_id, sort=(conv_id, ts, ...)), so this
module hash-partitions the tagged transcripts and the tagged feature table
together in ONE exchange (two inputs, no ``union`` in front of it) and
runs a fused kernel per sorted partition: as-of merge first (vectorized
last-occurrence gather), then the window features over the merged left
rows — exactly the "pick ONE partitioning key and reuse it across stages"
rule from the task brief.

Output is identical to the staged pipeline (tests assert equality).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pyarrow as pa

from ..functions import segments as seg
from ..stages.partition import partitioned_map
from ..stages.window import WindowSpec, window_kernel

SIDE_COL = "__side"


def fused_features_backfill(
    left_ds,
    right_ds,
    spec: Optional[WindowSpec] = None,
    *,
    right_cols: Sequence[str] = ("f_score", "f_label"),
    strict: bool = False,
    order_col: str = "turn_idx",
    num_partitions: int = 32,
    strategy: str = "tasks",
    left_schema: Optional[pa.Schema] = None,
):
    """window features + as-of backfill in one shuffle.

    ``strategy`` is passed on to :func:`partitioned_map` (``"tasks"``
    is its one legal value).

    ``left_schema``: the schema of ``left_ds`` if the caller already
    knows it.  When ``left_ds`` ends in expensive lazy map stages,
    ``left_ds.schema()`` executes ONE FULL BLOCK of that chain just to
    learn the column names (a limit-1 probe is still a whole block per
    upstream operator) — ~25% of flagship wall at bench scale.  Callers
    that hold the raw batch fns can instead apply them to a one-row
    local table and pass ``probe.schema`` (see ``perfbench/jobs.py:
    left_schema``), skipping the
    probe execution entirely."""
    spec = spec or WindowSpec()
    key, ts_col = spec.key_col, spec.ts_col
    right_cols = list(right_cols)

    if left_schema is None:
        left_schema = left_ds.schema()
    ltypes = dict(zip(left_schema.names, left_schema.types))
    left_names = list(left_schema.names)
    rschema = right_ds.schema()
    rtypes = dict(zip(rschema.names, rschema.types))

    overlap_cols = [c for c in right_cols if c in left_names]
    if overlap_cols:
        raise ValueError(
            f"right_cols {overlap_cols} collide with left columns; "
            "rename or project the left side first")

    left_tag = 1
    right_tag = 2 if strict else 0

    def tag_left(t: pa.Table) -> pa.Table:
        for c in right_cols:
            t = t.append_column(c, pa.nulls(t.num_rows, rtypes[c]))
        return t.append_column(SIDE_COL, pa.array(np.full(t.num_rows, left_tag, np.int8)))

    def tag_right(t: pa.Table) -> pa.Table:
        cols = {}
        for c in left_names:
            if c in (key, ts_col):
                cols[c] = t[c].cast(ltypes[c])
            else:
                cols[c] = pa.nulls(t.num_rows, ltypes[c])
        for c in right_cols:
            cols[c] = t[c]
        out = pa.table(cols)
        return out.append_column(SIDE_COL, pa.array(np.full(t.num_rows, right_tag, np.int8)))

    lt = left_ds.map_batches(tag_left, batch_format="pyarrow", zero_copy_batch=True)
    rt = right_ds.map_batches(tag_right, batch_format="pyarrow", zero_copy_batch=True)

    def kernel(table: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        codes = pc.dictionary_encode(table[key].combine_chunks()).indices.to_numpy(
            zero_copy_only=False)
        side = table[SIDE_COL].combine_chunks().to_numpy()
        seg_start, _, _ = seg.segment_ids(codes)
        is_right = side == right_tag
        last = seg.last_occurrence_index(is_right, seg_start)
        left_mask = side == left_tag
        left_pos = np.flatnonzero(left_mask)
        src = last[left_pos]
        idx = pa.array(np.where(src >= 0, src, 0), type=pa.int64(), mask=(src < 0))
        merged = table.filter(pa.array(left_mask)).drop_columns([SIDE_COL] + right_cols)
        for c in right_cols:
            merged = merged.append_column(c, table[c].take(idx))
        # merged is still sorted by (key, ts, order); window features on top
        return window_kernel(merged, spec)

    sort_keys = [key, ts_col, SIDE_COL] + right_cols + [order_col]
    return partitioned_map(
        [lt, rt], kernel, key=key, sort_keys=sort_keys,
        num_partitions=num_partitions, strategy=strategy,
    )
