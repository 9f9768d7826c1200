"""Flagship transcript pipeline, fused single-shuffle variant.

The staged pipeline (scalar → window → asof) pays TWO conv-hash shuffles:
one for the window stage, one for the as-of join.  Both stages need the
identical partitioning (key=conv_id, sort=(conv_id, ts, ...)), so this
module hash-partitions the transcripts and the feature table together in
ONE exchange (two inputs, no ``union`` and no map in front of it; the
gather hands the kernel each side as its own sorted table) and runs a
fused kernel per partition: as-of match first (``asof._asof_match``, the
one backward as-of kernel ``asof_join`` uses too), then the window
features over the backfilled left rows — exactly the "pick ONE
partitioning key and reuse it across stages" rule from the task brief.

Output is identical to the staged pipeline (tests assert equality).
"""

from __future__ import annotations

from typing import Optional, Sequence

import pyarrow as pa

from ..stages.asof import _append_matched, _asof_match
from ..stages.join import keyed_right
from ..stages.partition import partitioned_map
from ..stages.window import WindowSpec, window_kernel


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
    rschema = right_ds.schema()
    rtypes = dict(zip(rschema.names, rschema.types))

    overlap_cols = [c for c in right_cols if c in ltypes]
    if overlap_cols:
        raise ValueError(
            f"right_cols {overlap_cols} collide with left columns; "
            "rename or project the left side first")
    right_ds = keyed_right(right_ds, getattr(rschema, "base_schema", rschema),
                           on=key, right_on=key, key_type=ltypes[key],
                           cols=[ts_col] + right_cols)

    def kernel(left: pa.Table, right: pa.Table) -> pa.Table:
        src = _asof_match(left, right, key=key, ts_col=ts_col, strict=strict)
        # left is sorted by (key, ts, order); window features on top
        return window_kernel(
            _append_matched(left, right, src, right_cols, rtypes), spec)

    return partitioned_map(
        [left_ds, right_ds], kernel, key=key,
        sort_keys=[[key, ts_col, order_col], [key, ts_col] + right_cols],
        num_partitions=num_partitions, strategy=strategy,
    )
