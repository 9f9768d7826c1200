"""Salted windowing for mega-conversations (SURVEY.md §7.6 / §4 skew row).

Problem: one conversation with ~10% of all rows makes its hash partition a
straggler and can exceed worker heap.  Plain salting (``(conv_id, bucket)``)
breaks window continuity at bucket boundaries.

Solution here — *bounded-overlap re-read* (cf. DS2, ICDE'21: skew
handling by redistributing a hot key's work with bounded state transfer): window features with bounded
lookback (lag k, rolling k rows, trailing Δt) only need the previous
``overlap`` rows of context.  Each row is assigned a salt bucket from its
``turn_idx`` (known from the data, no global sort needed)::

    bucket    = turn_idx // bucket_rows
    context   = rows with turn_idx in [b*bucket_rows - overlap, b*bucket_rows)
                duplicated into bucket b, marked __ctx=1

The kernel computes windows over (context + own rows) — identical values to
the unsalted computation because the window never reaches past the overlap —
then drops context rows.  Cost: ``overlap / bucket_rows`` duplication
(typically <1%).

Unbounded features (turn_number, session_id — global cumulative state per
conv) cannot be salted this way; compute them in the unsalted pass or give
them their own chained scan.  ``SaltedWindowSpec`` therefore restricts to
the bounded subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .partition import partitioned_map
from .window import WindowSpec, window_kernel

CTX_COL = "__ctx"
SALT_COL = "__salt"


@dataclass
class SaltPolicy:
    bucket_rows: int = 100_000      # rows of one conv per salt bucket
    overlap: int = 64               # must cover max(lags + rolling_rows) - 1
    # time-window salting additionally requires overlap rows to span the
    # longest time window; callers with time windows should size overlap to
    # window_seconds / min_expected_gap or use the unsalted path.


def required_overlap(spec: WindowSpec) -> int:
    need = 1
    for k in spec.lags:
        need = max(need, k)
    for k in spec.rolling_rows:
        need = max(need, k - 1)
    if spec.rate_cols:
        need = max(need, spec.rate_window - 1)
    return need


def add_window_features_salted(
    ds,
    spec: WindowSpec,
    *,
    order_col: str = "turn_idx",
    num_partitions: int = 32,
    policy: Optional[SaltPolicy] = None,
):
    """Bounded-window features with per-conversation salting.

    ``spec`` must not request unbounded features (session/turn_number) —
    those need the unsalted path.  Window values are identical to
    :func:`featurebox_ray.stages.window.add_window_features` output.
    """
    if spec.add_session or spec.add_turn_number:
        raise ValueError(
            "salted path supports only bounded windows; disable "
            "add_session/add_turn_number (compute them unsalted)")
    if spec.time_windows_s:
        raise ValueError(
            "salted path cannot bound time windows by a row overlap; "
            "compute time_windows_s on the unsalted path (or cap window "
            "state per SURVEY.md §7.6)")
    policy = policy or SaltPolicy()
    need = required_overlap(spec)
    if policy.overlap < need:
        raise ValueError(f"overlap {policy.overlap} < required {need}")
    if policy.overlap >= policy.bucket_rows:
        # context is sourced only from the adjacent bucket; an overlap
        # spanning more than one bucket would silently truncate windows
        raise ValueError(
            f"overlap {policy.overlap} must be < bucket_rows "
            f"{policy.bucket_rows} (context comes from the adjacent bucket "
            "only); raise bucket_rows")
    b = policy.bucket_rows
    ov = policy.overlap

    def explode(batch: pa.Table) -> pa.Table:
        idx = batch[order_col].to_numpy(zero_copy_only=False).astype(np.int64)
        bucket = idx // b
        own = batch.append_column(SALT_COL, pa.array(bucket, pa.int64()))
        own = own.append_column(CTX_COL, pa.array(np.zeros(len(idx), np.int8)))
        # trailing rows of bucket k feed lookback context into bucket k+1
        back = (idx % b) >= (b - ov)
        bctx = batch.filter(pa.array(back))
        bidx = idx[back]
        bctx = bctx.append_column(SALT_COL, pa.array(bidx // b + 1, pa.int64()))
        bctx = bctx.append_column(CTX_COL, pa.array(np.ones(len(bidx), np.int8)))
        # leading rows of bucket k feed lookahead (lead) context into k-1
        fwd = ((idx % b) < ov) & (bucket > 0)
        fctx = batch.filter(pa.array(fwd))
        fidx = idx[fwd]
        fctx = fctx.append_column(SALT_COL, pa.array(fidx // b - 1, pa.int64()))
        fctx = fctx.append_column(CTX_COL, pa.array(np.ones(len(fidx), np.int8)))
        return pa.concat_tables([own, bctx, fctx])

    exploded = ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)

    from dataclasses import replace as dc_replace

    # segment by the composite key inside the kernel: each (conv, bucket)
    # is its own run, so buckets of one conv sharing a partition stay
    # independent (their context rows provide the cross-bucket lookback)
    kspec = dc_replace(spec, key_col="__salt_key")

    def kernel(t: pa.Table) -> pa.Table:
        # precondition: turn_idx must be dense (0..n-1) per conversation —
        # context selection is idx-arithmetic (idx % b).  Verify per salt
        # segment: own rows of a bucket must form a contiguous idx range.
        if t.num_rows:
            idx = t[order_col].to_numpy(zero_copy_only=False).astype(np.int64)
            ctx = t[CTX_COL].to_numpy(zero_copy_only=False)
            import pyarrow.compute as pc_

            codes = pc_.dictionary_encode(
                t["__salt_key"].combine_chunks()).indices.to_numpy(zero_copy_only=False)
            # precondition 2: the kernel sees rows sorted by (ts, turn_idx),
            # but salt buckets were assigned by turn_idx arithmetic — if ts
            # order disagrees with turn_idx order inside a conversation,
            # context rows are not the true lookback/lookahead rows and the
            # salted output would silently diverge from the unsalted path.
            # turn_idx must therefore be strictly increasing within each
            # sorted salt segment.
            if len(idx) > 1:
                same = codes[1:] == codes[:-1]
                if (np.diff(idx)[same] <= 0).any():
                    raise ValueError(
                        "salted windows require ts order to agree with "
                        f"{order_col} order within each conversation; found "
                        "a (ts, turn_idx)-sorted segment whose turn_idx is "
                        "not strictly increasing — fix timestamps or use "
                        "the unsalted path")
            own = ctx == 0
            if own.any():
                import pandas as pd

                g = pd.DataFrame({"c": codes[own], "i": idx[own]}).groupby("c")["i"]
                span = (g.max() - g.min() + 1).to_numpy()
                cnt = g.size().to_numpy()
                if (span != cnt).any():
                    raise ValueError(
                        "salted windows require dense per-conversation "
                        f"{order_col} (0..n-1); found gaps — filter/reindex "
                        "before salting or use the unsalted path")
        out = window_kernel(t, kspec)
        keep = pc.equal(out[CTX_COL], pa.scalar(0, pa.int8()))
        return out.filter(keep).drop_columns([CTX_COL])

    # composite partition key: conv x salt bucket
    def add_key(batch: pa.Table) -> pa.Table:
        conv = batch[spec.key_col].cast(pa.string())
        salt = batch[SALT_COL].cast(pa.string())
        key = pc.binary_join_element_wise(conv, salt, "#")
        return batch.append_column("__salt_key", key).drop_columns([SALT_COL])

    keyed = exploded.map_batches(add_key, batch_format="pyarrow", zero_copy_batch=True)
    out = partitioned_map(
        keyed, kernel, key="__salt_key",
        sort_keys=["__salt_key", spec.ts_col, order_col],
        num_partitions=num_partitions,
    )

    def cleanup(batch: pa.Table) -> pa.Table:
        drop = [c for c in ("__salt_key", CTX_COL) if c in batch.column_names]
        return batch.drop_columns(drop) if drop else batch

    return out.map_batches(cleanup, batch_format="pyarrow", zero_copy_batch=True)
