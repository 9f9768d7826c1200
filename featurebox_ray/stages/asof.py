"""Point-in-time-correct as-of join (backfill) — SURVEY.md §2.4 / §7.3 step 5.

For every left row (turn) pick the latest right row (feature update) of the
same ``key`` with ``right.ts <= left.ts`` (or ``< ts`` when ``strict``, the
leakage-control flag).  Generalizes the reference's broadcast element-property
lookup (featurebox/featurizers/compositionfeaturizer.py:79) along the time
axis.

Physical plan (no driver-side work, one shuffle):

1. one key-hash exchange of both sides in the per-input form
   (``partition.task_exchange``): each partition's gather hands the
   kernel the left rows sorted by ``(key, ts, order_col)`` and the right
   rows sorted by ``(key, ts, right value cols)``, as two tables — the
   right side needs no map in front of the exchange unless its key type
   differs from the left's;
2. :func:`_asof_match` merges the two timelines with one ``np.lexsort``
   over numeric arrays only — (key code, ts is NULL, ts, side tag,
   position in its side): a right row at equal ``(key, ts)`` sorts before
   the left row for ``<=`` semantics, after it for strict ``<``.  A
   segmented running maximum over right-row positions
   (``last_occurrence_index``) then gives, for each left row, the most
   recent visible right row;
3. Arrow ``take`` with null indices materializes the backfilled columns
   (null where no update precedes the turn — the null-backfill path for
   keys absent from the right side).  Payload columns are never
   concatenated or sorted together.

Ties at identical ``(key, ts)`` on the right side resolve to the row with the
largest value tuple (deterministic; the oracle SQL replicates this with a
ROW_NUMBER dedup).

The monotonic-ts watermark invariant of the north rule holds by construction:
within a partition the cursor (running max) never moves backward, and a
partition holds every row of its keys, so no update outside the partition can
be visible.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions import segments as seg
from .join import keyed_right
from .partition import partitioned_map


def _ts_values(arr: pa.Array):
    """``(values, is_null)`` of a ts column as numpy: floats as float64,
    everything else (ints, timestamps) as int64, NULL read as 0."""
    is_null = np.asarray(arr.is_null())
    if not pa.types.is_floating(arr.type):
        arr = arr.cast(pa.int64())
    return pc.fill_null(arr, 0).to_numpy(zero_copy_only=False), is_null


def _asof_match(left: pa.Table, right: pa.Table, *, key: str, ts_col: str,
                direction: str = "backward",
                strict: bool = False) -> np.ndarray:
    """The right row each left row as-of matches (int64; -1 = none), for
    the two tables of a per-input gather (module docstring, step 2); the
    right key and ts are read in the left's types.  The left tag is 1; a
    right row at equal ``(key, ts)`` takes 0 (before the left row) where
    it may match and 2 where it may not, so backward matches ``<=``
    (``<`` when strict) and takes the last tied right row by value
    tuple, forward ``>=`` (``>``) and the first.  Nearest takes the
    smaller gap, the backward row on equal gaps; a gap to or from a NULL
    ts is undefined: when only one candidate's gap is defined nearest
    takes that one, and when neither is, the forward row.  A NULL key
    never matches; a NULL ts sorts after every non-NULL ts of its key,
    as Arrow's sort puts it."""
    nl, nr = left.num_rows, right.num_rows
    if nl == 0 or nr == 0:
        return np.full(nl, -1, np.int64)
    lk = left[key].combine_chunks()
    if pa.types.is_dictionary(lk.type):
        lk = lk.cast(lk.type.value_type)
    keys = pa.concat_arrays([lk, right[key].combine_chunks().cast(lk.type)])
    code = pc.fill_null(pc.dictionary_encode(keys).indices, -1).to_numpy()
    lts = left[ts_col].combine_chunks()
    ts, ts_null = _ts_values(pa.concat_arrays(
        [lts, right[ts_col].combine_chunks().cast(lts.type)]))
    # 0: right rows tied on (key, ts) sort before the left row; 2: after
    right_tag = 2 if strict == (direction != "forward") else 0
    tag = np.concatenate([np.ones(nl, np.int8),
                          np.full(nr, right_tag, np.int8)])
    pos = np.concatenate([np.arange(nl), np.arange(nr)])
    order = np.lexsort((pos, tag, ts, ts_null, code))
    is_right = order >= nl
    seg_start, _, is_start = seg.segment_ids(code[order])
    at = np.flatnonzero(~is_right)        # merged positions of left rows

    def per_left(m: np.ndarray) -> np.ndarray:
        out, m = np.empty(nl, np.int64), m[at]
        out[order[at]] = np.where(m >= 0, order[np.maximum(m, 0)] - nl, -1)
        return out

    if direction != "forward":
        match = back = per_left(seg.last_occurrence_index(is_right, seg_start))
    if direction != "backward":
        starts = np.flatnonzero(is_start)
        ends = np.append(starts[1:], len(order))
        match = fwd = per_left(seg.next_occurrence_index(
            is_right, ends[np.cumsum(is_start) - 1]))
    if direction == "nearest":
        lt, rt, ln, rn = ts[:nl], ts[nl:], ts_null[:nl], ts_null[nl:]
        b, f = np.maximum(back, 0), np.maximum(fwd, 0)
        db = (back >= 0) & ~ln & ~rn[b]         # gap defined
        df = (fwd >= 0) & ~ln & ~rn[f]
        match = np.where(db & df,
                         np.where(lt - rt[b] <= rt[f] - lt, back, fwd),
                         np.where(db, back, fwd))
    match[code[:nl] < 0] = -1
    return match


def _append_matched(left: pa.Table, right: pa.Table, src: np.ndarray,
                    right_cols: Sequence[str], right_types) -> pa.Table:
    """``left`` with ``right_cols`` of its matched right rows appended
    (``src``, -1 = none: NULL)."""
    idx = pa.array(np.maximum(src, 0), pa.int64(), mask=src < 0)
    for c in right_cols:
        left = left.append_column(
            c, right[c].take(idx) if right.num_rows
            else pa.nulls(left.num_rows, right_types[c]))
    return left


def asof_join(
    left_ds,
    right_ds,
    *,
    key: str = "conv_id",
    ts_col: str = "ts",
    right_cols: Sequence[str],
    strict: bool = False,
    num_partitions: int = 32,
    order_col: Optional[str] = None,
    direction: str = "backward",
    tolerance_s: Optional[float] = None,
):
    """As-of join two Datasets.  ``right_cols`` are the value columns pulled
    from the right side (appended to every left row, null when no match).

    ``direction="backward"`` (default) matches the latest right row with
    ``right.ts <= left.ts`` (``<`` when strict) — the point-in-time
    backfill.  ``direction="forward"`` matches the EARLIEST right row with
    ``right.ts >= left.ts`` (``>`` when strict) — the next-event lookup
    (DuckDB ``ASOF JOIN ... ON r.ts >= l.ts`` semantics).  When several
    right rows share (key, ts), backward picks the one sorting LAST by
    ``right_cols``, forward the one sorting FIRST (both deterministic).

    ``direction="nearest"`` matches the right row with the smallest
    ``|right.ts - left.ts|``; equal distances resolve to the BACKWARD
    candidate (deterministic, mirrors the point-in-time preference).
    At tied right (key, ts) the backward candidate is the row sorting
    LAST by ``right_cols`` and the forward candidate the row sorting
    FIRST — exactly the backward/forward rules composed.  ``strict``
    is meaningless for nearest and rejected.

    ``tolerance_s`` (pandas ``merge_asof(tolerance=)`` semantics): a
    match further than this many seconds from the left row is treated
    as no match (right cols null) — the staleness bound for
    point-in-time feature backfill.  For nearest the bound applies to
    the absolute gap."""
    if direction not in ("backward", "forward", "nearest"):
        raise ValueError(
            f"direction must be backward|forward|nearest, got {direction!r}")
    if direction == "nearest" and strict:
        raise ValueError("strict is not defined for direction='nearest'")
    tol_us = None
    if tolerance_s is not None:
        tol_us = int(round(tolerance_s * 1_000_000))
        if tol_us < 0:
            raise ValueError("tolerance_s must be non-negative")
    right_cols = list(right_cols)
    left_schema = left_ds.schema()
    left_types = dict(zip(left_schema.names, left_schema.types))
    right_schema = right_ds.schema()
    right_types = dict(zip(right_schema.names, right_schema.types))

    overlap = [c for c in right_cols if c in left_types]
    if overlap:
        raise ValueError(f"right_cols {overlap} collide with left columns")
    tol_native = None
    if tol_us is not None:
        # the bound must be in the ts column's NATIVE unit: scale from
        # seconds by the Arrow timestamp unit; plain numeric ts columns
        # follow the repo's int64-microseconds convention
        tt = left_types[ts_col]
        unit = tt.unit if pa.types.is_timestamp(tt) else "us"
        tol_native = int(round(
            (tol_us / 1_000_000)
            * {"s": 1, "ms": 10**3, "us": 10**6, "ns": 10**9}[unit]))
    right_ds = keyed_right(right_ds, getattr(right_schema, "base_schema",
                                             right_schema),
                           on=key, right_on=key, key_type=left_types[key],
                           cols=[ts_col] + right_cols)

    def merge(left: pa.Table, right: pa.Table) -> pa.Table:
        src = _asof_match(left, right, key=key, ts_col=ts_col,
                          direction=direction, strict=strict)
        if tol_native is not None and right.num_rows:
            lt, ln = _ts_values(left[ts_col].combine_chunks())
            rt, rn = _ts_values(right[ts_col].combine_chunks()
                                .cast(left.schema.field(ts_col).type))
            j = np.maximum(src, 0)
            ok = ((src >= 0) & ~ln & ~rn[j]
                  & (np.abs(lt - rt[j]) <= tol_native))
            src = np.where(ok, src, -1)
        return _append_matched(left, right, src, right_cols, right_types)

    # order_col last: deterministic output order for left rows tied on
    # (key, ts) — the same left keys the fused transcript pipeline uses
    left_keys = [key, ts_col] + ([order_col] if order_col is not None else [])
    return partitioned_map(
        [left_ds, right_ds],
        merge,
        key=key,
        sort_keys=[left_keys, [key, ts_col] + right_cols],
        num_partitions=num_partitions,
    )


def asof_interpolate(left, right, *, key: str, ts_col: str,
                     left_id: str, right_id: str, value_col: str,
                     out_col: str = "interp",
                     num_partitions: int = 16, left_schema=None):
    """Interpolating as-of join — for every left row, the LINEAR
    interpolation of the right series at the left timestamp (between
    the bracketing right rows of the same key), the middle ground
    between backward as-of (:func:`asof_join`, stale value) and
    nearest (q104): align a slowly-sampled metric onto event
    timestamps without staircase bias.

    Semantics: the right side first collapses to one value per
    DISTINCT (key, ts) — last-write-wins by ``right_id`` (the
    resample_linear convention that makes interpolation unambiguous
    under ts ties); an exact ts hit returns that value; a left row
    strictly inside a bracket gets ``v0 + (v1−v0)·((t−t0)/(t1−t0))``
    in that FIXED correctly-rounded IEEE order (bit-exact in SQL); a
    left row before the key's first or after its last right row — or
    with no right rows at all — emits NULL.

    ONE key-keyed exchange of both inputs, each sorted ``(key, ts,
    id)``; the kernel keeps the last right row of each ``(key, ts)`` and
    reads each left row's bracket from :func:`_asof_match` (backward,
    and strict forward).  NULL key/ts (and right NULL value) rows drop.
    Emits the left ``(key, ts_col, left_id)`` plus ``out_col``
    (float64).

    Reference analog: none (time-axis extension of the as-of family,
    north-rule step 5).
    """
    # the flagship left_schema convention: .schema() on a lazy
    # MAPPED dataset executes a full block just for column types —
    # callers with mapped inputs pass the schema explicitly
    schema = left_schema if left_schema is not None else left.schema()
    base = getattr(schema, "base_schema", schema)
    ktype = base.field(key).type
    ttype = base.field(ts_col).type
    is_ts = pa.types.is_timestamp(ttype)

    def prep_left(b: pa.Table) -> pa.Table:
        keep = pc.fill_null(pc.and_(
            pc.and_(pc.is_valid(b[key]), pc.is_valid(b[ts_col])),
            pc.is_valid(b[left_id])), False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        ts = b[ts_col].combine_chunks()
        return pa.table({
            key: b[key],
            "__ts": ts.cast(pa.int64()) if is_ts else ts,
            "__id": b[left_id].combine_chunks().cast(pa.int64())})

    def prep_right(b: pa.Table) -> pa.Table:
        keep = pc.is_valid(b[key])
        for c in (ts_col, value_col, right_id):
            keep = pc.and_(keep, pc.is_valid(b[c]))
        keep = pc.fill_null(keep, False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        ts = b[ts_col].combine_chunks()
        return pa.table({
            key: b[key],
            "__ts": ts.cast(pa.int64()) if is_ts else ts,
            "__id": b[right_id].combine_chunks().cast(pa.int64()),
            "__v": pc.cast(b[value_col].combine_chunks(),
                           pa.float64())})

    sides = [left.map_batches(prep_left, batch_format="pyarrow",
                              zero_copy_batch=True),
             right.map_batches(prep_right, batch_format="pyarrow",
                               zero_copy_batch=True)]

    empty = pa.table({key: pa.array([], ktype),
                      ts_col: pa.array([], pa.int64()),
                      left_id: pa.array([], pa.int64()),
                      out_col: pa.array([], pa.float64())})

    def kernel(lt: pa.Table, rt: pa.Table) -> pa.Table:
        if lt.num_rows == 0:
            return empty
        if rt.num_rows:
            # last-write-wins per distinct right (key, ts): rows are
            # sorted by (key, ts, id), so keep the LAST of each run
            kc = pc.dictionary_encode(rt[key].combine_chunks()).indices
            kc = kc.to_numpy(zero_copy_only=False)
            rts = rt["__ts"].to_numpy(zero_copy_only=False)
            rt = rt.filter(pa.array(np.append(
                (kc[1:] != kc[:-1]) | (rts[1:] != rts[:-1]), True)))
        m = dict(key=key, ts_col="__ts")
        back = _asof_match(lt, rt, direction="backward", **m)
        fwd = _asof_match(lt, rt, direction="forward", strict=True, **m)
        lts = lt["__ts"].to_numpy(zero_copy_only=False)
        yv = np.full(len(lts), np.nan)
        if rt.num_rows:
            rts = rt["__ts"].to_numpy(zero_copy_only=False)
            rv = pc.fill_null(rt["__v"].combine_chunks(),
                              np.nan).to_numpy(zero_copy_only=False)
            b, f = np.maximum(back, 0), np.maximum(fwd, 0)
            t0, v0, t1, v1 = rts[b], rv[b], rts[f], rv[f]
            hit = (back >= 0) & (t0 == lts)
            inside = (back >= 0) & (fwd >= 0) & ~hit
            den = np.where(t1 > t0, t1 - t0, 1)
            frac = ((lts - t0).astype(np.float64)
                    / den.astype(np.float64))
            lerp = v0 + (v1 - v0) * frac
            yv = np.where(hit, v0, np.where(inside, lerp, np.nan))
        return pa.table({
            key: lt[key],
            ts_col: lt["__ts"],
            left_id: lt["__id"],
            out_col: pa.array(yv, pa.float64(), mask=np.isnan(yv))})

    return partitioned_map(sides, kernel, key=key,
                           sort_keys=[[key, "__ts", "__id"]] * 2,
                           num_partitions=num_partitions)


def asof_leakage_audit(joined_ds, right_ds, *, key: str,
                       ts_col: str, matched_ts_col: str,
                       num_partitions: int = 16):
    """Temporal-leakage audit as an OPERATOR — the north-rule's
    zero-leakage probe promoted from test to first-class pipeline
    stage: given an as-of join's OUTPUT (each left row carrying the
    matched right timestamp) and the right table itself, recompute
    the correct backward as-of choice per row and count
    disagreements.  ``n_mismatch > 0`` means the join either looked
    into the future (leakage) or missed the latest eligible version
    (staleness) — both audit-fatal.

    Emits per key: ``(key, n_rows:int64, n_matched:int64,
    n_mismatch:int64)``.  One keyed exchange of both inputs, each
    sorted by ``(key, ts)``; the expected match is
    :func:`_asof_match`'s backward one.  NULL key/ts rows of either
    side drop; a NULL ``matched_ts_col`` is correct exactly when no
    right row is at-or-before the left ts.
    Reference analog: the operator form of the flagship's
    leakage-probe tests (north_star contract)."""
    schema = joined_ds.schema()
    base = getattr(schema, "base_schema", schema)
    key_type = base.field(key).type

    empty = pa.table({key: pa.array([], key_type),
                      "n_rows": pa.array([], pa.int64()),
                      "n_matched": pa.array([], pa.int64()),
                      "n_mismatch": pa.array([], pa.int64())})

    def untimed(a) -> pa.Array:
        a = a.combine_chunks()
        return a.cast(pa.int64()) if pa.types.is_timestamp(a.type) else a

    def valid(t: pa.Table) -> pa.Table:
        # NULL key/ts rows drop; timestamps compare as int64
        if t.num_rows == 0:
            return t
        t = t.filter(pc.fill_null(pc.and_(
            pc.is_valid(t[key]), pc.is_valid(t[ts_col])), False))
        return t.set_column(t.schema.get_field_index(ts_col), ts_col,
                            untimed(t[ts_col]))

    def kernel(joined: pa.Table, right: pa.Table) -> pa.Table:
        joined, right = valid(joined), valid(right)
        if joined.num_rows == 0:
            return empty
        src = _asof_match(joined, right, key=key, ts_col=ts_col)
        ok = src >= 0
        exp_ts = (_ts_values(right[ts_col].combine_chunks())[0][
            np.maximum(src, 0)] if right.num_rows else src)
        m_arr = untimed(joined[matched_ts_col]).cast(pa.int64())
        m_valid = np.asarray(pc.is_valid(m_arr))
        m_vals = np.asarray(pc.fill_null(m_arr, 0))
        mismatch = (m_valid != ok) | (ok & (m_vals != exp_ts))
        # reduce per key over joined rows
        firsts = seg.run_starts(pc.dictionary_encode(
            joined[key].combine_chunks()).indices.to_numpy(
                zero_copy_only=False))
        return pa.table({
            key: joined[key].combine_chunks().take(
                pa.array(firsts, pa.int64())),
            "n_rows": pa.array(np.diff(np.append(firsts, len(ok)))),
            "n_matched": pa.array(np.add.reduceat(
                m_valid.astype(np.int64), firsts)),
            "n_mismatch": pa.array(np.add.reduceat(
                mismatch.astype(np.int64), firsts))})

    return partitioned_map(
        [joined_ds.select_columns(list(dict.fromkeys(
            [key, ts_col, matched_ts_col]))),
         right_ds.select_columns([key, ts_col])],
        kernel, key=key, sort_keys=[[key, ts_col]] * 2,
        num_partitions=num_partitions)
