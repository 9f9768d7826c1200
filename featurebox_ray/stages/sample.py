"""Deterministic hash sampling — a streaming, shuffle-free sample that is
stable across runs, partitionings and cluster sizes.

``keep row ⇔ ((key mod 2^32) * 2654435761) mod 2^32 < threshold`` — the
Knuth multiplicative hash over the low 32 bits of an integer key.  Because
the decision is a pure function of the key, the sample is (a) reproducible
(re-runs and resumed checkpoints pick the same rows), (b) consistent
across tables (sampling two fact tables by the same key yields joinable
samples), and (c) exact-arithmetic replayable in SQL
(``((key % 4294967296) * 2654435761) % 4294967296`` in HUGEINT).  All ops
stay under 2^64 after the ``% 2^32`` mask, so numpy uint64 and SQL HUGEINT
agree exactly.

Defined for NON-NEGATIVE integer keys (SQL ``%`` and numpy ``%`` diverge
on negatives); null keys are dropped.

Reference analog: none (the reference's shuffle-split is random-state
based, ``featurebox/data/array_extract.py``); this is the at-scale
debug/estimation sampler a 100-TB pipeline needs — a 1% flat sample
costs one vectorized filter per block, no pass over the data beyond the
stream itself.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .partition import (materialized_block_refs, partitioned_map,
                        partitioned_refs, sum_partials)

KNUTH_MULT = 2654435761       # 2^32 / golden ratio, odd
MOD_BITS = 32
MOD = 1 << MOD_BITS


def sample_threshold(fraction: float) -> int:
    """Integer threshold for a given sampling fraction (use the SAME
    constant in the SQL replay: ``< sample_threshold(f)``)."""
    return int(round(fraction * MOD))


def knuth_hash(k: np.ndarray, *, op: str = "knuth_hash") -> np.ndarray:
    """The engine's ONE key-hash definition (``((k % 2^32) * 2654435761)
    % 2^32``) — every sampler/capper below routes through here so the
    "consistent across tables sharing the key" invariant cannot drift
    between operators.  Non-negative integer keys only."""
    if k.size and int(k.min()) < 0:
        raise ValueError(f"{op} requires non-negative integer keys")
    return ((k.astype(np.int64).view(np.uint64) % np.uint64(MOD))
            * np.uint64(KNUTH_MULT)) % np.uint64(MOD)


def add_hash_bucket_col(ds, *, id_col: str, modulus: int,
                        out_col: str = "__bucket",
                        op: str = "add_hash_bucket_col"):
    """Append ``out_col = knuth_hash(id_col) % modulus`` (int64; NULL
    ids keep a NULL bucket) — the ONE bucketing map shared by every
    hash-split consumer (learning_curve, conformal_intervals, ...), so
    split semantics cannot drift between operators."""
    def f(b: pa.Table) -> pa.Table:
        col = b[id_col].combine_chunks()
        ids = pc.fill_null(col, 0).to_numpy(zero_copy_only=False)
        bk = (knuth_hash(ids.astype(np.int64), op=op)
              % modulus).astype(np.int64)
        return b.append_column(
            out_col, pa.array(bk, pa.int64(),
                              mask=np.asarray(pc.is_null(col))))

    return ds.map_batches(f, batch_format="pyarrow",
                          zero_copy_batch=True)


def hash_sample(ds, *, key_col: str, threshold: int):
    """Keep rows whose multiplicative key hash lands under ``threshold``
    (≈ ``threshold / 2**32`` of all distinct keys — all rows of one key
    are kept or dropped together)."""

    def filt(batch: pa.Table) -> pa.Table:
        col = batch[key_col]
        if col.null_count:
            batch = batch.filter(pc.is_valid(col))
            col = batch[key_col]
        k = col.to_numpy(zero_copy_only=False).astype(np.int64)
        h = knuth_hash(k, op=f"hash_sample({key_col})")
        return batch.filter(pa.array(h < np.uint64(threshold)))

    return ds.map_batches(filt, batch_format="pyarrow", zero_copy_batch=True)


def cap_per_group(ds, *, group_col: str, id_col: str, m: int):
    """Deterministic per-group row cap — keep the ``m`` rows of each group
    with the smallest ``(knuth_hash(id), id)``, i.e. a stable uniform
    downsample per group (the dataset-balancing primitive: cap documents
    per source/domain before training).

    Two-pass, shuffle-free on the data: (1) a streaming partial top-m per
    group per block, combined through ONE tiny keyed exchange (the
    exchange moves ``groups × m`` (group, hash, id) rows, never data);
    (2) the winning id set broadcasts (``ray.put`` once) and the fact
    stream filters with ``pc.is_in``.  Deterministic across runs,
    partitionings and cluster sizes (pure function of ids), and
    SQL-replayable: ``QUALIFY row_number() OVER (PARTITION BY g ORDER BY
    ((id % 4294967296) * 2654435761) % 4294967296, id) <= m``, whose
    ``PARTITION BY`` makes the NULL group one group, as here.

    Requires non-negative integer ids (same domain note as
    :func:`hash_sample`).  At extreme group cardinality the winner set is
    ``groups × m`` ids — swap the broadcast for the semi-join fetch shape
    if that outgrows worker memory.
    """
    def key_hash(k: np.ndarray) -> np.ndarray:
        return knuth_hash(k, op="cap_per_group")

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({group_col: batch[group_col],
                             "h": pa.array([], pa.int64()),
                             id_col: pa.array([], pa.int64())})
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        h = key_hash(ids).astype(np.int64)
        gd = pc.dictionary_encode(batch[group_col].combine_chunks(),
                                  null_encoding="encode")  # NULL: a group
        codes = gd.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((ids, h, codes))
        c_s = codes[order]
        starts = np.flatnonzero(np.concatenate([[True], c_s[1:] != c_s[:-1]]))
        run_id = np.cumsum(np.concatenate(
            [[0], (c_s[1:] != c_s[:-1]).astype(np.int64)]))
        rank = np.arange(len(c_s)) - starts[run_id]
        sel = order[rank < m]
        return pa.table({
            group_col: gd.dictionary.take(pa.array(codes[sel], pa.int64())),
            "h": pa.array(h[sel], pa.int64()),
            id_col: pa.array(ids[sel], pa.int64()),
        })

    def combine(t: pa.Table) -> pa.Table:
        return partial(t)

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)
    winners = partitioned_refs(partials, combine, key=group_col,
                               sort_keys=[group_col, "h", id_col],
                               num_partitions=8)

    blocks = [b for b in ray.get(winners) if b.num_rows > 0]
    if not blocks:
        return ds.map_batches(lambda b: b.slice(0, 0),
                              batch_format="pyarrow", zero_copy_batch=True)
    win_ids = pa.concat_tables(
        [b.select([id_col]) for b in blocks],
        promote_options="default")[id_col].combine_chunks()
    ids_ref = ray.put(win_ids)

    def keep(batch: pa.Table) -> pa.Table:
        ws = ray.get(ids_ref)
        return batch.filter(pc.is_in(batch[id_col], value_set=ws))

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


def stratified_hash_sample(ds, *, key_col: str, group_col: str,
                           fractions: dict, default_fraction: float = 0.0):
    """Deterministic PER-GROUP hash sample — the corpus-rebalancing
    primitive (keep 100% of low-resource languages, 10% of English)
    expressed as one shuffle-free streaming filter.

    Each row's threshold comes from its ``group_col`` value
    (``fractions[group]``, else ``default_fraction``; NULL groups use the
    default); the keep decision is the same Knuth multiplicative hash as
    :func:`hash_sample`, so the sample stays reproducible, consistent
    across tables sharing the key, and SQL-replayable with a ``CASE``
    over the same integer thresholds.  All rows of one key within one
    group are kept or dropped together; non-negative integer keys only.
    """
    thresholds = {g: sample_threshold(f) for g, f in fractions.items()}
    default_thr = sample_threshold(default_fraction)

    def filt(batch: pa.Table) -> pa.Table:
        col = batch[key_col]
        if col.null_count:
            batch = batch.filter(pc.is_valid(col))
            col = batch[key_col]
        if batch.num_rows == 0:
            return batch
        k = col.to_numpy(zero_copy_only=False).astype(np.int64)
        h = knuth_hash(k, op=f"stratified_hash_sample({key_col})")
        gd = pc.dictionary_encode(batch[group_col].combine_chunks())
        per_code = np.array(
            [thresholds.get(v, default_thr)
             for v in gd.dictionary.to_pylist()], np.uint64)
        codes = gd.indices
        if codes.null_count:
            per_code = np.append(per_code, np.uint64(default_thr))
            codes = pc.fill_null(codes, len(per_code) - 1)
        thr = per_code[codes.to_numpy(zero_copy_only=False).astype(np.int64)]
        return batch.filter(pa.array(h < thr))

    return ds.map_batches(filt, batch_format="pyarrow",
                          zero_copy_batch=True)


def weighted_sample_k(ds, *, key_col: str, weight_col: str, k: int):
    """Deterministic weighted sample WITHOUT replacement of ``k`` rows —
    Efraimidis–Spirakis A-ES: each row draws ``u = (knuth_hash(id)+0.5)
    / 2^32`` (a hash-derived uniform, so the draw is a pure function of
    the id: reproducible across runs, partitionings and cluster sizes)
    and the sample is the top-k by ``u^(1/w)``.  Rows with larger
    weight w win proportionally more often — the quality-weighted
    corpus downsampler.

    Distributed as the per-block top-k of ``rank.top_k`` on ``(score
    desc, id asc)``: only ``blocks × k`` rows reach the driver, never
    data.  Weights must be finite and > 0; null keys/weights are
    excluded.

    The selection score uses ``pow`` — libm ulps differ across engines,
    so this op takes a serial numpy REPLAY oracle (same arithmetic),
    not a SQL one.  Returns the selected rows with a ``ws_score``
    float64 column attached.
    """
    from .rank import range_top

    if k < 1:
        raise ValueError("k must be >= 1")

    def score_batch(batch: pa.Table) -> pa.Table:
        cols = [batch[key_col], batch[weight_col]]
        valid = np.ones(batch.num_rows, bool)
        for c in cols:
            if c.null_count:
                valid &= pc.is_valid(c).to_numpy(zero_copy_only=False)
        if not valid.all():
            batch = batch.filter(pa.array(valid))
        ids = batch[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        w = batch[weight_col].to_numpy(zero_copy_only=False).astype(
            np.float64)
        if w.size and (not np.isfinite(w).all() or (w <= 0).any()):
            raise ValueError("weighted_sample_k requires finite positive "
                             "weights")
        u = (knuth_hash(ids, op="weighted_sample_k").astype(np.float64)
             + 0.5) / float(MOD)
        score = u ** (1.0 / w)
        return batch.append_column("ws_score", pa.array(score))

    scored = ds.map_batches(score_batch, batch_format="pyarrow",
                            zero_copy_batch=True, batch_size=None)
    return range_top(scored, ["ws_score", key_col], [True, False], k)


def temperature_thresholds(counts: dict, alpha: float) -> dict:
    """Per-group keep thresholds for :func:`temperature_rebalance`.

    ``p_g = min(1, (n_min / n_g) ** alpha)`` — the multilingual-training
    mixing rule (sampling share ∝ size^alpha): alpha=1 equalizes groups
    in expectation, alpha=0.5 square-root smooths (the common default),
    alpha→0 keeps the natural mix.  The integer threshold is
    ``floor(p_g * 2^32)``.

    SQL-exactness contract: for alpha in {1, 0.5, 0.25} the power is
    computed as a chain of IEEE ``sqrt`` (correctly rounded, so DuckDB's
    ``sqrt`` reproduces it bit-for-bit; alpha=0.25 is DEFINED as
    ``sqrt(sqrt(r))`` on both sides); any other alpha uses libm ``pow``
    and is replay-oracle territory, not SQL.  The ratio itself is one
    int64→double conversion per side + one division — exact-rounded in
    both engines.
    """
    if not counts:
        return {}
    if min(counts.values()) <= 0:
        raise ValueError("group counts must be positive")
    n_min = min(counts.values())
    out = {}
    for g, n in counts.items():
        r = np.float64(n_min) / np.float64(n)
        if alpha == 1.0:
            p = r
        elif alpha == 0.5:
            p = np.sqrt(r)
        elif alpha == 0.25:
            p = np.sqrt(np.sqrt(r))
        else:
            p = r ** np.float64(alpha)
        out[g] = int(np.floor(min(np.float64(1.0), p) * MOD))
    return out


def temperature_rebalance(ds, *, group_col: str, key_col: str,
                          alpha: float = 0.5):
    """Temperature-scaled corpus rebalancing — the standard LLM
    data-mixing downsample (keep probability ``min(1, (n_min/n_g)^α)``
    per group, so over-represented sources shrink toward the smallest
    one as α→1 while α→0 keeps the natural mix).

    Two passes, both streaming: one column-pruned count aggregate over
    ``group_col`` (tiny — group cardinality rows reach the driver),
    then ONE shuffle-free hash filter (:func:`knuth_hash` of
    ``key_col`` against the group's broadcast threshold).  Deterministic
    across runs, partitionings and cluster sizes; all rows of one key
    within a group keep or drop together.  At 100 TB the count pass is
    a combiner aggregate (bytes moved = groups × blocks) and the filter
    is free.  Null group or key rows are dropped (documented; the SQL
    replay's JOIN does the same).

    Reference analog: none — this is the Section-3.5-of-XLM-R style
    sampling rule (share ∝ p^α) every multi-source training pipeline
    needs; see :func:`temperature_thresholds` for the SQL-exactness
    contract.
    """
    # count EXACTLY the rows the filter can keep (non-null group AND
    # key) — counting null-key rows would shift every threshold away
    # from the SQL replay; per-block value_counts partials are also
    # null-safe where Ray's groupby is not
    def count_partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(batch[group_col]),
                       pc.is_valid(batch[key_col]))
        if not pc.all(keep).as_py():
            batch = batch.filter(keep)
        gtype = batch.schema.field(group_col).type
        vc = batch[group_col].combine_chunks().value_counts()
        if len(vc) == 0:
            return pa.table({"g": pa.array([], gtype),
                             "cnt": pa.array([], pa.int64())})
        return pa.table({"g": vc.field("values"),
                         "cnt": vc.field("counts")})

    cds = ds.map_batches(count_partial, batch_format="pyarrow",
                         zero_copy_batch=True)
    comb = sum_partials(ray.get(materialized_block_refs(cds)),
                        keys=["g"], vals=["cnt"])
    counts = {} if comb is None else dict(zip(
        comb["g"].to_pylist(),
        (int(c) for c in comb["cnt"].to_pylist())))
    thresholds = temperature_thresholds(counts, alpha)

    def filt(batch: pa.Table) -> pa.Table:
        for c in (key_col, group_col):
            col = batch[c]
            if col.null_count:
                batch = batch.filter(pc.is_valid(col))
        if batch.num_rows == 0:
            return batch
        k = batch[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        h = knuth_hash(k, op=f"temperature_rebalance({key_col})")
        gd = pc.dictionary_encode(batch[group_col].combine_chunks())
        per_code = np.array([thresholds.get(v, 0)
                             for v in gd.dictionary.to_pylist()], np.uint64)
        thr = per_code[gd.indices.to_numpy(zero_copy_only=False)
                       .astype(np.int64)]
        return batch.filter(pa.array(h < thr))

    return ds.map_batches(filt, batch_format="pyarrow",
                          zero_copy_batch=True)


def add_split_column(ds, *, key_col: str, splits, out_col: str = "split"):
    """Leakage-safe multi-way split: every row gets a split label decided
    by its KEY's multiplicative hash, so all rows sharing a key (user,
    conversation, dup-component) land in the same split — the
    train/val/test contract for sequence data.

    ``splits``: ordered ``[(name, fraction), ...]``; the LAST entry's
    fraction may be ``None`` = remainder.  Fractions become cumulative
    integer thresholds via :func:`sample_threshold` — replay the exact
    ints in SQL (``CASE WHEN h < t1 THEN ... WHEN h < t2 ...``).
    Null keys get a null label."""
    names = [n for n, _ in splits]
    fracs = [f for _, f in splits]
    if any(f is None for f in fracs[:-1]):
        raise ValueError("only the LAST split fraction may be None "
                         "(= remainder)")
    if fracs[-1] is None:
        fracs[-1] = 1.0 - sum(fracs[:-1])
    cum, bounds = 0.0, []
    for f in fracs:
        if f < 0:
            raise ValueError("split fractions must be non-negative")
        cum += f
        bounds.append(sample_threshold(cum))
    if bounds[-1] != MOD:
        raise ValueError(f"split fractions sum to {cum} != 1")
    bounds_arr = np.asarray(bounds, np.uint64)
    labels = np.asarray(names, object)

    def tag(batch: pa.Table) -> pa.Table:
        col = batch[key_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        nulls = (np.asarray(pc.is_null(col)) if col.null_count
                 else np.zeros(len(col), bool))
        # fill_null BEFORE to_numpy: a null in the batch would otherwise
        # route the whole column through float64 and corrupt ids > 2^53
        # (the _hash_chunk lesson) — and make the SAME key hash
        # differently depending on its batch's null content
        k = (col.fill_null(0) if col.null_count else col).to_numpy(
            zero_copy_only=False).astype(np.int64)
        h = knuth_hash(k, op=f"add_split_column({key_col})")
        # first bucket whose cumulative bound exceeds the hash
        idx = np.searchsorted(bounds_arr, h, side="right")
        lab = labels[np.minimum(idx, len(labels) - 1)]
        arr = pa.array(np.where(nulls, None, lab), pa.string())
        return batch.append_column(out_col, arr)

    return ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)


def throttle_min_interval(ds, *, key_col: str, ts_col: str,
                          min_gap: int, id_col: str,
                          num_partitions: int = 16):
    """Chained min-interval throttle (true debounce): per key, keep the
    first event, then the next event at least ``min_gap`` after the
    LAST KEPT one, and so on — the standard log/telemetry downsampler.

    This is inherently sequential state (each keep depends on the
    previous keep), which no SQL window expresses (a lag-based filter
    measures the gap to the previous RAW row, not the previous kept
    one) — so the oracle is a serial replay fixture, and the engine
    kernel walks the greedy chain with one scalar ``searchsorted`` jump
    per KEPT row: cost is O(kept · log n) per segment, output-sized,
    never a per-input-row Python loop (for dense logs kept ≪ rows).

    One key-keyed exchange (rows sorted by (key, ts, id) — the id
    tie-break makes the chain deterministic under ts ties).  NULL ts
    rows drop; ``min_gap`` is in the ts column's native unit for plain
    ints, seconds for timestamps (asof convention).  Returns the kept
    rows' ``(key_col, id_col, ts_col)``.
    """
    if int(min_gap) <= 0:
        raise ValueError("min_gap must be positive (a zero gap keeps "
                         "every row and stalls the greedy jump)")
    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    tt = base.field(ts_col).type
    unit = tt.unit if pa.types.is_timestamp(tt) else None
    gap_native = (int(min_gap) * {"s": 1, "ms": 10**3, "us": 10**6,
                                  "ns": 10**9}[unit]
                  if unit else int(min_gap))

    def prep(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b[ts_col]))
        ts = b[ts_col].combine_chunks()
        ts_i = ts.cast(pa.int64()) if unit else ts
        return pa.table({key_col: b[key_col], "__ts": ts_i,
                         id_col: b[id_col]})

    # typed empty from the input schema: empty partitions (including
    # Ray's zero-column empty bundles) must emit the same block schema
    empty = pa.table({key_col: pa.array([], base.field(key_col).type),
                      id_col: pa.array([], base.field(id_col).type),
                      ts_col: pa.array([], tt)})

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        keys = t[key_col].combine_chunks()
        ts = t["__ts"].to_numpy(zero_copy_only=False)
        enc = pc.dictionary_encode(keys)
        codes = (pc.fill_null(enc.indices, -1)
                 .to_numpy(zero_copy_only=False).astype(np.int64))
        seg_start = np.flatnonzero(
            np.concatenate([[True], codes[1:] != codes[:-1]]))
        seg_end = np.concatenate([seg_start[1:], [len(codes)]])
        kept: list = []
        for s0, s1 in zip(seg_start.tolist(), seg_end.tolist()):
            cur = s0
            while cur < s1:
                kept.append(cur)
                # first index with ts >= ts[cur] + gap (the greedy jump)
                cur = s0 + int(np.searchsorted(
                    ts[s0:s1], ts[cur] + gap_native, side="left"))
        idx = pa.array(np.asarray(kept, np.int64))
        out_ts = pa.array(ts[np.asarray(kept, np.int64)], pa.int64())
        return pa.table({
            key_col: keys.take(idx),
            id_col: t[id_col].combine_chunks().take(idx),
            ts_col: out_ts.cast(tt) if unit else out_ts,
        })

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, kernel, key=key_col,
                           sort_keys=[key_col, "__ts", id_col],
                           num_partitions=num_partitions)


def stratified_folds(ds, *, group_col: str, key_col: str, n_folds: int,
                     out_col: str = "fold", num_partitions: int = 16):
    """EXACT stratified K-fold assignment — within every group, fold
    sizes differ by at most one row (vs :func:`add_split_column`'s
    independent-hash split, whose per-group proportions carry binomial
    noise).  The assignment is still a pure function of the data:
    rows rank within their group by ``(knuth_hash(key), key)`` (a
    deterministic pseudo-random order) and ``fold = rank % K``.

    ONE group-keyed exchange; the kernel is a run-relative arange.
    Use for evaluation protocols that need exact per-stratum balance
    (per-language eval splits, per-source CV).  Note the trade vs the
    hash split: adding/removing ANY row of a group can renumber that
    group's folds (ranks shift), while the hash split is per-row
    stable — pick by whether balance or incremental stability matters.
    NULL groups form a group; NULL keys drop.

    SQL replay: ``(row_number() OVER (PARTITION BY g ORDER BY
    knuth_hash_expr, key) - 1) % K``.
    """
    if n_folds < 2:
        raise ValueError("n_folds must be >= 2")
    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    gtype = base.field(group_col).type
    ktype = base.field(key_col).type

    def prep(batch: pa.Table) -> pa.Table:
        col = batch[key_col]
        if col.null_count:
            batch = batch.filter(pc.is_valid(col))
        k = batch[key_col].to_numpy(zero_copy_only=False).astype(
            np.int64)
        h = knuth_hash(k, op=f"stratified_folds({key_col})")
        return pa.table({group_col: batch[group_col],
                         "__h": pa.array(h.astype(np.int64)),
                         key_col: batch[key_col]})

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or group_col not in t.column_names:
            return pa.table({group_col: pa.array([], gtype),
                             key_col: pa.array([], ktype),
                             out_col: pa.array([], pa.int64())})
        g = t[group_col].combine_chunks()
        enc = pc.dictionary_encode(g)
        codes = (pc.fill_null(enc.indices, len(enc.dictionary))
                 .to_numpy(zero_copy_only=False).astype(np.int64))
        starts = np.flatnonzero(np.concatenate(
            [[True], codes[1:] != codes[:-1]]))
        run_id = np.cumsum(np.concatenate(
            [[0], (codes[1:] != codes[:-1]).astype(np.int64)]))
        rank = np.arange(len(codes)) - starts[run_id]
        return pa.table({group_col: g,
                         key_col: t[key_col],
                         out_col: pa.array(rank % n_folds)})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, kernel, key=group_col,
                           sort_keys=[group_col, "__h", key_col],
                           num_partitions=num_partitions)


def weighted_interleave(ds, *, source_col: str, id_col: str,
                        weight_col: str, limit: int,
                        num_partitions: int = 32):
    """Deterministic weighted interleave — the training-ORDER analog
    of temperature_rebalance: emit the first ``limit`` rows of the
    schedule that cycles sources proportionally to their integer
    weights (weight 3 appears 3x as often as weight 1), with a fully
    reproducible total order.

    Each row's schedule position is ``pos = rn / w`` where ``rn`` is
    the row's 1-based rank within its source (ordered by ``id_col``)
    and ``w`` its source weight — the classic stride-scheduling /
    weighted-fair-queueing virtual finish time.  ``pos`` is ONE IEEE
    division of exact small integers, so DuckDB replays it
    bit-for-bit; cross-source ties break on ``(source, id)``.

    Stages: one source-keyed exchange for the per-source ranks (rank
    runs are segment arithmetic, no Python loop), then the
    global_row_number range sort over ``(pos, source, id)`` — read in
    range order — and a final ``ord <= limit`` mask.
    Blocks past the horizon are filtered, never collected.

    Rows with NULL source/id drop (mirror in SQL); weights must be
    integers >= 1 (validated).  Output: ``(source, id, rn, pos,
    ord)``.  Reference analog: none — the corpus-mixing scheduler the
    q150/q168 cleaning pipelines feed into.
    """
    from .rank import global_row_number

    def prep(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(b[source_col]),
                       pc.is_valid(b[id_col]))
        keep = pc.fill_null(keep, False)
        t = pa.table({source_col: b[source_col], id_col: b[id_col],
                      "__w": b[weight_col].cast(pa.int64())})
        if not pc.all(keep).as_py():
            t = t.filter(keep)
        return t

    def rank_kernel(t: pa.Table) -> pa.Table:
        n = t.num_rows
        empty = pa.table({
            source_col: pa.array([], t.schema.field(source_col).type),
            id_col: pa.array([], t.schema.field(id_col).type),
            "rn": pa.array([], pa.int64()),
            "pos": pa.array([], pa.float64())})
        if n == 0:
            return empty
        w = t["__w"].to_numpy(zero_copy_only=False)
        if (w < 1).any():
            raise ValueError(
                "weighted_interleave: weights must be >= 1")
        codes = pc.dictionary_encode(
            t[source_col].combine_chunks()).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        new = np.concatenate([[True], codes[1:] != codes[:-1]])
        gstart = np.flatnonzero(new)[np.cumsum(new) - 1]
        rn = np.arange(n, dtype=np.int64) - gstart + 1
        pos = rn.astype(np.float64) / w.astype(np.float64)
        return pa.table({source_col: t[source_col],
                         id_col: t[id_col],
                         "rn": pa.array(rn),
                         "pos": pa.array(pos)})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True, batch_size=None)
    ranked = partitioned_map(prepped, rank_kernel, key=source_col,
                             sort_keys=[source_col, id_col],
                             num_partitions=num_partitions)
    ordered = global_row_number(
        ranked, order_cols=["pos", source_col, id_col],
        rank_col="ord")

    def head(b: pa.Table) -> pa.Table:
        m = pc.less_equal(b["ord"], limit)
        return b.filter(m) if not pc.all(m).as_py() else b

    return ordered.map_batches(head, batch_format="pyarrow",
                               zero_copy_batch=True)


def quota_allocate(ds, *, group_col: str, total: int,
                   min_per_group: int = 0):
    """Largest-remainder (Hamilton) quota allocation — split a
    sampling/labeling budget of ``total`` slots across groups
    proportionally to their row counts, exactly: each group gets
    ``floor(cnt·total/N)`` plus one extra for the ``total − Σfloor``
    largest remainders (ties by group value ascending).  The quota
    designer that feeds stratified samplers; never over- or
    under-allocates and has no float in the decision path.

    Exactness: counts are exact int64; base shares and remainders are
    integer ``//`` and ``%`` of Python ints; the top-up rank is a
    deterministic sort on ``(remainder desc, group asc)`` — DuckDB
    replays it with a window ``row_number``.  ``min_per_group`` lifts
    every group to a floor AFTER the Hamilton pass (documented:
    the lift can overshoot ``total``; mirror in SQL if used).

    Per-block count partials + driver combine (groups few).  NULL
    group rows drop.  Output: ``(group, n_rows, base, extra,
    quota)``.
    """
    def partial(b: pa.Table) -> pa.Table:
        gtype = b.schema.field(group_col).type
        keep = pc.fill_null(pc.is_valid(b[group_col]), False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        if b.num_rows == 0:
            return pa.table({group_col: pa.array([], gtype),
                             "n": pa.array([], pa.int64())})
        gd = pc.dictionary_encode(b[group_col].combine_chunks())
        codes = gd.indices.to_numpy(zero_copy_only=False)
        cnt = np.bincount(codes, minlength=len(gd.dictionary))
        return pa.table({group_col: gd.dictionary,
                         "n": pa.array(cnt.astype(np.int64))})

    pds = ds.map_batches(partial, batch_format="pyarrow",
                         zero_copy_batch=True, batch_size=None)
    comb = sum_partials(ray.get(materialized_block_refs(pds)),
                        keys=[group_col], vals=["n"])
    agg = {} if comb is None else dict(zip(
        comb[group_col].to_pylist(),
        (int(n) for n in comb["n"].to_pylist())))
    schema = ds.schema()
    base_s = getattr(schema, "base_schema", schema)
    gtype = base_s.field(group_col).type
    groups = sorted(agg)
    N = sum(agg.values())
    base = {g: agg[g] * total // N for g in groups} if N else {}
    leftover = total - sum(base.values())
    rem_rank = sorted(groups,
                      key=lambda g: (-(agg[g] * total % N), g)) \
        if N else []
    extra = {g: 0 for g in groups}
    for g in rem_rank[:leftover]:
        extra[g] = 1
    quota = {g: max(base[g] + extra[g], min_per_group)
             for g in groups}
    return pa.table({
        group_col: pa.array(groups, gtype),
        "n_rows": pa.array([agg[g] for g in groups], pa.int64()),
        "base": pa.array([base[g] for g in groups], pa.int64()),
        "extra": pa.array([extra[g] for g in groups], pa.int64()),
        "quota": pa.array([quota[g] for g in groups], pa.int64())})


def quota_sample(ds, *, group_col: str, key_col: str, total: int,
                 num_partitions: int = 32):
    """Stratified FIXED-SIZE sample — exactly ``total`` rows,
    allocated across groups by :func:`quota_allocate` (Hamilton
    largest-remainder) and drawn within each group as the
    ``quota[g]`` smallest rows under the engine's ONE Knuth key hash
    (``(key, id)`` order) — the deterministic "give me exactly N
    labeled examples, proportionally stratified" primitive that
    hash_sample (rate-based) and stratified_sample (per-group rate)
    can't provide.

    Fully integer decision path: quotas are exact (q221), the
    per-group rank is a sort on ``(hash, key)`` — SQL replays with a
    window ``row_number``.  NULL group/key rows drop; keys must be
    non-negative ints (the knuth_hash contract).  When a group has
    fewer rows than its quota the group under-fills (documented —
    the output can then be < total; SQL mirrors naturally).

    Plan: the quota pass is per-block count partials + driver
    combine; the draw is ONE group-keyed exchange with the tiny
    quota dict in the kernel closure.  Output: ``(group, key)``.
    """
    quotas = quota_allocate(ds, group_col=group_col, total=total)
    qmap = {g: q for g, q in zip(quotas[group_col].to_pylist(),
                                 quotas["quota"].to_pylist())}

    def prep(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(b[group_col]),
                       pc.is_valid(b[key_col]))
        keep = pc.fill_null(keep, False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        k = b[key_col].to_numpy(zero_copy_only=False)
        h = knuth_hash(np.asarray(k, np.int64), op="quota_sample")
        return pa.table({group_col: b[group_col],
                         key_col: b[key_col],
                         "__h": pa.array(h.astype(np.int64))})

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.select([group_col, key_col])
        gd = pc.dictionary_encode(t[group_col].combine_chunks())
        codes = gd.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)
        new = np.concatenate([[True], codes[1:] != codes[:-1]])
        gstart = np.flatnonzero(new)[np.cumsum(new) - 1]
        rn = np.arange(len(codes), dtype=np.int64) - gstart + 1
        # quota per dictionary value (tiny), broadcast by codes
        qd = np.array([qmap.get(v, 0)
                       for v in gd.dictionary.to_pylist()], np.int64)
        return t.filter(pa.array(rn <= qd[codes])).select(
            [group_col, key_col])

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, kernel, key=group_col,
                           sort_keys=[group_col, "__h", key_col],
                           num_partitions=num_partitions)
