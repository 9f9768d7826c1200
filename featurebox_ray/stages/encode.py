"""Leakage-safe (out-of-fold) target encoding — the distributed analog
of the classic K-fold mean-target encoder used to turn a categorical
column into a numeric feature without contaminating each row with its
own target.

For every (category, fold) cell the encoding is the target mean over
all OTHER folds of the same category:

    enc(cat, f) = (S_cat − s_{cat,f}) / (C_cat − c_{cat,f})

Scale shape: each block reduces to one ``(cat, fold, c, s)`` int64
partial row per cell present (``np.add.at`` over a dense
``code·K + fold`` index — same shape as ``regress.group_linfit``); ONE
category-keyed exchange moves O(blocks × cells) partial rows, never
data; the combine accumulates Python ints (unbounded, exact) and emits
one row per PRESENT cell.  Applying the encoding to rows is then a
broadcast lookup (``stages/lookup.py`` / ``join.broadcast_join``) — the
encoder table is tiny (|categories| × K).

Exactness contract: the target must be a pre-quantized int64 column
(cents / days — the q01/q98 money pattern); the fold is the engine's
ONE key hash (``sample.knuth_hash`` mod K) so DuckDB replays it in
HUGEINT; the encoding is then ``double(int) / double(int)`` — two
conversions + one division, bit-exact in SQL as
``CAST(S−s AS DOUBLE) / CAST(C−c AS DOUBLE)``.

Categories entirely inside one fold (C == c) emit NULL (SQL ``CASE
WHEN``); rows with NULL category / fold key / target are dropped.

Reference analog: the reference's selection drivers score folds via
sklearn ``cross_val_score`` (selection/quickmethod.py:310 dispatch);
this re-expresses the fold-exclusion sufficient-statistics trick as a
distributed aggregate usable as a feature stage.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from featurebox_ray.stages.partition import (each_group,
                                             materialized_block_refs,
                                             partitioned_map, sum_partials)
from featurebox_ray.stages.sample import knuth_hash


def oof_target_encode(ds, *, cat_col: str, fold_key_col: str,
                      target_col: str, n_folds: int = 5):
    """Out-of-fold target-encoding table.

    ``target_col`` must be int64 (quantize first); ``fold_key_col`` a
    non-negative integer id (fold = knuth_hash(id) % n_folds).  Returns
    one row per present (category, fold) cell:
    ``(cat_col, fold:int64, n_excl:int64, enc:float64)``.
    """
    if n_folds < 2:
        raise ValueError("n_folds must be >= 2")

    def partial(batch: pa.Table) -> pa.Table:
        if batch.schema.field(target_col).type != pa.int64():
            raise TypeError(
                f"{target_col} must be int64 (quantize first); got "
                f"{batch.schema.field(target_col).type}")
        mask = pc.and_(pc.and_(pc.is_valid(batch[cat_col]),
                               pc.is_valid(batch[fold_key_col])),
                       pc.is_valid(batch[target_col]))
        if not pc.all(mask).as_py():
            batch = batch.filter(mask)
        ktype = batch.schema.field(cat_col).type
        if batch.num_rows == 0:
            return pa.table({cat_col: pa.array([], ktype),
                             "fold": pa.array([], pa.int64()),
                             "c": pa.array([], pa.int64()),
                             "s": pa.array([], pa.int64())})
        gd = pc.dictionary_encode(batch[cat_col].combine_chunks())
        codes = gd.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        key = batch[fold_key_col].to_numpy(zero_copy_only=False)
        fold = (knuth_hash(key, op="oof_target_encode")
                % np.uint64(n_folds)).astype(np.int64)
        t = batch[target_col].to_numpy(zero_copy_only=False)
        g = len(gd.dictionary)
        idx = codes * n_folds + fold
        c = np.zeros(g * n_folds, np.int64)
        s = np.zeros(g * n_folds, np.int64)
        np.add.at(c, idx, 1)
        np.add.at(s, idx, t)
        present = np.flatnonzero(c)
        return pa.table({
            cat_col: gd.dictionary.take(pa.array(present // n_folds)),
            "fold": pa.array(present % n_folds, pa.int64()),
            "c": pa.array(c[present]),
            "s": pa.array(s[present]),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)

    def finalize(t: pa.Table) -> pa.Table:
        folds = t["fold"].to_numpy(zero_copy_only=False)
        cs = t["c"].to_pylist()
        ss = t["s"].to_pylist()
        # Python-int cell sums (exact, unbounded)
        cell_c: dict[int, int] = {}
        cell_s: dict[int, int] = {}
        for f, ci, si in zip(folds.tolist(), cs, ss):
            cell_c[f] = cell_c.get(f, 0) + ci
            cell_s[f] = cell_s.get(f, 0) + si
        tot_c = sum(cell_c.values())
        tot_s = sum(cell_s.values())
        out_f = sorted(cell_c)
        enc = [None if tot_c == cell_c[f]
               else float(tot_s - cell_s[f]) / float(tot_c - cell_c[f])
               for f in out_f]
        k = len(out_f)
        return pa.table({
            cat_col: pa.array([t[cat_col][0].as_py()] * k,
                              t.schema.field(cat_col).type),
            "fold": pa.array(out_f, pa.int64()),
            "n_excl": pa.array([tot_c - cell_c[f] for f in out_f],
                               pa.int64()),
            "enc": pa.array(enc, pa.float64()),
        })

    # the exchange moves O(blocks × categories × folds) partial rows
    return partitioned_map(partials, each_group(finalize, [cat_col]),
                           key=cat_col, sort_keys=[cat_col])


# The most reference rows one group of ecdf_encode may hold: every
# encoder keeps each group's sorted values (8 bytes a row) in its heap.
ECDF_MAX_GROUP_ROWS = 1 << 25


def ecdf_encode(query_ds, ref_table, *, group_col: str, value_col: str,
                cnt_col: str = "cnt_below", n_col: str = "n_ref",
                pct_col: str = "pct", concurrency=(1, 8)):
    """Reference-distribution ECDF / percentile encoding — calibrate
    each row's value against a REFERENCE table's per-group empirical
    distribution (the train-time-distribution score calibration /
    drift-feature primitive): ``cnt_below = #{ref rows of the same
    group with value < x}``, ``pct = cnt_below / n_ref``.

    Shuffle-free on the query stream: the reference reduces to one
    sorted float64 array per group, built ONCE per actor from the
    reference's materialized block refs (only refs travel through the
    driver — the broadcast_join pattern); each batch then runs one
    vectorized ``searchsorted`` per group present.  Groups with no
    reference rows emit ``n_ref = 0`` and a NULL ``pct``.

    Exactness contract: ``cnt_below``/``n_ref`` are exact ints;
    ``pct`` is one ``double(int)/double(int)`` division — bit-exact in
    SQL.  The strict ``<`` count replays order-independently via the
    tagged-union window trick (tag refs 1, queries 0, running
    ``sum(tag)`` over ``ORDER BY value, tag``).  Non-finite or NULL
    values/groups are dropped on BOTH sides (NaN totally orders
    differently in numpy vs SQL; ``isfinite`` filters mirror it).

    At 100 TB the per-group reference arrays must fit a worker's heap
    (they are value-only, one float per ref row): a group with more
    than ``ECDF_MAX_GROUP_ROWS`` kept reference rows raises
    ``ValueError`` naming it, before any encoder starts.  Past that,
    aggregate the reference into the q61 dyadic-histogram sketch and
    encode against bin edges instead.

    Reference analog: ``MagnitudeTransformer``'s fit-then-apply shape
    (symbol/preprocess.py:25-170) generalized from column means to the
    full per-group ECDF.
    """
    if isinstance(ref_table, pa.Table):
        refs = [ray.put(ref_table)]
    else:
        refs = materialized_block_refs(ref_table)

    def kept(b: pa.Table) -> pa.Table:
        """The reference rows an encoder holds: group and value valid,
        value finite."""
        b = b.select([group_col, value_col])
        # non-Kleene and_: null values make keep NULL, and Table.filter
        # drops nulls — safe here, but normalize anyway so the mask is a
        # plain boolean
        keep = pc.fill_null(
            pc.and_(pc.and_(pc.is_valid(b[group_col]),
                            pc.is_valid(b[value_col])),
                    pc.is_finite(b[value_col])), False)
        return b.filter(keep)

    @ray.remote
    def group_rows(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:  # sum_partials skips it
            return b
        return kept(b).group_by(group_col).aggregate([([], "count_all")])

    sizes = sum_partials(
        ray.get([group_rows.remote(r) for r in refs]),
        keys=[group_col], vals=["count_all"])
    if sizes is not None:
        big = sizes.filter(pc.greater(sizes["count_all"],
                                      ECDF_MAX_GROUP_ROWS))
        if big.num_rows:
            raise ValueError(
                f"ecdf_encode: {group_col} {big[group_col][0].as_py()!r} "
                f"has {big['count_all'][0].as_py()} reference rows, over "
                f"ECDF_MAX_GROUP_ROWS={ECDF_MAX_GROUP_ROWS} that one "
                "encoder holds; aggregate the reference into the q61 "
                "dyadic-histogram sketch and encode against its bin edges")

    class Encoder:
        def __init__(self):
            blocks = [b for b in ray.get(list(refs))
                      if isinstance(b, pa.Table) and b.num_rows]
            self.sorted_vals: dict = {}
            if blocks:
                rt = pa.concat_tables([kept(b) for b in blocks],
                                      promote_options="default")
                gd = pc.dictionary_encode(rt[group_col].combine_chunks())
                codes = gd.indices.to_numpy(zero_copy_only=False)
                vals = (rt[value_col].combine_chunks()
                        .to_numpy(zero_copy_only=False)
                        .astype(np.float64))
                order = np.lexsort((vals, codes))
                c_s, v_s = codes[order], vals[order]
                for i, gval in enumerate(gd.dictionary.to_pylist()):
                    # dictionary code i's run (codes are sorted, one run)
                    pos = np.searchsorted(c_s, i, side="left")
                    end = np.searchsorted(c_s, i, side="right")
                    self.sorted_vals[gval] = v_s[pos:end]

        def __call__(self, batch: pa.Table) -> pa.Table:
            g = batch[group_col]
            v = batch[value_col]
            # fill_null BEFORE pc.all (non-Kleene and_ + null-ignoring
            # all would otherwise skip the filter on all-true-or-null
            # masks and let null-value rows through)
            keep = pc.fill_null(
                pc.and_(pc.and_(pc.is_valid(g), pc.is_valid(v)),
                        pc.is_finite(v)), False)
            if not pc.all(keep).as_py():
                batch = batch.filter(keep)
            if batch.num_rows == 0:
                return batch.append_column(
                    cnt_col, pa.array([], pa.int64())).append_column(
                    n_col, pa.array([], pa.int64())).append_column(
                    pct_col, pa.array([], pa.float64()))
            gd = pc.dictionary_encode(batch[group_col].combine_chunks())
            codes = gd.indices.to_numpy(zero_copy_only=False)
            vals = (batch[value_col].combine_chunks()
                    .to_numpy(zero_copy_only=False).astype(np.float64))
            cnt = np.zeros(len(vals), np.int64)
            n_ref = np.zeros(len(vals), np.int64)
            for i, gval in enumerate(gd.dictionary.to_pylist()):
                mask = codes == i
                arr = self.sorted_vals.get(gval)
                if arr is None or arr.size == 0:
                    continue
                cnt[mask] = np.searchsorted(arr, vals[mask], side="left")
                n_ref[mask] = arr.size
            pct = cnt.astype(np.float64) / np.maximum(
                n_ref, 1).astype(np.float64)
            return (batch
                    .append_column(cnt_col, pa.array(cnt, pa.int64()))
                    .append_column(n_col, pa.array(n_ref, pa.int64()))
                    .append_column(pct_col, pa.array(
                        pct, pa.float64(), mask=n_ref == 0)))

    return query_ds.map_batches(Encoder, batch_format="pyarrow",
                                zero_copy_batch=True,
                                concurrency=concurrency)


def collapse_rare(ds, *, col: str, min_count: int,
                  other: str = "__other__", out_col: str = None):
    """Rare-category collapsing — recode every category whose corpus
    count is below ``min_count`` to one ``other`` sentinel (the
    standard high-cardinality-categorical preprocessing step before
    encoders/models; also the long-tail guard for pivot/one-hot).

    One null-safe combiner count pass (per-block ``value_counts``
    partials, classes × blocks bytes to the driver — no all-to-all),
    then the kept-category set broadcasts via ``ray.put`` and the
    stream recodes with one dictionary-decode + ``is_in`` per batch
    (shuffle-free).  NULL categories stay NULL.  SQL replays as a
    LEFT JOIN to the count CTE + CASE.

    At extreme category cardinality the kept set is what survives
    ``min_count`` — by construction ≤ corpus_rows / min_count entries,
    so the broadcast is bounded by the threshold itself.
    """
    out_col = out_col or f"{col}_rc"

    def count_partial(batch: pa.Table) -> pa.Table:
        v = batch[col].combine_chunks()
        v = v.filter(pc.is_valid(v))
        vc = v.value_counts()
        if len(vc) == 0:
            return pa.table({"v": pa.array([], pa.string()),
                             "cnt": pa.array([], pa.int64())})
        return pa.table({"v": vc.field("values").cast(pa.string()),
                         "cnt": vc.field("counts")})

    cds = ds.map_batches(count_partial, batch_format="pyarrow",
                         zero_copy_batch=True)
    counts = sum_partials(ray.get(materialized_block_refs(cds)),
                          keys=["v"], vals=["cnt"])
    keep = pa.array([], pa.string())
    if counts is not None:
        keep = counts.filter(pc.greater_equal(counts["cnt"], min_count))
        keep = keep["v"].combine_chunks()
    keep_ref = ray.put(keep)

    def recode(batch: pa.Table) -> pa.Table:
        ks = ray.get(keep_ref)
        v = batch[col].combine_chunks().cast(pa.string())
        hit = pc.is_in(v, value_set=ks)
        rec = pc.if_else(hit, v, pa.scalar(other, pa.string()))
        rec = pc.if_else(pc.is_valid(v), rec,
                         pa.scalar(None, pa.string()))
        return batch.append_column(out_col, rec)

    return ds.map_batches(recode, batch_format="pyarrow",
                          zero_copy_batch=True)


def hashing_vectorizer(ds, *, id_col: str = "doc_id",
                       text_col: str = "text", n_dims: int = 64):
    """Hashing-trick (feature-hashing) vectorizer — sklearn's
    ``HashingVectorizer`` re-expressed as a sparse Ray map: every
    whitespace token hashes to one of ``n_dims`` buckets with a ±1
    sign bit, and each document emits its NON-ZERO ``(id, dim,
    weight)`` rows.  The fixed-width, vocabulary-free encoding that
    makes streaming model training possible at 100 TB (no vocab
    broadcast, no OOV, map-only — NO shuffle at all).

    Hash = the engine's 60-bit md5 prefix (``sketch._md5_60`` — one
    md5 per DISTINCT token per block via dictionary-encode):
    ``dim = h % n_dims``, ``sign = +1 if (h // n_dims) % 2 == 0``.
    md5 keeps the whole thing SQL-replayable (the q48/q88 hex-cast
    trick); sums are exact int64.  NULL ids drop, NULL text counts
    as empty.
    """
    from .dedup import split_tokens
    from .sketch import _md5_60

    def encode(b: pa.Table) -> pa.Table:
        empty = pa.table({id_col: pa.array([], pa.int64()),
                          "dim": pa.array([], pa.int64()),
                          "weight": pa.array([], pa.int64())})
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
        row_ids = np.repeat(np.arange(b.num_rows), np.diff(off))
        dct = pc.dictionary_encode(flat)
        codes = dct.indices.to_numpy(zero_copy_only=False)
        h = _md5_60(dct.dictionary.to_pylist())
        dim = (h % n_dims).astype(np.int64)
        sign = np.where((h // n_dims) % 2 == 0, 1, -1).astype(np.int64)
        # sparse accumulation (no rows x n_dims buffer — n_dims may be 2^20)
        cell = row_ids * n_dims + dim[codes]
        ucell, inv = np.unique(cell, return_inverse=True)
        w = np.zeros(len(ucell), np.int64)
        np.add.at(w, inv, sign[codes])
        nz = np.flatnonzero(w)
        return pa.table({
            id_col: pa.array(ids[ucell[nz] // n_dims], pa.int64()),
            "dim": pa.array((ucell[nz] % n_dims).astype(np.int64)),
            "weight": pa.array(w[nz]),
        })

    return ds.map_batches(encode, batch_format="pyarrow",
                          zero_copy_batch=True)


def loo_target_encode(ds, *, id_col: str, cat_col: str,
                      value_col: str, num_partitions: int = 32):
    """Leave-one-out target encoding — the row-granular sibling of
    ``oof_target_encode``: each row's category is encoded as the mean
    target over EVERY OTHER row of that category,

        loo(i) = (S_cat − y_i) / (C_cat − 1),

    NULL when the row is its category's only member.  Sharper than
    K-fold when categories are small; the standard alternative in
    gradient-boosting feature prep.

    Exactness: the target quantizes to int64 cents
    (``cents_exact`` — NULL coalesces to 0, non-finite raises); per-
    category sums are exact int64; the encoding is ONE IEEE division
    ``double(S−y) / double(C−1)`` — DuckDB replays it bit-for-bit.

    Plan: ONE category-keyed exchange; run sums broadcast back to
    rows by segment arithmetic inside the partition kernel — no
    second pass, no driver state (works at any category cardinality,
    unlike a broadcast-stats variant).  NULL id/category rows drop
    (mirror in SQL).  Output: ``(id, cat, loo_cents)``.
    """
    from ..functions.segments import cents_exact

    def prep(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(b[id_col]),
                       pc.is_valid(b[cat_col]))
        keep = pc.fill_null(keep, False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        cents = cents_exact(b[value_col].combine_chunks(),
                            col=value_col)
        return pa.table({id_col: b[id_col], cat_col: b[cat_col],
                         "__y": pa.array(cents)})

    def kernel(t: pa.Table) -> pa.Table:
        ktype = t.schema.field(cat_col).type
        ityp = t.schema.field(id_col).type
        empty = pa.table({id_col: pa.array([], ityp),
                          cat_col: pa.array([], ktype),
                          "loo_cents": pa.array([], pa.float64())})
        if t.num_rows == 0:
            return empty
        codes = pc.dictionary_encode(
            t[cat_col].combine_chunks()).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        y = t["__y"].to_numpy(zero_copy_only=False)
        new = np.concatenate([[True], codes[1:] != codes[:-1]])
        starts = np.flatnonzero(new)
        lens = np.diff(np.append(starts, len(codes)))
        if float(np.abs(y).astype(np.float64).sum()) >= 2.0 ** 62:
            raise ValueError("loo_target_encode: Σ|cents| risks "
                             "int64 overflow")
        seg = np.cumsum(new) - 1
        sums = np.add.reduceat(y, starts)
        s_row = sums[seg]
        c_row = lens[seg]
        loo = np.where(
            c_row > 1,
            (s_row - y).astype(np.float64)
            / np.maximum(c_row - 1, 1).astype(np.float64),
            np.nan)
        la = pa.array(loo, pa.float64())
        if (c_row == 1).any():
            la = pc.if_else(pa.array(c_row > 1), la,
                            pa.scalar(None, pa.float64()))
        return pa.table({id_col: t[id_col], cat_col: t[cat_col],
                         "loo_cents": la})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, kernel, key=cat_col,
                           sort_keys=[cat_col, id_col],
                           num_partitions=num_partitions)


def quantile_normalize(ds, *, id_col: str, group_col: str,
                       value_col: str, num_partitions: int = 8,
                       max_distinct: int = 1 << 22):
    """Cross-group QUANTILE NORMALIZATION — map every row's value onto
    the POOLED (all-groups) distribution at the same within-group
    rank, the classic batch-effect / cross-source calibration step
    (microarray quantile normalization, per-source length rebalance):
    after the transform every group has (up to rank granularity) the
    pooled value distribution, so downstream thresholds tuned on one
    source transfer to all.

        r      = row_number within group, ordered by (value, id)
        idx    = ((r-1) * (N-1)) // (n_g - 1)     [n_g = 1 -> (N-1)//2]
        qnorm  = pooled_sorted_values[idx]

    Exactness: values must be INTEGER-VALUED (lengths, counts, cents);
    ranks, ``idx`` and the positional gather are pure integer
    arithmetic — no interpolation, no floats — so a windowed SQL
    replay (row_number + pooled row_number join, HUGEINT product) is
    bit-exact.  Ties order by ``id_col``; pooled positions depend only
    on the value (equal values are interchangeable), so the pooled
    side needs no tie column.

    Scale shape: the pooled distribution travels as a VALUE HISTOGRAM
    (distinct value -> count), reduced from per-block partials — the
    exchange moves O(blocks × distinct) int64 partial rows, never
    data, then the merged histogram (cumcounts + values, guarded by
    ``max_distinct``) broadcasts via ``ray.put`` into ONE group-keyed
    exchange that computes ranks by run arithmetic and gathers
    ``qnorm`` with one ``searchsorted`` per partition.  Bounded
    distinct values is the operator's documented contract (lengths /
    quantized metrics — NOT arbitrary doubles).

    int64 bound: the rank product ``(r-1)*(N-1)`` must stay < 2^63;
    the kernel raises if ``N`` exceeds 3e9 rows (at which point rank
    granularity beyond float precision is meaningless — downsample the
    pooled histogram first).

    Returns ``(id_col, group_col, value:int64, qnorm:int64)``.
    Reference analog: none (corpus-calibration extension; the pooled
    companion of MagnitudeTransformer's per-column scaling,
    stages/normalize.py).
    """
    def partial(t: pa.Table) -> pa.Table:
        v = t[value_col].combine_chunks()
        keep = pc.and_(pc.and_(pc.is_valid(t[id_col]),
                               pc.is_valid(t[group_col])),
                       pc.is_valid(v))
        keep = pc.fill_null(keep, False)
        vals = pa.table({"v": v}).filter(keep)["v"].cast(
            pa.int64()).to_numpy(zero_copy_only=False)
        uniq, cnt = np.unique(vals, return_counts=True)
        if len(uniq) > max_distinct:
            # raise in the task: the pooled check below only runs once
            # every partial has been pulled to the driver
            raise ValueError(
                f"quantile_normalize: one block has {len(uniq)} distinct "
                f"values, exceeding max_distinct={max_distinct}; "
                "quantize first")
        return pa.table({"v": pa.array(uniq),
                         "c": pa.array(cnt.astype(np.int64))})

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True,
                           batch_size=None).to_pandas()
    hist = parts.groupby("v", sort=True)["c"].sum()
    pooled_vals = hist.index.to_numpy(dtype=np.int64)
    if len(pooled_vals) > max_distinct:
        raise ValueError(
            f"quantile_normalize: {len(pooled_vals)} distinct values "
            f"exceed max_distinct={max_distinct}; quantize first")
    pooled_cum = hist.to_numpy(dtype=np.int64).cumsum()
    n_total = int(pooled_cum[-1]) if len(pooled_cum) else 0
    if n_total >= 3_000_000_000:
        raise ValueError("quantile_normalize: N >= 3e9 breaks the "
                         "int64 rank product; downsample the pooled "
                         "histogram first")
    pooled_ref = ray.put((pooled_vals, pooled_cum, n_total))

    gtype = ds.schema()
    gtype = getattr(gtype, "base_schema", gtype).field(group_col).type
    empty = pa.table({id_col: pa.array([], pa.int64()),
                      group_col: pa.array([], gtype),
                      "value": pa.array([], pa.int64()),
                      "qnorm": pa.array([], pa.int64())})

    def prep(b: pa.Table) -> pa.Table:
        v = b[value_col].combine_chunks()
        keep = pc.and_(pc.and_(pc.is_valid(b[id_col]),
                               pc.is_valid(b[group_col])),
                       pc.is_valid(v))
        keep = pc.fill_null(keep, False)
        t = pa.table({id_col: b[id_col], group_col: b[group_col],
                      "__v": v.cast(pa.int64())})
        return t.filter(keep)

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or group_col not in t.column_names:
            return empty
        vals_s, cum_s, n_all = ray.get(pooled_ref)
        if n_all == 0:
            return empty
        keys = t[group_col].combine_chunks()
        codes = pc.dictionary_encode(keys).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        new = np.concatenate([[True], codes[1:] != codes[:-1]])
        starts = np.flatnonzero(new)
        lens = np.diff(np.append(starts, len(codes)))
        seg = np.cumsum(new) - 1
        r0 = np.arange(len(codes), dtype=np.int64) - starts[seg]
        n_g = lens[seg]
        idx = np.where(
            n_g > 1,
            (r0 * (n_all - 1)) // np.maximum(n_g - 1, 1),
            (n_all - 1) // 2)
        qn = vals_s[np.searchsorted(cum_s, idx, side="right")]
        return pa.table({
            id_col: t[id_col].combine_chunks().cast(pa.int64()),
            group_col: keys,
            "value": t["__v"],
            "qnorm": pa.array(qn.astype(np.int64)),
        })

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, kernel, key=group_col,
                           sort_keys=[group_col, "__v", id_col],
                           num_partitions=num_partitions)
