"""Snapshot diff — compare two versions of a keyed table and emit
``added`` / ``removed`` / ``changed`` rows.  The incremental-processing
primitive of a 100-TB pipeline: diff yesterday's corpus against
today's, reprocess only the delta, audit an upstream refresh.

Physical plan: both sides go as they are into ONE id-keyed task
exchange, which hands the kernel each side as its own id-sorted table
(no join operator, no schema probe); the kernel aligns the two sides'
ids on shared key codes and classifies each id with pure array
compares.  Unchanged ids emit nothing, so the output is delta-sized.

Equality is SQL ``IS NOT DISTINCT FROM`` per compare column (NULL ==
NULL is unchanged), which DuckDB replays 1:1 in a FULL OUTER JOIN.

Contract: ``id_col`` is unique within each side — a duplicated id
raises (the diff of multisets is ambiguous; dedupe upstream with
``exact_dedup``).  NULL ids group like SQL ``USING`` would not —
they're rejected for the same ambiguity reason.

Reference analog: none (beyond-reference ops primitive alongside
checkpoint/resume in ``state/checkpoint.py``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions import segments as seg


def snapshot_diff(old_ds, new_ds, *, id_col: str,
                  cmp_cols: Sequence[str], num_partitions: int = 16):
    """Diff two keyed datasets → ``(id_col, status:string)`` with status
    in {'added', 'removed', 'changed'}; unchanged ids emit nothing."""
    from .partition import partitioned_map

    # id type captured once from the input schema so empty partitions
    # (including Ray's zero-column empty bundles) emit a typed block
    base = old_ds.schema()
    base = getattr(base, "base_schema", base)
    id_type = base.field(id_col).type
    empty = pa.table({id_col: pa.array([], id_type),
                      "status": pa.array([], pa.string())})

    def kernel(old: pa.Table, new: pa.Table) -> pa.Table:
        for which, t in enumerate((old, new)):
            if t.num_rows and t[id_col].null_count:
                raise ValueError(
                    f"NULL {id_col} in snapshot side {which} — diff "
                    "requires non-null unique ids")
        if old.num_rows + new.num_rows == 0:
            return empty
        oc, nc = seg.shared_key_codes(old[id_col], new[id_col])
        if (oc[1:] == oc[:-1]).any() or (nc[1:] == nc[:-1]).any():
            raise ValueError(
                f"duplicate {id_col} within one snapshot side — ids "
                "must be unique per side (exact_dedup upstream)")
        codes = np.union1d(oc, nc)              # every id once, in order
        oi, ni = seg.lookup(oc, codes), seg.lookup(nc, codes)
        status = np.where(oi < 0, "added", "removed").astype(object)
        both = np.flatnonzero((oi >= 0) & (ni >= 0))
        if len(both):
            o_idx = pa.array(oi[both], pa.int64())
            n_idx = pa.array(ni[both], pa.int64())
            same = np.ones(len(both), bool)
            for c in cmp_cols:
                a = old[c].combine_chunks().take(o_idx)
                b = new[c].combine_chunks().take(n_idx)
                # IS NOT DISTINCT FROM: equal, or both NULL — and for
                # floating columns both-NaN counts as equal too (SQL
                # NaN IS NOT DISTINCT FROM NaN is true; Arrow pc.equal
                # says NaN != NaN)
                eq = pc.fill_null(pc.equal(a, b), False)
                both_null = pc.and_(pc.is_null(a), pc.is_null(b))
                same_c = pc.or_(eq, both_null)
                if pa.types.is_floating(a.type):
                    both_nan = pc.and_(pc.fill_null(pc.is_nan(a), False),
                                       pc.fill_null(pc.is_nan(b), False))
                    same_c = pc.or_(same_c, both_nan)
                same &= np.asarray(same_c)
            status[both] = np.where(same, None, "changed")
        keep = np.flatnonzero(status != None)  # noqa: E711
        if len(keep) == 0:
            return empty
        src = pa.array(oi[keep], pa.int64(), mask=oi[keep] < 0)
        add = pa.array(ni[keep], pa.int64(), mask=oi[keep] >= 0)
        return pa.table({
            id_col: pc.coalesce(
                old[id_col].combine_chunks().take(src),
                new[id_col].combine_chunks().cast(id_type).take(add)),
            "status": pa.array(list(status[keep]), pa.string()),
        })

    return partitioned_map([old_ds, new_ds], kernel, key=id_col,
                           sort_keys=[[id_col], [id_col]],
                           num_partitions=num_partitions)


def category_drift(old_ds, new_ds, *, col: str,
                   num_partitions: int = 8):
    """Categorical distribution drift between two snapshots — per
    distinct value of ``col``: old count, new count, and each side's
    exact share (the monitoring table behind data-drift alerts; the
    distribution complement of :func:`snapshot_diff`'s row-level
    delta).

    Both sides stream through per-block ``(value, partial count)``
    rows into ONE value-keyed exchange (the shuffle moves
    O(blocks × categories) tiny rows); grand totals are a tiny driver
    reduce over the already-materialized per-category counts.  Counts
    are exact ints and each share is one IEEE division, so SQL replays
    everything bit-exactly.

    NULL category values form their own row (SQL ``GROUP BY``).
    Returns ``(col, n_old:int64, n_new:int64, share_old:float64,
    share_new:float64)`` — shares are NULL when that side is empty.
    """
    import ray

    from .partition import partitioned_refs

    def partial(b: pa.Table) -> pa.Table:
        vals = b[col].combine_chunks().cast(pa.string())
        enc = pc.dictionary_encode(vals)
        idx = pc.fill_null(enc.indices, -1).to_numpy(
            zero_copy_only=False).astype(np.int64)
        nulls = int((idx < 0).sum())
        cnt = np.bincount(idx[idx >= 0],
                          minlength=len(enc.dictionary)
                          ).astype(np.int64)
        out_vals = enc.dictionary.cast(pa.string())
        out_cnt = cnt
        if nulls:
            out_vals = pa.concat_arrays(
                [out_vals, pa.array([None], pa.string())])
            out_cnt = np.concatenate([cnt, [nulls]])
        return pa.table({col: out_vals, "cnt": pa.array(out_cnt)})

    sides = [d.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None)
             for d in (old_ds, new_ds)]

    def combine(old: pa.Table, new: pa.Table) -> pa.Table:
        if old.num_rows + new.num_rows == 0:
            return pa.table({col: pa.array([], pa.string()),
                             "n_old": pa.array([], pa.int64()),
                             "n_new": pa.array([], pa.int64())})
        # NULL is the last code: its row comes last, as a GROUP BY's
        codes = np.concatenate(seg.shared_key_codes(old[col], new[col]))
        u, first, inv = np.unique(codes, return_index=True,
                                  return_inverse=True)
        cnt = np.concatenate([old["cnt"].to_numpy(zero_copy_only=False),
                              new["cnt"].to_numpy(zero_copy_only=False)])
        is_new = np.arange(len(codes)) >= old.num_rows
        sums = np.zeros((2, len(u)), np.int64)
        np.add.at(sums[0], inv[~is_new], cnt[~is_new])
        np.add.at(sums[1], inv[is_new], cnt[is_new])
        vals = pa.concat_arrays([old[col].combine_chunks(),
                                 new[col].combine_chunks()])
        return pa.table({col: vals.take(pa.array(first, pa.int64())),
                         "n_old": pa.array(sums[0]),
                         "n_new": pa.array(sums[1])})

    refs = partitioned_refs(sides, combine, key=col,
                            sort_keys=[[col], [col]],
                            num_partitions=num_partitions)
    blocks = [b for b in ray.get(refs) if b.num_rows > 0]
    tot_old = sum(int(pc.sum(b["n_old"]).as_py() or 0)
                  for b in blocks)
    tot_new = sum(int(pc.sum(b["n_new"]).as_py() or 0)
                  for b in blocks)

    def shares(b: pa.Table) -> pa.Table:
        no = b["n_old"].to_numpy(zero_copy_only=False)
        nn = b["n_new"].to_numpy(zero_copy_only=False)
        kw = {}
        for name, arr, tot in (("share_old", no, tot_old),
                               ("share_new", nn, tot_new)):
            if tot:
                kw[name] = pa.array(arr.astype(np.float64)
                                    / float(tot))
            else:
                kw[name] = pa.nulls(b.num_rows, pa.float64())
        out = b
        for name in ("share_old", "share_new"):
            out = out.append_column(name, kw[name])
        return out

    return ray.data.from_arrow_refs(refs).map_batches(
        shares, batch_format="pyarrow", zero_copy_batch=True)


def wasserstein_drift(ds, *, group_col: str, value_col: str):
    """Per-group 1-D Wasserstein-1 (earth-mover) distance between each
    group's distribution of an INTEGER value column and the pooled rest
    of the corpus — the transport-cost drift metric that complements
    ``group_ks_drift`` (sup-norm) and ``category_drift`` (per-category
    share): KS sees the worst single gap, W1 integrates ALL gaps, so a
    broad small shift (every doc slightly longer) that KS underweights
    moves W1 proportionally.

    Exactness: on the merged sorted distinct values ``v_1 < … < v_m``,
    ``W1 = Σ_i |F_g(v_i) − F_rest(v_i)| · (v_{i+1} − v_i)`` with
    empirical CDFs.  Cross-multiplying clears both denominators:
    ``num = Σ_i |c_g·n_rest − c_rest·n_g| · gap_i`` is an EXACT int64
    (guarded: ``n_g·n_rest·range < 2^63``, raise with a pre-bin hint
    otherwise), and ``w1 = double(num)/double(n_g·n_rest)`` is one
    correctly-rounded cast+division — SQL replays bit-for-bit via
    HUGEINT window sums and the identical CAST/division.

    Shape: per-block partial histograms ``(group, value, cnt)`` (Arrow
    dictionary-encode + bincount, bounded by the block's distinct
    pairs), combined on the driver with one vectorized pass per group
    over the global histogram — NO shuffle.  The driver table is
    O(groups × distinct values); for continuous/high-cardinality value
    columns pre-bin upstream (``quantile_bin`` / dyadic buckets), which
    is also what keeps the histogram driver-tiny at 100 TB.

    NULL group or NULL value rows drop (mirror in SQL).  Groups whose
    complement is empty (single-group corpus) emit NULL ``w1``.
    Emits ``(group_col, n_g:int64, n_rest:int64, w1_num:float64,
    w1:float64)`` — ``w1_num`` is the correctly-rounded double of the
    exact int numerator (may exceed 2^53; both engines cast the same
    exact integer).

    Reference analog: none (the reference has no distribution-drift
    tooling); standard W1-between-empiricals construction, e.g.
    scipy.stats.wasserstein_distance, re-expressed in exact ints.
    """
    import ray

    from .partition import materialized_block_refs

    def partial(b: pa.Table) -> pa.Table:
        keep = pc.fill_null(pc.and_(pc.is_valid(b[group_col]),
                                    pc.is_valid(b[value_col])), False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        g = b[group_col].combine_chunks().cast(pa.string())
        v = pc.cast(b[value_col].combine_chunks(), pa.int64())
        enc = pc.dictionary_encode(g)
        gi = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        vv = v.to_numpy(zero_copy_only=False)
        if len(vv) == 0:
            return pa.table({group_col: pa.array([], pa.string()),
                             "__v": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64())})
        # per-block (group, value) histogram via lexsort + run-length
        order = np.lexsort((vv, gi))
        gs, vs = gi[order], vv[order]
        new = np.concatenate([[True], (gs[1:] != gs[:-1])
                              | (vs[1:] != vs[:-1])])
        starts = np.flatnonzero(new)
        cnt = np.diff(np.append(starts, len(vs)))
        return pa.table({
            group_col: enc.dictionary.take(
                pa.array(gs[starts], pa.int64())).cast(pa.string()),
            "__v": pa.array(vs[starts]),
            "cnt": pa.array(cnt.astype(np.int64)),
        })

    pds = ds.map_batches(partial, batch_format="pyarrow",
                         zero_copy_batch=True, batch_size=None)
    blocks = [b for b in ray.get(materialized_block_refs(pds))
              if b.num_rows]
    if blocks:
        hist = pa.concat_tables(blocks, promote_options="default")
    else:
        hist = pa.table({group_col: pa.array([], pa.string()),
                         "__v": pa.array([], pa.int64()),
                         "cnt": pa.array([], pa.int64())})

    # driver combine: collapse partials, then one vectorized CDF pass
    # per group over the global sorted value support
    g = hist[group_col].combine_chunks()
    enc = pc.dictionary_encode(g)
    gi = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    vv = hist["__v"].to_numpy(zero_copy_only=False)
    cc = hist["cnt"].to_numpy(zero_copy_only=False)
    names = enc.dictionary.cast(pa.string()).to_pylist()
    n_groups = len(names)

    out_g, out_ng, out_nr, out_num, out_w1 = [], [], [], [], []
    if n_groups:
        support = np.unique(vv)
        m = len(support)
        pos = np.searchsorted(support, vv)
        # dense (group, value-rank) count matrix partials
        tot = np.zeros(m, np.int64)
        np.add.at(tot, pos, cc)
        n_all = int(tot.sum())
        gaps = np.diff(support)  # length m-1
        rng = int(support[-1] - support[0]) if m > 1 else 0
        cum_tot = np.cumsum(tot)
        for k in range(n_groups):
            sel = gi == k
            cg = np.zeros(m, np.int64)
            np.add.at(cg, pos[sel], cc[sel])
            n_g = int(cg.sum())
            n_rest = n_all - n_g
            if n_rest and rng and n_g * n_rest > (2**63 - 1) // max(rng, 1):
                raise ValueError(
                    "wasserstein_drift int64 guard exceeded "
                    f"(n_g={n_g}, n_rest={n_rest}, range={rng}); "
                    "pre-bin the value column (quantile_bin) first")
            cum_g = np.cumsum(cg)
            cum_rest = cum_tot - cum_g
            if m > 1 and n_rest:
                diff = np.abs(cum_g[:-1] * n_rest
                              - cum_rest[:-1] * n_g)
                num = int(np.sum(diff * gaps))
            else:
                num = 0
            out_g.append(names[k])
            out_ng.append(n_g)
            out_nr.append(n_rest)
            out_num.append(float(num))
            out_w1.append(float(num) / float(n_g * n_rest)
                          if n_rest else None)

    return pa.table({group_col: pa.array(out_g, pa.string()),
                     "n_g": pa.array(out_ng, pa.int64()),
                     "n_rest": pa.array(out_nr, pa.int64()),
                     "w1_num": pa.array(out_num, pa.float64()),
                     "w1": pa.array(out_w1, pa.float64())})


def group_qq_drift(ds, *, group_col: str, side_col: str,
                   value_col: str, n_grid: int = 9,
                   num_partitions: int = 16):
    """Per-group quantile-quantile drift between two cohorts — the
    max absolute gap between the two sides' quantile ELEMENTS over a
    fixed grid (deciles by default): where KS (q179) measures drift
    in PROBABILITY (max CDF gap) and W1 (q237) in average transport,
    QQ reports it on the VALUE SCALE ("the p90 moved 40 cents"),
    which is what a threshold owner actually acts on.

    Exactness: values must be pre-quantized int64 (the cents
    pattern); each grid point is the exact ``quantile_disc`` element
    of its (group, side) slice (shared ``_disc_index`` convention),
    and the drift is an integer ``max |a_q − b_q|`` — no float
    arithmetic anywhere, so the quantile_disc + GREATEST SQL replay
    is exact.  ``side_col`` must be int64 ∈ {0, 1}; groups missing a
    side emit nothing (SQL inner join).  NULL group/side/value rows
    drop.

    ONE group-keyed exchange; the kernel sorts its partition once by
    (group, side, value) and gathers all grid elements for every
    (group, side) run in one vectorized pick.  Returns ``(group_col,
    n_a:int64, n_b:int64, qq_dist:int64)``.
    """
    from .partition import partitioned_map
    from .quantile import _disc_index_vec

    base = ds.schema()
    base = getattr(base, "base_schema", base)
    gtype = base.field(group_col).type
    grid = [(i + 1) / (n_grid + 1) for i in range(n_grid)]

    def prep(b: pa.Table) -> pa.Table:
        for c in (side_col, value_col):
            if b.schema.field(c).type != pa.int64():
                raise TypeError(f"group_qq_drift: {c} must be int64")
        mask = pc.and_(pc.and_(pc.is_valid(b[group_col]),
                               pc.is_valid(b[side_col])),
                       pc.is_valid(b[value_col]))
        if not pc.all(pc.fill_null(mask, False)).as_py():
            b = b.filter(pc.fill_null(mask, False))
        return b.select([group_col, side_col, value_col])

    empty = pa.table({group_col: pa.array([], gtype),
                      "n_a": pa.array([], pa.int64()),
                      "n_b": pa.array([], pa.int64()),
                      "qq_dist": pa.array([], pa.int64())})

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or group_col not in t.column_names:
            return empty
        keys = t[group_col].combine_chunks()
        enc = pc.dictionary_encode(keys)
        codes = (pc.fill_null(enc.indices, -1)
                 .to_numpy(zero_copy_only=False).astype(np.int64))
        side = t[side_col].to_numpy(zero_copy_only=False)
        if len(side) and not np.isin(side, (0, 1)).all():
            raise ValueError("group_qq_drift: side must be 0 or 1")
        v = t[value_col].to_numpy(zero_copy_only=False)
        # sorted by (group, side, value): (group, side) runs are
        # contiguous and internally value-sorted
        run = np.concatenate(
            [[True], (codes[1:] != codes[:-1])
             | (side[1:] != side[:-1])])
        rf = np.flatnonzero(run)
        rl = np.diff(np.concatenate([rf, [len(codes)]]))
        n_types = int(codes.max()) + 1 if len(codes) else 0
        ne = np.zeros((n_types, 2), np.int64)
        elems = np.zeros((n_types, 2, len(grid)), np.int64)
        rc, rs = codes[rf], side[rf]
        ne[rc, rs] = rl
        for qi, q in enumerate(grid):
            elems[rc, rs, qi] = v[rf + _disc_index_vec(q, rl)]
        both = (ne[:, 0] > 0) & (ne[:, 1] > 0)
        if not both.any():
            return empty
        qq = np.abs(elems[:, 0, :] - elems[:, 1, :]).max(axis=1)
        first_of_code = np.full(n_types, -1, np.int64)
        first_of_code[rc[::-1]] = rf[::-1]      # earliest run per code
        sel = np.flatnonzero(both)
        return pa.table({
            group_col: keys.take(pa.array(first_of_code[sel],
                                          pa.int64())),
            "n_a": pa.array(ne[sel, 0]),
            "n_b": pa.array(ne[sel, 1]),
            "qq_dist": pa.array(qq[sel], type=pa.int64())})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, kernel, key=group_col,
                           sort_keys=[group_col, side_col, value_col],
                           num_partitions=num_partitions)


def delta_contributors(ds, *, ts_col: str, dim_col: str,
                       value_col: str, split_num: int = 1,
                       split_den: int = 2):
    """Metric-delta drill-down — split the time span at
    ``min + (max−min)·split_num//split_den`` (the q217 temporal-split
    convention) and report, per dimension value, the exact cent sums
    before/after, the delta, and each value's SHARE of the total
    delta: the "which segment drove the change" question every
    metrics review asks.

    Exact: cents via the shared ``cents_exact`` quantization; share =
    ONE float64 division of exact int64 deltas (NULL when the total
    delta is 0).  Rows with NULL ts/dim drop; NULL values count 0
    cents (``coalesce`` parity).

    Plan: one prep pass (materialized), a footer-cheap global span
    reduce, per-block ``(dim, side, cents)`` partials combined with
    the shared Arrow ``sum_partials`` — dims are low-cardinality, no
    shuffle.  Returns ``(dim_col, cents_before, cents_after,
    delta:int64, share:float64)``.
    Reference analog: none (drift/compare family next to
    snapshot_diff / category_drift)."""
    import ray

    from ..functions.segments import cents_exact
    from .partition import (global_span_cut, materialized_block_refs,
                            sum_partials)

    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    dtype_ = base.field(dim_col).type

    def prep(b: pa.Table) -> pa.Table:
        keep = pc.fill_null(pc.and_(pc.is_valid(b[ts_col]),
                                    pc.is_valid(b[dim_col])), False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        ts = b[ts_col].combine_chunks()
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.int64())
        return pa.table({"__t": ts, "__d": b[dim_col],
                         "__c": pa.array(cents_exact(
                             b[value_col].combine_chunks(),
                             col=value_col))})

    prepped_refs = materialized_block_refs(
        ds.map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True))
    span = global_span_cut(prepped_refs, col="__t",
                           num=split_num, den=split_den)
    empty = pa.table({dim_col: pa.array([], dtype_),
                      "cents_before": pa.array([], pa.int64()),
                      "cents_after": pa.array([], pa.int64()),
                      "delta": pa.array([], pa.int64()),
                      "share": pa.array([], pa.float64())})
    if span is None:
        return empty
    cut = span[2]

    @ray.remote
    def partial(blk, cut_):
        if blk.num_rows == 0 or "__d" not in blk.column_names:
            return pa.table({"d": pa.array([], dtype_),
                             "side": pa.array([], pa.int8()),
                             "cents": pa.array([], pa.int64())})
        t = blk["__t"].to_numpy(zero_copy_only=False)
        c = blk["__c"].to_numpy(zero_copy_only=False)
        gd = pc.dictionary_encode(blk["__d"].combine_chunks())
        codes = gd.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)
        side = (t > cut_).astype(np.int64)
        cell = codes * 2 + side
        ucell, inv = np.unique(cell, return_inverse=True)
        s = np.zeros(len(ucell), np.int64)
        np.add.at(s, inv, c)
        return pa.table({
            "d": gd.dictionary.take(pa.array(ucell // 2, pa.int64())),
            "side": pa.array((ucell % 2).astype(np.int8)),
            "cents": pa.array(s)})

    blocks = ray.get([partial.remote(r, cut) for r in prepped_refs])
    comb = sum_partials(blocks, keys=["d", "side"], vals=["cents"])
    if comb is None:
        return empty
    d_arr = comb["d"].combine_chunks()
    side = comb["side"].to_numpy(zero_copy_only=False)
    cents = comb["cents"].to_numpy(zero_copy_only=False)
    # pivot the two sides per dim (comb is sorted by (d, side))
    dv = pc.dictionary_encode(d_arr)
    codes = dv.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    n_d = len(dv.dictionary)
    before = np.zeros(n_d, np.int64)
    after = np.zeros(n_d, np.int64)
    np.add.at(before, codes[side == 0], cents[side == 0])
    np.add.at(after, codes[side == 1], cents[side == 1])
    delta = after - before
    td = int(delta.sum())
    share = (delta.astype(np.float64) / np.float64(td)
             if td != 0 else np.full(n_d, np.nan))
    out = pa.table({
        dim_col: dv.dictionary,
        "cents_before": pa.array(before),
        "cents_after": pa.array(after),
        "delta": pa.array(delta),
        "share": pa.array(share, pa.float64(),
                          mask=np.full(n_d, td == 0))})
    return out.sort_by([(dim_col, "ascending")])
