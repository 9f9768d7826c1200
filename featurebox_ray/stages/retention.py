"""Retention cohort matrix — the classic product-analytics aggregate:
bucket every user by their FIRST activity period (the cohort), then
count how many of each cohort's users were active 0, 1, 2, … periods
later.  Output is the (cohort, offset) → active-user-count long table
that retention heatmaps draw.

Physical plan: ONE user-keyed exchange (first activity and all
activity periods of a user are needed together — same co-location
contract as every window stage); the kernel walks user segments
vectorized (cohort = segment-min period via ``np.minimum.reduceat``,
distinct (user, period) pairs via a sorted run mask) and emits one row
per distinct (user, period) — already user-deduplicated, so the second
exchange is a plain int64 partial-count sum per (cohort, offset), the
cheapest aggregate shape in the repo.

Everything is int64 (epoch-period buckets, counts) — exact under any
partitioning; the SQL replay is exact by construction.

NULL ts rows drop (they are in no period); NULL keys form one user
(SQL GROUP BY semantics — mirror with IS NOT DISTINCT FROM if the key
can be NULL).

Reference analog: none (beyond-reference behavioral aggregate next to
funnel_features and session stats).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .partition import (materialized_block_refs, partitioned_map,
                        partitioned_refs, sum_partials)

_PERIOD_US = {"day": 86_400_000_000, "week": 604_800_000_000}


def retention_cohorts(ds, *, key_col: str = "user_id",
                      ts_col: str = "ts", period: str = "week",
                      num_partitions: int = 16):
    """Long-form retention matrix: ``(cohort:int64, offset:int64,
    n_users:int64)`` — cohort = the user's first activity period
    (``epoch_us // period_us``), offset = activity period − cohort,
    n_users = distinct users of that cohort active at that offset.
    """
    if period not in _PERIOD_US:
        raise ValueError(f"period must be one of {sorted(_PERIOD_US)}")
    width = _PERIOD_US[period]

    def prep(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b[ts_col]))
        ts = b[ts_col].combine_chunks()
        ts_i = (ts.cast(pa.int64()) if pa.types.is_timestamp(ts.type)
                else ts)
        per = pc.divide(ts_i, width)
        return pa.table({key_col: b[key_col], "__per": per})

    def per_user(t: pa.Table) -> pa.Table:
        empty = pa.table({"cohort": pa.array([], pa.int64()),
                          "offset": pa.array([], pa.int64()),
                          "cnt": pa.array([], pa.int64())})
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        keys = t[key_col].combine_chunks()
        per = t["__per"].to_numpy(zero_copy_only=False)
        enc = pc.dictionary_encode(keys)
        codes = (pc.fill_null(enc.indices, -1)
                 .to_numpy(zero_copy_only=False).astype(np.int64))
        # partitioned_map delivered the partition sorted by
        # (user, period): distinct (user, period) pairs are run starts
        c_s, p_s = codes, per
        new_pair = np.concatenate(
            [[True], (c_s[1:] != c_s[:-1]) | (p_s[1:] != p_s[:-1])])
        new_user = np.concatenate([[True], c_s[1:] != c_s[:-1]])
        u_starts = np.flatnonzero(new_user)
        cohort_per_user = np.minimum.reduceat(p_s, u_starts)
        user_run = np.cumsum(new_user) - 1
        sel = np.flatnonzero(new_pair)
        cohort = cohort_per_user[user_run[sel]]
        offset = p_s[sel] - cohort
        # partial counts per (cohort, offset) — one row per distinct
        # (user, period), so summing counts users exactly once
        pair = cohort * (offset.max() + 1 if len(offset) else 1) + offset
        u, inv = np.unique(pair, return_inverse=True)
        cnt = np.bincount(inv)
        # recover (cohort, offset) for the unique pairs
        first = np.zeros(len(u), np.int64)
        first[inv] = np.arange(len(inv))
        return pa.table({
            "cohort": pa.array(cohort[first], pa.int64()),
            "offset": pa.array(offset[first], pa.int64()),
            "cnt": pa.array(cnt.astype(np.int64)),
        })

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    partials = partitioned_refs(prepped, per_user, key=key_col,
                                sort_keys=[key_col, "__per"],
                                num_partitions=num_partitions)

    def combine(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "cohort" not in t.column_names:
            return pa.table({"cohort": pa.array([], pa.int64()),
                             "offset": pa.array([], pa.int64()),
                             "n_users": pa.array([], pa.int64())})
        co = t["cohort"].to_numpy(zero_copy_only=False)
        of = t["offset"].to_numpy(zero_copy_only=False)
        cn = t["cnt"].to_numpy(zero_copy_only=False)
        key = co * (of.max() + 1) + of
        u, inv = np.unique(key, return_inverse=True)
        sums = np.zeros(len(u), np.int64)
        np.add.at(sums, inv, cn)
        first = np.zeros(len(u), np.int64)
        first[inv] = np.arange(len(inv))
        return pa.table({
            "cohort": pa.array(co[first], pa.int64()),
            "offset": pa.array(of[first], pa.int64()),
            "n_users": pa.array(sums),
        })

    return partitioned_map([partials], combine, key="cohort",
                           sort_keys=["cohort", "offset"],
                           num_partitions=min(num_partitions, 8))


def cohort_value_curve(ds, *, key_col: str = "user_id",
                       ts_col: str = "ts", value_col: str = "value",
                       period: str = "week",
                       num_partitions: int = 16):
    """Cohort VALUE curve (LTV buildup) — the revenue companion of
    :func:`retention_cohorts`: for every (cohort, offset) cell, the
    exact total of ``value_col`` (quantized to cents) generated by the
    cohort's users that many periods after their first activity.

    Same two-exchange shape: the user-keyed kernel derives each user's
    cohort (first period — rows arrive sorted by (user, period)) and
    collapses to per-partition ``(cohort, offset, cents)`` int64
    partials (composite ``cohort·2^20 + offset`` codes — offsets
    beyond 2^20 periods raise); the second tiny exchange finishes the
    sums.  NULL key/ts rows drop; NULL value counts 0 (mirrors SQL
    ``coalesce``).  Emits ``(cohort:int64, offset:int64,
    cents:int64)``.
    """
    if period not in _PERIOD_US:
        raise ValueError(f"period must be one of {sorted(_PERIOD_US)}")
    width = _PERIOD_US[period]

    def prep(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(b[key_col]), pc.is_valid(b[ts_col]))
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        ts = b[ts_col].combine_chunks()
        ts_i = (ts.cast(pa.int64()) if pa.types.is_timestamp(ts.type)
                else ts)
        per = pc.divide(ts_i, width)
        from ..functions.segments import cents_exact

        cents = cents_exact(b[value_col].combine_chunks(),
                            col=value_col)
        return pa.table({key_col: b[key_col], "__per": per,
                         "__c": pa.array(cents)})

    def kernel(t: pa.Table) -> pa.Table:
        empty = pa.table({"cohort": pa.array([], pa.int64()),
                          "offset": pa.array([], pa.int64()),
                          "cents": pa.array([], pa.int64())})
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        codes = pc.dictionary_encode(
            t[key_col].combine_chunks()).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        per = t["__per"].to_numpy(zero_copy_only=False)
        cents = t["__c"].to_numpy(zero_copy_only=False)
        seg_start = np.flatnonzero(np.concatenate(
            [[True], codes[1:] != codes[:-1]]))
        run_id = np.cumsum(np.concatenate(
            [[0], (codes[1:] != codes[:-1]).astype(np.int64)]))
        cohort = per[seg_start][run_id]   # sorted by (user, per)
        offset = per - cohort
        if offset.size and int(offset.max()) >= (1 << 20):
            raise ValueError("cohort_value_curve: offset exceeds 2^20 "
                             "periods — widen the period")
        comp = cohort * (1 << 20) + offset
        u, inv = np.unique(comp, return_inverse=True)
        s = np.zeros(len(u), np.int64)
        np.add.at(s, inv, cents)
        return pa.table({"cohort": pa.array(u >> 20, pa.int64()),
                         "offset": pa.array(u & ((1 << 20) - 1),
                                            pa.int64()),
                         "cents": pa.array(s)})

    def combine(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "cohort" not in t.column_names:
            return pa.table({"cohort": pa.array([], pa.int64()),
                             "offset": pa.array([], pa.int64()),
                             "cents": pa.array([], pa.int64())})
        comp = (t["cohort"].to_numpy(zero_copy_only=False)
                * (1 << 20)
                + t["offset"].to_numpy(zero_copy_only=False))
        u, inv = np.unique(comp, return_inverse=True)
        s = np.zeros(len(u), np.int64)
        np.add.at(s, inv, t["cents"].to_numpy(zero_copy_only=False))
        return pa.table({"cohort": pa.array(u >> 20, pa.int64()),
                         "offset": pa.array(u & ((1 << 20) - 1),
                                            pa.int64()),
                         "cents": pa.array(s)})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    partials = partitioned_refs(prepped, kernel, key=key_col,
                                sort_keys=[key_col, "__per"],
                                num_partitions=num_partitions)
    return partitioned_map([partials], combine, key="cohort",
                           sort_keys=["cohort", "offset"],
                           num_partitions=max(num_partitions // 4, 1))


def longest_streak(ds, *, key_col: str = "user_id",
                   ts_col: str = "ts", period: str = "day",
                   num_partitions: int = 16):
    """Per-key longest streak of CONSECUTIVE active periods — the
    engagement/habit feature (max run of days with ≥1 event), the
    gaps-and-islands maximum at corpus scale.

    ONE key-keyed exchange sorted ``(key, period)``; the kernel
    dedupes each key's periods (runs of equal values), marks
    consecutive steps (``diff == 1``) and takes the longest run —
    all vectorized run-length math, exact ints.  SQL replays with
    the classic ``period − row_number()`` island grouping.  NULL
    key/ts rows drop.  Emits ``(key_col, n_periods:int64,
    longest:int64)``.
    """
    if period not in _PERIOD_US:
        raise ValueError(f"period must be one of {sorted(_PERIOD_US)}")
    width = _PERIOD_US[period]
    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    ktype = base.field(key_col).type

    def prep(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(b[key_col]), pc.is_valid(b[ts_col]))
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        ts = b[ts_col].combine_chunks()
        ts_i = (ts.cast(pa.int64()) if pa.types.is_timestamp(ts.type)
                else ts)
        return pa.table({key_col: b[key_col],
                         "__per": pc.divide(ts_i, width)})

    def kernel(t: pa.Table) -> pa.Table:
        empty = pa.table({key_col: pa.array([], ktype),
                          "n_periods": pa.array([], pa.int64()),
                          "longest": pa.array([], pa.int64())})
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        keys = t[key_col].combine_chunks()
        codes = pc.dictionary_encode(keys).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        per = t["__per"].to_numpy(zero_copy_only=False)
        # distinct (key, period): rows sorted by (key, per)
        first = np.concatenate([[True], (codes[1:] != codes[:-1])
                                | (per[1:] != per[:-1])])
        codes, per = codes[first], per[first]
        key_rows = np.flatnonzero(first)
        n_keys = int(codes.max()) + 1
        n_per = np.bincount(codes, minlength=n_keys).astype(np.int64)
        # island id: a new island starts at a key change or a gap > 1
        new_island = np.concatenate(
            [[True], (codes[1:] != codes[:-1])
             | (per[1:] != per[:-1] + 1)])
        isl = np.cumsum(new_island) - 1
        isl_len = np.bincount(isl).astype(np.int64)
        isl_key = codes[np.flatnonzero(new_island)]
        longest = np.zeros(n_keys, np.int64)
        np.maximum.at(longest, isl_key, isl_len)
        first_rows = np.searchsorted(codes, np.arange(n_keys))
        return pa.table({
            key_col: keys.take(pa.array(key_rows[first_rows],
                                        pa.int64())),
            "n_periods": pa.array(n_per),
            "longest": pa.array(longest),
        })

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, kernel, key=key_col,
                           sort_keys=[key_col, "__per"],
                           num_partitions=num_partitions)


def _survival_cells(ds, *, user_col: str = "user_id",
                    ts_col: str = "ts", seq_col: str = "event_id",
                    type_col: str = "event_type",
                    censor_window_us: int = 7 * 86_400_000_000,
                    num_partitions: int = 32):
    """Kaplan-Meier survival curve per cohort — "how long do users
    stay active?" with RIGHT-CENSORING done properly: a user whose
    last event falls within ``censor_window_us`` of the corpus'
    maximum timestamp is still alive (censored), not churned — the
    naive lifetime histogram this replaces is biased low.

    Per user: birth = first event (min ``(ts, seq)``), death/censor =
    last event; duration = whole days (``floor((mx−mn)/86400e6)``,
    exact int); cohort = the event type at birth.  Per cohort the KM
    estimator at each distinct DEATH duration t::

        at_risk(t) = #users with dur >= t  (censored leave after t)
        surv(t)    = Π_{t' <= t} (1 − d_{t'} / at_risk(t'))

    kept as an EXACT rational (Python-int numerator/denominator
    product, never reduced); the emitted ``surv`` is
    ``float(num) / float(den)`` — one correctly-rounded division of
    two correctly-rounded int conversions, so the serial replay is
    bit-identical.

    Plan: ONE user-keyed exchange merges per-block (user, min, max)
    partials (blocks pre-reduce, the exchange moves one row per
    user per block); the kernel emits tiny (cohort, dur, deaths,
    censored) cells, combined on the driver by ``sum_partials`` (cells
    are cohorts × horizon-days) and returned as tuples in (cohort,
    dur) order.  The global max ts rides the same partials.  NULL
    user/ts/seq/type rows drop.

    Output: one row per (cohort, death duration):
    ``(cohort, dur_days, at_risk, deaths, censored, surv)``.
    Reference analog: none — companion of retention_cohorts/q121 in
    the retention family.
    """
    def partial(b: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.and_(pc.is_valid(b[user_col]), pc.is_valid(b[ts_col])),
            pc.and_(pc.is_valid(b[seq_col]), pc.is_valid(b[type_col])))
        keep = pc.fill_null(keep, False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        utype = b.schema.field(user_col).type
        ttype = b.schema.field(type_col).type
        if b.num_rows == 0:
            return pa.table({user_col: pa.array([], utype),
                             "__mn": pa.array([], pa.int64()),
                             "__sq": pa.array([], pa.int64()),
                             "__ty": pa.array([], ttype),
                             "__mx": pa.array([], pa.int64())})
        ts = b[ts_col].combine_chunks()
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.int64())
        t = np.asarray(ts.to_numpy(zero_copy_only=False))
        sq = b[seq_col].to_numpy(zero_copy_only=False).astype(
            np.int64)
        gd = pc.dictionary_encode(b[user_col].combine_chunks())
        codes = gd.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)
        order = np.lexsort((sq, t, codes))
        codes_s = codes[order]
        first = np.concatenate([[True], codes_s[1:] != codes_s[:-1]])
        fidx = order[np.flatnonzero(first)]
        g = len(gd.dictionary)
        mx = np.full(g, np.iinfo(np.int64).min, np.int64)
        np.maximum.at(mx, codes, t)
        urows = codes_s[np.flatnonzero(first)]
        return pa.table({
            user_col: gd.dictionary.take(pa.array(urows, pa.int64())),
            "__mn": pa.array(t[fidx]),
            "__sq": pa.array(sq[fidx]),
            "__ty": pc.take(b[type_col].combine_chunks(),
                            pa.array(fidx, pa.int64())),
            "__mx": pa.array(mx[urows])})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)

    def merge_users(t: pa.Table) -> pa.Table:
        ttype = t.schema.field("__ty").type
        empty = pa.table({"__ty": pa.array([], ttype),
                          "__dur": pa.array([], pa.int64()),
                          "__mx": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        # sorted by (user, __mn, __sq): first row per user is the
        # exact global birth
        codes = pc.dictionary_encode(
            t[user_col].combine_chunks()).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        first = np.concatenate([[True], codes[1:] != codes[:-1]])
        fidx = np.flatnonzero(first)
        mn = t["__mn"].to_numpy(zero_copy_only=False)[fidx]
        mxall = t["__mx"].to_numpy(zero_copy_only=False)
        g = len(fidx)
        seg = np.cumsum(first) - 1
        mx = np.full(g, np.iinfo(np.int64).min, np.int64)
        np.maximum.at(mx, seg, mxall)
        dur = (mx - mn) // 86_400_000_000
        return pa.table({
            "__ty": pc.take(t["__ty"].combine_chunks(),
                            pa.array(fidx, pa.int64())),
            "__dur": pa.array(dur.astype(np.int64)),
            "__mx": pa.array(mx)})

    prefs = materialized_block_refs(partials)

    @ray.remote
    def blk_max(b: pa.Table):
        return (int(pc.max(b["__mx"]).as_py())
                if b.num_rows else None)

    maxes = [m for m in ray.get([blk_max.remote(r) for r in prefs])
             if m is not None]
    if not maxes:
        return []
    global_mx = max(maxes)
    cutoff = global_mx - censor_window_us

    def cells_kernel(t: pa.Table) -> pa.Table:
        u = merge_users(t)
        ttype = u.schema.field("__ty").type
        empty = pa.table({"__ty": pa.array([], ttype),
                          "__dur": pa.array([], pa.int64()),
                          "deaths": pa.array([], pa.int64()),
                          "cens": pa.array([], pa.int64())})
        if u.num_rows == 0:
            return empty
        td = pc.dictionary_encode(u["__ty"].combine_chunks())
        tc = td.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)
        dur = u["__dur"].to_numpy(zero_copy_only=False)
        is_cens = (u["__mx"].to_numpy(zero_copy_only=False)
                   >= cutoff).astype(np.int64)
        cell = (tc * (int(dur.max()) + 1) + dur) * 2 + is_cens
        uc, inv = np.unique(cell, return_inverse=True)
        n = np.zeros(len(uc), np.int64)
        np.add.at(n, inv, 1)
        c_flag = uc % 2
        rest = uc // 2
        w = int(dur.max()) + 1
        return pa.table({
            "__ty": td.dictionary.take(pa.array(rest // w,
                                                pa.int64())),
            "__dur": pa.array((rest % w).astype(np.int64)),
            "deaths": pa.array(np.where(c_flag == 0, n, 0)),
            "cens": pa.array(np.where(c_flag == 1, n, 0))})

    users = partitioned_refs([prefs], cells_kernel, key=user_col,
                             sort_keys=[user_col, "__mn", "__sq"],
                             num_partitions=num_partitions)
    cells = sum_partials(ray.get(users),
                         keys=["__ty", "__dur"], vals=["deaths", "cens"])
    return [] if cells is None else list(zip(*(
        cells[c].to_pylist() for c in ("__ty", "__dur", "deaths", "cens"))))


def kaplan_meier(ds, *, user_col: str = "user_id",
                    ts_col: str = "ts", seq_col: str = "event_id",
                    type_col: str = "event_type",
                    censor_window_us: int = 7 * 86_400_000_000,
                    num_partitions: int = 32):
    """KM estimator over :func:`_survival_cells` — see the helper for
    the per-user lifetime derivation and exactness contract (this
    split exists so :func:`logrank_test` shares ONE copy of the
    censoring/cohort semantics)."""
    cells = _survival_cells(ds, user_col=user_col, ts_col=ts_col,
                            seq_col=seq_col, type_col=type_col,
                            censor_window_us=censor_window_us,
                            num_partitions=num_partitions)
    if not cells:
        return pa.table({
            "cohort": pa.array([], pa.string()),
            "dur_days": pa.array([], pa.int64()),
            "at_risk": pa.array([], pa.int64()),
            "deaths": pa.array([], pa.int64()),
            "censored": pa.array([], pa.int64()),
            "surv": pa.array([], pa.float64())})
    out = []
    for ty, grp in itertools.groupby(cells, key=lambda r: r[0]):
        grp = list(grp)
        total = sum(de + ce for _, _, de, ce in grp)
        gone = 0
        num, den = 1, 1
        for _, d, deaths, cens in grp:
            at_risk = total - gone
            if deaths > 0:
                num *= at_risk - deaths
                den *= at_risk
                out.append((ty, d, at_risk, deaths, cens,
                            float(num) / float(den)))
            gone += deaths + cens
    ttype = pa.string()
    if out:
        ttype = pa.array([out[0][0]]).type
    return pa.table({
        "cohort": pa.array([r[0] for r in out], ttype),
        "dur_days": pa.array([r[1] for r in out], pa.int64()),
        "at_risk": pa.array([r[2] for r in out], pa.int64()),
        "deaths": pa.array([r[3] for r in out], pa.int64()),
        "censored": pa.array([r[4] for r in out], pa.int64()),
        "surv": pa.array([r[5] for r in out], pa.float64())})


def logrank_test(ds, *, user_col: str = "user_id",
                 ts_col: str = "ts", seq_col: str = "event_id",
                 type_col: str = "event_type",
                 censor_window_us: int = 7 * 86_400_000_000,
                 num_partitions: int = 32):
    """Pairwise log-rank test between birth cohorts — DO two cohorts
    churn at the same rate, accounting for right-censoring?  The
    inference companion of :func:`kaplan_meier` (which only draws the
    curves): under H0 the observed deaths in cohort A at each pooled
    death time follow the hypergeometric law, and

        U = Σ_t (d_At − d_t·n_At/n_t)
        V = Σ_t d_t·(n_At/n_t)·(n_Bt/n_t)·(n_t−d_t)/(n_t−1)
        z = U / sqrt(V)

    Exactness: both sums accumulate as EXACT ``Fraction``s over the
    tiny (cohort, dur) cell table (shared :func:`_survival_cells` —
    ONE copy of the censoring/cohort/duration semantics); the
    emitted ``u``/``v`` are correctly-rounded floats of exact
    rationals and ``z`` is one division + one IEEE sqrt — the serial
    replay is bit-identical (fixture oracle; no SQL — the running
    at-risk recursion and rational sums).

    Emits one row per unordered cohort pair: ``(cohort_a, cohort_b,
    n_a:int64, n_b:int64, u:float64, v:float64, z:float64 — NULL
    when V = 0)``.  Reference analog: none (survival family).
    """
    cells = _survival_cells(ds, user_col=user_col, ts_col=ts_col,
                            seq_col=seq_col, type_col=type_col,
                            censor_window_us=censor_window_us,
                            num_partitions=num_partitions)
    empty = pa.table({"cohort_a": pa.array([], pa.string()),
                      "cohort_b": pa.array([], pa.string()),
                      "n_a": pa.array([], pa.int64()),
                      "n_b": pa.array([], pa.int64()),
                      "u": pa.array([], pa.float64()),
                      "v": pa.array([], pa.float64()),
                      "z": pa.array([], pa.float64())})
    if not cells:
        return empty
    per = {c: {d: (de, ce) for _, d, de, ce in grp}
           for c, grp in itertools.groupby(cells, key=lambda r: r[0])}
    cohorts = list(per)
    totals = {c: sum(v[0] + v[1] for v in per[c].values())
              for c in cohorts}
    rows = []
    for i, ca in enumerate(cohorts):
        for cb in cohorts[i + 1:]:
            U = Fraction(0)
            V = Fraction(0)
            gone_a = gone_b = 0
            # walk ALL durations of either cohort in order so the
            # at-risk counters stay exact
            all_durs = sorted(set(per[ca]) | set(per[cb]))
            for d in all_durs:
                da, ca_cens = per[ca].get(d, (0, 0))
                db, cb_cens = per[cb].get(d, (0, 0))
                na = totals[ca] - gone_a
                nb = totals[cb] - gone_b
                n = na + nb
                dt = da + db
                if dt > 0 and n > 1:
                    U += da - Fraction(dt * na, n)
                    V += (Fraction(dt * na, n)
                          * Fraction(nb, n)
                          * Fraction(n - dt, n - 1))
                gone_a += da + ca_cens
                gone_b += db + cb_cens
            u = float(U)
            v = float(V)
            z = u / np.sqrt(v) if v > 0 else None
            rows.append((ca, cb, totals[ca], totals[cb], u, v,
                         None if z is None else float(z)))
    ttype = pa.array([rows[0][0]]).type if rows else pa.string()
    return pa.table({
        "cohort_a": pa.array([r[0] for r in rows], ttype),
        "cohort_b": pa.array([r[1] for r in rows], ttype),
        "n_a": pa.array([r[2] for r in rows], pa.int64()),
        "n_b": pa.array([r[3] for r in rows], pa.int64()),
        "u": pa.array([r[4] for r in rows], pa.float64()),
        "v": pa.array([r[5] for r in rows], pa.float64()),
        "z": pa.array([r[6] for r in rows], pa.float64())})


def activation_latency(ds, *, key_col: str, ts_col: str,
                       seq_col: str, k: int = 5,
                       num_partitions: int = 16):
    """Time-to-activation per key — microseconds from the FIRST event
    to the ``k``-th event in ``(ts, seq)`` order (NULL when the key
    never reaches ``k`` events): the classic product-led-growth
    activation metric ("how fast do users reach 5 actions?"), the
    front-end complement of the retention/KM family.

    Exact int64 arithmetic over ONE key-keyed exchange (segment
    element picks in the partition sort order — no quantiles, just
    positions).  SQL replays with ``row_number()`` + a pivot on rn ∈
    {1, k}.  NULL key/ts/seq rows drop.

    Emits ``(key_col, n:int64, first_ts:int64, kth_ts:int64|NULL,
    activation_us:int64|NULL)``.
    Reference analog: none (retention family).
    """
    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    ktype = base.field(key_col).type

    def prep(b: pa.Table) -> pa.Table:
        keep = pc.is_valid(b[key_col])
        for c in (ts_col, seq_col):
            keep = pc.and_(keep, pc.is_valid(b[c]))
        keep = pc.fill_null(keep, False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        ts = b[ts_col].combine_chunks()
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.int64())
        return pa.table({key_col: b[key_col], "__ts": ts,
                         "__s": b[seq_col].combine_chunks().cast(
                             pa.int64())})

    empty = pa.table({key_col: pa.array([], ktype),
                      "n": pa.array([], pa.int64()),
                      "first_ts": pa.array([], pa.int64()),
                      "kth_ts": pa.array([], pa.int64()),
                      "activation_us": pa.array([], pa.int64())})

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        keys = t[key_col].combine_chunks()
        codes = pc.dictionary_encode(keys).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        ts = t["__ts"].to_numpy(zero_copy_only=False)
        new = np.concatenate([[True], codes[1:] != codes[:-1]])
        starts = np.flatnonzero(new)
        lens = np.diff(np.append(starts, len(codes)))
        first = ts[starts]
        has_k = lens >= k
        kth = np.where(has_k,
                       ts[np.minimum(starts + k - 1,
                                     len(ts) - 1)],
                       0)
        act = np.where(has_k, kth - first, 0)
        return pa.table({
            key_col: keys.take(pa.array(starts, pa.int64())),
            "n": pa.array(lens.astype(np.int64)),
            "first_ts": pa.array(first),
            "kth_ts": pa.array(kth, pa.int64(), mask=~has_k),
            "activation_us": pa.array(act, pa.int64(),
                                      mask=~has_k)})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, kernel, key=key_col,
                           sort_keys=[key_col, "__ts", "__s"],
                           num_partitions=num_partitions)


def daily_new_vs_returning(ds, *, key_col: str, ts_col: str,
                           num_partitions: int = 16):
    """Daily new-vs-returning curve — for every UTC day, how many
    distinct keys were active and how many were active for the FIRST
    time: the growth-accounting decomposition (acquisition vs
    retention) behind every DAU chart.

    Exactness: days are exact ``epoch_us // 86400e6`` ints; per-key
    first-day and per-day distinct-active counts are exact integers
    from ONE key-keyed exchange (each key's whole history co-locates,
    so "first day" is a segment min — no global ordering needed);
    per-day partials combine on the driver (days are few);
    ``new_frac`` is the one division.  NULL key/ts rows drop.
    Returns ``(day:int64, n_active:int64, n_new:int64,
    new_frac:float64)`` sorted by day.
    """
    US_DAY = 86_400_000_000

    def prep(b: pa.Table) -> pa.Table:
        mask = pc.and_(pc.is_valid(b[key_col]),
                       pc.is_valid(b[ts_col]))
        if not pc.all(pc.fill_null(mask, False)).as_py():
            b = b.filter(pc.fill_null(mask, False))
        t = b[ts_col].combine_chunks().cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        return pa.table({key_col: b[key_col],
                         "__day": pa.array(t // US_DAY)})

    empty = pa.table({"day": pa.array([], pa.int64()),
                      "act": pa.array([], pa.int64()),
                      "new": pa.array([], pa.int64())})

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        keys = t[key_col].combine_chunks()
        enc = pc.dictionary_encode(keys)
        codes = (pc.fill_null(enc.indices, -1)
                 .to_numpy(zero_copy_only=False).astype(np.int64))
        day = t["__day"].to_numpy(zero_copy_only=False)
        # sorted by (key, day): distinct (key, day) runs; a key's
        # first run is its first-ever day
        rstart = np.concatenate(
            [[True], (codes[1:] != codes[:-1]) | (day[1:] != day[:-1])])
        rf = np.flatnonzero(rstart)
        kc, dd = codes[rf], day[rf]
        kfirst = np.concatenate([[True], kc[1:] != kc[:-1]])
        ud, inv = np.unique(dd, return_inverse=True)
        act = np.bincount(inv, minlength=len(ud)).astype(np.int64)
        new = np.zeros(len(ud), np.int64)
        np.add.at(new, inv, kfirst)
        return pa.table({"day": pa.array(ud),
                         "act": pa.array(act),
                         "new": pa.array(new)})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    agg = sum_partials(ray.get(partitioned_refs(
        prepped, kernel, key=key_col, sort_keys=[key_col, "__day"],
        num_partitions=num_partitions)), keys=["day"], vals=["act", "new"])
    if agg is None:
        agg = empty
    return pa.table({
        "day": agg["day"], "n_active": agg["act"], "n_new": agg["new"],
        "new_frac": pa.array(agg["new"].to_numpy()
                             / agg["act"].to_numpy(), pa.float64())})
