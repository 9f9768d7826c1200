"""Multi-touch conversion attribution — split each conversion's value
linearly across the touch events that preceded it within a horizon,
in EXACT integer cents via the largest-remainder method (credit sums
reconcile to the attributed conversion total to the cent, the property
finance teams actually audit).

Per conversion with value ``c`` cents and ``n`` preceding touches:
every touch gets ``c // n`` and the first ``c % n`` touches in
``(ts, event_id)`` order get one extra cent — all integer ops, so the
per-type credit totals replay bit-exactly in SQL (`row_number()` +
``cents // n + (rn <= cents % n)``).

Scale shape: one user-keyed exchange; inside each sorted partition the
conversion→touch windows expand via the bounded searchsorted span walk
(the q49/q171 convention, expansion capped by ``max_expansion``), the
per-touch credits reduce to per-type int64 partials in the kernel, and
the driver merges ≤ types × partitions partial rows as Python ints —
no second shuffle.

Only conversions with positive cents attribute (non-positive carry no
credit — documented, mirrored by the oracle); conversions with zero
preceding touches attribute nothing.

Reference analog: none; the training-data sibling is credit assignment
over session context windows (SURVEY.md §2.5 windowed aggregates).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["linear_attribution", "shapley_attribution"]


def linear_attribution(ds, *, key_col: str, ts_col: str, seq_col: str,
                       type_col: str, value_col: str, conv_type: str,
                       horizon, time_decay: bool = False,
                       num_partitions: int = 16,
                       max_expansion: int = 50_000_000):
    """Returns ``(event_type, credit_cents:int64, n_touches:int64)`` —
    the attributed credit per touch type.  ``horizon`` follows the
    asof native-unit convention (plain int = µs for timestamp[us]
    inputs).

    ``time_decay=True`` switches the split from equal shares to
    1-day-half-life weights ``w = 2^(K−Δdays)`` (Δ = whole days
    before the conversion, K = the horizon in days) — INTEGER powers
    of two, so the proportional split stays exact via the
    weighted largest-remainder method: ``base = c·w // W``, leftover
    cents to the largest remainders, ``(rem desc, touch order)``
    ties.  Credit totals still reconcile to the cent, and SQL
    replays with ``//``/``%`` + a window rank."""
    import ray

    from .partition import partitioned_refs

    h = int(horizon)

    def prep(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.and_(pc.is_valid(b[key_col]),
                               pc.is_valid(b[ts_col])),
                       pc.and_(pc.is_valid(b[seq_col]),
                               pc.is_valid(b[type_col])))
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        ts = b[ts_col].combine_chunks()
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.int64())
        from ..functions.segments import cents_exact

        cents = cents_exact(b[value_col].combine_chunks(),
                            col=value_col)
        return pa.table({key_col: b[key_col], "__t": ts,
                         "__s": b[seq_col], "__ty": b[type_col],
                         "__c": pa.array(cents)})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)

    empty = pa.table({"event_type": pa.array([], pa.string()),
                      "credit": pa.array([], pa.int64()),
                      "touches": pa.array([], pa.int64())})

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        keys = t[key_col].combine_chunks()
        ts = t["__t"].to_numpy(zero_copy_only=False)
        ty = t["__ty"].combine_chunks()
        cents = t["__c"].to_numpy(zero_copy_only=False)
        codes = pc.dictionary_encode(keys).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        is_conv = pc.equal(ty, conv_type).to_numpy(
            zero_copy_only=False)
        is_touch = ~is_conv
        conv = np.flatnonzero(is_conv & (cents > 0))
        if len(conv) == 0:
            return empty
        # per-segment monotone offset (the _window_bounds_time trick):
        # gaps wider than the horizon make ONE global searchsorted give
        # the per-key window [t-h, t) with no cross-key leakage
        from ..functions.segments import segment_ids

        seg_start, row_in_seg, is_start = segment_ids(codes)
        rel = ts - ts[seg_start]
        start_pos = np.flatnonzero(is_start)
        seg_ends = np.append(start_pos[1:], len(codes))
        span_t = rel[seg_ends - 1]
        seg_off = np.zeros(len(start_pos), np.int64)
        if len(start_pos) > 1:
            seg_off[1:] = np.cumsum(span_t[:-1] + h + 1)
        mono = rel + np.repeat(seg_off, seg_ends - start_pos)
        lo = np.searchsorted(mono, mono[conv] - h, "left")
        hi = np.searchsorted(mono, mono[conv], "left")
        lo = np.maximum(lo, seg_start[conv])
        hi = np.maximum(hi, lo)
        spans = hi - lo
        if int(spans.sum()) > max_expansion:
            raise ValueError("linear_attribution: window expansion "
                             f"{int(spans.sum())} exceeds max_expansion"
                             f"={max_expansion} — shrink the horizon")
        total = int(spans.sum())
        if total == 0:
            return empty
        gid = np.repeat(np.arange(len(conv)), spans)
        rows = (np.arange(total)
                - np.repeat(np.cumsum(spans) - spans, spans)
                + lo[gid])
        m = is_touch[rows]
        # 1-based rank among the conversion's touches, in row order
        # (= (ts, seq) order — the partition sort)
        c = np.cumsum(m)
        blk0 = np.minimum(np.cumsum(spans) - spans, total - 1)
        base = np.where(spans > 0, c[blk0] - m[blk0], 0)
        rank = c - base[gid]
        gid_t, rank_t, rows_t = gid[m], rank[m], rows[m]
        n = np.bincount(gid_t, minlength=len(conv)).astype(np.int64)
        cc = cents[conv]
        if not time_decay:
            credit = (cc[gid_t] // n[gid_t]
                      + (rank_t <= cc[gid_t] % n[gid_t]))
        else:
            day = 86_400_000_000
            K = int((h + day - 1) // day)
            if K > 62:
                raise ValueError(
                    "linear_attribution time_decay: horizon > 62 "
                    "days would overflow the 2^(K-dd) int64 "
                    "weights — shrink the horizon")
            dd = (ts[conv][gid_t] - ts[rows_t]) // day
            w = np.int64(1) << np.clip(K - dd, 0, K).astype(np.int64)
            W = np.zeros(len(conv), np.int64)
            np.add.at(W, gid_t, w)
            cw = cc[gid_t]
            mx = int(cw.max(initial=0))
            if mx and int(w.max(initial=0)) > (2**63 - 1) // mx:
                raise ValueError("linear_attribution time_decay "
                                 "int64 guard exceeded — shrink the "
                                 "horizon or values")
            base = cw * w // W[gid_t]
            rem = cw * w % W[gid_t]
            spent = np.zeros(len(conv), np.int64)
            np.add.at(spent, gid_t, base)
            leftover = cc - spent
            o = np.lexsort((rank_t, -rem, gid_t))
            gs = gid_t[o]
            pos_new = np.concatenate([[True], gs[1:] != gs[:-1]])
            pstarts = np.flatnonzero(pos_new)
            prid = np.cumsum(pos_new.astype(np.int64)) - 1
            pos = np.arange(len(gs)) - pstarts[prid]
            extra = np.zeros(len(gs), np.int64)
            extra[o] = (pos < leftover[gs]).astype(np.int64)
            credit = base + extra
        tcodes_arr = pc.dictionary_encode(ty.take(
            pa.array(rows_t, pa.int64())))
        tcodes = tcodes_arr.indices.to_numpy(zero_copy_only=False)
        tvals = tcodes_arr.dictionary
        s = np.zeros(len(tvals), np.int64)
        cnt = np.zeros(len(tvals), np.int64)
        np.add.at(s, tcodes, credit)
        np.add.at(cnt, tcodes, 1)
        return pa.table({"event_type": tvals.cast(pa.string()),
                         "credit": pa.array(s),
                         "touches": pa.array(cnt)})

    partials = partitioned_refs(prepped, kernel, key=key_col,
                                sort_keys=[key_col, "__t", "__s"],
                                num_partitions=num_partitions)
    from .partition import sum_partials

    comb = sum_partials(ray.get(partials),
                        keys=["event_type"],
                        vals=["credit", "touches"])
    if comb is None:
        return pa.table({
            "event_type": pa.array([], pa.string()),
            "credit_cents": pa.array([], pa.int64()),
            "n_touches": pa.array([], pa.int64())})
    return pa.table({
        "event_type": comb["event_type"].combine_chunks().cast(
            pa.string()),
        "credit_cents": comb["credit"].combine_chunks().cast(
            pa.int64()),
        "n_touches": comb["touches"].combine_chunks().cast(pa.int64()),
    })


def shapley_attribution(ds, *, key_col: str, type_col: str,
                        conversion_type: str | None = None,
                        num_partitions: int = 32,
                        max_channels: int = 20):
    """Shapley-value channel attribution (Zhao et al. 2018's
    simplified game) — the order-free credit split linear_attribution
    can't provide: each channel's credit is its average marginal
    contribution to the observed conversion rate across all channel
    coalitions,

        phi_i = Σ_{S ⊆ U\\{i}} |S|!·(k−1−|S|)!/k! · (v(S∪{i}) − v(S))

    with ``v(S) = converted(S) / users(S)`` over users whose EXACT
    distinct-channel set is ``S`` (unobserved subsets contribute 0,
    ``v(∅) = 0``).  ``conversion_type`` defaults to the
    lexicographically LAST event type (documented synthetic-schema
    convention); the remaining types are the channels; users with an
    empty channel set drop.

    Exactness: per-subset (users, conversions) are exact int64 cell
    counts; every v and factorial weight is a Python ``Fraction``;
    the emitted ``shapley`` is ONE float division of the exact
    rational — a serial replay is bit-identical.

    Plan: a tiny distinct-type pre-pass fixes the channel universe;
    ONE user-keyed exchange reduces each user to ``(bitmask,
    converted)``; per-partition dense bitmask-cell partials combine
    on the driver, where the Shapley sum iterates OBSERVED subsets
    only (unobserved coalitions have v = 0) — O(k · observed)
    exact-rational ops.  Raises when channels > ``max_channels``
    (bounds the per-partition cell table).

    Output: ``(channel, n_users_with, shapley)``.  Reference analog:
    none — companion of linear_attribution (q188).
    """
    from fractions import Fraction
    from math import factorial

    import ray

    from .partition import materialized_block_refs, partitioned_refs

    def types_partial(b: pa.Table) -> pa.Table:
        col = b[type_col]
        keep = pc.fill_null(pc.is_valid(col), False)
        t = pa.table({type_col: col})
        if not pc.all(keep).as_py():
            t = t.filter(keep)
        return t.group_by([type_col]).aggregate([])

    tp = ds.map_batches(types_partial, batch_format="pyarrow",
                        zero_copy_batch=True, batch_size=None)
    all_types: set = set()
    for blk in ray.get(materialized_block_refs(tp)):
        all_types.update(blk[type_col].to_pylist())
    all_types = sorted(all_types)
    if not all_types:
        return pa.table({"channel": pa.array([], pa.string()),
                         "n_users_with": pa.array([], pa.int64()),
                         "shapley": pa.array([], pa.float64())})
    conv = (conversion_type if conversion_type is not None
            else all_types[-1])
    channels = [t for t in all_types if t != conv]
    k = len(channels)
    if k > max_channels:
        raise ValueError(f"shapley_attribution: {k} channels > "
                         f"max_channels={max_channels} (2^k driver "
                         "cells)")
    bit_of = {t: i for i, t in enumerate(channels)}

    def prep(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(b[key_col]),
                       pc.is_valid(b[type_col]))
        keep = pc.fill_null(keep, False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        return pa.table({key_col: b[key_col],
                         type_col: b[type_col]}).group_by(
            [key_col, type_col]).aggregate([])

    def kernel(t: pa.Table) -> pa.Table:
        empty = pa.table({"cell": pa.array([], pa.int64()),
                          "n": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        codes = pc.dictionary_encode(
            t[key_col].combine_chunks()).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        tv = t[type_col].to_pylist()
        bits = np.array([bit_of.get(x, -1) for x in tv], np.int64)
        is_conv = np.array([x == conv for x in tv], bool)
        g = int(codes.max()) + 1
        mask = np.zeros(g, np.int64)
        np.bitwise_or.at(mask, codes[bits >= 0],
                         np.int64(1) << bits[bits >= 0])
        converted = np.zeros(g, bool)
        converted[codes[is_conv]] = True
        keepu = mask > 0               # empty channel set drops
        cell = mask[keepu] * 2 + converted[keepu].astype(np.int64)
        uc, inv = np.unique(cell, return_inverse=True)
        n = np.zeros(len(uc), np.int64)
        np.add.at(n, inv, 1)
        return pa.table({"cell": pa.array(uc), "n": pa.array(n)})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True, batch_size=None)
    cells = partitioned_refs(prepped, kernel, key=key_col,
                             sort_keys=[key_col, type_col],
                             num_partitions=num_partitions)
    from .partition import sum_partials

    comb = sum_partials(ray.get(cells), keys=["cell"], vals=["n"])
    users: dict = {}
    convs: dict = {}
    if comb is not None:
        cell_np = comb["cell"].to_numpy(
            zero_copy_only=False).astype(np.int64)
        n_np = comb["n"].to_numpy(
            zero_copy_only=False).astype(np.int64)
        uq, inv = np.unique(cell_np // 2, return_inverse=True)
        tot = np.zeros(len(uq), np.int64)
        np.add.at(tot, inv, n_np)
        odd = cell_np % 2 == 1
        ctot = np.zeros(len(uq), np.int64)
        np.add.at(ctot, inv[odd], n_np[odd])
        users = dict(zip(uq.tolist(), tot.tolist()))
        # zero-conv subsets stay absent (downstream uses .get(S, 0))
        convs = {int(u): int(c)
                 for u, c in zip(uq.tolist(), ctot.tolist()) if c}

    # iterate OBSERVED subsets only (unobserved have v = 0): each
    # observed T contributes +w(|T|-1)·v(T) to every i in T and
    # −w(|T|)·v(T) to every i outside — O(k · observed) exact-
    # rational ops instead of k·2^k
    fk = factorial(k)
    w_of = [Fraction(factorial(s) * factorial(k - 1 - s), fk)
            for s in range(k)]
    phi = [Fraction(0)] * k
    n_with = [0] * k
    for S, nS in users.items():
        vS = Fraction(convs.get(S, 0), nS)
        size = bin(S).count("1")
        for i in range(k):
            if S & (1 << i):
                phi[i] += w_of[size - 1] * vS
                n_with[i] += nS
            else:
                phi[i] -= w_of[size] * vS
    return pa.table({
        "channel": pa.array(channels, pa.string()),
        "n_users_with": pa.array(n_with, pa.int64()),
        "shapley": pa.array(
            [float(p.numerator) / float(p.denominator)
             for p in phi], pa.float64())})


START, CONV, NULLA = "\x00start", "\x00conv", "\x00null"


def markov_attribution(ds, *, key_col: str, ts_col: str,
                       order_col: str, type_col: str,
                       conv_type: str, num_partitions: int = 16):
    """Markov removal-effect attribution — the fourth classic channel
    model next to linear (q188), time-decay (q257) and Shapley
    (q223): journeys become a first-order Markov chain (start →
    channels → conversion/null absorbers), and a channel's credit is
    how much the start→conversion probability DROPS when every
    transition into that channel is redirected to the null absorber
    (Anderl et al. 2016's removal effect).

    Journey per key: events in (ts, order) order, truncated at the
    FIRST ``conv_type`` event; the non-conv prefix is the channel
    path, absorbed by conv (if reached) or null (journey ended
    unconverted).  Transition counts are EXACT integers from one
    key-keyed exchange (per-partition vectorized pair counting, one
    ``sum_partials`` combine); the only float work is the tiny
    (K+1)-state absorbing-chain solve on the driver, replayed
    bit-identically by the serial fixture (identical count matrix →
    identical ``np.linalg.solve`` sequence).

    Returns ``(channel:string, removal_effect:float64,
    share:float64)`` sorted by channel; ``share`` normalizes the
    removal effects (NULL when all effects are 0).  Rows with NULL
    key/ts/order/type drop.  Keys whose journey is empty contribute
    nothing.  ``(key, ts, order)`` must be unique (raises otherwise —
    a tie would leave journey order block-layout-dependent).  A
    channel value spelled like a chain state (``"\\x00start"``,
    ``"\\x00conv"``, ``"\\x00null"``) raises ``ValueError`` naming it:
    it would merge into that state.
    """
    import ray

    from .partition import partitioned_refs

    def prep(b: pa.Table) -> pa.Table:
        mask = pc.is_valid(b[key_col])
        for c in (ts_col, order_col, type_col):
            mask = pc.and_(mask, pc.is_valid(b[c]))
        if not pc.all(pc.fill_null(mask, False)).as_py():
            b = b.filter(pc.fill_null(mask, False))
        return b.select([key_col, ts_col, order_col, type_col])

    empty = pa.table({"f": pa.array([], pa.string()),
                      "t": pa.array([], pa.string()),
                      "cnt": pa.array([], pa.int64())})

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        keys = t[key_col].combine_chunks()
        kenc = pc.dictionary_encode(keys)
        kc = (pc.fill_null(kenc.indices, -1)
              .to_numpy(zero_copy_only=False).astype(np.int64))
        tenc = pc.dictionary_encode(t[type_col].combine_chunks())
        tdict = tenc.dictionary.to_pylist()
        for v in (START, CONV, NULLA):
            if v in tdict and v != conv_type:
                raise ValueError(
                    f"markov_attribution: {type_col} value {v!r} is "
                    "the name of a chain state; rename the channel")
        tc = tenc.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)
        # (key, ts, order) must be unique (the q248/watermark
        # contract): a tie would leave the journey's event order to
        # block layout and silently diverge from any serial replay
        ts_v = t[ts_col].combine_chunks().to_numpy(
            zero_copy_only=False)
        od_v = t[order_col].combine_chunks().to_numpy(
            zero_copy_only=False)
        if len(kc) > 1:
            dup = ((kc[1:] == kc[:-1]) & (ts_v[1:] == ts_v[:-1])
                   & (od_v[1:] == od_v[:-1]))
            if dup.any():
                raise ValueError(
                    "markov_attribution: duplicate (key, ts, order) "
                    "rows — journey order would be block-layout-"
                    "dependent; deduplicate or disambiguate "
                    "order_col")
        conv_code = tdict.index(conv_type) if conv_type in tdict \
            else -99
        is_start = np.concatenate([[True], kc[1:] != kc[:-1]])
        is_conv = tc == conv_code
        # exclusive per-segment prefix of conv counts: rows strictly
        # before the first conv are channel events
        cs = np.cumsum(is_conv)
        seg_first = np.flatnonzero(is_start)
        g = np.cumsum(is_start) - 1
        excl = cs - is_conv - (cs - is_conv)[seg_first][g]
        chan = ~is_conv & (excl == 0)
        conv_present = np.zeros(len(seg_first), bool)
        np.logical_or.at(conv_present, g, is_conv)
        # channel-row incoming transitions: prev is channel or START
        frm = np.where(is_start, np.int64(-1), np.concatenate(
            [[np.int64(-1)], tc[:-1]]))
        pf, pt = frm[chan], tc[chan]
        # per-segment terminal: last channel row -> conv/null; empty
        # channel prefix with conv -> start -> conv
        n_chan = np.zeros(len(seg_first), np.int64)
        np.add.at(n_chan, g, chan)
        # last channel type per segment: rows are ordered and fancy
        # assignment keeps the LAST duplicate index
        last_type = np.full(len(seg_first), -1, np.int64)
        idx_chan = np.flatnonzero(chan)
        last_type[g[idx_chan]] = tc[idx_chan]
        term_f = np.where(n_chan > 0, last_type, np.int64(-1))
        term_t = np.where(conv_present, np.int64(-2), np.int64(-3))
        keep_term = (n_chan > 0) | conv_present
        # drop start->null of empty journeys with no conv and no
        # channels (cannot happen: a segment has >= 1 row)
        pf = np.concatenate([pf, term_f[keep_term]])
        pt = np.concatenate([pt, term_t[keep_term]])
        # count pairs on composite codes
        K = len(tdict)
        comp = (pf + 3) * (K + 3) + (pt + 3)
        u, cnts = np.unique(comp, return_counts=True)
        uf = u // (K + 3) - 3
        ut = u % (K + 3) - 3
        names = {-1: START, -2: CONV, -3: NULLA}

        def nm(c):
            return names.get(int(c), tdict[int(c)] if c >= 0 else "?")

        return pa.table({
            "f": pa.array([nm(c) for c in uf], pa.string()),
            "t": pa.array([nm(c) for c in ut], pa.string()),
            "cnt": pa.array(cnts.astype(np.int64))})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    from .partition import sum_partials

    comb = sum_partials(ray.get(partitioned_refs(
        prepped, kernel, key=key_col,
        sort_keys=[key_col, ts_col, order_col],
        num_partitions=num_partitions)), keys=["f", "t"], vals=["cnt"])
    counts = {} if comb is None else {
        (f, to): int(c)
        for f, to, c in zip(comb["f"].to_pylist(),
                            comb["t"].to_pylist(),
                            comb["cnt"].to_pylist())}
    return _markov_solve(counts)


def _markov_solve(counts: dict) -> pa.Table:
    """Absorbing-chain solve + removal effects from exact transition
    counts — the ONE float path, shared with the fixture replay."""
    channels = sorted({s for pair in counts for s in pair
                       if s not in (START, CONV, NULLA)})
    states = [START] + channels            # transient states
    sidx = {s: i for i, s in enumerate(states)}
    n = len(states)
    C = np.zeros((n, n + 2), np.float64)   # cols: transient + conv,null
    for (f, t), c in counts.items():
        if f not in sidx:
            continue
        j = sidx[t] if t in sidx else (n if t == CONV else n + 1)
        C[sidx[f], j] += float(c)

    def absorb_prob(redirect=None):
        M = C.copy()
        if redirect is not None:
            j = sidx[redirect]
            M[:, n + 1] += M[:, j]         # into-channel -> null
            M[:, j] = 0.0
            M[j, :] = 0.0
        tot = M.sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            P = M / tot[:, None]
        P[tot == 0] = 0.0
        Q, r = P[:, :n], P[:, n]
        sol = np.linalg.solve(np.eye(n) - Q, r)
        return float(sol[0])

    p_base = absorb_prob()
    eff = []
    for ch in channels:
        p_rm = absorb_prob(redirect=ch)
        eff.append(1.0 - p_rm / p_base if p_base > 0 else 0.0)
    tot = sum(eff)
    share = [e / tot if tot > 0 else None for e in eff]
    return pa.table({
        "channel": pa.array(channels, pa.string()),
        "removal_effect": pa.array(eff, pa.float64()),
        "share": pa.array(share, pa.float64())})
