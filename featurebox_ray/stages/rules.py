"""Association-rule mining over (basket, item) pairs — the classic
market-basket / co-usage analysis: for every ordered item pair A -> B,
the support, confidence and lift computed from exact distinct-basket
counts.

Designed for the common corpus shape: MANY baskets (users), FEW
distinct items (event types).  One basket-keyed exchange dedups
(basket, item) and emits tiny per-partition pair/single partials
(|items|^2 + |items| + 1 rows each); the driver combines them with
Python-int arithmetic (exact past 2^63) — no second shuffle.  For a
large item vocabulary, re-key the partial table on the pair instead
(the q62 heavy-hitters exchange shape); documented, not needed here.

Reference analog: none — companion of transitions / session
co-occurrence (q128) in the behavioral-features family.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def association_rules(ds, *, basket_col: str, item_col: str,
                      min_count: int = 1, num_partitions: int = 32):
    """Mine ordered rules A -> B with exact integer counts.

    Per rule: ``n_ab`` (baskets containing both), ``n_ant`` /
    ``n_cons`` (baskets containing each side), ``n_baskets`` (all
    non-empty baskets), and the three one-division ratios::

        support    = n_ab / n_baskets
        confidence = n_ab / n_ant
        lift       = (n_ab * n_baskets) / (n_ant * n_cons)

    Each ratio is ONE IEEE division of exactly-represented integers
    (products are Python ints on the driver; ``float()`` of an int is
    correctly rounded), so DuckDB replays them bit-for-bit.  Rules
    with ``n_ab < min_count`` drop.  NULL basket or item rows drop
    (mirror in SQL).  Both orientations of every co-occurring pair
    are emitted (confidence is directional).
    """
    import ray

    from .partition import partitioned_refs, sum_partials

    def prep(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(b[basket_col]),
                       pc.is_valid(b[item_col]))
        keep = pc.fill_null(keep, False)
        t = pa.table({"__b": b[basket_col], "__i": b[item_col]})
        if not pc.all(keep).as_py():
            t = t.filter(keep)
        if t.num_rows == 0:
            return t
        # local (basket, item) dedup before the exchange
        return t.group_by(["__b", "__i"]).aggregate([])

    def kernel(t: pa.Table) -> pa.Table:
        empty = pa.table({"a": pa.array([], pa.string()),
                          "b": pa.array([], pa.string()),
                          "n": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        # sorted by (__b, __i); dedup (basket, item) runs across the
        # merged per-block partials
        bk = pc.dictionary_encode(t["__b"].combine_chunks())
        bcodes = bk.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)
        it = pc.dictionary_encode(t["__i"].combine_chunks())
        icodes = it.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)
        first = np.concatenate(
            [[True], (bcodes[1:] != bcodes[:-1])
             | (icodes[1:] != icodes[:-1])])
        bcodes, icodes = bcodes[first], icodes[first]
        # per-basket segments over the deduped rows
        seg_first = np.concatenate([[True],
                                    bcodes[1:] != bcodes[:-1]])
        starts = np.flatnonzero(seg_first)
        lens = np.diff(np.append(starts, len(bcodes)))
        n_baskets = len(starts)
        n_items = len(it.dictionary)
        # singles: distinct baskets per item
        singles = np.zeros(n_items, np.int64)
        np.add.at(singles, icodes, 1)
        # pairs: items sorted within a basket run, so i < j gives the
        # canonical (min, max) orientation directly
        from ..functions.segments import triangular_pairs

        ig, jg, _ = triangular_pairs(
            starts.astype(np.int64), lens.astype(np.int64))
        cell = icodes[ig] * n_items + icodes[jg]
        uc, inv = np.unique(cell, return_inverse=True)
        cnt = np.zeros(len(uc), np.int64)
        np.add.at(cnt, inv, 1)
        items = it.dictionary
        a_arr = items.take(pa.array(uc // n_items, pa.int64()))
        b_arr = items.take(pa.array(uc % n_items, pa.int64()))
        present = np.flatnonzero(singles)
        sing = items.take(pa.array(present, pa.int64()))
        null1 = pa.array([None], items.type)
        return pa.table({
            "a": pa.concat_arrays([a_arr, sing, null1]).cast(
                pa.string()),
            "b": pa.concat_arrays([b_arr, sing, null1]).cast(
                pa.string()),
            "n": pa.array(np.concatenate(
                [cnt, singles[present], [n_baskets]]), pa.int64())})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True, batch_size=None)
    partials = partitioned_refs(prepped, kernel, key="__b",
                                sort_keys=["__b", "__i"],
                                num_partitions=num_partitions)

    agg = sum_partials(ray.get(partials), keys=["a", "b"], vals=["n"])
    if agg is None:
        agg = pa.table({"a": pa.array([], pa.string()),
                        "b": pa.array([], pa.string()),
                        "n": pa.array([], pa.int64())})
    # the kernels' (NULL, NULL) rows carry the basket counts
    basket = pc.is_null(agg["a"])
    n_baskets = pc.sum(agg.filter(basket)["n"]).as_py() or 0
    agg = agg.filter(pc.invert(basket))
    same = pc.equal(agg["a"], agg["b"])
    single = agg.filter(same)
    single_n = dict(zip(single["a"].to_pylist(), single["n"].to_pylist()))
    pairs = agg.filter(pc.and_(pc.invert(same),
                               pc.greater_equal(agg["n"], min_count)))
    ants, conss, n_abs, n_ants, n_conss = [], [], [], [], []
    sups, confs, lifts = [], [], []
    for a, b, n_ab in zip(pairs["a"].to_pylist(), pairs["b"].to_pylist(),
                          pairs["n"].to_pylist()):
        for ant, cons in ((a, b), (b, a)):
            na, nc = single_n[ant], single_n[cons]
            ants.append(ant)
            conss.append(cons)
            n_abs.append(n_ab)
            n_ants.append(na)
            n_conss.append(nc)
            sups.append(float(n_ab) / float(n_baskets))
            confs.append(float(n_ab) / float(na))
            lifts.append(float(n_ab * n_baskets) / float(na * nc))
    return pa.table({
        "ant": pa.array(ants, pa.string()),
        "cons": pa.array(conss, pa.string()),
        "n_ab": pa.array(n_abs, pa.int64()),
        "n_ant": pa.array(n_ants, pa.int64()),
        "n_cons": pa.array(n_conss, pa.int64()),
        "n_baskets": pa.array([n_baskets] * len(ants), pa.int64()),
        "support": pa.array(sups, pa.float64()),
        "confidence": pa.array(confs, pa.float64()),
        "lift": pa.array(lifts, pa.float64())})
