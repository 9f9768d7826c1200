"""K-minimum-values (KMV) distinct-count sketch — mergeable approximate
COUNT(DISTINCT value) per group.

A KMV sketch keeps the ``k`` smallest hash values of the distinct inputs;
with the kth-smallest normalized hash ``u_k`` the estimator is
``(k-1) / u_k`` (Bar-Yossef et al. 2002 / Beyer et al. "distinct sampling").
The sketch is a set union under merge, so it composes exactly with the
engine's partial→combine aggregate shape: every block contributes at most
``k`` rows per group, the final per-group combine is a union + take-k —
at 100 TB the shuffle moves O(blocks × groups × k) tiny rows, never the
data.

Hash choice: md5 truncated to 60 bits.  md5 is the ONLY per-row Python in
this stage and it runs once per *distinct value per batch* (dictionary
dedupe first), bounded by value cardinality, not row count — the same
deliberate replayability trade as the winnowing fingerprint in
``stages/text.py``: DuckDB computes the identical sketch with
``CAST('0x' || substr(md5(v), 1, 15) AS UBIGINT)``, so the estimate is
value-hash-checkable end to end (60-bit hashes convert to float64 with
identical IEEE rounding on both sides; ``(k-1) * 2^60`` is exact in
float64, so the division is bit-identical).

Reference analog: none — the reference has no approximate-distinct
operator; this is one of the beyond-reference scale operators (exact
distinct is q05 / ``relational.distinct_users_per_type``).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .partition import (each_group, materialized_block_refs, partitioned_map,
                        partitioned_refs)

HASH_HEX_DIGITS = 15          # 60 bits: exact in int64, headroom in ops below
HASH_SPAN = float(1 << (4 * HASH_HEX_DIGITS))


def _md5_60(uniques) -> np.ndarray:
    """60-bit md5 prefix per value (values stringified like SQL
    ``CAST(v AS VARCHAR)``); one md5 per DISTINCT value only."""
    return np.fromiter(
        (int(hashlib.md5(str(v).encode()).hexdigest()[:HASH_HEX_DIGITS], 16)
         for v in uniques),
        dtype=np.int64, count=len(uniques))


def _partial_kernel(batch: pa.Table, group_col: str, value_col: str,
                    k: int) -> pa.Table:
    """≤k smallest distinct hashes per group present in this batch."""
    mask = pc.and_(pc.is_valid(batch[group_col]), pc.is_valid(batch[value_col]))
    if not pc.all(mask).as_py():
        batch = batch.filter(mask)
    if batch.num_rows == 0:
        return pa.table({group_col: pa.array([], batch.schema.field(group_col).type),
                         "hv": pa.array([], pa.int64())})
    gd = pc.dictionary_encode(batch[group_col].combine_chunks())
    codes = gd.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    vals = batch[value_col].to_numpy(zero_copy_only=False)
    uv, inv = np.unique(vals, return_inverse=True)
    hv = _md5_60(uv)[inv]
    # dedupe (group, hash) pairs, then keep the k smallest per group:
    # one lexsort gives both (pairs sharing a group are hash-sorted)
    order = np.lexsort((hv, codes))
    c, h = codes[order], hv[order]
    first = np.ones(len(c), bool)
    first[1:] = (c[1:] != c[:-1]) | (h[1:] != h[:-1])
    c, h = c[first], h[first]
    # rank within each group run; keep rank < k
    starts = np.flatnonzero(np.concatenate([[True], c[1:] != c[:-1]]))
    run_id = np.cumsum(np.concatenate([[0], (c[1:] != c[:-1]).astype(np.int64)]))
    rank = np.arange(len(c)) - starts[run_id]
    keep = rank < k
    groups = gd.dictionary.take(pa.array(c[keep], pa.int64()))
    return pa.table({group_col: groups, "hv": pa.array(h[keep], pa.int64())})


def kmv_distinct(ds, *, group_col: str, value_col: str, k: int = 64):
    """Approximate COUNT(DISTINCT value_col) GROUP BY group_col.

    Returns a Dataset with columns ``(group_col, k_used:int64,
    kth_hash:int64, est_distinct:float64)``; when a group has fewer than
    ``k`` distinct hashes the estimate is the exact count.
    """
    partials = ds.map_batches(
        lambda b: _partial_kernel(b, group_col, value_col, k),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None)

    def finalize(t: pa.Table) -> pa.Table:
        hv = np.unique(t["hv"].to_numpy(zero_copy_only=False))  # cross-batch dedupe
        k_used = min(k, len(hv))
        kth = int(hv[k_used - 1])
        est = float(k_used) if k_used < k else (k - 1) * HASH_SPAN / float(kth)
        return pa.table({
            group_col: t[group_col].slice(0, 1),
            "k_used": pa.array([k_used], pa.int64()),
            "kth_hash": pa.array([kth], pa.int64()),
            "est_distinct": pa.array([est], pa.float64()),
        })

    # the partials table is O(groups × blocks × k) rows — the exchange
    # shuffles sketches, never data
    return partitioned_map(partials, each_group(finalize, [group_col]),
                           key=group_col, sort_keys=[group_col])


def hll_distinct(ds, *, group_col: str, value_col: str, p: int = 8):
    """HyperLogLog distinct-count sketch per group (Flajolet et al. 2007)
    — the fixed-memory complement to :func:`kmv_distinct`: a group's whole
    value set collapses into ``m = 2**p`` one-byte registers that merge by
    elementwise MAX, so the shuffle moves O(blocks × groups × m) tiny
    register rows regardless of cardinality and the sketch size never
    grows past ``m`` (where KMV keeps ``k`` full hashes).

    Exactness contract (what makes this value-hash-oracled rather than
    "approximately right"): the raw HLL estimator
    ``alpha_m * m^2 / sum_j 2^(-M_j)`` has an order-dependent float sum at
    its core — instead the harmonic sum is computed as the EXACT integer
    ``S = sum_j 2^(K - M_j)`` with ``K = w+1`` the maximum possible rank
    (w = 60-p remainder bits), which is order-independent and fits int64
    (``S <= m * 2^K = 2^(p+w+1) = 2^61``).  The estimate is then exactly
    two IEEE ops from exact values: ``alpha_m * (m^2 * 2^K) / S`` —
    DuckDB replays it bit-identically (register ranks via
    ``length(printf('%b', rem))``, the integer sum via ``<<``).  The
    standard small/large-range bias corrections use ``ln`` (libm ulps
    differ across engines) and are deliberately omitted — this is the
    RAW estimator on both sides, documented here.

    Hashes are the module's 60-bit md5 prefixes (one md5 per distinct
    value per batch — the documented replayable-hash trade; at 100 TB
    swap ``_md5_60`` for a vectorized hash and drop the SQL oracle).

    Returns one row per group: ``(group_col, n_zero_regs:int64,
    s_int:int64, est_distinct:float64)``.
    """
    if not 4 <= p <= 16:
        raise ValueError("p must be in [4, 16]")
    m = 1 << p
    w = 4 * HASH_HEX_DIGITS - p          # remainder bits (52 at p=8)
    big_k = w + 1                        # max possible register rank

    def partial(batch: pa.Table) -> pa.Table:
        """per-block elementwise-max registers per group present."""
        mask = pc.and_(pc.is_valid(batch[group_col]),
                       pc.is_valid(batch[value_col]))
        if not pc.all(mask).as_py():
            batch = batch.filter(mask)
        gtype = batch.schema.field(group_col).type
        if batch.num_rows == 0:
            return pa.table({group_col: pa.array([], gtype),
                             "reg": pa.array([], pa.int64()),
                             "rho": pa.array([], pa.int64())})
        gd = pc.dictionary_encode(batch[group_col].combine_chunks())
        codes = gd.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        vals = batch[value_col].to_numpy(zero_copy_only=False)
        uv, inv = np.unique(vals, return_inverse=True)
        hv = _md5_60(uv)[inv]
        reg = hv >> w
        rem = hv & ((np.int64(1) << w) - 1)
        # bit_length via frexp: rem < 2^52 is exactly representable in
        # float64, so the returned exponent IS the bit length
        bitlen = np.frexp(rem.astype(np.float64))[1].astype(np.int64)
        rho = np.where(rem > 0, w - bitlen + 1, big_k).astype(np.int64)
        n_groups = len(gd.dictionary)
        regs = np.zeros((n_groups, m), np.int64)
        np.maximum.at(regs, (codes, reg), rho)
        gi, ri = np.nonzero(regs)
        return pa.table({
            group_col: gd.dictionary.take(pa.array(gi, pa.int64())),
            "reg": pa.array(ri.astype(np.int64)),
            "rho": pa.array(regs[gi, ri]),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)

    def finalize(t: pa.Table) -> pa.Table:
        regs = np.zeros(m, np.int64)
        np.maximum.at(regs,
                      t["reg"].to_numpy(zero_copy_only=False),
                      t["rho"].to_numpy(zero_copy_only=False))
        hit = regs > 0
        # Python-int sum: exact, order-independent (fits int64 anyway)
        s_int = int(sum(1 << (big_k - int(r)) for r in regs[hit]))
        s_int += int(m - hit.sum()) * (1 << big_k)
        alpha = 0.7213 / (1.0 + 1.079 / float(m))
        m2k = float(m * m) * float(1 << big_k)   # power of two: exact
        est = alpha * m2k / float(s_int)
        return pa.table({
            group_col: t[group_col].slice(0, 1),
            "n_zero_regs": pa.array([int(m - hit.sum())], pa.int64()),
            "s_int": pa.array([s_int], pa.int64()),
            "est_distinct": pa.array([est], pa.float64()),
        })

    return partitioned_map(partials, each_group(finalize, [group_col]),
                           key=group_col, sort_keys=[group_col])


def cms_term_estimates(ds, *, text_col: str = "text", depth: int = 4,
                       width: int = 1024, query_k: int = 20,
                       id_col: str = "doc_id", num_partitions: int = 8):
    """Count-min sketch over corpus term occurrences (Cormode &
    Muthukrishnan 2005) — the fixed-memory streaming complement to the
    exact :func:`~featurebox_ray.stages.tfidf.top_terms` exchange: the
    whole corpus collapses into a ``depth × width`` int64 counter matrix
    that merges by addition, so at 100 TB the shuffle moves
    O(blocks × depth × width) tiny cell rows regardless of vocabulary
    size (where the exact exchange moves O(blocks × vocab)).

    Bucket hashes are 60-bit md5 prefixes of ``"{j} {term}"`` (one md5
    per distinct term per batch per row of the sketch — the documented
    replayable-hash trade of this module) so DuckDB recomputes the
    IDENTICAL sketch and estimates with pure integer arithmetic.

    Returns one row per exact top-``query_k`` term (ties broken
    (count desc, term asc) like :func:`top_terms`):
    ``(term, exact_cnt:int64, cms_est:int64)`` with the CMS guarantee
    ``cms_est >= exact_cnt`` (point query = min over the depth rows).
    """
    from .tfidf import top_terms

    if depth <= 0 or width <= 0:
        raise ValueError("depth and width must be positive")

    from .dedup import split_tokens

    def partial(batch: pa.Table) -> pa.Table:
        texts = pc.fill_null(batch[text_col].combine_chunks(), "")
        flat, _ = split_tokens(texts)
        if len(flat) == 0:
            return pa.table({"cell": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64())})
        d = pc.dictionary_encode(flat)
        uniques = d.dictionary.to_pylist()
        tok_counts = np.bincount(
            d.indices.to_numpy(zero_copy_only=False),
            minlength=len(uniques)).astype(np.int64)
        mat = np.zeros((depth, width), np.int64)
        for j in range(depth):
            buckets = _md5_60([f"{j} {u}" for u in uniques]) % width
            np.add.at(mat[j], buckets, tok_counts)
        jj, bb = np.nonzero(mat)
        return pa.table({"cell": pa.array(jj * width + bb),
                         "cnt": pa.array(mat[jj, bb])})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)

    def combine(t: pa.Table) -> pa.Table:
        cells = t["cell"].to_numpy(zero_copy_only=False)
        cnts = t["cnt"].to_numpy(zero_copy_only=False)
        uc, inv = np.unique(cells, return_inverse=True)
        sums = np.zeros(len(uc), np.int64)
        np.add.at(sums, inv, cnts)
        return pa.table({"cell": pa.array(uc), "cnt": pa.array(sums)})

    sketch_refs = partitioned_refs(partials, combine, key="cell",
                                   sort_keys=["cell"],
                                   num_partitions=num_partitions)

    # the combined sketch is <= depth*width rows (driver-tiny, like the
    # tfidf vocabulary); point queries are min over depth cells
    blocks = [b for b in ray.get(sketch_refs) if b.num_rows > 0]
    cell_map = np.zeros(depth * width, np.int64)
    if blocks:
        st = pa.concat_tables(blocks)
        cell_map[st["cell"].to_numpy(zero_copy_only=False)] = \
            st["cnt"].to_numpy(zero_copy_only=False)

    top = top_terms(ds, id_col=id_col, text_col=text_col, k=query_k,
                    by="term_count", num_partitions=num_partitions)
    tb = [b for b in ray.get(materialized_block_refs(top))
          if b.num_rows > 0]
    if not tb:
        return ray.data.from_arrow(pa.schema(
            [("term", pa.string()), ("exact_cnt", pa.int64()),
             ("cms_est", pa.int64())]).empty_table())
    tt = pa.concat_tables(tb)
    terms = tt["term"].to_pylist()
    ests = []
    for term in terms:
        hv = _md5_60([f"{j} {term}" for j in range(depth)]) % width
        ests.append(int(cell_map[np.arange(depth) * width + hv].min()))
    return ray.data.from_arrow(pa.table({
        "term": tt["term"],
        "exact_cnt": tt["cnt"].cast(pa.int64()),
        "cms_est": pa.array(ests, pa.int64()),
    }))


def kmv_set_ops(ds, *, group_col: str, value_col: str,
                group_a, group_b, k: int = 64):
    """KMV sketch SET ALGEBRA between two groups — estimate the
    distinct-value counts of A, B, A∪B and A∩B from two k-minimum-
    value sketches without ever co-locating the raw values: the
    sketch-merge capability that makes KMV preferable to exact NDV at
    100 TB (the union sketch is the k smallest of the two sketches'
    union; the Jaccard estimate is the fraction of the union's k-min
    that belongs to BOTH sketches; ``est_intersection = jaccard ·
    est_union``).

    Deterministic and SQL-replayable end-to-end (the q48 contract):
    values hash via the 60-bit md5 prefix; every estimate is the
    standard ``(k−1)·2^60 / kth`` expression (exact count when the
    sketch is unsaturated), and jaccard/intersection are one division
    and one multiplication of exactly-represented values.

    Per-block ≤k-min partials per group (the kmv_distinct shape)
    combine on the driver — O(blocks · 2k) ints, no shuffle at all.
    Rows outside {group_a, group_b} or with NULL group/value drop.

    Output: ONE row ``(group_a, group_b, k_used_a, k_used_b,
    k_used_union, est_a, est_b, est_union, jaccard_k,
    est_intersection)``.
    """
    if group_a == group_b:
        raise ValueError("kmv_set_ops: group_a == group_b — the "
                         "routing would leave B's sketch empty")

    def partial(b: pa.Table) -> pa.Table:
        m = pc.is_in(b[group_col],
                     value_set=pa.array([group_a, group_b]))
        b = b.filter(pc.fill_null(m, False))
        return _partial_kernel(b, group_col, value_col, k)

    pds = ds.map_batches(partial, batch_format="pyarrow",
                         zero_copy_batch=True, batch_size=None)
    hv_a, hv_b = [], []
    for blk in ray.get(materialized_block_refs(pds)):
        gs = blk[group_col].to_pylist()
        hs = blk["hv"].to_pylist()
        for g, h in zip(gs, hs):
            (hv_a if g == group_a else hv_b).append(h)

    def sketch(hvs):
        u = np.unique(np.asarray(hvs, np.int64))
        return u[:k]

    def est(sk):
        ku = len(sk)
        if ku == 0:
            return 0, None, 0.0
        kth = int(sk[-1])
        e = (float(ku) if ku < k
             else (k - 1) * HASH_SPAN / float(kth))
        return ku, kth, e

    sa, sb = sketch(hv_a), sketch(hv_b)
    su = np.unique(np.concatenate([sa, sb]))[:k]
    ku_a, _, est_a = est(sa)
    ku_b, _, est_b = est(sb)
    ku_u, _, est_u = est(su)
    both = int((np.isin(su, sa) & np.isin(su, sb)).sum())
    jac = float(both) / float(ku_u) if ku_u else None
    est_i = jac * est_u if jac is not None else None
    return pa.table({
        "group_a": pa.array([group_a]),
        "group_b": pa.array([group_b]),
        "k_used_a": pa.array([ku_a], pa.int64()),
        "k_used_b": pa.array([ku_b], pa.int64()),
        "k_used_union": pa.array([ku_u], pa.int64()),
        "est_a": pa.array([est_a], pa.float64()),
        "est_b": pa.array([est_b], pa.float64()),
        "est_union": pa.array([est_u], pa.float64()),
        "jaccard_k": pa.array([jac], pa.float64()),
        "est_intersection": pa.array([est_i], pa.float64())})
