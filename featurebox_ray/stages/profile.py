"""Dataset profiler — per-column row count, null count, EXACT distinct
count, and min/max in one pass over the data (the first thing anyone
runs against an unknown 100-TB table).

Values are profiled through their SQL VARCHAR cast so every column type
shares one exchange schema and min/max are plain bytewise comparisons
that DuckDB replays 1:1.  Two keyed exchanges, both tiny relative to
the data:

1. per-block partials: each column dictionary-encodes once; the block
   emits its DISTINCT ``(col, val)`` pairs with partial row counts (the
   classic exact-NDV exchange — the shuffle moves distinct pairs, not
   rows) plus a per-column null partial;
2. a ``(col, val)``-keyed exchange merges pair counts, then collapses to
   ONE partial row per (column × partition): ndv/rows/nulls partials +
   bytewise min/max over the partition's values;
3. a final column-keyed combine over ≤ columns × partitions tiny rows.

Output: ``(col, n_rows, n_nulls, n_distinct, min_val, max_val)`` —
``n_distinct`` counts distinct NON-NULL values; min/max are NULL for
all-null columns.

Reference analog: none (the reference assumes pre-known schemas); this
is an added-for-100-TB triage primitive.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["profile_columns"]


def profile_columns(ds, *, cols: Sequence[str], num_partitions: int = 8):
    from .partition import partitioned_map, partitioned_refs

    cols = list(cols)

    def partial(b: pa.Table) -> pa.Table:
        parts = []
        for c in cols:
            col = b[c].combine_chunks()
            n = len(col)
            n_null = col.null_count
            sv = pc.cast(col, pa.string())
            d = pc.dictionary_encode(sv)
            counts = np.bincount(
                pc.fill_null(d.indices, len(d.dictionary)).to_numpy(
                    zero_copy_only=False).astype(np.int64),
                minlength=len(d.dictionary) + 1)[:len(d.dictionary)]
            vdic = d.dictionary
            keep = pc.is_valid(vdic).to_numpy(zero_copy_only=False)
            idx = np.flatnonzero(keep)
            parts.append(pa.table({
                "col": pa.array([c] * (len(idx) + 1), pa.string()),
                "val": pa.concat_arrays(
                    [vdic.take(pa.array(idx, pa.int64())),
                     pa.nulls(1, pa.string())]),
                "cnt": pa.array(np.concatenate(
                    [counts[idx], [0]]).astype(np.int64)),
                # the val=NULL row carries this block's null partial
                "n_null": pa.array(
                    [0] * len(idx) + [int(n_null)], pa.int64()),
            }))
        return pa.concat_tables(parts)

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)

    def per_partition(t: pa.Table) -> pa.Table:
        """Sorted by (col, val): merge pair counts, collapse to one
        partial row per column present in this partition."""
        out_schema = pa.schema([
            ("col", pa.string()), ("n_rows", pa.int64()),
            ("n_nulls", pa.int64()), ("n_distinct", pa.int64()),
            ("min_val", pa.string()), ("max_val", pa.string())])
        if t.num_rows == 0:
            return out_schema.empty_table()
        import pandas as pd

        carr = t["col"].combine_chunks()
        ccodes = pc.dictionary_encode(carr)
        cdic = ccodes.dictionary
        cc = ccodes.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)
        val = t["val"].combine_chunks()
        vnull = ~pc.is_valid(val).to_numpy(zero_copy_only=False)
        cnt = t["cnt"].to_numpy(zero_copy_only=False)
        n_null = t["n_null"].to_numpy(zero_copy_only=False)
        rows = []
        for code in np.unique(cc):
            m = cc == code
            mv = m & ~vnull
            vals = val.filter(pa.array(mv))
            uniq = vals.unique()
            nd = len(uniq)
            mm = (pc.min_max(uniq) if nd else
                  {"min": pa.scalar(None, pa.string()),
                   "max": pa.scalar(None, pa.string())})
            nn = int(n_null[m & vnull].sum())
            rows.append((cdic[int(code)].as_py(),
                         int(cnt[mv].sum()) + nn, nn, nd,
                         mm["min"].as_py(), mm["max"].as_py()))
        df = pd.DataFrame(rows, columns=["col", "n_rows", "n_nulls",
                                         "n_distinct", "min_val",
                                         "max_val"])
        return pa.Table.from_pandas(df, preserve_index=False).cast(
            out_schema)

    staged = partitioned_refs(partials, per_partition, key="val",
                              sort_keys=["col", "val"],
                              num_partitions=num_partitions)

    def final(t: pa.Table) -> pa.Table:
        import pandas as pd

        if t.num_rows == 0:
            return t
        df = t.to_pandas()
        rows = []
        # tiny (cols x partitions) table; skip-None min/max by hand
        # (pandas object-min raises on None)
        for c, sub in df.groupby("col"):
            mins = [x for x in sub["min_val"] if x is not None]
            maxs = [x for x in sub["max_val"] if x is not None]
            rows.append((c, int(sub["n_rows"].sum()),
                         int(sub["n_nulls"].sum()),
                         int(sub["n_distinct"].sum()),
                         min(mins) if mins else None,
                         max(maxs) if maxs else None))
        g = pd.DataFrame(rows, columns=["col", "n_rows", "n_nulls",
                                        "n_distinct", "min_val",
                                        "max_val"])
        return pa.Table.from_pandas(g, preserve_index=False
                                    ).cast(t.schema)

    return partitioned_map([staged], final, key="col",
                           sort_keys=["col"], num_partitions=1)


def group_count_distinct(ds, *, group_cols: Sequence[str],
                         value_col: str, num_partitions: int = 8):
    """Exact ``count(DISTINCT value)`` per group — the windowed-distinct
    primitive (distinct users per (event_type, day)) that sketches
    (``hll_distinct``/``kmv``) approximate, as the exact path.

    Classic exact-NDV shape: each block collapses to its DISTINCT
    ``(group..., value)`` tuples (one vectorized ``pa.Table.group_by``
    — the shuffle moves distinct tuples, never rows), ONE keyed exchange
    co-locates groups by ``group_cols[0]`` (all finer group columns ride
    along, so every group is complete wherever its prefix lands — the
    documented co-location assumption; a skewed prefix bounds one
    partition, mirror of the hash-partition story), and the kernel runs
    one ``count_distinct`` aggregate per group.

    NULL values are ignored (SQL ``count(DISTINCT v)``); NULL group
    keys form one group (SQL ``GROUP BY``).  Returns ``(group_cols...,
    n_distinct:int64)``.
    """
    from .partition import partitioned_map

    cols = list(group_cols) + [value_col]

    def partial(b: pa.Table) -> pa.Table:
        return b.select(cols).group_by(cols).aggregate([])

    def kernel(t: pa.Table) -> pa.Table:
        out = (t.group_by(list(group_cols))
               .aggregate([(value_col, "count_distinct")]))
        cd = out[f"{value_col}_count_distinct"].cast(pa.int64())
        return (out.drop_columns([f"{value_col}_count_distinct"])
                .append_column("n_distinct", cd))

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)
    return partitioned_map(partials, kernel, key=group_cols[0],
                           sort_keys=list(group_cols),
                           num_partitions=num_partitions)


def group_gini(ds, *, group_col: str, value_col: str,
               num_partitions: int = 8):
    """Per-group Gini diversity of a categorical column —
    ``1 − Σ_v (c_v/n)²`` — the integer-exact concentration/diversity
    profile (how varied is each user's event mix), the rational-number
    stand-in for Shannon entropy (whose ``log`` has no bit-exact SQL
    replay; Gini is pure integer arithmetic + ONE division).

    Same exchange shape as :func:`group_count_distinct`: each block
    collapses to ``(group, value, c)`` count partials (the shuffle moves
    distinct tuples, never rows), ONE group-keyed exchange, and a
    vectorized kernel merges partials and computes per-group
    ``n = Σc`` and ``s2 = Σc²`` with ``np.add.reduceat`` over the
    sorted runs.

    Exactness contract: ``gini = double(n² − s2) / double(n²)`` — two
    conversions + one division from exact ints; DuckDB replays with
    HUGEINT sums.  Groups with ``n ≥ 3 037 000 499`` (n² would exceed
    int64) raise — at that skew, shard the hot group first (salting,
    ``stages/salt.py``).  NULL values form one category and NULL group
    keys one group (SQL ``GROUP BY`` semantics).

    Returns ``(group_col, n:int64, gini:float64)``.
    """
    from .partition import partitioned_map

    def partial(b: pa.Table) -> pa.Table:
        out = (b.select([group_col, value_col])
               .group_by([group_col, value_col])
               .aggregate([([], "count_all")]))
        return out.rename_columns([group_col, value_col, "c"])

    def kernel(t: pa.Table) -> pa.Table:
        gtype = t.schema.field(group_col).type
        if t.num_rows == 0:
            return pa.table({group_col: pa.array([], gtype),
                             "n": pa.array([], pa.int64()),
                             "gini": pa.array([], pa.float64())})
        m = (t.group_by([group_col, value_col])
             .aggregate([("c", "sum")]))
        m = m.sort_by([(group_col, "ascending")])
        c = m["c_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
        g = m[group_col]
        # run starts of the sorted group column (null-safe equality)
        eq = pc.equal(g.slice(1), g.slice(0, len(g) - 1))
        same = np.asarray(pc.fill_null(eq, False))
        if len(g) > 1:
            both_null = (np.asarray(pc.is_null(g.slice(1)))
                         & np.asarray(pc.is_null(g.slice(0, len(g) - 1))))
            same |= both_null
        starts = np.concatenate([[0], np.flatnonzero(~same) + 1])
        n = np.add.reduceat(c, starts)
        if n.size and int(n.max()) >= 3_037_000_499:
            raise OverflowError(
                "group_gini: a group exceeds 3.03e9 rows; n**2 would "
                "overflow int64 — salt the hot group first")
        s2 = np.add.reduceat(c * c, starts)
        nn = n * n
        gini = (nn - s2).astype(np.float64) / nn.astype(np.float64)
        return pa.table({
            group_col: g.take(pa.array(starts)),
            "n": pa.array(n, pa.int64()),
            "gini": pa.array(gini, pa.float64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)
    return partitioned_map(partials, kernel, key=group_col,
                           sort_keys=[group_col],
                           num_partitions=num_partitions)


def k_anonymity(ds, *, cols, k: int, num_partitions: int = 16):
    """k-anonymity audit — every quasi-identifier combination observed
    in the data with its row count and a ``below_k`` flag (the privacy
    gate before releasing a dataset: combos with fewer than ``k`` rows
    re-identify individuals; the caller suppresses or generalizes
    them).

    Per-block combos collapse to ``(combo, cnt)`` partials via one
    multi-column Arrow group_by; ONE combo-keyed exchange finishes the
    sums (bytes = distinct combos × blocks, never rows).  NULL values
    are a category of their own (SQL GROUP BY semantics — the oracle
    groups identically).  Exact int64 counts.

    Emits one row per distinct combo: ``(*cols, n:int64,
    below_k:bool)``.
    """
    cols = list(cols)
    # typed empty from the OUTER input schema: empty exchange
    # partitions (zero-column bundles) must emit the same block schema
    # as non-empty ones — string defaults would clash with int QIs
    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    col_types = {c: base.field(c).type for c in cols}

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.select(cols).group_by(cols).aggregate(
            [([], "count_all")])
        return g.rename_columns(cols + ["cnt"])

    def combine(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "cnt" not in t.column_names:
            out = {c: pa.array([], col_types[c]) for c in cols}
            out["n"] = pa.array([], pa.int64())
            out["below_k"] = pa.array([], pa.bool_())
            return pa.table(out)
        g = t.group_by(cols).aggregate([("cnt", "sum")])
        n = g["cnt_sum"].cast(pa.int64())
        out = {c: g[c] for c in cols}
        out["n"] = n
        out["below_k"] = pc.less(n, k)
        return pa.table(out)

    from .partition import partitioned_map

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)
    return partitioned_map(partials, combine, key=cols[0],
                           sort_keys=cols,
                           num_partitions=num_partitions)


def order_violations(ds, *, key_col: str, seq_col: str, ts_col: str,
                     num_partitions: int = 16):
    """Per-key timestamp-monotonicity audit — walking each key's rows
    in ``seq_col`` order (the ingest/sequence id), count adjacent
    steps whose ``ts_col`` goes BACKWARDS (the classic pipeline-QA
    signal: clock skew, late arrivals, shuffled ingestion).

    ONE key-keyed exchange sorted ``(key, seq)``; the kernel is one
    vectorized adjacent compare with run masks; exact int counts +
    one division for the rate (NULL when a key has no adjacent
    pairs).  Rows with NULL key/seq/ts drop.  Emits ``(key_col,
    n_pairs:int64, n_violations:int64, violation_rate:float64)``.
    """
    from .partition import partitioned_map

    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    ktype = base.field(key_col).type

    def prep(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.and_(pc.is_valid(b[key_col]),
                               pc.is_valid(b[seq_col])),
                       pc.is_valid(b[ts_col]))
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        ts = b[ts_col].combine_chunks()
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.int64())
        return pa.table({key_col: b[key_col], "__seq": b[seq_col],
                         "__ts": ts})

    def kernel(t: pa.Table) -> pa.Table:
        empty = pa.table({key_col: pa.array([], ktype),
                          "n_pairs": pa.array([], pa.int64()),
                          "n_violations": pa.array([], pa.int64()),
                          "violation_rate": pa.array([],
                                                     pa.float64())})
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        keys = t[key_col].combine_chunks()
        codes = pc.dictionary_encode(keys).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        ts = t["__ts"].to_numpy(zero_copy_only=False)
        same = np.concatenate([[False], codes[1:] == codes[:-1]])
        back = np.concatenate([[False], ts[1:] < ts[:-1]]) & same
        n_keys = int(codes.max()) + 1
        pairs = np.bincount(codes[same], minlength=n_keys).astype(
            np.int64)
        viol = np.bincount(codes[back], minlength=n_keys).astype(
            np.int64)
        rate = viol.astype(np.float64) / np.maximum(pairs, 1).astype(
            np.float64)
        first_rows = np.searchsorted(codes, np.arange(n_keys))
        return pa.table({
            key_col: keys.take(pa.array(first_rows, pa.int64())),
            "n_pairs": pa.array(pairs),
            "n_violations": pa.array(viol),
            "violation_rate": pa.array(rate, pa.float64(),
                                       mask=pairs == 0),
        })

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, kernel, key=key_col,
                           sort_keys=[key_col, "__seq"],
                           num_partitions=num_partitions)


def benford_digits(ds, *, group_col: str, value_col: str,
                   num_partitions: int = 8):
    """Benford first-significant-digit audit — per group, the count
    and share of rows whose value's cents start with each digit 1-9
    (the classic fabricated-data / unit-mix data-quality screen: real
    multiplicative data tracks log10(1+1/d), manufactured or
    constant-scaled data doesn't).

    Exactness: values quantize to positive cents; the first digit is
    ``cents // 10^e`` with the exponent found by ONE integer
    ``searchsorted`` against the int64 powers of ten — no log10, no
    string formatting on the engine side, while SQL reads digit one of
    the INTEGER's decimal print (int-to-string is exact in every
    engine).  Counts are exact int64; ``share`` is one division.
    Rows with NULL/non-finite values or cents <= 0 drop (no first
    significant digit), mirrored by the oracle.

    Per-block dense ``code·9 + digit`` partials, ONE tiny group-keyed
    exchange.  Reference analog: none; companion of
    ``profile.k_anonymity`` in the QA family.
    """
    from .partition import partitioned_map

    powers = 10 ** np.arange(19, dtype=np.int64)

    def partial(b: pa.Table) -> pa.Table:
        gtype = b.schema.field(group_col).type
        empty = pa.table({group_col: pa.array([], gtype),
                          "digit": pa.array([], pa.int64()),
                          "n": pa.array([], pa.int64())})
        v = b[value_col].combine_chunks()
        if not pa.types.is_floating(v.type):
            v = v.cast(pa.float64())
        keep = pc.and_(pc.is_valid(b[group_col]),
                       pc.fill_null(pc.is_finite(v), False))
        keep = pc.fill_null(keep, False)
        t = pa.table({group_col: b[group_col], "__v": v})
        if not pc.all(keep).as_py():
            t = t.filter(keep)
        if t.num_rows == 0:
            return empty
        cents = np.round(t["__v"].to_numpy(zero_copy_only=False)
                         * 100).astype(np.int64)
        pos = cents > 0
        if not pos.any():
            return empty
        cents = cents[pos]
        gd = pc.dictionary_encode(t[group_col].combine_chunks())
        codes = gd.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)[pos]
        e = np.searchsorted(powers, cents, "right") - 1
        digit = cents // powers[e]
        cell = codes * 9 + (digit - 1)
        ucell, inv = np.unique(cell, return_inverse=True)
        n = np.zeros(len(ucell), np.int64)
        np.add.at(n, inv, 1)
        return pa.table({
            group_col: gd.dictionary.take(
                pa.array(ucell // 9, pa.int64())),
            "digit": pa.array((ucell % 9 + 1).astype(np.int64)),
            "n": pa.array(n)})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)

    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    gtype = base.field(group_col).type
    empty = pa.table({group_col: pa.array([], gtype),
                      "digit": pa.array([], pa.int64()),
                      "n": pa.array([], pa.int64()),
                      "share": pa.array([], pa.float64())})

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or group_col not in t.column_names:
            return empty
        keys = t[group_col].combine_chunks()
        codes = pc.dictionary_encode(keys).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        digit = t["digit"].to_numpy(zero_copy_only=False)
        new_run = np.concatenate(
            [[True], (codes[1:] != codes[:-1])
             | (digit[1:] != digit[:-1])])
        starts = np.flatnonzero(new_run)
        n = np.add.reduceat(t["n"].to_numpy(zero_copy_only=False),
                            starts).astype(np.int64)
        g = codes[starts]
        # per-group totals for the share
        gfirst = np.concatenate([[True], g[1:] != g[:-1]])
        gstarts = np.flatnonzero(gfirst)
        gtot = np.add.reduceat(n, gstarts)
        gix = np.cumsum(gfirst.astype(np.int64)) - 1
        return pa.table({
            group_col: keys.take(pa.array(starts, pa.int64())),
            "digit": pa.array(digit[starts].astype(np.int64)),
            "n": pa.array(n),
            "share": pa.array(n.astype(np.float64)
                              / gtot[gix].astype(np.float64),
                              pa.float64())})

    return partitioned_map(partials, kernel, key=group_col,
                           sort_keys=[group_col, "digit"],
                           num_partitions=num_partitions)


def table_checksum(ds, *, cols, sep: str = "|") -> "pa.Table":
    """Order-invariant content checksum — ONE row ``(n_rows:int64,
    checksum:int64)`` summarizing the exact content of the selected
    columns: each row canonicalizes INJECTIVELY — every field encodes
    as ``n`` when NULL else ``v<len>:<text>`` (codepoint length), and
    fields join with ``sep`` — so a value shifting across a column
    boundary, or NULL vs empty string, can never collide (a bare
    ``a|b , c`` vs ``a , b|c`` collision would verify a corrupted
    table as unchanged).  Each canonical row hashes to the engine's
    60-bit md5 prefix and the checksum is the plain int sum of row
    hashes reduced mod 2^61-1.  Addition commutes, so the result is
    independent of partitioning, block order, and parallelism — the
    cross-run reproducibility primitive behind checkpoint manifests
    (``state/checkpoint.py`` records per-partition feature hashes;
    this is the queryable whole-table variant).

    Only int/string columns are accepted: float columns would need a
    cross-engine text format (Arrow shortest-roundtrip vs SQL) — the
    q97 profiler lesson — so they raise here.

    Per-block partials (one int per block, md5 once per DISTINCT row
    string via dictionary-encode), driver sums Python ints exactly.
    SQL replay: ``sum(('0x' || substr(md5(...), 1, 15))::UBIGINT)``
    over the same concatenation, mod the same prime.
    """
    import ray

    from .partition import materialized_block_refs
    from .sketch import _md5_60

    cols = list(cols)
    MOD = (1 << 61) - 1

    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    for c in cols:
        t = base.field(c).type
        if not (pa.types.is_integer(t) or pa.types.is_string(t)
                or pa.types.is_large_string(t)):
            raise ValueError(f"table_checksum: column {c} has type {t}"
                             " — only int/string columns checksum "
                             "portably")

    def partial(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"n": pa.array([0], pa.int64()),
                             "s": pa.array([0], pa.int64())})
        parts = []
        for c in cols:
            col = b[c].combine_chunks()
            if not pa.types.is_string(col.type):
                col = col.cast(pa.string())  # int + large_string
            # injective field encoding: n | v<len>:<text>
            ln = pc.utf8_length(col).cast(pa.string())
            tagged = pc.binary_join_element_wise(
                pc.binary_join_element_wise(
                    "v", pc.fill_null(ln, ""), ""),
                pc.fill_null(col, ""), ":")
            parts.append(pc.if_else(pc.is_valid(col), tagged,
                                    pa.scalar("n", pa.string())))
        joined = parts[0] if len(parts) == 1 else \
            pc.binary_join_element_wise(*parts, sep)
        enc = pc.dictionary_encode(joined)
        hv = _md5_60(enc.dictionary.to_pylist())
        inv = enc.indices.to_numpy(zero_copy_only=False)
        cnt = np.bincount(inv, minlength=len(hv))
        s = int(sum(int(h) * int(c) for h, c in zip(hv, cnt)))
        return pa.table({"n": pa.array([b.num_rows], pa.int64()),
                         "s": pa.array([s % MOD], pa.int64())})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)
    n = 0
    s = 0
    for blk in ray.get(materialized_block_refs(partials)):
        for r in range(blk.num_rows):
            n += blk["n"][r].as_py()
            s += blk["s"][r].as_py()
    return pa.table({"n_rows": pa.array([n], pa.int64()),
                     "checksum": pa.array([s % MOD], pa.int64())})


def temporal_split_audit(ds, *, user_col: str = "user_id",
                         ts_col: str = "ts",
                         train_frac_num: int = 4,
                         train_frac_den: int = 5,
                         num_partitions: int = 32):
    """Temporal train/test split audit — the leakage screen every
    time-split training pipeline needs: cut the corpus at
    ``min_ts + (max_ts − min_ts) · num // den`` (exact integer
    arithmetic; trunc == floor on the non-negative span) and report
    how many ENTITIES appear on BOTH sides.  A high ``leak_share``
    means per-user state (target encodings, embeddings, histories)
    computed on train silently memorizes test users.

    One row: ``(cut_ts, rows_train, rows_test, users_train,
    users_test, users_both, leak_share)`` — all counts exact int64;
    ``leak_share = users_both / users_test`` is ONE division (NULL
    when the test side is empty).

    Plan: per-block partials give (min, max, side-row-counts) AND the
    locally-deduped (user, side) pairs in one pass over materialized
    block refs (consumed once — a lazy Dataset consumed twice
    re-executes); the cut needs the global span first, so sides are
    resolved in a second tiny task round over the SAME refs; distinct
    users then reduce on ONE user-keyed exchange.  NULL user/ts rows
    drop (mirror in SQL).

    Reference analog: none — companion of stratified_folds (q166) /
    group_split (q79) in the split-hygiene family.
    """
    import ray

    from .partition import (global_span_cut, materialized_block_refs,
                            partitioned_refs, sum_partials)

    def prep(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(b[user_col]),
                       pc.is_valid(b[ts_col]))
        keep = pc.fill_null(keep, False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        ts = b[ts_col].combine_chunks()
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.int64())
        return pa.table({user_col: b[user_col], "__t": ts})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True, batch_size=None)
    refs = materialized_block_refs(prepped)
    span_cut = global_span_cut(refs, col="__t",
                               num=train_frac_num,
                               den=train_frac_den)
    empty = pa.table({
        "cut_ts": pa.array([], pa.int64()),
        "rows_train": pa.array([], pa.int64()),
        "rows_test": pa.array([], pa.int64()),
        "users_train": pa.array([], pa.int64()),
        "users_test": pa.array([], pa.int64()),
        "users_both": pa.array([], pa.int64()),
        "leak_share": pa.array([], pa.float64())})
    if span_cut is None:
        return empty
    _, _, cut = span_cut

    @ray.remote
    def sides(blk: pa.Table):
        t = blk["__t"].to_numpy(zero_copy_only=False)
        side = (t >= cut).astype(np.int64)
        rows_tr = int((side == 0).sum())
        dedup = pa.table({user_col: blk[user_col],
                          "__s": pa.array(side)}).group_by(
            [user_col, "__s"]).aggregate([])
        return rows_tr, blk.num_rows - rows_tr, dedup

    trips = ray.get([sides.remote(r) for r in refs])
    rows_train = sum(t[0] for t in trips)
    rows_test = sum(t[1] for t in trips)
    pairs = ray.data.from_arrow([t[2] for t in trips])

    def user_kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"tr": pa.array([0], pa.int64()),
                             "te": pa.array([0], pa.int64()),
                             "bo": pa.array([0], pa.int64())})
        codes = pc.dictionary_encode(
            t[user_col].combine_chunks()).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        s = t["__s"].to_numpy(zero_copy_only=False)
        g = int(codes.max()) + 1
        has_tr = np.zeros(g, bool)
        has_te = np.zeros(g, bool)
        has_tr[codes[s == 0]] = True
        has_te[codes[s == 1]] = True
        return pa.table({
            "tr": pa.array([int(has_tr.sum())], pa.int64()),
            "te": pa.array([int(has_te.sum())], pa.int64()),
            "bo": pa.array([int((has_tr & has_te).sum())],
                           pa.int64())})

    counted = partitioned_refs(pairs, user_kernel, key=user_col,
                               sort_keys=[user_col, "__s"],
                               num_partitions=num_partitions)
    tot = sum_partials(ray.get(counted), keys=[], vals=["tr", "te", "bo"])
    u_tr, u_te, u_bo = ((0, 0, 0) if tot is None else
                        (tot[c][0].as_py() for c in tot.column_names))
    leak = None if u_te == 0 else float(u_bo) / float(u_te)
    return pa.table({
        "cut_ts": pa.array([cut], pa.int64()),
        "rows_train": pa.array([rows_train], pa.int64()),
        "rows_test": pa.array([rows_test], pa.int64()),
        "users_train": pa.array([u_tr], pa.int64()),
        "users_test": pa.array([u_te], pa.int64()),
        "users_both": pa.array([u_bo], pa.int64()),
        "leak_share": pa.array([leak], pa.float64())})


def fk_audit(child_ds, parent_ds, *, child_key: str,
             parent_key: str, relation: str,
             num_partitions: int = 32):
    """Referential-integrity audit — ONE row ``(relation,
    n_child:int64, n_orphans:int64, orphan_share:float64)`` counting
    child rows whose key has no parent (including NULL-key children,
    matching SQL ``NOT EXISTS``).  The first data-contract check a
    warehouse load runs; a nonzero share on a supposedly-enforced FK
    means the upstream extract is broken.

    The orphan scan is :func:`featurebox_ray.stages.bloom.
    bloom_anti_join` — the bloom pre-filter streams definite-misses
    (and NULL keys) straight through, so the verify exchange moves
    only possible-matches; counts are exact (the bloom stage
    verifies).  ``orphan_share`` is ONE division of exact int64
    counts.
    """
    from .bloom import bloom_anti_join

    orphans = bloom_anti_join(child_ds, parent_ds, on=child_key,
                              right_on=parent_key,
                              num_partitions=num_partitions)
    n_child = child_ds.count()
    n_orph = orphans.count()
    share = (float(n_orph) / float(n_child)) if n_child else None
    return pa.table({
        "relation": pa.array([relation], pa.string()),
        "n_child": pa.array([n_child], pa.int64()),
        "n_orphans": pa.array([n_orph], pa.int64()),
        "orphan_share": pa.array([share], pa.float64())})


def gk_tau(ds, pairs, *, num_partitions: int = 8):
    """Goodman–Kruskal tau for directed column pairs — "how well does
    X functionally determine Y?": the proportional reduction in
    Gini-classification error of Y when X is known,

        tau(X→Y) = (Σ_x Σ_y n_xy²/n_x − Σ_y n_y²/n)
                   / (n − Σ_y n_y²/n)

    ∈ [0, 1] with 1 = exact functional dependency — the
    schema-discovery / soft-FD profiler next to the exact-NDV
    profiler and k-anonymity audit (log-free, unlike Theil's U, so
    it stays in EXACT arithmetic).

    Exactness: contingency cells are exact int64 (per-block partials,
    driver-tiny combine — categorical columns only, cells =
    |X|·|Y|); tau accumulates as an exact ``Fraction`` and the
    emitted value is its correctly-rounded float — the serial replay
    (fixture oracle) is bit-identical.  NULL in X or Y forms its own
    category (SQL GROUP BY semantics).  A constant Y (denominator 0)
    emits NULL tau.

    ``pairs`` is a list of ``(x_col, y_col)`` — one output row each:
    ``(x_col:string, y_col:string, n:int64, tau:float64)``.
    Reference analog: none (profiling family).
    """
    import ray
    from fractions import Fraction

    from .partition import materialized_block_refs, sum_partials

    def partial(b: pa.Table) -> pa.Table:
        out_p, out_x, out_y, out_c = [], [], [], []
        for xi, (xc, yc) in enumerate(pairs):
            # NULL is a dictionary entry of its own, not a stand-in string
            ex = pc.dictionary_encode(
                pc.cast(b[xc].combine_chunks(), pa.string()),
                null_encoding="encode")
            ey = pc.dictionary_encode(
                pc.cast(b[yc].combine_chunks(), pa.string()),
                null_encoding="encode")
            cx = ex.indices.to_numpy(zero_copy_only=False).astype(
                np.int64)
            cy = ey.indices.to_numpy(zero_copy_only=False).astype(
                np.int64)
            ny = len(ey.dictionary)
            cell = cx * ny + cy
            uc, inv = np.unique(cell, return_inverse=True)
            cnt = np.zeros(len(uc), np.int64)
            np.add.at(cnt, inv, 1)
            out_p.append(np.full(len(uc), xi, np.int64))
            out_x.append(ex.dictionary.take(pa.array(uc // ny, pa.int64())))
            out_y.append(ey.dictionary.take(pa.array(uc % ny, pa.int64())))
            out_c.append(cnt)
        return pa.table({
            "p": pa.array(np.concatenate(out_p)
                          if out_p else np.empty(0, np.int64)),
            "x": (pa.concat_arrays(out_x) if out_x
                  else pa.array([], pa.string())),
            "y": (pa.concat_arrays(out_y) if out_y
                  else pa.array([], pa.string())),
            "cnt": pa.array(np.concatenate(out_c)
                            if out_c else np.empty(0, np.int64))})

    comb = sum_partials(
        ray.get(materialized_block_refs(
            ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None))),
        keys=["p", "x", "y"], vals=["cnt"])
    per_pair: dict = {}
    if comb is not None:
        for p, x, y, c in zip(*(comb[n].to_pylist()
                                for n in ("p", "x", "y", "cnt"))):
            per_pair.setdefault(p, {})[(x, y)] = c

    out = {"x_col": [], "y_col": [], "n": [], "tau": []}
    for xi, (xc, yc) in enumerate(pairs):
        cells = per_pair.get(xi, {})
        n = sum(cells.values())
        nx: dict = {}
        ny_: dict = {}
        for (x, y), c in cells.items():
            nx[x] = nx.get(x, 0) + c
            ny_[y] = ny_.get(y, 0) + c
        out["x_col"].append(xc)
        out["y_col"].append(yc)
        out["n"].append(n)
        if n == 0:
            out["tau"].append(None)
            continue
        e_y = Fraction(sum(v * v for v in ny_.values()), n)
        e_xy = Fraction(0)
        for (x, y), c in cells.items():
            e_xy += Fraction(c * c, nx[x])
        den = n - e_y
        out["tau"].append(float((e_xy - e_y) / den)
                          if den != 0 else None)
    return pa.table({
        "x_col": pa.array(out["x_col"], pa.string()),
        "y_col": pa.array(out["y_col"], pa.string()),
        "n": pa.array(out["n"], pa.int64()),
        "tau": pa.array(out["tau"], pa.float64())})


def ts_collision_audit(ds, *, key_col: str, ts_col: str,
                       num_partitions: int = 8):
    """Exact-timestamp collision audit per key — how many of a key's
    events share an IDENTICAL timestamp with another of its events,
    and the largest same-instant burst: scripted/bot traffic fires
    batches in the same microsecond; organic activity almost never
    does.  The point-mass complement of ``group_burstiness``
    (dispersion) and ``profile_similarity`` (phase).

    Exact int counts over ONE key-keyed exchange (run lengths per
    (key, ts) after the partition sort); SQL replays with a GROUP BY
    + HAVING.  NULL key/ts rows drop.

    Emits ``(key_col, n:int64, n_collided:int64 — rows in >1-sized
    ts groups, n_instants:int64 — distinct collided instants,
    max_burst:int64 — largest single-instant group, 1 if none)``.
    Reference analog: none (behavioral-audit family).
    """
    from .partition import partitioned_map

    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    ktype = base.field(key_col).type

    def prep(b: pa.Table) -> pa.Table:
        keep = pc.fill_null(pc.and_(pc.is_valid(b[key_col]),
                                    pc.is_valid(b[ts_col])), False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        ts = b[ts_col].combine_chunks()
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.int64())
        return pa.table({key_col: b[key_col], "__ts": ts})

    empty = pa.table({key_col: pa.array([], ktype),
                      "n": pa.array([], pa.int64()),
                      "n_collided": pa.array([], pa.int64()),
                      "n_instants": pa.array([], pa.int64()),
                      "max_burst": pa.array([], pa.int64())})

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        keys = t[key_col].combine_chunks()
        codes = pc.dictionary_encode(keys).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        ts = t["__ts"].to_numpy(zero_copy_only=False)
        new_pair = np.concatenate(
            [[True], (codes[1:] != codes[:-1]) | (ts[1:] != ts[:-1])])
        pstarts = np.flatnonzero(new_pair)
        plens = np.diff(np.append(pstarts, len(ts)))
        pk = codes[pstarts]
        n_keys = int(codes.max()) + 1 if len(codes) else 0
        n = np.bincount(codes, minlength=n_keys).astype(np.int64)
        coll = plens > 1
        n_coll = np.zeros(n_keys, np.int64)
        np.add.at(n_coll, pk[coll], plens[coll])
        n_inst = np.zeros(n_keys, np.int64)
        np.add.at(n_inst, pk[coll], 1)
        mx = np.ones(n_keys, np.int64)
        np.maximum.at(mx, pk, plens)
        first = np.searchsorted(codes, np.arange(n_keys))
        return pa.table({
            key_col: keys.take(pa.array(first, pa.int64())),
            "n": pa.array(n),
            "n_collided": pa.array(n_coll),
            "n_instants": pa.array(n_inst),
            "max_burst": pa.array(mx)})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, kernel, key=key_col,
                           sort_keys=[key_col, "__ts"],
                           num_partitions=num_partitions)


def group_lorenz_gini(ds, *, group_col: str, value_col: str,
                      num_partitions: int = 16):
    """Per-group Gini COEFFICIENT (Lorenz concentration) — how
    concentrated a non-negative
    quantity is within each group (0 = perfectly even, →1 = one row
    holds everything): the inequality lens on corpus composition
    (doc-length concentration per source, spend concentration per
    cohort).  NOT the categorical Gini IMPURITY — that is
    :func:`group_gini` above (q138); this one measures MASS
    concentration over a numeric column.

        G = Σᵢ (2i − n − 1)·x₍ᵢ₎ / (n · Σx)    (x sorted ascending)

    Exactness: ``value_col`` must be non-negative int64 (callers
    quantize); the Lorenz numerator and Σx are exact integers (ties
    don't matter — the coefficient sum over a tie block depends only
    on the index set), and G is ONE IEEE division — the
    row_number()-window SQL replay is bit-exact.  Groups with
    Σx = 0 emit NULL.  NULL group/value rows drop.

    ONE group-keyed exchange; the kernel is a rank ramp + two
    reduceats per partition.  Returns ``(group_col, n:int64,
    sum_x:int64, gini:float64)``.
    """
    from .partition import partitioned_map

    base = ds.schema()
    base = getattr(base, "base_schema", base)
    gtype = base.field(group_col).type

    def prep(b: pa.Table) -> pa.Table:
        if b.schema.field(value_col).type != pa.int64():
            raise TypeError(
                f"group_lorenz_gini: {value_col} must be int64")
        mask = pc.and_(pc.is_valid(b[group_col]),
                       pc.is_valid(b[value_col]))
        if not pc.all(pc.fill_null(mask, False)).as_py():
            b = b.filter(pc.fill_null(mask, False))
        neg = pc.min_max(b[value_col])["min"]
        if b.num_rows and neg.as_py() < 0:
            raise ValueError(
                "group_lorenz_gini: negative values — Gini "
                "needs a non-negative quantity")
        return b.select([group_col, value_col])

    empty = pa.table({group_col: pa.array([], gtype),
                      "n": pa.array([], pa.int64()),
                      "sum_x": pa.array([], pa.int64()),
                      "gini": pa.array([], pa.float64())})

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or group_col not in t.column_names:
            return empty
        keys = t[group_col].combine_chunks()
        enc = pc.dictionary_encode(keys)
        codes = (pc.fill_null(enc.indices, -1)
                 .to_numpy(zero_copy_only=False).astype(np.int64))
        x = t[value_col].to_numpy(zero_copy_only=False)
        # sorted by (group, value): group runs contiguous, values asc
        is_start = np.concatenate([[True], codes[1:] != codes[:-1]])
        gf = np.flatnonzero(is_start)
        n_g = np.diff(np.concatenate([gf, [len(codes)]]))
        g = np.cumsum(is_start) - 1
        i = np.arange(len(codes)) - gf[g] + 1          # 1-based rank
        w = 2 * i - n_g[g] - 1
        # |w·x| ≤ n·max_x per row; the per-group sum ≤ n²·max_x —
        # int64-safe for n ≤ ~3e6 rows/group at cent scale; larger
        # groups would need the q170 split-word trick
        num = np.add.reduceat(w * x, gf)
        sx = np.add.reduceat(x, gf)
        ok = sx > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            gini = num.astype(np.float64) / (
                n_g.astype(np.float64) * sx.astype(np.float64))
        return pa.table({
            group_col: keys.take(pa.array(gf, pa.int64())),
            "n": pa.array(n_g.astype(np.int64)),
            "sum_x": pa.array(sx, type=pa.int64()),
            "gini": pa.array(np.where(ok, gini, 0.0), pa.float64(),
                             mask=~ok)})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, kernel, key=group_col,
                           sort_keys=[group_col, value_col],
                           num_partitions=num_partitions)


def l_diversity_audit(ds, *, quasi_cols, sensitive_col: str,
                      l_threshold: int, num_partitions: int = 16):
    """l-diversity audit — for every quasi-identifier group, how many
    DISTINCT sensitive values it contains: the release-safety check
    that closes k-anonymity's gap (``k_anonymity`` above guarantees
    group SIZE; a size-50 group whose sensitive column is constant
    still leaks — this catches it).

    Exactness: group size and distinct-sensitive counts are exact
    integers from one quasi-keyed exchange (first quasi column is the
    partition key, so every quasi group co-locates); the kernel is a
    single multi-column run scan — distinct sensitive values are
    contiguous after the (quasi..., sensitive) sort.  NULL quasi or
    sensitive rows drop (SQL ``count(DISTINCT)`` semantics under the
    same WHERE).  Returns ``(quasi_cols..., n:int64,
    n_sensitive:int64, ok:bool — n_sensitive >= l_threshold)``.
    """
    from .partition import partitioned_map

    quasi_cols = list(quasi_cols)
    base = ds.schema()
    base = getattr(base, "base_schema", base)
    qtypes = {c: base.field(c).type for c in quasi_cols}

    def prep(b: pa.Table) -> pa.Table:
        mask = pc.is_valid(b[sensitive_col])
        for c in quasi_cols:
            mask = pc.and_(mask, pc.is_valid(b[c]))
        if not pc.all(pc.fill_null(mask, False)).as_py():
            b = b.filter(pc.fill_null(mask, False))
        return b.select(quasi_cols + [sensitive_col])

    empty_cols = {c: pa.array([], qtypes[c]) for c in quasi_cols}
    empty_cols["n"] = pa.array([], pa.int64())
    empty_cols["n_sensitive"] = pa.array([], pa.int64())
    empty_cols["ok"] = pa.array([], pa.bool_())
    empty = pa.table(empty_cols)

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or quasi_cols[0] not in t.column_names:
            return empty
        n = t.num_rows
        # run starts over the quasi tuple and over (quasi, sensitive)
        q_start = np.zeros(n, bool)
        q_start[0] = True
        for c in quasi_cols:
            enc = pc.dictionary_encode(t[c].combine_chunks())
            codes = (pc.fill_null(enc.indices, -1)
                     .to_numpy(zero_copy_only=False))
            q_start[1:] |= codes[1:] != codes[:-1]
        s_start = q_start.copy()
        enc = pc.dictionary_encode(t[sensitive_col].combine_chunks())
        sc = (pc.fill_null(enc.indices, -1)
              .to_numpy(zero_copy_only=False))
        s_start[1:] |= sc[1:] != sc[:-1]
        qf = np.flatnonzero(q_start)
        n_g = np.diff(np.concatenate([qf, [n]]))
        g = np.cumsum(q_start) - 1
        n_sens = np.zeros(len(qf), np.int64)
        np.add.at(n_sens, g[s_start], 1)
        cols = {c: t[c].combine_chunks().take(
            pa.array(qf, pa.int64())) for c in quasi_cols}
        cols["n"] = pa.array(n_g.astype(np.int64))
        cols["n_sensitive"] = pa.array(n_sens)
        cols["ok"] = pa.array(n_sens >= l_threshold)
        return pa.table(cols)

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, kernel, key=quasi_cols[0],
                           sort_keys=quasi_cols + [sensitive_col],
                           num_partitions=num_partitions)


def coverage_curve(ds, *, weight_col: str,
                   thresholds=(50, 80, 90, 95, 99)):
    """Corpus concentration curve — for each percentage threshold,
    the MINIMUM number of rows (taken largest-weight-first) whose
    weights cover at least that share of the total, plus the exact
    weight they cover: "how few documents hold 90% of the tokens",
    the concentration profile behind dedup/mixing decisions.

    Exact and sort-free: per-block ``(weight, count)`` value-count
    partials combine driver-side (bounded by DISTINCT weights, not
    rows — doc lengths repeat heavily), then one descending walk over
    the distinct weights answers every threshold with integer
    cross-multiplied comparisons (``covered·100 ≥ pct·total`` — no
    float in the decision).  Within the marginal weight, the count of
    rows actually needed is the exact ceil division.

    Thresholds are integer percentages in [1, 100], checked before any
    pass runs.  NULL / negative weights drop (a document can't carry
    negative tokens).  Returns ``(pct:int64, n_rows:int64,
    covered_weight:int64)``; empty input → empty table; an all-zero
    weight total RAISES (degenerate, and the SQL replay would answer
    differently than the equally-valid 0-row answer).
    Reference analog: none (profiling family next to group_gini /
    profile_columns)."""
    import ray

    from .partition import materialized_block_refs, sum_partials

    for p in thresholds:
        # pct = 0 would be met by 0 rows while the SQL replay (min rn
        # with cw·100 ≥ 0) answers 1 — refuse it, before any pass runs
        if not 1 <= int(p) <= 100:
            raise ValueError(
                f"coverage_curve: thresholds must be in [1, 100], got {p}")

    def partial(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or weight_col not in b.column_names:
            return pa.table({"w": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64())})
        w = b[weight_col].combine_chunks().cast(pa.int64())
        keep = pc.fill_null(pc.greater_equal(w, 0), False)
        w = w.filter(keep)
        vc = w.value_counts()
        return pa.table({"w": vc.field("values"),
                         "cnt": vc.field("counts").cast(pa.int64())})

    pds = ds.map_batches(partial, batch_format="pyarrow",
                         zero_copy_batch=True, batch_size=None)
    comb = sum_partials(ray.get(materialized_block_refs(pds)),
                        keys=["w"], vals=["cnt"])
    empty = pa.table({"pct": pa.array([], pa.int64()),
                      "n_rows": pa.array([], pa.int64()),
                      "covered_weight": pa.array([], pa.int64())})
    if comb is None or comb.num_rows == 0:
        return empty
    w = comb["w"].to_numpy(zero_copy_only=False).astype(np.int64)[::-1]
    cnt = comb["cnt"].to_numpy(zero_copy_only=False).astype(
        np.int64)[::-1]                     # descending weight
    tot = int(w.astype(object).dot(cnt.astype(object)))
    if tot == 0:
        # "cover p% of zero" is degenerate and the SQL replay (min rn
        # with cw·100 ≥ p·0) would answer 1 while 0 also qualifies —
        # refuse instead of silently diverging from the oracle
        raise ValueError("coverage_curve: total weight is 0 — "
                         "nothing to cover")
    cum_w = np.cumsum((w.astype(object) * cnt.astype(object)))
    cum_n = np.cumsum(cnt)
    out_p, out_n, out_cw = [], [], []
    for p in sorted(int(x) for x in thresholds):
        # first distinct-weight level where covered*100 >= p*tot
        lvl = int(np.searchsorted(
            np.asarray([int(c) * 100 >= p * tot for c in cum_w]),
            True))
        prev_w = int(cum_w[lvl - 1]) if lvl else 0
        prev_n = int(cum_n[lvl - 1]) if lvl else 0
        need = p * tot - prev_w * 100          # remaining ×100
        wl = int(w[lvl])
        if need <= 0 or wl == 0:
            k = 0 if need <= 0 else int(cnt[lvl])
        else:
            k = -(-need // (wl * 100))         # ceil, exact ints
        out_p.append(p)
        out_n.append(prev_n + k)
        out_cw.append(prev_w + k * wl)
    return pa.table({"pct": pa.array(out_p, pa.int64()),
                     "n_rows": pa.array(out_n, pa.int64()),
                     "covered_weight": pa.array(out_cw, pa.int64())})


def group_completeness(ds, *, group_col: str, cols,
                       empty_string_is_missing: bool = True):
    """Per-group column completeness matrix — for every
    ``(group, column)`` cell: row count, missing count (NULL, plus
    empty string when ``empty_string_is_missing``), and the fill
    rate (one float64 division of exact ints): the per-source data-
    quality table a 100-TB ingest review reads first, the grouped
    sibling of :func:`profile_columns`.

    Per-block dense partials (groups × |cols| int64 cells) combined
    with the shared Arrow ``sum_partials`` — no shuffle.  NULL group
    rows form their own group (SQL ``GROUP BY``).  Returns
    ``(group_col, column:string, n:int64, n_missing:int64,
    fill_rate:float64)``.
    Reference analog: none (profiling family)."""
    import ray

    from .partition import materialized_block_refs, sum_partials

    cols = list(cols)
    if not cols:
        raise ValueError("group_completeness: need at least one col")

    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    gtype = base.field(group_col).type

    def partial(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or group_col not in b.column_names:
            return pa.table({"g": pa.array([], gtype),
                             "col": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64()),
                             "miss": pa.array([], pa.int64())})
        gd = pc.dictionary_encode(b[group_col].combine_chunks())
        codes = (pc.fill_null(gd.indices, len(gd.dictionary))
                 .to_numpy(zero_copy_only=False).astype(np.int64))
        n_g = len(gd.dictionary) + 1        # last slot = NULL group
        cnt = np.bincount(codes, minlength=n_g).astype(np.int64)
        gvals = pa.concat_arrays(
            [gd.dictionary, pa.nulls(1, gd.dictionary.type)])
        out_g, out_c, out_n, out_m = [], [], [], []
        for c in cols:
            col = b[c].combine_chunks()
            missing = pc.is_null(col)
            if empty_string_is_missing and (
                    pa.types.is_string(col.type)
                    or pa.types.is_large_string(col.type)):
                missing = pc.or_(missing, pc.fill_null(
                    pc.equal(col, ""), False))
            mnp = np.asarray(missing)
            mm = np.zeros(n_g, np.int64)
            np.add.at(mm, codes, mnp.astype(np.int64))
            out_g.append(gvals)
            out_c.append(pa.array([c] * n_g, pa.string()))
            out_n.append(pa.array(cnt))
            out_m.append(pa.array(mm))
        return pa.table({
            "g": pa.concat_arrays(out_g),
            "col": pa.concat_arrays(out_c),
            "n": pa.concat_arrays(out_n),
            "miss": pa.concat_arrays(out_m)})

    pds = ds.map_batches(partial, batch_format="pyarrow",
                         zero_copy_batch=True, batch_size=None)
    comb = sum_partials(ray.get(materialized_block_refs(pds)),
                        keys=["g", "col"], vals=["n", "miss"])
    empty = pa.table({group_col: pa.array([], gtype),
                      "col": pa.array([], pa.string()),
                      "n": pa.array([], pa.int64()),
                      "n_missing": pa.array([], pa.int64()),
                      "fill_rate": pa.array([], pa.float64())})
    if comb is None:
        return empty
    comb = comb.filter(pc.greater(comb["n"], 0))
    n = comb["n"].to_numpy(zero_copy_only=False).astype(np.int64)
    m = comb["miss"].to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table({
        group_col: comb["g"].combine_chunks().cast(gtype),
        "col": comb["col"].combine_chunks().cast(pa.string()),
        "n": pa.array(n),
        "n_missing": pa.array(m),
        "fill_rate": pa.array((n - m).astype(np.float64)
                              / n.astype(np.float64))})
