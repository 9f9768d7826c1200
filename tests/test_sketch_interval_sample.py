"""KMV distinct sketch, broadcast interval join, deterministic hash sample
(stages/sketch.py, stages/interval.py, stages/sample.py) vs serial replays.
"""

import hashlib

import numpy as np
import pyarrow as pa
import pytest
import ray

from featurebox_ray.stages.interval import (broadcast_interval_join,
                                            top_k_per_group)
from featurebox_ray.stages.sample import (MOD, hash_sample,
                                          sample_threshold)
from featurebox_ray.stages.sketch import HASH_SPAN, kmv_distinct


def _md5_60(v) -> int:
    return int(hashlib.md5(str(v).encode()).hexdigest()[:15], 16)


# ---------------------------------------------------------------- KMV ----

def _kmv_replay(groups, values, k):
    """Serial KMV over (group, value) pairs."""
    out = {}
    byg = {}
    for g, v in zip(groups, values):
        byg.setdefault(g, set()).add(_md5_60(v))
    for g, hs in byg.items():
        hv = sorted(hs)[:k]
        k_used = len(hv)
        kth = hv[-1]
        est = float(k_used) if k_used < k else (k - 1) * HASH_SPAN / float(kth)
        out[g] = (k_used, kth, est)
    return out


@pytest.mark.parametrize("k", [4, 64])
def test_kmv_matches_serial_replay(k):
    rng = np.random.default_rng(7)
    groups = rng.choice(["a", "b", "c"], size=500).tolist()
    values = rng.integers(0, 40, size=500).tolist()  # ≤40 distinct per group
    ds = ray.data.from_arrow(pa.table({
        "g": pa.array(groups), "v": pa.array(values, pa.int64()),
    })).repartition(5)
    got = kmv_distinct(ds, group_col="g", value_col="v", k=k).to_pandas()
    want = _kmv_replay(groups, values, k)
    assert len(got) == len(want)
    for _, row in got.iterrows():
        k_used, kth, est = want[row["g"]]
        assert row["k_used"] == k_used
        assert row["kth_hash"] == kth
        assert row["est_distinct"] == est  # bit-exact by construction


def test_kmv_exact_when_under_k():
    # k=64 > 40 distinct: estimate must equal the exact distinct count
    ds = ray.data.from_arrow(pa.table({
        "g": pa.array(["x"] * 100),
        "v": pa.array(list(range(40)) * 2 + list(range(20)), pa.int64()),
    }))
    got = kmv_distinct(ds, group_col="g", value_col="v", k=64).to_pandas()
    assert got["est_distinct"].iloc[0] == 40.0
    assert got["k_used"].iloc[0] == 40


def test_kmv_partition_invariance():
    rng = np.random.default_rng(3)
    t = pa.table({"g": pa.array(rng.choice(["p", "q"], 300).tolist()),
                  "v": pa.array(rng.integers(0, 1000, 300), pa.int64())})
    a = kmv_distinct(ray.data.from_arrow(t), group_col="g",
                     value_col="v", k=16).to_pandas().sort_values("g")
    b = kmv_distinct(ray.data.from_arrow(t).repartition(7), group_col="g",
                     value_col="v", k=16).to_pandas().sort_values("g")
    assert a.reset_index(drop=True).equals(b.reset_index(drop=True))


# ---------------------------------------------------------------- HLL ----

def _hll_replay(groups, values, p):
    """Serial raw-HLL over (group, value) pairs."""
    m, w = 1 << p, 60 - p
    big_k = w + 1
    byg = {}
    for g, v in zip(groups, values):
        byg.setdefault(g, set()).add(_md5_60(v))
    out = {}
    for g, hs in byg.items():
        regs = [0] * m
        for h in hs:
            reg, rem = h >> w, h & ((1 << w) - 1)
            rho = (w - rem.bit_length() + 1) if rem else big_k
            regs[reg] = max(regs[reg], rho)
        s = sum(1 << (big_k - r) for r in regs)
        alpha = 0.7213 / (1.0 + 1.079 / float(m))
        est = alpha * (float(m * m) * float(1 << big_k)) / float(s)
        out[g] = (sum(1 for r in regs if r == 0), s, est)
    return out


def test_hll_matches_serial_replay_and_partition_invariant():
    from featurebox_ray.stages.sketch import hll_distinct
    rng = np.random.default_rng(11)
    groups = rng.choice(["a", "b", "c"], 5000).tolist()
    values = rng.integers(0, 2000, 5000).tolist()
    t = pa.table({"g": pa.array(groups), "v": pa.array(values, pa.int64())})
    expect = _hll_replay(groups, values, p=8)

    for parts in (1, 7):
        ds = ray.data.from_arrow(t)
        if parts > 1:
            ds = ds.repartition(parts)
        got = hll_distinct(ds, group_col="g", value_col="v",
                           p=8).to_pandas().set_index("g")
        for g, (nz, s, est) in expect.items():
            assert got.loc[g, "n_zero_regs"] == nz
            assert got.loc[g, "s_int"] == s
            assert got.loc[g, "est_distinct"] == est  # bit-exact

    # raw-HLL accuracy sanity: within ~3 standard errors (1.04/sqrt(m))
    exact = {g: len({v for gg, v in zip(groups, values) if gg == g})
             for g in set(groups)}
    for g in exact:
        rel = abs(expect[g][2] - exact[g]) / exact[g]
        assert rel < 3 * 1.04 / np.sqrt(256)


def test_hll_guards():
    from featurebox_ray.stages.sketch import hll_distinct
    ds = ray.data.from_arrow(pa.table({"g": ["x"], "v": [1]}))
    with pytest.raises(ValueError):
        hll_distinct(ds, group_col="g", value_col="v", p=3)


# ------------------------------------------------------- interval join ----

def test_interval_join_matches_bruteforce():
    rng = np.random.default_rng(11)
    n, m = 400, 12
    ts = rng.integers(0, 10_000, n)
    fact = pa.table({"rid": pa.array(np.arange(n), pa.int64()),
                     "ts": pa.array(ts, pa.int64())})
    lo = rng.integers(0, 9_000, m)
    width = rng.integers(1, 3_000, m)          # arbitrary overlaps
    iv = pa.table({"win_id": pa.array(np.arange(m), pa.int64()),
                   "lo": pa.array(lo, pa.int64()),
                   "hi": pa.array(lo + width, pa.int64())})
    out = broadcast_interval_join(
        ray.data.from_arrow(fact).repartition(4), iv, ts_col="ts",
        keep_cols=["rid"]).to_pandas()
    got = set(zip(out["rid"], out["win_id"]))
    want = {(r, w) for r in range(n) for w in range(m)
            if lo[w] <= ts[r] < lo[w] + width[w]}
    assert got == want


def test_interval_join_empty_intervals():
    fact = pa.table({"rid": pa.array([1, 2], pa.int64()),
                     "ts": pa.array([5, 6], pa.int64())})
    iv = pa.table({"win_id": pa.array([], pa.int64()),
                   "lo": pa.array([], pa.int64()),
                   "hi": pa.array([], pa.int64())})
    out = broadcast_interval_join(ray.data.from_arrow(fact), iv,
                                  ts_col="ts", keep_cols=["rid"])
    assert out.count() == 0


def test_top_k_per_group_ties_deterministic():
    t = pa.table({"g": pa.array(["a"] * 4 + ["b"] * 2),
                  "score": pa.array([1.0, 2.0, 2.0, 0.5, 3.0, 3.0]),
                  "id": pa.array([40, 30, 20, 10, 2, 1], pa.int64())})
    got = top_k_per_group(ray.data.from_arrow(t), group_col="g",
                          order_col="score", tie_col="id", k=2,
                          keep_cols=["g", "id"])
    df = got.to_pandas().sort_values(["g", "id"]).reset_index(drop=True)
    # a: score-2 tie broken by id asc -> ids 20,30 ; b: ids 1,2
    assert df["id"].tolist() == [20, 30, 1, 2]


# --------------------------------------------------------- hash sample ----

def test_hash_sample_bounds_and_determinism():
    keys = pa.table({"k": pa.array(np.arange(10_000), pa.int64())})
    full = hash_sample(ray.data.from_arrow(keys), key_col="k",
                       threshold=MOD).count()
    none = hash_sample(ray.data.from_arrow(keys), key_col="k",
                       threshold=0).count()
    assert (full, none) == (10_000, 0)
    t = sample_threshold(0.1)
    a = hash_sample(ray.data.from_arrow(keys), key_col="k",
                    threshold=t).to_pandas()["k"].tolist()
    b = hash_sample(ray.data.from_arrow(keys).repartition(8), key_col="k",
                    threshold=t).to_pandas()["k"].tolist()
    assert sorted(a) == sorted(b)
    frac = len(a) / 10_000
    assert 0.05 < frac < 0.15  # multiplicative hash is near-uniform


def test_hash_sample_key_consistency_across_tables():
    # the same key set sampled from two different tables -> same keys kept
    t1 = pa.table({"k": pa.array([2, 3, 5, 7, 11, 13] * 10, pa.int64())})
    t2 = pa.table({"k": pa.array([13, 11, 7, 5, 3, 2], pa.int64())})
    thr = sample_threshold(0.5)
    s1 = set(hash_sample(ray.data.from_arrow(t1), key_col="k",
                         threshold=thr).to_pandas()["k"])
    s2 = set(hash_sample(ray.data.from_arrow(t2), key_col="k",
                         threshold=thr).to_pandas()["k"])
    assert s1 == s2


def test_hash_sample_negative_key_raises():
    t = pa.table({"k": pa.array([-1, 2], pa.int64())})
    with pytest.raises(Exception, match="non-negative"):
        hash_sample(ray.data.from_arrow(t), key_col="k",
                    threshold=MOD).count()


# ----------------------------------------------------- group quantiles ----

def test_group_quantiles_duckdb_parity_and_nulls():
    import duckdb

    from featurebox_ray.stages.quantile import group_quantiles

    rng = np.random.default_rng(5)
    g = rng.choice(["a", "b", "c"], 501).tolist()
    v = rng.normal(size=501)
    v[rng.choice(501, 30, replace=False)] = np.nan  # nulls
    t = pa.table({"g": pa.array(g),
                  "v": pa.array(v, pa.float64(), mask=np.isnan(v))})
    got = group_quantiles(ray.data.from_arrow(t).repartition(6),
                          group_col="g", value_col="v",
                          qs=[0.5, 0.9, 0.99], num_partitions=4
                          ).to_pandas().sort_values("g").reset_index(drop=True)
    want = duckdb.sql(
        "SELECT g, count(v) AS n_vals, quantile_disc(v, 0.5) AS p50, "
        "quantile_disc(v, 0.9) AS p90, quantile_disc(v, 0.99) AS p99 "
        "FROM t GROUP BY g ORDER BY g").df()
    assert got["n_vals"].tolist() == want["n_vals"].tolist()
    for c in ("p50", "p90", "p99"):
        assert got[c].tolist() == want[c].tolist()  # bit-exact elements


def test_group_quantiles_tiny_groups():
    from featurebox_ray.stages.quantile import group_quantiles

    t = pa.table({"g": pa.array(["x", "y", "y", "z"]),
                  "v": pa.array([7.0, 1.0, 2.0, None], pa.float64())})
    got = group_quantiles(ray.data.from_arrow(t), group_col="g",
                          value_col="v", qs=[0.5],
                          num_partitions=2).to_pandas()
    got = got.set_index("g")
    assert got.loc["x", "p50"] == 7.0
    assert got.loc["y", "p50"] == 1.0      # ceil(0.5*2)-1 = 0 -> lower
    assert got.loc["z", "n_vals"] == 0 and np.isnan(got.loc["z", "p50"])


def test_group_quantiles_null_group_key():
    from featurebox_ray.stages.quantile import group_quantiles

    t = pa.table({"g": pa.array(["a", None, "a", None]),
                  "v": pa.array([1.0, 5.0, 3.0, 7.0])})
    got = group_quantiles(ray.data.from_arrow(t), group_col="g",
                          value_col="v", qs=[0.5],
                          num_partitions=2).to_pandas()
    # SQL GROUP BY keeps the NULL group as its own row
    assert len(got) == 2
    byg = {(None if g is None or (isinstance(g, float) and np.isnan(g))
            else g): r for g, r in zip(got["g"], got.itertuples())}
    assert byg["a"].p50 == 1.0           # ceil(0.5*2)-1 = 0
    assert byg[None].p50 == 5.0
    assert byg[None].n_vals == 2


def test_interval_join_null_ts_dropped():
    fact = pa.table({"rid": pa.array([1, 2, 3], pa.int64()),
                     "ts": pa.array([5, None, 15], pa.int64())})
    iv = pa.table({"win_id": pa.array([0], pa.int64()),
                   "lo": pa.array([0], pa.int64()),
                   "hi": pa.array([10], pa.int64())})
    out = broadcast_interval_join(ray.data.from_arrow(fact), iv,
                                  ts_col="ts", keep_cols=["rid"]).to_pandas()
    assert out["rid"].tolist() == [1]


def test_interval_join_empty_intervals_schema():
    fact = pa.table({"rid": pa.array([1], pa.int64()),
                     "ts": pa.array([5], pa.int64())})
    iv = pa.table({"win_id": pa.array([], pa.int64()),
                   "lo": pa.array([], pa.int64()),
                   "hi": pa.array([], pa.int64())})
    out = broadcast_interval_join(ray.data.from_arrow(fact), iv,
                                  ts_col="ts", keep_cols=["rid"])
    # Ray's to_pandas drops the schema of an all-empty dataset; the
    # blocks themselves must still carry keep_cols + attach columns
    from featurebox_ray.stages.partition import materialized_block_refs

    blocks = ray.get(materialized_block_refs(out))
    assert blocks and blocks[0].num_rows == 0
    assert blocks[0].column_names == ["rid", "win_id"]
    assert blocks[0].schema.field("win_id").type == pa.int64()


def test_cap_per_group_matches_serial_and_partition_invariant():
    from featurebox_ray.stages.sample import KNUTH_MULT, cap_per_group

    rng = np.random.default_rng(8)
    n = 500
    ids = rng.permutation(10_000)[:n].astype(np.int64)
    grp = rng.choice(["a", "b", "c", "d"], n)
    t = pa.table({"id": pa.array(ids), "g": pa.array(grp.tolist()),
                  "x": pa.array(rng.normal(size=n))})

    def serial(m):
        h = ((ids.view(np.uint64) % np.uint64(MOD))
             * np.uint64(KNUTH_MULT)) % np.uint64(MOD)
        keep = set()
        for g in np.unique(grp):
            sel = np.flatnonzero(grp == g)
            order = sel[np.lexsort((ids[sel], h[sel]))][:m]
            keep.update(ids[order].tolist())
        return keep

    got = cap_per_group(ray.data.from_arrow(t).repartition(6),
                        group_col="g", id_col="id", m=20).to_pandas()
    assert set(got["id"]) == serial(20)
    assert got.groupby(got["id"].map(dict(zip(ids, grp)))).size().max() <= 20
    # different partitioning -> identical winner set
    got2 = cap_per_group(ray.data.from_arrow(t).repartition(3),
                         group_col="g", id_col="id", m=20).to_pandas()
    assert sorted(got["id"]) == sorted(got2["id"])
    # m larger than any group -> identity
    all_rows = cap_per_group(ray.data.from_arrow(t), group_col="g",
                             id_col="id", m=n).count()
    assert all_rows == n


@pytest.mark.parametrize("blocks", [1, 8])
def test_cap_per_group_null_group_matches_duckdb(blocks):
    """A NULL group is one group, as in SQL's ``PARTITION BY``: the kept
    rows equal DuckDB's ``QUALIFY row_number() <= m``."""
    import duckdb

    from featurebox_ray.stages.sample import cap_per_group

    rng = np.random.default_rng(55 + blocks)
    n = 400
    g = rng.choice(["a", "b", "c", ""], n).tolist()
    for i in rng.choice(n, 60, replace=False):
        g[i] = None
    t = pa.table({"id": pa.array(rng.permutation(10 ** 6)[:n], pa.int64()),
                  "g": pa.array(g, pa.string())})
    want = sorted(r[0] for r in duckdb.sql(
        "SELECT id FROM t QUALIFY row_number() OVER (PARTITION BY g "
        "ORDER BY ((CAST(id AS HUGEINT) % 4294967296) * 2654435761) "
        "% 4294967296, id) <= 9").fetchall())
    ds = ray.data.from_arrow([t.slice(i * n // blocks, n // blocks)
                              for i in range(blocks)])
    got = cap_per_group(ds, group_col="g", id_col="id", m=9).to_pandas()
    assert sorted(got["id"]) == want
    assert got["g"].isna().sum() == 9


# ------------------------------------------------- histogram quantiles ----

def _hist_replay(df, qs, w):
    import math

    out = {}
    for g, sub in df.dropna(subset=["v"]).groupby("g"):
        bins = np.sort(np.floor(sub["v"].to_numpy() / w).astype(np.int64))
        n = len(bins)
        row = [n]
        for q in qs:
            target = max(int(math.ceil(q * float(n))), 1)
            row.append(bins[target - 1] * w)  # sorted bins: rank pick
        out[g] = row
    return out


def test_histogram_quantiles_serial_replay_and_invariance():
    from featurebox_ray.stages.quantile import histogram_quantiles

    rng = np.random.default_rng(13)
    df = __import__("pandas").DataFrame({
        "g": rng.choice(["a", "b", "c"], size=900),
        "v": rng.normal(scale=40.0, size=900),
    })
    df.loc[df.index[:7], "v"] = np.nan  # ignored like SQL aggregates
    ds = ray.data.from_arrow(pa.Table.from_pandas(
        df, preserve_index=False))
    qs = [0.5, 0.9, 0.99]
    got2 = histogram_quantiles(ds.repartition(2), group_col="g",
                               value_col="v", qs=qs,
                               num_partitions=2).to_pandas()
    got7 = histogram_quantiles(ds.repartition(7), group_col="g",
                               value_col="v", qs=qs,
                               num_partitions=5).to_pandas()
    want = _hist_replay(df, qs, 0.125)
    for got in (got2, got7):
        assert len(got) == len(want)
        for _, r in got.iterrows():
            n, p50, p90, p99 = want[r["g"]]
            assert r["n_vals"] == n
            assert r["p50_lo"] == p50 and r["p90_lo"] == p90 \
                and r["p99_lo"] == p99  # bit-exact dyadic arithmetic
    # the exact quantile must fall inside [edge, edge + width)
    for g, sub in df.dropna(subset=["v"]).groupby("g"):
        v = np.sort(sub["v"].to_numpy())
        n = len(v)
        exact = v[max(int(np.ceil(0.9 * n)) - 1, 0)]
        edge = want[g][2]
        assert edge <= exact < edge + 0.125


def test_histogram_quantiles_guards():
    from featurebox_ray.stages.quantile import histogram_quantiles

    ds = ray.data.from_arrow(pa.table({
        "g": pa.array(["a"]), "v": pa.array([float("inf")])}))
    with pytest.raises(ValueError, match="power of two"):
        histogram_quantiles(ds, group_col="g", value_col="v",
                            qs=[0.5], bin_width=0.1)
    with pytest.raises(Exception, match="finite"):
        histogram_quantiles(ds, group_col="g", value_col="v",
                            qs=[0.5]).to_pandas()


# ---------------------------------------------------- stratified sample ---

def test_stratified_hash_sample_matches_serial_replay():
    from featurebox_ray.stages.sample import (KNUTH_MULT,
                                              stratified_hash_sample,
                                              sample_threshold)

    rng = np.random.default_rng(17)
    n = 2000
    df = __import__("pandas").DataFrame({
        "id": np.arange(n, dtype=np.int64),
        "g": rng.choice(["en", "de", "zh", "fr"], size=n),
    })
    fr = {"en": 0.25, "de": 0.5, "zh": 1.0}
    ds = ray.data.from_arrow(pa.Table.from_pandas(
        df, preserve_index=False)).repartition(5)
    got = stratified_hash_sample(ds, key_col="id", group_col="g",
                                 fractions=fr,
                                 default_fraction=0.125).to_pandas()
    thr = {g: sample_threshold(f) for g, f in fr.items()}
    h = (df["id"].to_numpy().astype(np.uint64) % np.uint64(MOD)
         * np.uint64(KNUTH_MULT)) % np.uint64(MOD)
    keep = h < np.array([thr.get(g, sample_threshold(0.125))
                         for g in df["g"]], np.uint64)
    want = df[keep]
    assert got.sort_values("id").reset_index(drop=True).equals(
        want.sort_values("id").reset_index(drop=True))
    # fraction 1.0 keeps the whole group
    assert (got["g"] == "zh").sum() == (df["g"] == "zh").sum()
    # default fraction applies to the unlisted group
    assert 0 < (got["g"] == "fr").sum() < (df["g"] == "fr").sum()


# ------------------------------------------------ interpolated quantiles --

def test_group_quantiles_interpolated_duckdb_parity():
    import duckdb

    from featurebox_ray.stages.quantile import group_quantiles

    rng = np.random.default_rng(23)
    pdf = __import__("pandas").DataFrame({
        "g": rng.choice(["a", "b", "c", "d"], size=700),
        "v": rng.normal(scale=50.0, size=700),
    })
    pdf.loc[pdf.index[:6], "v"] = None  # NULLs ignored
    # non-dyadic qs exercise the RN float arithmetic
    qs = [0.333, 0.5, 0.917]
    ds = ray.data.from_arrow(pa.Table.from_pandas(
        pdf, preserve_index=False)).repartition(4)
    got = group_quantiles(ds, group_col="g", value_col="v", qs=qs,
                          names=["q1", "q2", "q3"], num_partitions=3,
                          interpolated=True).to_pandas()
    con = duckdb.connect()
    con.register("t", pdf)
    want = con.execute("""
        SELECT g, count(v) AS n_vals,
               quantile_cont(v, CAST(0.333 AS DOUBLE)) AS q1,
               quantile_cont(v, CAST(0.5 AS DOUBLE)) AS q2,
               quantile_cont(v, CAST(0.917 AS DOUBLE)) AS q3
        FROM t GROUP BY g
    """).df()
    got = got.sort_values("g").reset_index(drop=True)
    want = want.sort_values("g").reset_index(drop=True)
    assert list(got["g"]) == list(want["g"])
    np.testing.assert_array_equal(got["n_vals"], want["n_vals"])
    for c in ["q1", "q2", "q3"]:
        np.testing.assert_array_equal(  # bit-exact, no tolerance
            got[c].to_numpy(), want[c].to_numpy(), err_msg=c)


def test_group_quantiles_interpolated_single_row_group():
    from featurebox_ray.stages.quantile import group_quantiles

    ds = ray.data.from_arrow(pa.table({
        "g": pa.array(["solo", "two", "two"]),
        "v": pa.array([7.5, 1.0, 2.0])}))
    got = (group_quantiles(ds, group_col="g", value_col="v", qs=[0.5],
                           names=["med"], interpolated=True)
           .to_pandas().set_index("g"))
    assert got.loc["solo", "med"] == 7.5
    assert got.loc["two", "med"] == 1.5


# ----------------------------------------------------------------- rollup --

def test_rollup_counts_matches_pandas():
    from featurebox_ray.stages.rollup import rollup_counts

    rng = np.random.default_rng(41)
    pdf = __import__("pandas").DataFrame({
        "a": rng.choice(["x", "y", "z"], size=500),
        "b": rng.choice(["p", "q"], size=500),
        "m": rng.integers(0, 100, size=500).astype(np.int64),
    })
    ds = ray.data.from_arrow(pa.Table.from_pandas(
        pdf, preserve_index=False)).repartition(6)
    got = rollup_counts(ds, g1="a", g2="b", int_sum_cols=["m"],
                        num_partitions=3).to_pandas()
    fine = pdf.groupby(["a", "b"]).agg(n=("m", "size"), s=("m", "sum"))
    mid = pdf.groupby("a").agg(n=("m", "size"), s=("m", "sum"))
    assert len(got) == len(fine) + len(mid) + 1
    for (a, b), r in fine.iterrows():
        row = got[(got.a == a) & (got.b == b)]
        assert row["lvl"].iloc[0] == 0
        assert row["n_rows"].iloc[0] == r["n"] and row["sum_m"].iloc[0] == r["s"]
    for a, r in mid.iterrows():
        row = got[(got.a == a) & got.b.isna()]
        assert row["lvl"].iloc[0] == 1
        assert row["n_rows"].iloc[0] == r["n"] and row["sum_m"].iloc[0] == r["s"]
    g = got[got.a.isna()]
    assert len(g) == 1 and g["lvl"].iloc[0] == 3
    assert g["n_rows"].iloc[0] == 500 and g["sum_m"].iloc[0] == pdf["m"].sum()


def test_rollup_cube_matches_duckdb():
    """CUBE mode adds the (g2)-only level via a second tiny exchange;
    every (key, lvl) cell must match DuckDB GROUP BY CUBE exactly,
    including NULL group values (a real-null group is distinguished
    from a rolled-up level only by lvl = GROUPING bitmask)."""
    import duckdb

    from featurebox_ray.stages.rollup import rollup_counts

    pdf = __import__("pandas").DataFrame({
        "a": (["x", "y", "z", None] * 100),
        "b": (["p", "q", None, "p", "q"] * 80),
        "m": np.arange(400, dtype=np.int64) % 97,
    })
    ds = ray.data.from_arrow(pa.Table.from_pandas(
        pdf, preserve_index=False)).repartition(5)
    got = (rollup_counts(ds, g1="a", g2="b", int_sum_cols=["m"],
                         num_partitions=3, cube=True)
           .to_pandas()
           .sort_values(["lvl", "a", "b"], na_position="last")
           .reset_index(drop=True))
    con = duckdb.connect()
    want = con.execute("""
        SELECT a, b, GROUPING(a, b) AS lvl, count(*) AS n_rows,
               sum(m) AS sum_m
        FROM pdf GROUP BY CUBE(a, b)
        ORDER BY lvl, a NULLS LAST, b NULLS LAST
    """).df()
    con.close()
    assert len(got) == len(want)
    for c in ["lvl", "n_rows", "sum_m"]:
        assert (got[c].to_numpy(np.int64)
                == want[c].to_numpy(np.int64)).all(), c
    for c in ["a", "b"]:
        assert got[c].fillna("~").tolist() == want[c].fillna("~").tolist()


# ----------------------------------------------------- weighted sample ----

def test_weighted_sample_k_partition_invariant_and_weight_biased():
    from featurebox_ray.stages.sample import MOD, knuth_hash, \
        weighted_sample_k

    rng = np.random.default_rng(47)
    n = 3000
    df = __import__("pandas").DataFrame({
        "id": np.arange(n, dtype=np.int64),
        "w": rng.uniform(0.5, 20.0, size=n),
    })
    ds = ray.data.from_arrow(pa.Table.from_pandas(df, preserve_index=False))
    a = weighted_sample_k(ds.repartition(3), key_col="id", weight_col="w",
                          k=100).to_pandas()
    b = weighted_sample_k(ds.repartition(11), key_col="id", weight_col="w",
                          k=100).to_pandas()
    assert sorted(a["id"]) == sorted(b["id"])  # pure function of ids
    # serial replay equality (same arithmetic)
    u = (knuth_hash(df["id"].to_numpy()).astype(np.float64) + 0.5) / MOD
    score = u ** (1.0 / df["w"].to_numpy())
    want = set(np.lexsort((df["id"].to_numpy(), -score))[:100])
    assert set(a["id"]) == want
    # heavier rows are overrepresented vs their population share
    heavy_share = (df.loc[list(want), "w"] > 10).mean()
    pop_share = (df["w"] > 10).mean()
    assert heavy_share > pop_share

    with pytest.raises(Exception, match="finite positive"):
        bad = df.copy(); bad.loc[0, "w"] = -1.0
        weighted_sample_k(ray.data.from_arrow(
            pa.Table.from_pandas(bad, preserve_index=False)),
            key_col="id", weight_col="w", k=5).to_pandas()


# ------------------------------------------------------ sequence packing --

def test_pack_sequences_invariants_and_replay():
    from featurebox_ray.stages.pack import (PACK_SHIFT, pack_partition,
                                            pack_sequences)
    from featurebox_ray.stages.sample import knuth_hash

    rng = np.random.default_rng(59)
    n = 800
    pdf = __import__("pandas").DataFrame({
        "id": np.arange(n, dtype=np.int64),
        "nt": rng.integers(1, 600, size=n).astype(np.int64),
    })
    pdf.loc[5, "nt"] = 5000  # oversized doc -> its own pack
    ds = ray.data.from_arrow(pa.Table.from_pandas(pdf, preserve_index=False))
    BUDGET, P, B = 1024, 4, 64
    got = pack_sequences(ds.repartition(3), id_col="id",
                         n_tokens_col="nt", budget=BUDGET,
                         num_partitions=P, n_buckets=B).to_pandas()
    got7 = pack_sequences(ds.repartition(9), id_col="id",
                          n_tokens_col="nt", budget=BUDGET,
                          num_partitions=P, n_buckets=B).to_pandas()
    key = ["id"]
    assert (got.sort_values(key).reset_index(drop=True)
            .equals(got7.sort_values(key).reset_index(drop=True)))
    assert len(got) == n and set(got["id"]) == set(pdf["id"])
    # budget invariant: every pack's tokens <= budget unless single-doc
    sizes = got.groupby("pack_id").agg(tot=("nt", "sum"), m=("nt", "size"))
    bad = sizes[(sizes.tot > BUDGET) & (sizes.m > 1)]
    assert len(bad) == 0
    # oversized doc alone in its pack
    big_pack = got[got.id == 5]["pack_id"].iloc[0]
    assert (got.pack_id == big_pack).sum() == 1
    # pack_pos is 0..m-1 within each pack
    for _, grp in got.groupby("pack_id"):
        assert sorted(grp["pack_pos"]) == list(range(len(grp)))
    # serial per-bucket replay equality
    bucket = (knuth_hash(pdf["id"].to_numpy()) % np.uint64(B)).astype(np.int64)
    for b in set(bucket.tolist()):
        m = bucket == b
        order, lp, pos = pack_partition(pdf["id"].to_numpy()[m],
                                        pdf["nt"].to_numpy()[m],
                                        budget=BUDGET)
        ids_b = pdf["id"].to_numpy()[m][order]
        want_pid = (np.int64(b) << np.int64(PACK_SHIFT)) + lp
        sub = got.set_index("id").loc[ids_b]
        np.testing.assert_array_equal(sub["pack_id"].to_numpy(), want_pid)
        np.testing.assert_array_equal(sub["pack_pos"].to_numpy(), pos)


# ------------------------------------------------------ quantile binning --

def test_quantile_bin_matches_pandas_and_handles_nulls():
    from featurebox_ray.stages.binning import quantile_bin

    rng = np.random.default_rng(67)
    n = 600
    v = rng.normal(size=n)
    null_mask = rng.random(n) < 0.05
    t = pa.table({
        "g": pa.array(rng.choice(["a", "b", "c"], size=n)),
        "v": pa.array(v, pa.float64(), mask=null_mask),
        "id": pa.array(np.arange(n, dtype=np.int64)),
    })
    got = (quantile_bin(ray.data.from_arrow(t).repartition(4),
                        group_col="g", value_col="v", num_partitions=3)
           .to_pandas().sort_values("id").reset_index(drop=True))
    import math

    df = t.to_pandas()
    for g, sub in df.dropna(subset=["v"]).groupby("g"):
        s = np.sort(sub["v"].to_numpy())
        edges = [s[max(math.ceil(q * len(s)) - 1, 0)]
                 for q in (0.25, 0.5, 0.75)]
        rows = got[(got.g == g) & got.v.notna()]
        want = np.searchsorted(np.array(edges), rows["v"].to_numpy(),
                               side="left")
        # searchsorted(left) counts edges < v only when no tie; compute
        # directly instead: bucket = #edges strictly below v
        want = (np.array(edges)[None, :]
                < rows["v"].to_numpy()[:, None]).sum(axis=1)
        np.testing.assert_array_equal(rows["q_bucket"].to_numpy(), want)
        # buckets are roughly balanced quarters
        counts = np.bincount(want, minlength=4)
        assert counts.min() >= len(rows) // 8
    assert got[got.v.isna()]["q_bucket"].isna().all()


def test_throttle_min_interval_serial_replay():
    import pytest

    from featurebox_ray.stages.sample import throttle_min_interval

    rng = np.random.default_rng(59)
    n = 400
    t = pa.table({
        "user_id": pa.array(rng.integers(0, 15, n), pa.int64()),
        "ts": pa.array([None if i % 37 == 0 else int(v) for i, v in
                        enumerate(rng.integers(0, 3000, n))], pa.int64()),
        "event_id": pa.array(np.arange(n), pa.int64()),
    })

    def replay(gap):
        rows = sorted(
            ((u, s, i) for u, s, i in zip(t["user_id"].to_pylist(),
                                          t["ts"].to_pylist(),
                                          t["event_id"].to_pylist())
             if s is not None))
        kept, last = [], {}
        for u, s, i in rows:
            if u not in last or s >= last[u] + gap:
                kept.append(i)
                last[u] = s
        return sorted(kept)

    for gap in (50, 500, 10_000):
        want = replay(gap)
        for parts in (1, 4, 9):
            got = (throttle_min_interval(
                ray.data.from_arrow(t).repartition(parts),
                key_col="user_id", ts_col="ts", min_gap=gap,
                id_col="event_id", num_partitions=3).to_pandas())
            assert sorted(got["event_id"].tolist()) == want, (gap, parts)
    # huge gap -> exactly one kept row per key with >= 1 valid ts
    big = (throttle_min_interval(ray.data.from_arrow(t),
                                 key_col="user_id", ts_col="ts",
                                 min_gap=10_000, id_col="event_id")
           .to_pandas())
    assert len(big) == big["user_id"].nunique()
    with pytest.raises(ValueError, match="positive"):
        throttle_min_interval(ray.data.from_arrow(t), key_col="user_id",
                              ts_col="ts", min_gap=0, id_col="event_id")


def test_throttle_chained_not_lag_semantics():
    from featurebox_ray.stages.sample import throttle_min_interval

    # events at 0, 60, 120 with gap 100: chained debounce keeps 0 and
    # 120 (120 - 0 >= 100); a lag-based filter would keep only 0
    # (every raw gap is 60 < 100) — this distinguishes the semantics
    t = pa.table({
        "user_id": pa.array([1, 1, 1], pa.int64()),
        "ts": pa.array([0, 60, 120], pa.int64()),
        "event_id": pa.array([10, 11, 12], pa.int64()),
    })
    got = (throttle_min_interval(ray.data.from_arrow(t),
                                 key_col="user_id", ts_col="ts",
                                 min_gap=100, id_col="event_id")
           .to_pandas())
    assert sorted(got["event_id"].tolist()) == [10, 12]
