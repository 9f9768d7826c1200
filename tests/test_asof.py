"""As-of join (backfill) vs pandas merge_asof oracle + temporal-leakage
probes (FIXTURES F5.2)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray

from featurebox_ray.stages.asof import asof_join

from .oracle import load_feature_table, load_transcripts, oracle_asof


def run_asof(d, strict=False, num_partitions=8):
    left = ray.data.read_parquet(f"{d}/transcripts")
    right = ray.data.read_parquet(f"{d}/feature_table")
    out = asof_join(
        left,
        right,
        key="conv_id",
        ts_col="ts",
        right_cols=["f_score", "f_label"],
        strict=strict,
        num_partitions=num_partitions,
    )
    return (
        out.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    )


@pytest.mark.parametrize("strict", [False, True])
def test_asof_matches_oracle(tiny_dir, strict):
    eng = run_asof(tiny_dir, strict=strict)
    ora = oracle_asof(
        load_transcripts(tiny_dir), load_feature_table(tiny_dir), strict=strict
    )
    ora = ora.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    assert len(eng) == len(ora)
    assert (eng["conv_id"].values == ora["conv_id"].values).all()
    a, b = eng["f_score"].values, ora["f_score"].values
    assert np.allclose(a, b, equal_nan=True)
    la = eng["f_label"].fillna("∅").values
    lb = ora["f_label"].fillna("∅").values
    assert (la == lb).all()


def test_null_backfill_path(tiny_dir):
    """Convs absent from the feature table must get all-null backfill."""
    eng = run_asof(tiny_dir)
    ft = load_feature_table(tiny_dir)
    missing = set(eng["conv_id"]) - set(ft["conv_id"])
    assert missing, "fixture should have unmatched convs"
    sub = eng[eng["conv_id"].isin(missing)]
    assert sub["f_score"].isna().all()


def test_leakage_probe_future_mutation(tiny_dir, tmp_path):
    """Mutate only future feature rows (ts > t_probe); backfilled values at
    turns with ts <= t_probe must be byte-identical."""
    base = run_asof(tiny_dir)
    ft = load_feature_table(tiny_dir)
    t_probe = ft["ts"].quantile(0.5)
    poisoned = ft.copy()
    fut = poisoned["ts"] > t_probe
    poisoned.loc[fut, "f_score"] = 1e9  # detectable sentinel
    poisoned.loc[fut, "f_label"] = "POISON"
    pdir = tmp_path / "poisoned"
    pdir.mkdir()
    import pyarrow.parquet as pq

    pq.write_table(pa.Table.from_pandas(poisoned, preserve_index=False),
                   str(pdir / "part-0.parquet"))

    left = ray.data.read_parquet(f"{tiny_dir}/transcripts")
    right = ray.data.read_parquet(str(pdir))
    out = (
        asof_join(left, right, key="conv_id", ts_col="ts",
                  right_cols=["f_score", "f_label"], num_partitions=8)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"])
        .reset_index(drop=True)
    )
    past = base["ts"] <= t_probe
    assert np.allclose(
        out.loc[past, "f_score"].values,
        base.loc[past, "f_score"].values,
        equal_nan=True,
    )
    assert (
        out.loc[past, "f_label"].fillna("∅").values
        == base.loc[past, "f_label"].fillna("∅").values
    ).all()
    # sanity: the poison IS visible after the probe point somewhere
    assert (out["f_label"] == "POISON").any()


def test_strict_vs_nonstrict_on_ties(tiny_dir):
    """The fixture plants feature rows with ts == conv start; at those exact
    timestamps strict (<) must not see the update while <= does."""
    ns = run_asof(tiny_dir, strict=False)
    st = run_asof(tiny_dir, strict=True)
    diff = (ns["f_score"].fillna(-1) != st["f_score"].fillna(-1)).sum()
    assert diff > 0, "tie rows should differentiate <= from <"


@pytest.mark.parametrize("strict", [False, True])
def test_forward_asof_matches_duckdb(strict):
    """direction='forward' vs DuckDB ASOF (r.ts >= / > l.ts) on random
    data with planted equal-ts ties and keys with no right rows."""
    import duckdb
    import pyarrow as pa

    rng = np.random.default_rng(13)
    nl, nr = 300, 120
    lk = rng.choice(["a", "b", "c", "d"], nl)
    lts = rng.integers(0, 1000, nl)
    rk = rng.choice(["a", "b", "c"], nr)
    rts = rng.integers(0, 1000, nr)
    # plant exact tie timestamps
    rts[:30] = lts[:30]
    rk[:30] = lk[:30]
    rv = np.round(rng.normal(size=nr), 6)
    ltab = pa.table({"lid": pa.array(np.arange(nl), pa.int64()),
                     "k": pa.array(lk.tolist()),
                     "ts": pa.array(lts, pa.int64())})
    # unique right (k, ts): keep min v like the q56 oracle
    import pandas as pd

    rdf = (pd.DataFrame({"k": rk, "ts": rts, "v": rv})
           .groupby(["k", "ts"], as_index=False)["v"].min())
    right = pa.Table.from_pandas(rdf, preserve_index=False)
    out = asof_join(ray.data.from_arrow(ltab).repartition(4),
                    ray.data.from_arrow(right), key="k", ts_col="ts",
                    right_cols=["v"], num_partitions=4,
                    direction="forward", strict=strict,
                    order_col="lid").to_pandas()
    op = ">" if strict else ">="
    want = duckdb.sql(
        f"SELECT l.lid, r.v FROM ltab l ASOF LEFT JOIN rdf r "
        f"ON l.k = r.k AND r.ts {op} l.ts ORDER BY l.lid").df()
    got = out.sort_values("lid").reset_index(drop=True)
    assert got["lid"].tolist() == want["lid"].tolist()
    a, b = got["v"].to_numpy(), want["v"].to_numpy()
    assert np.allclose(a, b, equal_nan=True)
    # some lefts genuinely have no future match -> nulls survive the join
    assert got["v"].isna().any()


def test_asof_tolerance_matches_pandas(tiny_dir):
    """tolerance_s nulls matches older than the bound — exactly pandas
    merge_asof(tolerance=) on the same inputs, both directions."""
    left = load_transcripts(tiny_dir).sort_values(["conv_id", "ts",
                                                   "turn_idx"])
    right = load_feature_table(tiny_dir)
    tol = 900.0  # seconds

    lds = ray.data.read_parquet(f"{tiny_dir}/transcripts")
    rds = ray.data.read_parquet(f"{tiny_dir}/feature_table")
    got = (asof_join(lds, rds, key="conv_id", ts_col="ts",
                     right_cols=["f_score", "f_label"],
                     num_partitions=5, tolerance_s=tol)
           .to_pandas().sort_values(["conv_id", "turn_idx"])
           .reset_index(drop=True))

    r = (right.sort_values(["conv_id", "ts", "f_score", "f_label"])
         .groupby(["conv_id", "ts"], as_index=False).last())
    want = pd.merge_asof(
        left.sort_values("ts", kind="stable"),
        r.sort_values("ts", kind="stable"),
        on="ts", by="conv_id",
        tolerance=pd.Timedelta(seconds=tol),
    ).sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    assert np.allclose(got["f_score"].to_numpy(np.float64),
                       want["f_score"].to_numpy(np.float64),
                       equal_nan=True)
    # the bound actually bites: strictly fewer matches than unbounded
    unbounded = (asof_join(lds, rds, key="conv_id", ts_col="ts",
                           right_cols=["f_score"], num_partitions=5)
                 .to_pandas())
    assert (got["f_score"].notna().sum()
            < unbounded["f_score"].notna().sum())

    with pytest.raises(ValueError, match="non-negative"):
        asof_join(lds, rds, key="conv_id", ts_col="ts",
                  right_cols=["f_score"], tolerance_s=-1.0)


def test_nearest_asof_matches_pandas():
    rng = np.random.default_rng(17)
    n_l, n_r = 400, 150
    left = pd.DataFrame({
        "k": rng.integers(0, 8, n_l),
        "ts": rng.integers(0, 10_000, n_l).astype(np.int64),
        "row": np.arange(n_l, dtype=np.int64),
    })
    right = pd.DataFrame({
        "k": rng.integers(0, 8, n_r),
        "ts": rng.integers(0, 10_000, n_r).astype(np.int64),
        "val": rng.normal(size=n_r),
    })
    # dedupe right (k, ts) so pandas tie semantics within equal ts don't
    # enter the comparison (engine rule is documented separately)
    right = right.groupby(["k", "ts"], as_index=False).first()

    lds = ray.data.from_arrow(pa.Table.from_pandas(left)).repartition(5)
    rds = ray.data.from_arrow(pa.Table.from_pandas(right)).repartition(3)
    got = (asof_join(lds, rds, key="k", ts_col="ts", right_cols=["val"],
                     direction="nearest", num_partitions=6,
                     order_col="row")
           .to_pandas().sort_values("row").reset_index(drop=True))

    want = pd.merge_asof(
        left.sort_values("ts", kind="stable"),
        right.sort_values("ts", kind="stable"),
        on="ts", by="k", direction="nearest",
    ).sort_values("row").reset_index(drop=True)
    assert np.allclose(got["val"].to_numpy(np.float64),
                       want["val"].to_numpy(np.float64), equal_nan=True)


def test_nearest_asof_tie_prefers_backward_and_guards():
    left = pd.DataFrame({"k": [1], "ts": np.array([10], np.int64),
                         "row": np.array([0], np.int64)})
    right = pd.DataFrame({"k": [1, 1], "ts": np.array([5, 15], np.int64),
                          "val": ["back", "fwd"]})
    lds = ray.data.from_arrow(pa.Table.from_pandas(left))
    rds = ray.data.from_arrow(pa.Table.from_pandas(right))
    got = asof_join(lds, rds, key="k", ts_col="ts", right_cols=["val"],
                    direction="nearest", num_partitions=2).to_pandas()
    assert got["val"].iloc[0] == "back"

    with pytest.raises(ValueError, match="strict"):
        asof_join(lds, rds, key="k", ts_col="ts", right_cols=["val"],
                  direction="nearest", strict=True)


def test_nearest_asof_tolerance_bounds_abs_gap():
    left = pd.DataFrame({"k": [1, 1], "ts": np.array([10, 100], np.int64),
                         "row": np.array([0, 1], np.int64)})
    right = pd.DataFrame({"k": [1], "ts": np.array([12], np.int64),
                          "val": np.array([7.0])})
    lds = ray.data.from_arrow(pa.Table.from_pandas(left))
    rds = ray.data.from_arrow(pa.Table.from_pandas(right))
    # plain int64 ts follows the repo's microseconds convention
    got = (asof_join(lds, rds, key="k", ts_col="ts", right_cols=["val"],
                     direction="nearest", tolerance_s=5e-6,
                     num_partitions=2)
           .to_pandas().sort_values("row"))
    assert got["val"].iloc[0] == 7.0      # |gap| = 2 <= 5
    assert np.isnan(got["val"].iloc[1])   # |gap| = 88 > 5


@pytest.mark.parametrize("right_ts", [[3, None], [None, 3]])
def test_nearest_takes_the_candidate_with_a_defined_gap(right_ts):
    """Nearest with one NULL-ts candidate: a left row at ts 5, with right
    rows at ts 3 and at a NULL ts, matches the ts-3 row, whose gap is
    the only one defined.  A NULL left ts defines no gap and keeps the
    forward candidate: none, as a NULL ts sorts after every ts."""
    from featurebox_ray.stages.asof import _asof_match

    right = pa.table({"k": ["a", "a"], "ts": pa.array(right_ts, pa.int64()),
                      "v": ["r0", "r1"]})
    right = right.sort_by([("k", "ascending"), ("ts", "ascending")])
    left = pa.table({"k": ["a", "a"], "ts": pa.array([5, None], pa.int64())})
    got = _asof_match(left, right, key="k", ts_col="ts", direction="nearest")
    three = right["ts"].to_pylist().index(3)
    assert got.tolist() == [three, -1]
    out = asof_join(ray.data.from_arrow(left), ray.data.from_arrow(right),
                    key="k", ts_col="ts", right_cols=["v"],
                    direction="nearest", num_partitions=2)
    rows = {r["ts"]: r["v"] for r in out.take_all()}
    assert rows == {5: right["v"][three].as_py(), None: None}
