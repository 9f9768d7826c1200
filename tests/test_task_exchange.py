"""The task exchange (the engine's one keyed exchange) against the pandas
oracle (tests/oracle.py), plus its partition-count invariance."""

import numpy as np
import pytest
import ray

from featurebox_ray.pipelines.transcript import fused_features_backfill
from featurebox_ray.stages.partition import partitioned_map
from featurebox_ray.stages.scalar import add_scalar_features
from featurebox_ray.stages.window import WindowSpec, add_window_features

from .oracle import (load_feature_table, load_transcripts, oracle_asof,
                     oracle_features)


def _df(ds):
    return ds.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)


def _oracle_df(df):
    return df.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)


def test_task_exchange_matches_oracle(tiny_dir):
    base = add_scalar_features(ray.data.read_parquet(f"{tiny_dir}/transcripts"))
    a = _oracle_df(oracle_features(load_transcripts(tiny_dir)))
    b = _df(add_window_features(base, WindowSpec(), num_partitions=8))
    assert len(a) == len(b)
    for c in b.columns:
        if b[c].dtype == object or str(b[c].dtype).startswith("datetime"):
            assert (a[c].fillna("∅").values == b[c].fillna("∅").values).all(), c
        elif b[c].dtype == bool:
            assert (a[c].values == b[c].values).all(), c
        else:
            assert np.allclose(a[c].astype(float), b[c].astype(float),
                               equal_nan=True), c


def test_task_exchange_fused_matches_oracle(tiny_dir):
    base = add_scalar_features(ray.data.read_parquet(f"{tiny_dir}/transcripts"))
    ft = ray.data.read_parquet(f"{tiny_dir}/feature_table")
    a = _oracle_df(oracle_asof(load_transcripts(tiny_dir),
                               load_feature_table(tiny_dir)))
    b = _df(fused_features_backfill(base, ft, WindowSpec(),
                                    right_cols=["f_score", "f_label"],
                                    num_partitions=8))
    assert len(a) == len(b)
    assert np.allclose(a["f_score"].values, b["f_score"].values, equal_nan=True)
    assert (a["f_label"].fillna("∅").values == b["f_label"].fillna("∅").values).all()


def test_tasks_strategy_partition_count_invariance(tiny_dir):
    base = add_scalar_features(ray.data.read_parquet(f"{tiny_dir}/transcripts"))
    a = _df(add_window_features(base, WindowSpec(), num_partitions=3))
    b = _df(add_window_features(base, WindowSpec(), num_partitions=17))
    for c in ("session_id", "roll5_mean_text_len", "win_t3600s_sum_text_len"):
        assert np.allclose(a[c].astype(float), b[c].astype(float), equal_nan=True), c


@pytest.mark.parametrize("strategy", ["groupby", "hash"])
def test_partitioned_map_rejects_other_strategies(strategy):
    ds = ray.data.from_items([{"k": 1}])
    with pytest.raises(ValueError, match="strategy"):
        partitioned_map(ds, lambda t: t, key="k", sort_keys=["k"],
                        num_partitions=2, strategy=strategy)


def test_partitioned_map_missing_key_raises():
    ds = ray.data.from_items([{"k": 1}, {"k": 2}])
    with pytest.raises(KeyError, match="'kk' missing"):
        partitioned_map(ds, lambda t: t, key="kk", sort_keys=["k"],
                        num_partitions=2)


def test_auto_join_dispatch_and_equivalence():
    import duckdb
    import pyarrow as pa

    from featurebox_ray.stages.join import auto_join

    rng = np.random.default_rng(73)
    left = pa.table({
        "k": pa.array(rng.integers(0, 40, 300), pa.int64()),
        "lv": pa.array(np.arange(300), pa.int64()),
    })
    # right side with duplicate keys, a NULL value on a matched key,
    # and keys absent from the left
    right = pa.table({
        "k": pa.array([0, 0, 1, 2, 99], pa.int64()),
        "rv": pa.array([10, 11, None, 12, 13], pa.int64()),
    })
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    for how in ("inner", "left"):
        want = con.execute(f"""
            SELECT l.k, l.lv, r.rv FROM l {how.upper()} JOIN r USING (k)
            ORDER BY lv, rv NULLS FIRST
        """).fetch_arrow_table()
        for thresh in (10, 0):  # 10 -> broadcast path, 0 -> hash path
            got = (auto_join(ray.data.from_arrow(left).repartition(3),
                             ray.data.from_arrow(right), on="k",
                             how=how, broadcast_threshold_rows=thresh,
                             num_partitions=4)
                   .to_pandas()
                   .sort_values(["lv", "rv"], na_position="first")
                   .reset_index(drop=True))
            assert len(got) == want.num_rows, (how, thresh)
            for c in ("k", "lv", "rv"):
                gv = [None if isinstance(v, float) and v != v else int(v)
                      for v in got[c].tolist()]
                assert gv == want[c].to_pylist(), (c, how, thresh)


def test_each_group_one_call_per_group():
    """each_group calls its function once per distinct group tuple (NULL
    its own group, multi-column groups split inside one hash key), and
    partitions that receive no rows contribute nothing."""
    import pyarrow as pa

    from featurebox_ray.stages.partition import each_group

    a = [1, 1, 2, None, None, 3, 1, 2]
    b = ["x", "y", "x", "x", "x", "z", "x", "x"]
    t = pa.table({"a": pa.array(a, pa.int64()), "b": pa.array(b),
                  "v": pa.array(range(len(a)), pa.int64())})

    def total(g: pa.Table) -> pa.Table:
        return pa.table({"a": g["a"].slice(0, 1), "b": g["b"].slice(0, 1),
                         "n": pa.array([g.num_rows], pa.int64()),
                         "s": pa.array([sum(g["v"].to_pylist())],
                                       pa.int64())})

    out = partitioned_map(ray.data.from_arrow(t).repartition(3),
                          each_group(total, ["a", "b"]), key="a",
                          sort_keys=["a", "b"], num_partitions=16)
    rows = out.take_all()
    got = {(r["a"], r["b"]): (r["n"], r["s"]) for r in rows}
    assert len(rows) == len(got)  # one output row per group
    want = {}
    for i, k in enumerate(zip(a, b)):
        n, s = want.get(k, (0, 0))
        want[k] = (n + 1, s + i)
    assert got == want
