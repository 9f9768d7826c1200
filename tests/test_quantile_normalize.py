"""Cross-group quantile normalization
(stages/encode.py:quantile_normalize) vs a DuckDB window replay;
hand-checked ranks; partition invariance."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray

from featurebox_ray.stages.encode import quantile_normalize

ORACLE = """
    WITH d AS (
      SELECT rid, g, CAST(v AS BIGINT) AS v FROM pts
      WHERE rid IS NOT NULL AND g IS NOT NULL AND v IS NOT NULL),
    r AS (SELECT rid, g, v,
                 row_number() OVER (PARTITION BY g
                                    ORDER BY v, rid) AS r,
                 count(*) OVER (PARTITION BY g) AS ns
          FROM d),
    p AS (SELECT v AS pv, row_number() OVER (ORDER BY v) - 1 AS pos
          FROM d),
    n AS (SELECT count(*) AS nn FROM d)
    SELECT r.rid, r.g, r.v AS value, p.pv AS qnorm
    FROM r, n
    JOIN p ON p.pos = CASE WHEN r.ns > 1
          THEN CAST(((CAST(r.r AS HUGEINT) - 1) * (n.nn - 1))
                    // (r.ns - 1) AS BIGINT)
          ELSE (n.nn - 1) // 2 END
    ORDER BY rid
"""


def test_quantile_normalize_duckdb_fuzz_partition_invariant():
    rng = np.random.default_rng(733)
    n = 900
    gs = [None if rng.random() < 0.03 else f"s{rng.integers(0, 7)}"
          for _ in range(n)]
    vs = [None if rng.random() < 0.03
          else int(rng.integers(-40, 400)) for _ in range(n)]
    pdf = pd.DataFrame({"rid": np.arange(n), "g": gs,
                        "v": pd.array(vs, dtype="Int64")})
    con = duckdb.connect()
    con.register("pts", pdf)
    exp = con.sql(ORACLE).df().reset_index(drop=True)
    t = pa.table({"rid": pa.array(np.arange(n), pa.int64()),
                  "g": pa.array(gs, pa.string()),
                  "v": pa.array(vs, pa.int64())})
    prev = None
    for parts in (1, 8):
        ds = ray.data.from_arrow(t)
        if parts > 1:
            ds = ds.repartition(parts)
        got = (quantile_normalize(ds, id_col="rid", group_col="g",
                                  value_col="v", num_partitions=5)
               .to_pandas().sort_values("rid")
               .reset_index(drop=True))
        pd.testing.assert_frame_equal(
            got.astype(exp.dtypes.to_dict()), exp, check_exact=True)
        if prev is not None:
            assert got.equals(prev)
        prev = got


def test_quantile_normalize_hand_checked():
    # pooled sorted: [1, 2, 3, 10, 20, 30], N=6
    # group a ranks (1,2,3 of 3): idx = (r-1)*5//2 -> 0, 2, 5
    # group b ranks (1,2,3 of 3): same indices -> same targets
    t = pa.table({"rid": pa.array([0, 1, 2, 3, 4, 5], pa.int64()),
                  "g": pa.array(["a"] * 3 + ["b"] * 3, pa.string()),
                  "v": pa.array([1, 2, 3, 10, 20, 30], pa.int64())})
    got = (quantile_normalize(ray.data.from_arrow(t), id_col="rid",
                              group_col="g", value_col="v")
           .to_pandas().sort_values("rid").reset_index(drop=True))
    assert got["qnorm"].tolist() == [1, 3, 30, 1, 3, 30]
    # both groups now share the pooled min/median-ish/max


def test_quantile_normalize_singleton_group_gets_pooled_median():
    t = pa.table({"rid": pa.array([0, 1, 2, 3, 4], pa.int64()),
                  "g": pa.array(["a"] * 4 + ["b"], pa.string()),
                  "v": pa.array([5, 6, 7, 8, 100], pa.int64())})
    got = (quantile_normalize(ray.data.from_arrow(t), id_col="rid",
                              group_col="g", value_col="v")
           .to_pandas().sort_values("rid").reset_index(drop=True))
    # N=5, singleton idx = (5-1)//2 = 2 -> pooled sorted [5,6,7,8,100][2]
    assert got.loc[got["g"] == "b", "qnorm"].tolist() == [7]


def test_quantile_normalize_max_distinct_guard():
    t = pa.table({"rid": pa.array([0, 1, 2], pa.int64()),
                  "g": pa.array(["a"] * 3, pa.string()),
                  "v": pa.array([1, 2, 3], pa.int64())})
    with pytest.raises(Exception, match="max_distinct"):
        quantile_normalize(ray.data.from_arrow(t), id_col="rid",
                           group_col="g", value_col="v",
                           max_distinct=2)


def test_quantile_normalize_max_distinct_raises_in_block_task():
    """A block that alone exceeds ``max_distinct`` raises inside its
    partial task, before the partials reach the driver; blocks that
    pass on their own but pool past the bound still meet the driver's
    pooled check."""
    t = pa.table({"rid": pa.array([0, 1, 2, 3], pa.int64()),
                  "g": pa.array(["a"] * 4, pa.string()),
                  "v": pa.array([1, 2, 3, 4], pa.int64())})
    with pytest.raises(ray.exceptions.RayTaskError,
                       match="one block has 4 distinct"):
        quantile_normalize(ray.data.from_arrow(t), id_col="rid",
                           group_col="g", value_col="v", max_distinct=3)
    two_blocks = ray.data.from_arrow([t.slice(0, 2), t.slice(2, 2)])
    with pytest.raises(ValueError, match="4 distinct values exceed") as e:
        quantile_normalize(two_blocks, id_col="rid", group_col="g",
                           value_col="v", max_distinct=3)
    assert not isinstance(e.value, ray.exceptions.RayTaskError)
