"""Per-group Welch t statistic (stages/regress.py:group_ab_test) vs a
DuckDB HUGEINT replay and a serial float replay."""

import duckdb
import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray

from featurebox_ray.stages.regress import group_ab_test

ORACLE = """
    WITH s AS (
      SELECT k,
        CAST(count(*) FILTER (WHERE side = 0) AS HUGEINT) AS na,
        CAST(sum(y)   FILTER (WHERE side = 0) AS HUGEINT) AS sa,
        CAST(sum(y*y) FILTER (WHERE side = 0) AS HUGEINT) AS saa,
        CAST(count(*) FILTER (WHERE side <> 0) AS HUGEINT) AS nb,
        CAST(sum(y)   FILTER (WHERE side <> 0) AS HUGEINT) AS sb,
        CAST(sum(y*y) FILTER (WHERE side <> 0) AS HUGEINT) AS sbb
      FROM t WHERE k IS NOT NULL AND side IS NOT NULL AND y IS NOT NULL
      GROUP BY k
    ), f AS (
      SELECT k, na, nb,
        CAST(sa AS DOUBLE) / CAST(na AS DOUBLE) AS mean_a,
        CAST(sb AS DOUBLE) / CAST(nb AS DOUBLE) AS mean_b,
        CAST(na * saa - sa * sa AS DOUBLE)
          / CAST(na * (na - 1) AS DOUBLE) / CAST(na AS DOUBLE) AS u_a,
        CAST(nb * sbb - sb * sb AS DOUBLE)
          / CAST(nb * (nb - 1) AS DOUBLE) / CAST(nb AS DOUBLE) AS u_b
      FROM s
    )
    SELECT k, CAST(na AS BIGINT) AS n_a, CAST(nb AS BIGINT) AS n_b,
           mean_a, mean_b,
           CASE WHEN na >= 2 AND nb >= 2 THEN
             (mean_a - mean_b) / sqrt(u_a + u_b) END AS t_stat,
           CASE WHEN na >= 2 AND nb >= 2 THEN
             ((u_a + u_b) * (u_a + u_b))
               / (u_a * u_a / CAST(na - 1 AS DOUBLE)
                  + u_b * u_b / CAST(nb - 1 AS DOUBLE))
           END AS df
    FROM f ORDER BY k
"""


def _run(t, parts):
    ds = ray.data.from_arrow(t)
    if parts > 1:
        ds = ds.repartition(parts)
    return (group_ab_test(ds, key_col="k", side_col="side",
                          treat_value=0, y_col="y")
            .to_pandas().sort_values("k").reset_index(drop=True))


def test_ab_test_duckdb_fuzz_partition_invariant():
    rng = np.random.default_rng(59)
    n = 900
    t = pa.table({
        "k": pa.array([None if rng.random() < 0.03
                       else int(rng.integers(0, 8)) for _ in range(n)],
                      pa.int64()),
        "side": pa.array(rng.integers(0, 2, n), pa.int64()),
        "y": pa.array([None if rng.random() < 0.05
                       else int(rng.integers(-500, 500))
                       for _ in range(n)], pa.int64()),
    })
    con = duckdb.connect()
    con.register("t", t.to_pandas())
    exp = con.sql(ORACLE).df().reset_index(drop=True)
    prev = None
    for parts in (1, 4, 9):
        got = _run(t, parts)
        pd.testing.assert_frame_equal(got.astype(exp.dtypes.to_dict()),
                                      exp, check_exact=True)
        if prev is not None:
            assert got.equals(prev)
        prev = got


def test_ab_test_welch_formula_sanity():
    # planted shift: arm a drawn around 120, arm b around 100
    rng = np.random.default_rng(7)
    ya = rng.integers(100, 140, 200)
    yb = rng.integers(80, 120, 220)
    t = pa.table({
        "k": pa.array([1] * 420, pa.int64()),
        "side": pa.array([0] * 200 + [1] * 220, pa.int64()),
        "y": pa.array(np.concatenate([ya, yb]), pa.int64()),
    })
    got = _run(t, 3)
    # independent textbook Welch computation
    va = ya.var(ddof=1)
    vb = yb.var(ddof=1)
    se2 = va / 200 + vb / 220
    t_ref = (ya.mean() - yb.mean()) / math.sqrt(se2)
    assert got.t_stat.item() == pytest.approx(t_ref, rel=1e-12)
    assert got.t_stat.item() > 5  # the shift is detectable
    df = got.df.item()
    assert 200 <= df <= 420


def test_ab_test_degenerate_arms():
    t = pa.table({
        "k": pa.array([1, 1, 1, 2, 2, 2, 2], pa.int64()),
        "side": pa.array([0, 1, 1, 0, 0, 1, 1], pa.int64()),
        "y": pa.array([5, 3, 4, 7, 7, 7, 7], pa.int64()),
    })
    got = _run(t, 2)
    # k=1: one treated row -> NULL t; k=2: zero variance -> NULL t
    assert got.loc[got.k == 1, "t_stat"].isna().all()
    assert got.loc[got.k == 2, "t_stat"].isna().all()
    assert got.loc[got.k == 1, "mean_a"].item() == 5.0


def test_ab_test_dtype_guard():
    t = pa.table({"k": pa.array([1], pa.int64()),
                  "side": pa.array([0], pa.int64()),
                  "y": pa.array([1.5], pa.float64())})
    with pytest.raises(Exception, match="int64"):
        group_ab_test(ray.data.from_arrow(t), key_col="k",
                      side_col="side", treat_value=0,
                      y_col="y").materialize()
