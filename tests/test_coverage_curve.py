"""coverage_curve (stages/profile.py) vs a brute-force sort replay
and the SQL window oracle, with ties, NULLs, negatives, zeros."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from featurebox_ray.stages.profile import coverage_curve


def test_coverage_curve_fuzz_vs_bruteforce():
    rng = np.random.default_rng(313)
    for trial in range(3):
        n = int(rng.integers(200, 800))
        w = rng.integers(0, 50, n).astype(object)   # heavy ties
        w[:: 37] = None
        w[1:: 53] = -5                              # dropped
        t = pa.table({"w": pa.array(list(w), pa.int64())})
        got = coverage_curve(
            ray.data.from_arrow(t).repartition(5),
            weight_col="w", thresholds=(50, 90, 99, 100)).to_pandas()
        ws = sorted((int(x) for x in w if x is not None and x >= 0),
                    reverse=True)
        tot = sum(ws)
        for _, row in got.iterrows():
            p, k, cw = int(row.pct), int(row.n_rows), int(
                row.covered_weight)
            assert sum(ws[:k]) == cw
            assert cw * 100 >= p * tot
            if k:                                 # minimality
                assert sum(ws[:k - 1]) * 100 < p * tot
        assert got.pct.tolist() == [50, 90, 99, 100], trial


def test_coverage_curve_duckdb_parity():
    rng = np.random.default_rng(99)
    t = pa.table({"w": pa.array(rng.integers(0, 400, 1000), pa.int64())})
    got = (coverage_curve(ray.data.from_arrow(t).repartition(4),
                          weight_col="w")
           .to_pandas().sort_values("pct").reset_index(drop=True))
    con = duckdb.connect()
    con.register("d0", t)
    exp = con.sql("""
        WITH d AS (SELECT w FROM d0 WHERE w IS NOT NULL AND w >= 0),
        t AS (SELECT sum(w) AS tot FROM d),
        r AS (SELECT w, row_number() OVER (ORDER BY w DESC) AS rn,
                     sum(w) OVER (ORDER BY w DESC
                                  ROWS UNBOUNDED PRECEDING) AS cw
              FROM d),
        p(pct) AS (VALUES (50), (80), (90), (95), (99)),
        sel AS (SELECT p.pct, min(r.rn) AS n_rows FROM p, r, t
                WHERE r.cw * 100 >= p.pct * t.tot GROUP BY p.pct)
        SELECT CAST(sel.pct AS BIGINT) AS pct,
               CAST(sel.n_rows AS BIGINT) AS n_rows,
               CAST(r.cw AS BIGINT) AS covered_weight
        FROM sel JOIN r ON r.rn = sel.n_rows ORDER BY pct
    """).df().reset_index(drop=True)
    pd.testing.assert_frame_equal(got.astype(exp.dtypes.to_dict()), exp)


def test_coverage_curve_zero_total_raises():
    import pytest

    t = pa.table({"w": pa.array([0, 0, 0], pa.int64())})
    with pytest.raises(Exception, match="total weight is 0"):
        coverage_curve(ray.data.from_arrow(t), weight_col="w")


def test_coverage_curve_threshold_bounds_raise():
    """pct=0 (met by 0 rows, but the SQL replay answers 1) and pct>100
    raise before any pass runs — the map partial never executes."""
    import pytest

    def boom(b):
        raise AssertionError("partial pass ran")

    ds = ray.data.from_arrow(
        pa.table({"w": pa.array([3, 1], pa.int64())})).map_batches(
        boom, batch_format="pyarrow")
    for bad in [(0,), (50, 101), (-1, 50)]:
        with pytest.raises(ValueError, match=r"\[1, 100\]"):
            coverage_curve(ds, weight_col="w", thresholds=bad)
    t = pa.table({"w": pa.array([3, 1], pa.int64())})
    got = coverage_curve(ray.data.from_arrow(t), weight_col="w",
                         thresholds=(1, 100)).to_pydict()
    assert got == {"pct": [1, 100], "n_rows": [1, 2],
                   "covered_weight": [3, 4]}


def test_group_completeness_duckdb_fuzz():
    """group_completeness vs a UNION-ALL SQL replay with NULL groups,
    NULL/empty strings, and NULL ints, at 2 partitionings."""
    from featurebox_ray.stages.profile import group_completeness

    rng = np.random.default_rng(322)
    n = 2000
    t = pa.table({
        "g": pa.array([None if x % 13 == 0 else f"s{x % 4}"
                       for x in rng.integers(0, 10 ** 6, n)],
                      pa.string()),
        "a": pa.array([None if x % 7 == 0 else
                       ("" if x % 5 == 0 else f"v{x}")
                       for x in rng.integers(0, 10 ** 6, n)],
                      pa.string()),
        "b": pa.array([None if x % 3 == 0 else int(x)
                       for x in rng.integers(0, 10 ** 6, n)],
                      pa.int64()),
    })
    con = duckdb.connect()
    con.register("t", t)
    exp = con.sql("""
        WITH m AS (
          SELECT g, 'a' AS col, CAST(count(*) AS BIGINT) AS n,
                 CAST(count(*) FILTER (a IS NULL OR a = '')
                      AS BIGINT) AS n_missing
          FROM t GROUP BY g
          UNION ALL
          SELECT g, 'b', CAST(count(*) AS BIGINT),
                 CAST(count(*) FILTER (b IS NULL) AS BIGINT)
          FROM t GROUP BY g)
        SELECT g, col, n, n_missing,
               CAST(n - n_missing AS DOUBLE) / CAST(n AS DOUBLE)
                 AS fill_rate
        FROM m ORDER BY g NULLS LAST, col
    """).df().reset_index(drop=True)
    prev = None
    for parts in (1, 6):
        ds = ray.data.from_arrow(t)
        if parts > 1:
            ds = ds.repartition(parts)
        got = (group_completeness(ds, group_col="g", cols=["a", "b"])
               .to_pandas()
               .sort_values(["g", "col"], na_position="last")
               .reset_index(drop=True))
        pd.testing.assert_frame_equal(
            got.astype(exp.dtypes.to_dict()), exp)
        if prev is not None:
            assert got.equals(prev)
        prev = got
