"""Reference-distribution ECDF encoding (stages/encode.py:ecdf_encode)
vs a DuckDB tagged-union window replay."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from featurebox_ray.stages.encode import ecdf_encode

ORACLE = """
    WITH u AS (
      SELECT g, v, 1 AS tag, CAST(NULL AS BIGINT) AS id FROM ref
      WHERE g IS NOT NULL AND v IS NOT NULL AND isfinite(v)
      UNION ALL
      SELECT g, v, 0, id FROM qry
      WHERE g IS NOT NULL AND v IS NOT NULL AND isfinite(v)
    ),
    w AS (
      SELECT id, g, v, tag,
             sum(tag) OVER (PARTITION BY g ORDER BY v, tag
                            ROWS UNBOUNDED PRECEDING) - tag AS below,
             sum(tag) OVER (PARTITION BY g) AS n_all
      FROM u
    )
    SELECT id, g, v, CAST(below AS BIGINT) AS cnt_below,
           CAST(n_all AS BIGINT) AS n_ref,
           CASE WHEN n_all = 0 THEN NULL
                ELSE CAST(below AS DOUBLE) / CAST(n_all AS DOUBLE)
           END AS pct
    FROM w WHERE tag = 0 ORDER BY id
"""


def test_ecdf_encode_duckdb_fuzz_partition_invariant():
    rng = np.random.default_rng(43)
    n_ref, n_q = 800, 300
    groups = ["a", "b", "c", "only_ref", None]
    ref = pd.DataFrame({
        "g": rng.choice(groups[:4], n_ref),
        # quantized values force heavy ties across ref and query
        "v": np.round(rng.normal(size=n_ref), 1),
    })
    ref.loc[rng.choice(n_ref, 10, replace=False), "v"] = np.nan
    qg = list(rng.choice(["a", "b", "c", "only_query"], n_q - 2))
    qg += [None, "a"]
    qv = list(np.round(rng.normal(size=n_q - 2), 1)) + [1.0, None]
    qry = pd.DataFrame({"id": range(n_q), "g": qg, "v": qv})
    con = duckdb.connect()
    con.register("ref", ref)
    con.register("qry", qry)
    exp = con.sql(ORACLE).df().reset_index(drop=True)

    ref_t = pa.table({"g": pa.array(ref.g, pa.string()),
                      "v": pa.array(ref.v, pa.float64())})
    qry_t = pa.table({"id": pa.array(qry.id, pa.int64()),
                      "g": pa.array(qry.g, pa.string()),
                      "v": pa.array(qry.v, pa.float64())})
    prev = None
    for parts in (1, 6):
        rds = ray.data.from_arrow(ref_t)
        qds = ray.data.from_arrow(qry_t)
        if parts > 1:
            rds, qds = rds.repartition(parts), qds.repartition(parts)
        got = (ecdf_encode(qds, rds, group_col="g", value_col="v")
               .to_pandas().sort_values("id").reset_index(drop=True))
        pd.testing.assert_frame_equal(got.astype(exp.dtypes.to_dict()),
                                      exp)
        if prev is not None:
            assert got.equals(prev)
        prev = got
    # a group present only in the query has n_ref = 0 and NULL pct
    oq = got[got.g == "only_query"]
    assert len(oq) and (oq.n_ref == 0).all() and oq.pct.isna().all()


def test_ecdf_encode_hand_case():
    ref = pa.table({"g": pa.array(["x"] * 4, pa.string()),
                    "v": pa.array([1.0, 2.0, 2.0, 5.0], pa.float64())})
    qry = pa.table({"id": pa.array([0, 1, 2], pa.int64()),
                    "g": pa.array(["x"] * 3, pa.string()),
                    "v": pa.array([2.0, 0.5, 9.0], pa.float64())})
    got = (ecdf_encode(ray.data.from_arrow(qry), ref,
                       group_col="g", value_col="v")
           .to_pandas().sort_values("id"))
    # strict <: 2.0 has one ref below (1.0); 0.5 none; 9.0 all four
    assert got.cnt_below.tolist() == [1, 0, 4]
    assert got.n_ref.tolist() == [4, 4, 4]
    assert got.pct.tolist() == [0.25, 0.0, 1.0]


def test_ecdf_encode_refuses_a_group_over_the_row_bound(monkeypatch):
    """A group with more kept reference rows than ECDF_MAX_GROUP_ROWS
    raises ValueError naming it and the q61 sketch, for a Dataset and a
    table reference; NULL and non-finite values do not count, and a
    group at the bound encodes."""
    import pytest

    from featurebox_ray.stages import encode

    monkeypatch.setattr(encode, "ECDF_MAX_GROUP_ROWS", 3)
    ref = pa.table({"g": ["a", "a", "a", "a", "b", "b", "b", "b"],
                    "v": [1.0, 2.0, 3.0, 4.0, 1.0, 2.0, None, np.nan]})
    qry = pa.table({"id": [0, 1], "g": ["a", "b"], "v": [2.5, 1.5]})
    for r in (ray.data.from_arrow([ref.slice(0, 3), ref.slice(3)]), ref):
        with pytest.raises(ValueError,
                           match=r"g 'a' has 4 reference rows.*q61"):
            ecdf_encode(ray.data.from_arrow(qry), r, group_col="g",
                        value_col="v")
    got = ecdf_encode(ray.data.from_arrow(qry), ref.slice(4),
                      group_col="g", value_col="v").to_pandas()
    assert got.sort_values("id")["cnt_below"].tolist() == [0, 1]
