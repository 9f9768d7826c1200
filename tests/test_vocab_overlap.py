"""Pairwise vocabulary Jaccard (stages/tfidf.py:vocab_overlap) vs a
DuckDB replay."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray

from featurebox_ray.stages.tfidf import vocab_overlap

ORACLE = r"""
    WITH raw AS (
      SELECT g, unnest(regexp_extract_all(coalesce(text, ''),
                                          '\S+')) AS w
      FROM docs WHERE g IS NOT NULL
    ), tok AS (SELECT DISTINCT g, w FROM raw),
    sizes AS (SELECT g, CAST(count(*) AS BIGINT) AS c
              FROM tok GROUP BY g),
    inter AS (
      SELECT a.g AS grp_a, b.g AS grp_b, CAST(count(*) AS BIGINT) AS i
      FROM tok a JOIN tok b ON a.w = b.w AND a.g < b.g
      GROUP BY a.g, b.g
    )
    SELECT grp_a, grp_b, i AS inter, sa.c AS n_a, sb.c AS n_b,
           CAST(i AS DOUBLE) / CAST(sa.c + sb.c - i AS DOUBLE)
             AS jaccard
    FROM inter JOIN sizes sa ON grp_a = sa.g
    JOIN sizes sb ON grp_b = sb.g
    ORDER BY grp_a, grp_b
"""


def test_vocab_overlap_duckdb_fuzz_partition_invariant():
    rng = np.random.default_rng(17)
    vocab = [f"w{i}" for i in range(40)]
    groups = ["en", "fr", "de", None]
    docs, gs = [], []
    for _ in range(150):
        n = int(rng.integers(0, 12))
        docs.append(" ".join(rng.choice(vocab, n)) if n else
                    (None if rng.random() < 0.5 else ""))
        gs.append(str(rng.choice(groups[:3]))
                  if rng.random() > 0.05 else None)
    pdf = pd.DataFrame({"g": gs, "text": docs})
    con = duckdb.connect()
    con.register("docs", pdf)
    exp = con.sql(ORACLE).df().reset_index(drop=True)
    t = pa.table({"g": pa.array(gs, pa.string()),
                  "text": pa.array(docs, pa.string())})
    prev = None
    for parts in (1, 4, 9):
        ds = ray.data.from_arrow(t)
        if parts > 1:
            ds = ds.repartition(parts)
        got = (vocab_overlap(ds, group_col="g", text_col="text",
                             num_partitions=5)
               .to_pandas().sort_values(["grp_a", "grp_b"])
               .reset_index(drop=True))
        pd.testing.assert_frame_equal(got.astype(exp.dtypes.to_dict()),
                                      exp)
        if prev is not None:
            assert got.equals(prev)
        prev = got


def test_vocab_overlap_hand_case():
    t = pa.table({
        "g": pa.array(["a", "a", "b", "c"], pa.string()),
        "text": pa.array(["x y z", "y q", "y z", "only"], pa.string()),
    })
    got = (vocab_overlap(ray.data.from_arrow(t), group_col="g")
           .to_pandas().sort_values(["grp_a", "grp_b"])
           .reset_index(drop=True))
    # a={x,y,z,q}, b={y,z}, c={only}: a∩b={y,z} -> 2/(4+2-2)=0.5
    assert got.grp_a.tolist() == ["a"]
    assert got.grp_b.tolist() == ["b"]
    assert got.inter.item() == 2
    assert got.jaccard.item() == 0.5


def test_diversified_topk_duckdb_fuzz():
    from featurebox_ray.stages.rank import diversified_topk

    rng = np.random.default_rng(29)
    n = 600
    t = pa.table({
        "g": pa.array([f"s{rng.integers(0, 12)}" for _ in range(n)],
                      pa.string()),
        "id": pa.array(range(n), pa.int64()),
        # heavy score ties exercise the id tie-break at every boundary
        "score": pa.array(rng.integers(0, 25, n), pa.int64()),
    })
    con = duckdb.connect()
    con.register("t", t.to_pandas())
    exp = con.sql("""
        WITH r AS (
          SELECT g, id, score FROM t
          QUALIFY row_number() OVER (
              PARTITION BY g ORDER BY score DESC, id) <= 4
        )
        SELECT g, id, score FROM r
        ORDER BY score DESC, id LIMIT 25
    """).df().reset_index(drop=True)
    prev = None
    for parts in (1, 5):
        ds = ray.data.from_arrow(t)
        if parts > 1:
            ds = ds.repartition(parts)
        got = (diversified_topk(ds, group_col="g", id_col="id",
                                score_col="score", m=4, k=25,
                                num_partitions=4)
               .to_pandas().sort_values(["score", "id"],
                                        ascending=[False, True])
               .reset_index(drop=True))
        pd.testing.assert_frame_equal(got.astype(exp.dtypes.to_dict()),
                                      exp)
        # quota respected
        assert got.groupby("g").size().max() <= 4
        if prev is not None:
            assert got.equals(prev)
        prev = got


@pytest.mark.parametrize("seed", [41, 42, 43])
def test_diversified_topk_nan_and_null_scores(seed):
    """A float score that is mostly NaN and NULL, over 8 blocks and 8
    partitions: the final global sort keeps every survivor once and in
    order (Ray's sampled boundaries see stand-in keys, not NaN or NULL)
    and ranks NaN below every number and NULL last."""
    from featurebox_ray.stages.rank import diversified_topk

    rng = np.random.default_rng(seed)
    n = 800
    u = rng.random(n)
    t = pa.table({
        "g": pa.array([f"s{i}" for i in rng.integers(0, 10, n)]),
        "id": pa.array(rng.permutation(n), pa.int64()),
        "score": pa.array(np.where(u < 0.6, np.nan,
                                   rng.integers(0, 5, n).astype(float)),
                          mask=u > 0.9),
    })
    con = duckdb.connect()
    con.register("t", t)
    exp = con.sql("""
        WITH r AS (
          SELECT g, id, score FROM t
          QUALIFY row_number() OVER (
              PARTITION BY g ORDER BY score IS NULL, isnan(score),
                                      score DESC, id) <= 75
        )
        SELECT g, id, score FROM r
        ORDER BY score IS NULL, isnan(score), score DESC, id LIMIT 700
    """).df().sort_values("id").reset_index(drop=True)
    con.close()
    # the quota and the cut both fall among the NaN and NULL scores
    missing = set(t.filter(pc.is_null(t["score"], nan_is_null=True))
                  ["id"].to_pylist())
    assert 0 < len(missing & set(exp["id"])) < len(missing)
    got = (diversified_topk(ray.data.from_arrow(t).repartition(8),
                            group_col="g", id_col="id", score_col="score",
                            m=75, k=700, num_partitions=8)
           .to_pandas().sort_values("id").reset_index(drop=True))
    assert got.columns.tolist() == ["g", "id", "score"]
    assert len(got) == 700 and got["id"].is_unique
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


GROUP_TOP_ORACLE = r"""
    WITH tok AS (
      SELECT g, unnest(regexp_extract_all(coalesce(text, ''),
                                          '\S+')) AS w
      FROM docs),
    c AS (SELECT g, w AS term, CAST(count(*) AS BIGINT) AS cnt
          FROM tok GROUP BY g, w)
    SELECT g, term, cnt FROM c
    QUALIFY row_number() OVER (PARTITION BY g
                               ORDER BY cnt DESC, term ASC) <= 3
    ORDER BY g NULLS LAST, cnt DESC, term
"""


def test_top_terms_per_group_duckdb_fuzz_partition_invariant():
    from featurebox_ray.stages.tfidf import top_terms_per_group

    rng = np.random.default_rng(191)
    vocab = [f"w{i}" for i in range(10)]
    gs, docs = [], []
    for _ in range(250):
        gs.append(None if rng.random() < 0.05
                  else f"g{rng.integers(0, 5)}")
        k = int(rng.integers(0, 9))
        docs.append(" ".join(rng.choice(vocab, k)) if k else None)
    pdf = pd.DataFrame({"g": gs, "text": docs})
    con = duckdb.connect()
    con.register("docs", pdf)
    exp = con.sql(GROUP_TOP_ORACLE).df().reset_index(drop=True)
    t = pa.table({"g": pa.array(gs, pa.string()),
                  "id": pa.array(range(len(gs)), pa.int64()),
                  "text": pa.array(docs, pa.string())})
    prev = None
    for parts in (1, 6):
        ds = ray.data.from_arrow(t)
        if parts > 1:
            ds = ds.repartition(parts)
        got = (top_terms_per_group(ds, group_col="g", id_col="id",
                                   k=3, num_partitions=4)
               .to_pandas()
               .sort_values(["g", "cnt", "term"],
                            ascending=[True, False, True],
                            na_position="last")
               .reset_index(drop=True))
        pd.testing.assert_frame_equal(got.astype(exp.dtypes.to_dict()),
                                      exp)
        if prev is not None:
            assert got.equals(prev)
        prev = got
    assert got.groupby("g").size().max() <= 3
