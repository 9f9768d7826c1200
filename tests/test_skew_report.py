"""Skew report surface (stages/partition.py:key_histogram) — hot-key
ordering, tie-break, top-k boundary — and the keyed distinct count of
q05, both counted with ``partition.group_count``."""

import numpy as np
import pyarrow as pa
import pytest
import ray

from featurebox_ray.stages.partition import key_histogram


def test_key_histogram_orders_and_breaks_ties():
    # key 7 planted hot; keys 1 and 2 tie -> lower key first
    ks = [7] * 50 + [1] * 10 + [2] * 10 + [3] * 5
    t = pa.table({"k": pa.array(ks, pa.int64())})
    got = key_histogram(ray.data.from_arrow(t).repartition(4),
                        "k", top=3)
    assert got["k"].tolist() == [7, 1, 2]
    assert got["count()"].tolist() == [50, 10, 10]


def test_key_histogram_top_larger_than_keys():
    t = pa.table({"k": pa.array([1, 1, 2], pa.int64())})
    got = key_histogram(ray.data.from_arrow(t), "k", top=10)
    assert len(got) == 2


@pytest.mark.parametrize("blocks", [1, 8])
@pytest.mark.parametrize("typ", [pa.string(), pa.int64()])
def test_key_histogram_matches_duckdb_with_null_keys(typ, blocks):
    """Counts per key against DuckDB's ``GROUP BY`` (NULL is one key),
    ordered by count descending, then key ascending with NULL last:
    NULL keys and counts tied with them."""
    import duckdb

    rng = np.random.default_rng(41 + blocks)
    keys = rng.integers(0, 12, 600)
    vals = ([None if k == 0 else str(k) for k in keys]
            if typ == pa.string() else
            [None if k == 0 else int(k) + 2**40 for k in keys])
    t = pa.table({"k": pa.array(vals, typ),
                  "other": pa.array(np.arange(600), pa.int64())})
    want = duckdb.sql(
        'SELECT k, count(*) AS "count()" FROM t GROUP BY k '
        'ORDER BY "count()" DESC, k ASC NULLS LAST').df()
    ds = ray.data.from_arrow([t.slice(i * 600 // blocks, 600 // blocks)
                              for i in range(blocks)])
    for top in (1, 5, 20):
        got = key_histogram(ds, "k", top=top)
        assert got.columns.tolist() == ["k", "count()"]
        assert got["count()"].tolist() == want["count()"][:top].tolist()
        assert (got["k"].astype(object).where(got["k"].notna(), None)
                .tolist()
                == want["k"][:top].astype(object)
                .where(want["k"][:top].notna(), None).tolist())


@pytest.mark.parametrize("blocks", [1, 8])
def test_key_histogram_keeps_int_keys_above_2_53_exact(blocks):
    """With a NULL among int64 keys above 2^53, the keys come back as the
    exact ints DuckDB's ``GROUP BY`` gives, and NULL as a missing value."""
    import duckdb

    rng = np.random.default_rng(53 + blocks)
    keys = rng.integers(0, 12, 600)
    vals = [None if k == 0 else 2**53 + int(k) * (2**40 + 1) for k in keys]
    t = pa.table({"k": pa.array(vals, pa.int64())})
    want = duckdb.sql(
        'SELECT k, count(*) FROM t GROUP BY k '
        'ORDER BY count(*) DESC, k ASC NULLS LAST').fetchall()
    ds = ray.data.from_arrow([t.slice(i * 600 // blocks, 600 // blocks)
                              for i in range(blocks)])
    got = key_histogram(ds, "k", top=20)
    assert got["k"].isna().sum() == 1
    assert [(None if k is None else int(k), int(c)) for k, c in
            zip(got["k"], got["count()"])] == want
    assert all(type(k) is int for k in got["k"] if k is not None)


def test_distinct_users_counts_a_null_user_once_per_type(tmp_path):
    """q05 counts a NULL user_id as one user of each type it appears
    with, whatever bytes sit under the NULL slots (Arrow's multi-key
    ``group_by`` would split them), read from 1 file and from 8."""
    import os

    import duckdb
    import pyarrow.parquet as pq

    from featurebox_ray.pipelines.relational import distinct_users_per_type

    rng = np.random.default_rng(5)
    n = 2000
    t = pa.table({"event_type": pa.array(rng.choice(["a", "b", "c"], n)),
                  "user_id": pa.array(rng.integers(0, 2**62, n) % 97
                                      + 2**60, mask=rng.random(n) < 0.2)})
    want = duckdb.sql(
        "SELECT event_type, count(DISTINCT user_id) + "
        "max(CASE WHEN user_id IS NULL THEN 1 ELSE 0 END) AS n_users "
        "FROM t GROUP BY 1 ORDER BY 1").fetchall()
    for files in (1, 8):
        d = tmp_path / f"f{files}" / "events.parquet"
        os.makedirs(d)
        for i, idx in enumerate(np.array_split(np.arange(n), files)):
            pq.write_table(t.take(pa.array(idx)), d / f"part-{i}.parquet")
        got = distinct_users_per_type(str(tmp_path / f"f{files}"))
        assert [tuple(r.values()) for r in got.take_all()] == want
