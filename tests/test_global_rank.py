"""Global row_number (stages/rank.py:global_row_number)."""

import numpy as np
import pyarrow as pa
import pytest
import ray

from featurebox_ray.stages.rank import global_row_number


def _ds(df, n_parts):
    return ray.data.from_arrow(pa.Table.from_pandas(
        df, preserve_index=False)).repartition(n_parts)


def test_global_row_number_matches_duckdb_fuzz():
    import duckdb
    import pandas as pd

    rng = np.random.default_rng(83)
    n = 2000
    df = pd.DataFrame({
        "id": rng.permutation(n).astype(np.int64),
        "v": rng.choice([1.5, -2.0, 7.25, 0.0, 3.5], size=n),  # heavy ties
    })
    con = duckdb.connect()
    want = con.execute("""
        SELECT id, v, row_number() OVER (ORDER BY v, id) AS g_rank
        FROM df ORDER BY id
    """).df()
    con.close()
    for parts in (1, 4, 9):
        got = (global_row_number(_ds(df, parts), order_cols=["v", "id"])
               .to_pandas().sort_values("id").reset_index(drop=True))
        assert (got["g_rank"].to_numpy(np.int64)
                == want["g_rank"].to_numpy(np.int64)).all()
        assert (got["id"].to_numpy(np.int64)
                == want["id"].to_numpy(np.int64)).all()


def test_global_row_number_descending_and_empty():
    import pandas as pd

    df = pd.DataFrame({"id": np.arange(10, dtype=np.int64),
                       "v": np.arange(10, dtype=np.float64)})
    got = (global_row_number(_ds(df, 3), order_cols=["v", "id"],
                             descending=True)
           .to_pandas().sort_values("id"))
    # v=9 ranks 1, v=0 ranks 10
    assert got["g_rank"].tolist() == list(range(10, 0, -1))

    empty = _ds(df, 2).filter(lambda r: False)
    out = global_row_number(empty, order_cols=["v", "id"])
    assert out.count() == 0


def test_global_row_number_empty_schema_and_nan_order():
    import duckdb
    import pandas as pd

    # empty input: Ray's sort emits a zero-column bundle for an empty
    # dataset (schema None — same semantics as filter-all), so the rank
    # column cannot be materialized; the op must still return cleanly
    # with 0 rows rather than raise
    df = pd.DataFrame({"id": np.arange(6, dtype=np.int64),
                       "v": np.arange(6, dtype=np.float64)})
    for empty in (ray.data.from_arrow(pa.Table.from_pandas(
                      df, preserve_index=False).slice(0, 0)),
                  _ds(df, 2).filter(lambda r: False)):
        out = global_row_number(empty, order_cols=["v", "id"])
        assert out.count() == 0
        sch = out.schema()
        assert sch is None or "g_rank" in sch.names

    # NaN first-key values must not scramble the driver's block order
    rng = np.random.default_rng(5)
    n = 500
    vals = rng.choice([1.0, 2.0, np.nan, -3.5], size=n)
    df = pd.DataFrame({"id": np.arange(n, dtype=np.int64), "v": vals})
    got = (global_row_number(_ds(df, 6), order_cols=["v", "id"])
           .to_pandas().sort_values("id").reset_index(drop=True))
    con = duckdb.connect()
    want = con.execute("""
        SELECT id, row_number() OVER (ORDER BY v, id) AS g_rank
        FROM df ORDER BY id
    """).df()
    con.close()
    assert (got["g_rank"].to_numpy(np.int64)
            == want["g_rank"].to_numpy(np.int64)).all()


@pytest.mark.parametrize("descending", [False, True])
def test_global_row_number_nan_and_null_leading_key(descending):
    """A leading float order column that is mostly NaN and NULL: Ray's
    sampled range boundaries must not overlap (every row ranked once),
    and NaN ranks above every number and NULL last, as in DuckDB."""
    import duckdb

    rng = np.random.default_rng(17)
    n = 800
    u = rng.random(n)
    v = pa.array(np.where(u < 0.6, np.nan, rng.integers(0, 5, n)),
                 mask=u > 0.9)
    t = pa.table({"id": pa.array(rng.permutation(n), pa.int64()), "v": v})
    got = (global_row_number(ray.data.from_arrow(t).repartition(8),
                             order_cols=["v", "id"], descending=descending)
           .to_pandas().sort_values("id").reset_index(drop=True))
    order = "DESC" if descending else "ASC"
    con = duckdb.connect()
    con.register("t", t)
    want = con.execute(f"""
        SELECT id, row_number() OVER (ORDER BY v {order} NULLS LAST,
                                      id {order}) AS g_rank
        FROM t ORDER BY id
    """).df()
    con.close()
    assert len(got) == n
    assert (got["g_rank"].to_numpy(np.int64)
            == want["g_rank"].to_numpy(np.int64)).all()


def test_range_top_mixed_directions_nan_and_null():
    """range_top (the relational top-k sorts) with a descending float
    column that is mostly NaN and NULL and an ascending tie-break: the
    first k rows are DuckDB's ``ORDER BY v DESC NULLS LAST, id``, each
    once, and the stand-in columns are gone."""
    import duckdb

    from featurebox_ray.stages.rank import range_top

    rng = np.random.default_rng(23)
    n = 600
    u = rng.random(n)
    v = pa.array(np.where(u < 0.5, np.nan, rng.integers(0, 4, n)),
                 mask=u > 0.85)
    t = pa.table({"id": pa.array(rng.permutation(n), pa.int64()), "v": v})
    k = 540  # past every NaN and number, into the NULLs
    got = (range_top(ray.data.from_arrow(t).repartition(8), ["v", "id"],
                     [True, False], k).to_pandas()
           .sort_values("id").reset_index(drop=True))
    con = duckdb.connect()
    con.register("t", t)
    want = con.execute(f"""
        SELECT id, v FROM t ORDER BY v DESC NULLS LAST, id LIMIT {k}
    """).df().sort_values("id").reset_index(drop=True)
    con.close()
    assert got.columns.tolist() == ["id", "v"]
    assert len(got) == k and got["id"].is_unique
    assert got["id"].tolist() == want["id"].tolist()


@pytest.mark.parametrize("descending", [False, True])
def test_range_sort_blocks_come_back_in_range_order(descending):
    """The order contract the global-order operators rest on: the blocks
    of Ray's range sort, drained with ``preserve_order``
    (``_blocks_in_order``), are in range order, and their metadata row
    counts are their rows.  A Ray upgrade that breaks this fails here,
    not as shifted ranks.  30% NaN and 10% NULL in the leading key."""
    import duckdb

    from featurebox_ray.stages.rank import _blocks_in_order, _range_sort

    rng = np.random.default_rng(7 + descending)
    n = 5000
    v = rng.choice([0.5, -1.0, 3.0, 8.0], size=n)
    v[rng.random(n) < 0.3] = np.nan
    t = pa.table({"v": pa.array(v, mask=rng.random(n) < 0.1),
                  "id": pa.array(rng.permutation(n), pa.int64())})
    ds = ray.data.from_arrow([t.slice(i * n // 8, n // 8) for i in range(8)])
    sd, keys = _range_sort(ds, ["v", "id"], descending)
    blocks = _blocks_in_order(sd)
    assert len(blocks) > 1
    tables = ray.get([r for r, _ in blocks])
    assert [b.num_rows for b in tables] == [m for _, m in blocks]
    got = pa.concat_tables(tables)["id"].to_pylist()
    d = "DESC" if descending else "ASC"
    want = duckdb.sql(f"SELECT id FROM t ORDER BY v {d} NULLS LAST, "
                      f"id {d}").fetchnumpy()["id"].tolist()
    assert got == want
