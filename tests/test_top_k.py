"""Per-block top-k (stages/rank.py:top_k / range_top) against DuckDB's
``ORDER BY ... NULLS LAST LIMIT k``: NaN ranks above every number and
NULL last in either direction."""

import duckdb
import numpy as np
import pyarrow as pa
import pytest
import ray

from featurebox_ray.stages.rank import range_top, top_k

N = 400


def _table(seed):
    """Leading float key with heavy ties, 30% NaN and 10% NULL; a string
    key with ties and NULLs; a unique id that makes the order total."""
    rng = np.random.default_rng(seed)
    a = rng.choice([-1.5, 0.0, 2.25, 7.0], size=N)
    a[rng.random(N) < 0.3] = np.nan
    a_null = rng.random(N) < 0.1
    b = rng.choice(["", "x", "y\x00", "é"], size=N).astype(object)
    b[rng.random(N) < 0.1] = None
    return pa.table({"a": pa.array(a, mask=a_null),
                     "b": pa.array(b, pa.string()),
                     "id": pa.array(rng.permutation(N), pa.int64()),
                     "payload": pa.array(np.arange(N), pa.int64())})


def _blocks(t, blocks):
    return ray.data.from_arrow(
        [t.slice(i * N // blocks, N // blocks) for i in range(blocks)])


def _duckdb_ids(t, desc, k):
    order = ", ".join(f"{c} {'DESC' if d else 'ASC'} NULLS LAST"
                      for c, d in zip(["a", "b", "id"], desc))
    return duckdb.sql(f"SELECT id FROM t ORDER BY {order} LIMIT {k}"
                      ).fetchnumpy()["id"].tolist()


@pytest.mark.parametrize("blocks", [1, 8])
@pytest.mark.parametrize("desc", [(False, False, False), (True, False, True),
                                  (False, True, False)])
def test_top_k_matches_duckdb(blocks, desc):
    t = _table(16 + blocks)
    for k in (1, N // 8, N + 5):
        got = top_k(_blocks(t, blocks), ["a", "b", "id"], list(desc), k,
                    drop=["payload"])
        assert got.column_names == ["a", "b", "id"]
        assert got["id"].to_pylist() == _duckdb_ids(t, desc, k), (k, desc)


def test_range_top_is_top_k_as_a_dataset():
    t = _table(3)
    got = range_top(_blocks(t, 8), ["a", "b", "id"], True, 25)
    assert ([r["id"] for r in got.take_all()]
            == top_k(_blocks(t, 8), ["a", "b", "id"], True, 25)["id"]
            .to_pylist())


def test_top_k_ties_keep_block_order():
    """Rows tied on every order column keep block order."""
    t = pa.table({"a": pa.array([1.0, np.nan, 1.0, None, 1.0, 1.0]),
                  "id": pa.array([0, 1, 2, 3, 4, 5], pa.int64())})
    ds = ray.data.from_arrow([t.slice(0, 2), t.slice(2, 2), t.slice(4)])
    assert top_k(ds, ["a"], False, 5)["id"].to_pylist() == [0, 2, 4, 5, 1]
    assert top_k(ds, ["a"], True, 6)["id"].to_pylist() == [1, 0, 2, 4, 5, 3]


def test_top_k_empty_input_keeps_schema():
    """An empty input gives an empty table in its own schema, without
    the stand-in keys or the ``drop`` columns."""
    t = _table(5)
    want = pa.schema([f for f in t.schema if f.name != "payload"])
    for ds in (ray.data.from_arrow(t.slice(0, 0)),
               _blocks(t, 4).map_batches(lambda b: b.slice(0, 0),
                                         batch_format="pyarrow")):
        got = top_k(ds, ["a", "b", "id"], [True, False, False], 3,
                    drop=["payload"])
        assert got.num_rows == 0
        assert got.schema.remove_metadata() == want
