"""``partition.sum_partials``, the engine's driver combine of per-block
partial sums: exact int64 totals that raise on overflow instead of
wrapping, global sums with no keys, dictionary-typed keys whose
dictionaries differ between blocks, and NULL as one group sorted last."""

import pyarrow as pa
import pytest
import ray

from featurebox_ray.stages.partition import sum_partials
from featurebox_ray.stages.sample import temperature_rebalance


def test_overflow_raises_naming_the_column():
    part = pa.table({"k": ["a", "b"], "cents": [2 ** 62, 1],
                     "n": [1, 1]})
    with pytest.raises(OverflowError, match="'cents'"):
        sum_partials([part, part], keys=["k"], vals=["n", "cents"])
    with pytest.raises(OverflowError, match="'cents'"):
        sum_partials([part, part], keys=[], vals=["cents"])
    low = pa.table({"k": ["a"], "cents": [-(2 ** 62) - 1]})
    with pytest.raises(OverflowError, match="'cents'"):
        sum_partials([low, low], keys=["k"], vals=["cents"])


def test_sums_are_exact_up_to_the_int64_limits():
    top = [pa.table({"k": ["a"], "v": [2 ** 62]}),
           pa.table({"k": ["a"], "v": [2 ** 62 - 1]})]
    got = sum_partials(top, keys=["k"], vals=["v"])
    assert got["v"].to_pylist() == [2 ** 63 - 1]
    assert got.schema.field("v").type == pa.int64()
    bottom = [pa.table({"k": ["a"], "v": [-(2 ** 62)]})] * 2
    assert sum_partials(bottom, keys=["k"],
                        vals=["v"])["v"].to_pylist() == [-(2 ** 63)]
    # int32 partials come back as int64, as Arrow's own sum gives them
    small = pa.table({"k": ["a"], "v": pa.array([2 ** 31 - 1], pa.int32())})
    got = sum_partials([small, small], keys=["k"], vals=["v"])
    assert got["v"].to_pylist() == [2 ** 32 - 2]
    assert got.schema.field("v").type == pa.int64()


def test_no_keys_gives_one_row_of_global_sums():
    parts = [pa.table({"n": [3], "m": [10]}), pa.table({"n": [4], "m": [-1]}),
             pa.table({"n": pa.array([], pa.int64()),
                       "m": pa.array([], pa.int64())})]
    got = sum_partials(parts, keys=[], vals=["n", "m"])
    assert got.to_pylist() == [{"n": 7, "m": 9}]
    assert sum_partials(parts[2:], keys=[], vals=["n", "m"]) is None


def test_dictionary_keys_with_different_dictionaries():
    a = pa.table({"g": pa.array(["x", "y", "x"]).dictionary_encode(),
                  "n": [1, 2, 3]})
    b = pa.table({"g": pa.array(["z", "y"]).dictionary_encode(),
                  "n": [5, 7]})
    got = sum_partials([a, b], keys=["g"], vals=["n"])
    assert got.schema.field("g").type == pa.string()
    assert got.to_pylist() == [{"g": "x", "n": 4}, {"g": "y", "n": 9},
                               {"g": "z", "n": 5}]


def test_null_key_is_one_group_sorted_last():
    parts = [pa.table({"k": [None, "", "\x00null"], "n": [1, 2, 3]}),
             pa.table({"k": ["", None], "n": [10, 20]})]
    got = sum_partials(parts, keys=["k"], vals=["n"])
    assert got.to_pylist() == [{"k": "", "n": 12}, {"k": "\x00null", "n": 3},
                               {"k": None, "n": 21}]


def test_temperature_rebalance_dictionary_group_column():
    """Each block dictionary-encodes the group column on its own, so the
    per-block count partials carry different dictionaries."""
    def block(groups, start):
        return pa.table({
            "g": pa.array(groups).dictionary_encode(),
            "id": pa.array(range(start, start + len(groups)), pa.int64())})

    blocks = [block(["en"] * 60 + ["fr"] * 9, 0),
              block(["fr"] * 20 + ["de"] * 5, 1000)]
    got = temperature_rebalance(ray.data.from_arrow(blocks), group_col="g",
                                key_col="id").to_pandas()
    plain = [b.set_column(0, "g", b["g"].cast(pa.string())) for b in blocks]
    want = temperature_rebalance(ray.data.from_arrow(plain), group_col="g",
                                 key_col="id").to_pandas()
    assert sorted(got["id"]) == sorted(want["id"])
    assert 0 < len(got) < sum(b.num_rows for b in blocks)


def test_null_int_key_with_bytes_under_its_slots_is_one_group():
    """Two keys, one a nullable int64 whose NULL slots hold random bytes:
    the groups and sums equal DuckDB's ``GROUP BY`` (Arrow's multi-key
    ``group_by`` alone splits the NULL by those bytes)."""
    import duckdb
    import numpy as np

    rng = np.random.default_rng(16)
    blocks = []
    for _ in range(6):
        n = 200
        valid = rng.random(n) >= 0.3
        data = rng.integers(0, 4, n).astype(np.int64) + 2 ** 60
        data[~valid] = rng.integers(-2 ** 62, 2 ** 62, int((~valid).sum()))
        k = pa.Array.from_buffers(
            pa.int64(), n, [pa.py_buffer(np.packbits(valid, bitorder="little")),
                            pa.py_buffer(data)],
            null_count=int((~valid).sum()))
        blocks.append(pa.table({
            "s": pa.array(rng.choice(["a", "b", "c"], n).tolist()),
            "k": k, "n": pa.array(rng.integers(1, 9, n), pa.int64())}))
    t = pa.concat_tables(blocks)
    want = duckdb.sql("SELECT s, k, sum(n) FROM t GROUP BY s, k "
                      "ORDER BY s, k NULLS LAST").fetchall()
    got = sum_partials(blocks, keys=["s", "k"], vals=["n"])
    assert [tuple(r.values()) for r in got.to_pylist()] == want
    assert got.num_rows == 15
