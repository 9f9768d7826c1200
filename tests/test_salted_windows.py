"""Salted windowed state (stages/window.py): salted_running_total,
salted_time_window_sum, finalized_tumbling — salting/halo must never
change the answer vs the plain SQL windows."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray


def test_salted_running_total_mega_key_duckdb():
    """salted_running_total vs the plain SQL window under a 60%
    mega-key, NULL keys, negative values, at two bucket counts —
    the salting must never change the answer; n_buckets=1 is the
    degenerate single-bucket identity."""
    from featurebox_ray.stages.window import salted_running_total

    rng = np.random.default_rng(310)
    n = 5000
    k = rng.integers(0, 20, n).astype(object)
    k[: n * 3 // 5] = 7
    k[::701] = None
    t = pa.table({
        "k": pa.array(list(k), pa.int64()),
        "ts": pa.array(rng.integers(0, 10 ** 6, n), pa.int64()),
        "o": pa.array(np.arange(n, dtype=np.int64)),
        "v": pa.array(rng.integers(-500, 500, n), pa.int64()),
    })
    con = duckdb.connect()
    con.register("t", t)
    exp = con.sql("""
        SELECT k, ts, o,
               CAST(sum(coalesce(v, 0)) OVER (PARTITION BY k
                    ORDER BY ts, o ROWS UNBOUNDED PRECEDING)
                    AS BIGINT) AS running_sum
        FROM t ORDER BY o
    """).df().reset_index(drop=True)
    prev = None
    for nb in (8, 1):
        got = (salted_running_total(
            ray.data.from_arrow(t).repartition(6), key_col="k",
            ts_col="ts", order_col="o", int_value_col="v",
            n_buckets=nb, num_partitions=8)
            .to_pandas().sort_values("o").reset_index(drop=True))
        pd.testing.assert_frame_equal(
            got.astype(exp.dtypes.to_dict()), exp)
        if prev is not None:
            assert got.equals(prev)
        prev = got


def test_salted_time_window_sum_mega_key_duckdb():
    """salted_time_window_sum vs the plain RANGE window: 60% mega-key,
    NULL keys/ts, ts TIES (RANGE includes all peers), a window WIDER
    than one bucket (reach > 1 halo replication), and the
    single-bucket identity."""
    from featurebox_ray.stages.window import salted_time_window_sum

    rng = np.random.default_rng(311)
    n = 4000
    k = rng.integers(0, 12, n).astype(object)
    k[: n * 3 // 5] = 3
    k[::613] = None
    ts = rng.integers(0, 5000, n).astype(object)   # heavy ts ties
    ts[::499] = None
    t = pa.table({
        "k": pa.array(list(k), pa.int64()),
        "ts": pa.array(list(ts), pa.int64()),
        "o": pa.array(np.arange(n, dtype=np.int64)),
        "v": pa.array(rng.integers(-300, 300, n), pa.int64()),
    })
    con = duckdb.connect()
    con.register("t", t)
    for W, nb in ((200, 8), (1400, 4), (200, 1)):
        exp = con.sql(f"""
            SELECT k, ts, o,
                   CAST(sum(coalesce(v, 0)) OVER (PARTITION BY k
                        ORDER BY ts RANGE BETWEEN {W} PRECEDING
                        AND CURRENT ROW) AS BIGINT) AS w_sum
            FROM t WHERE ts IS NOT NULL ORDER BY o
        """).df().reset_index(drop=True)
        got = (salted_time_window_sum(
            ray.data.from_arrow(t).repartition(6), key_col="k",
            ts_col="ts", order_col="o", int_value_col="v",
            window=W, n_buckets=nb, max_replication=4,
            num_partitions=8)
            .to_pandas().sort_values("o").reset_index(drop=True))
        pd.testing.assert_frame_equal(
            got.astype(exp.dtypes.to_dict()), exp), (W, nb)



@pytest.mark.parametrize("op", ["running_total", "time_window_sum"])
@pytest.mark.parametrize("blocks", [1, 3])
def test_salted_key_spelled_like_the_null_sentinel_raises(op, blocks):
    """A key whose string form is the salted operators' NULL sentinel
    would merge into the NULL group; both operators refuse it, naming
    the value, whether or not a NULL key is in the same block."""
    from featurebox_ray.stages.window import (salted_running_total,
                                              salted_time_window_sum)

    t = pa.table({"k": pa.array(["a", None, "b", "\x00null", "a", None]),
                  "ts": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
                  "o": pa.array(np.arange(6, dtype=np.int64)),
                  "v": pa.array([1, 2, 3, 4, 5, 6], pa.int64())})
    ds = ray.data.from_arrow(t).repartition(blocks)
    kw = dict(key_col="k", ts_col="ts", order_col="o", int_value_col="v",
              n_buckets=2, num_partitions=3)
    with pytest.raises(ValueError, match=r"k value '\\x00null'"):
        if op == "running_total":
            salted_running_total(ds, **kw)
        else:
            salted_time_window_sum(ds, window=2, **kw)


def test_finalized_tumbling_holds_back_open_windows():
    """finalized_tumbling == tumbling filtered to closed windows; the
    newest window is always held back (its inputs can still change),
    and watermark_s=0 closes everything except windows overlapping
    max_ts."""
    from featurebox_ray.stages.window import (finalized_tumbling,
                                              tumbling_window_stats)

    rng = np.random.default_rng(312)
    n = 1500
    t = pa.table({
        "k": pa.array(rng.integers(0, 5, n), pa.int64()),
        "ts": pa.array(rng.integers(0, 10 ** 9, n), pa.int64()),
        "id": pa.array(np.arange(n, dtype=np.int64)),
        "v": pa.array(rng.normal(size=n)),
    })
    ds = ray.data.from_arrow(t).repartition(4)
    width_s, wm_s = 50.0, 100.0
    allw = (tumbling_window_stats(ray.data.from_arrow(t), key_col="k",
                                  ts_col="ts", value_col="v",
                                  id_col="id", width_s=width_s)
            .to_pandas())
    fin = (finalized_tumbling(ds, key_col="k", ts_col="ts",
                              value_col="v", id_col="id",
                              width_s=width_s, watermark_s=wm_s)
           .to_pandas())
    close = int(t["ts"].to_pandas().max()) - int(wm_s * 1e6)
    keep = allw[allw["w_start"] + int(width_s * 1e6) <= close]
    a = keep.sort_values(["k", "w_start"]).reset_index(drop=True)
    b = fin.sort_values(["k", "w_start"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    assert len(fin) < len(allw)            # something held back
    # max window never closed even at watermark 0
    fin0 = (finalized_tumbling(ds, key_col="k", ts_col="ts",
                               value_col="v", id_col="id",
                               width_s=width_s, watermark_s=0.0)
            .to_pandas())
    assert fin0["w_start"].max() + int(width_s * 1e6) <= \
        int(t["ts"].to_pandas().max())

