"""Group changepoint (stages/changepoint.py:group_changepoint) vs the
serial exact replay; planted step recovery; partition invariance."""

import os
import sys

import numpy as np
import pyarrow as pa
import ray

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
from _oracle_replays import replay_changepoint  # noqa: E402

from featurebox_ray.stages.changepoint import group_changepoint  # noqa

COLS = ["key", "n", "split_i", "ts_split", "gain_cents2",
        "mean_l", "mean_r"]


def _run(t, **kw):
    got = (group_changepoint(ray.data.from_arrow(t), key_col="key",
                             ts_col="ts", seq_col="seq",
                             value_col="v", **kw)
           .to_pandas().sort_values("key").reset_index(drop=True))
    return [tuple(r) for r in got[COLS].itertuples(index=False)]


def test_changepoint_matches_serial_replay_partition_invariant():
    rng = np.random.default_rng(461)
    keys, ts, seq, vals = [], [], [], []
    for k in range(40):
        n = int(rng.integers(2, 40))
        shift_at = int(rng.integers(0, n + 1))
        for s in range(n):
            keys.append(f"u{k}")
            ts.append(int(rng.integers(0, 10_000)))
            seq.append(s)
            if rng.random() < 0.03:
                vals.append(None)
            else:
                base = 5.0 if s >= shift_at else 1.0
                vals.append(round(base + rng.normal() * 0.5, 2))
    keys.append(None)
    ts.append(1)
    seq.append(0)
    vals.append(2.0)
    exp = replay_changepoint(keys, ts, seq, vals)
    t = pa.table({"key": pa.array(keys, pa.string()),
                  "ts": pa.array(ts, pa.int64()),
                  "seq": pa.array(seq, pa.int64()),
                  "v": pa.array(vals, pa.float64())})
    prev = None
    for parts in (1, 8):
        ds_t = t
        tt = ray.data.from_arrow(ds_t)
        if parts > 1:
            tt = tt.repartition(parts)
        got = (group_changepoint(tt, key_col="key", ts_col="ts",
                                 seq_col="seq", value_col="v",
                                 num_partitions=5)
               .to_pandas().sort_values("key")
               .reset_index(drop=True))
        rows = [tuple(r) for r in got[COLS].itertuples(index=False)]
        assert rows == sorted(exp, key=lambda r: r[0])
        if prev is not None:
            assert rows == prev
        prev = rows


def test_changepoint_planted_step():
    # clean level shift at i=6 of 12 -> split there, exact means
    vals = [1.0] * 6 + [3.0] * 6
    t = pa.table({"key": ["a"] * 12,
                  "ts": pa.array(range(12), pa.int64()),
                  "seq": pa.array(range(12), pa.int64()),
                  "v": pa.array(vals, pa.float64())})
    rows = _run(t)
    assert len(rows) == 1
    _, n, split_i, ts_split, gain, ml, mr = rows[0]
    assert (n, split_i, ts_split) == (12, 6, 5)
    assert (ml, mr) == (100.0, 300.0)
    assert gain > 0


def test_changepoint_short_and_constant():
    # short series (< 2*min_seg) emit nothing; constant series picks
    # the smallest split with gain 0
    t = pa.table({"key": ["s"] * 4 + ["c"] * 8,
                  "ts": pa.array(list(range(4)) + list(range(8)),
                                 pa.int64()),
                  "seq": pa.array(list(range(4)) + list(range(8)),
                                  pa.int64()),
                  "v": pa.array([1.0] * 12, pa.float64())})
    rows = _run(t)
    assert [r[0] for r in rows] == ["c"]
    _, n, split_i, _, gain, ml, mr = rows[0]
    assert (n, split_i, gain) == (8, 3, 0.0)
    assert ml == mr == 100.0
