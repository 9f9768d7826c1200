"""asof_leakage_audit (stages/asof.py) — a correct join audits clean;
PLANTED leakage (future match) and staleness (not-latest match) are
counted; partition-invariant."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from featurebox_ray.stages.asof import asof_join, asof_leakage_audit


def _sides():
    rng = np.random.default_rng(319)
    n = 1500
    left = pa.table({
        "id": pa.array(np.arange(n, dtype=np.int64)),
        "k": pa.array(rng.integers(0, 25, n), pa.int64()),
        "ts": pa.array(rng.integers(0, 10 ** 6, n), pa.int64()),
    })
    right = pa.table({
        "k": pa.array(rng.integers(0, 25, 400), pa.int64()),
        "ts": pa.array(rng.integers(0, 10 ** 6, 400), pa.int64()),
        "rts": pa.array(np.zeros(400, np.int64)),
    })
    right = right.set_column(2, "rts", right["ts"])
    return left, right


def test_clean_join_audits_zero_mismatch():
    left, right = _sides()
    joined = asof_join(ray.data.from_arrow(left).repartition(4),
                       ray.data.from_arrow(right), key="k",
                       ts_col="ts", right_cols=["rts"],
                       num_partitions=4)
    prev = None
    for parts in (1, 5):
        out = (asof_leakage_audit(joined, ray.data.from_arrow(right),
                                  key="k", ts_col="ts",
                                  matched_ts_col="rts",
                                  num_partitions=parts)
               .to_pandas().sort_values("k").reset_index(drop=True))
        assert int(out["n_mismatch"].sum()) == 0
        assert int(out["n_rows"].sum()) == len(left.to_pandas())
        if prev is not None:
            pd.testing.assert_frame_equal(out, prev)
        prev = out


def test_planted_leakage_and_staleness_detected():
    left, right = _sides()
    joined = (asof_join(ray.data.from_arrow(left),
                        ray.data.from_arrow(right), key="k",
                        ts_col="ts", right_cols=["rts"],
                        num_partitions=4)
              .to_pandas())
    # corrupt: 10 rows get a FUTURE match, 10 get an older-than-latest
    bad = joined.sort_values("id").reset_index(drop=True)
    fut = bad.index[:10]
    bad.loc[fut, "rts"] = bad.loc[fut, "ts"] + 10 ** 7  # future
    stale = bad.index[(bad["rts"].notna())][-10:]
    bad.loc[stale, "rts"] = -1                           # not latest
    out = (asof_leakage_audit(
        ray.data.from_arrow(pa.Table.from_pandas(
            bad, preserve_index=False)),
        ray.data.from_arrow(right), key="k", ts_col="ts",
        matched_ts_col="rts", num_partitions=4).to_pandas())
    assert int(out["n_mismatch"].sum()) >= 20
