"""Salted mega-conversation windows must equal the unsalted computation
(SURVEY.md §7.6 'mega-conversation salting vs window correctness')."""

import numpy as np
import pytest
import ray

from featurebox_ray.stages.salt import SaltPolicy, add_window_features_salted
from featurebox_ray.stages.scalar import add_scalar_features
from featurebox_ray.stages.window import WindowSpec, add_window_features

BOUNDED = WindowSpec(lags=(1, 2), rolling_rows=(5,), time_windows_s=(),
                     add_session=False, add_turn_number=False,
                     add_delta_ts=True)

CMP = ["delta_ts_s", "lag1_text_len", "lag2_text_len", "lead1_text_len",
       "roll5_mean_text_len", "roll5_std_text_len", "roll5_min_text_len"]


def test_salted_equals_unsalted(small_dir):
    ds = add_scalar_features(ray.data.read_parquet(f"{small_dir}/transcripts"))
    plain = (
        add_window_features(ds, BOUNDED, num_partitions=8)
        .to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    )
    # tiny buckets (200 rows) so the planted 1500-turn mega-convs are
    # actually split across many salt buckets
    salted = (
        add_window_features_salted(
            ds, BOUNDED, num_partitions=8,
            policy=SaltPolicy(bucket_rows=200, overlap=8))
        .to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    )
    assert len(plain) == len(salted)
    assert (plain["conv_id"].values == salted["conv_id"].values).all()
    for c in CMP:
        a = plain[c].astype(float).values
        b = salted[c].astype(float).values
        assert np.allclose(a, b, equal_nan=True), c


def test_salted_rejects_unbounded(small_dir):
    ds = add_scalar_features(ray.data.read_parquet(f"{small_dir}/transcripts"))
    with pytest.raises(ValueError, match="bounded"):
        add_window_features_salted(ds, WindowSpec())  # session/turn_number on


def test_salted_rejects_small_overlap(small_dir):
    ds = add_scalar_features(ray.data.read_parquet(f"{small_dir}/transcripts"))
    with pytest.raises(ValueError, match="overlap"):
        add_window_features_salted(
            ds, BOUNDED, policy=SaltPolicy(bucket_rows=100, overlap=2))


def test_salted_rejects_ts_turnidx_disagreement(tiny_dir):
    """If ts order contradicts turn_idx order inside a conversation, the
    salted kernel must refuse (context rows would be wrong) rather than
    silently diverge."""
    import pyarrow as pa
    import ray

    n = 600
    ts = list(range(n))
    ts[10], ts[11] = ts[11], ts[10]  # swap: ts order != turn_idx order
    tbl = pa.table({
        "conv_id": pa.array(["c0"] * n),
        "turn_idx": pa.array(list(range(n)), pa.int64()),
        "ts": pa.array([float(t) for t in ts]),
        "text_len": pa.array([1.0] * n),
    })
    ds = ray.data.from_arrow(tbl)
    spec = WindowSpec(lags=(1,), rolling_rows=(3,), time_windows_s=(),
                      add_session=False, add_turn_number=False)
    with pytest.raises(Exception, match="strictly increasing|turn_idx"):
        add_window_features_salted(
            ds, spec, policy=SaltPolicy(bucket_rows=100, overlap=8),
            num_partitions=2).count()
