"""Markov removal-effect attribution (stages/attribution.py:
markov_attribution) vs the serial replay; hand case with a known
chain; partition invariance."""

import re

import numpy as np
import pytest
import pyarrow as pa
import ray

from _oracle_replays import replay_markov_attribution
from featurebox_ray.stages.attribution import markov_attribution


def _events(n_users=200, seed=289):
    rng = np.random.default_rng(seed)
    rows = []
    oid = 0
    chans = ["ad", "email", "search"]
    for u in range(n_users):
        t = 0
        for _ in range(rng.integers(1, 8)):
            t += int(rng.integers(1, 100))
            ty = rng.choice(chans)
            rows.append((u, t, oid, ty))
            oid += 1
        if rng.uniform() < 0.4:
            t += 1
            rows.append((u, t, oid, "purchase"))
            oid += 1
            # post-conversion noise must be ignored
            rows.append((u, t + 5, oid + 1, "ad"))
            oid += 2
    return rows


def test_markov_matches_replay_partition_invariant():
    rows = _events()
    ks = [r[0] for r in rows]
    ts = [r[1] for r in rows]
    os_ = [r[2] for r in rows]
    tys = [r[3] for r in rows]
    ks[3] = None
    tys[5] = None
    exp = replay_markov_attribution(ks, ts, os_, tys,
                                    conv_type="purchase")
    t = pa.table({
        "k": pa.array(ks, pa.int64()),
        "t": pa.array(ts, pa.int64()),
        "o": pa.array(os_, pa.int64()),
        "ty": pa.array(tys, pa.string())})
    prev = None
    for parts in (1, 6):
        ds = ray.data.from_arrow(t)
        if parts > 1:
            ds = ds.repartition(parts)
        got = markov_attribution(ds, key_col="k", ts_col="t",
                                 order_col="o", type_col="ty",
                                 conv_type="purchase",
                                 num_partitions=4).to_pandas()
        rows_g = list(zip(got.channel, got.removal_effect, got.share))
        assert rows_g == exp
        if prev is not None:
            assert rows_g == prev
        prev = rows_g
    assert set(got.channel) == {"ad", "email", "search"}
    assert abs(got.share.sum() - 1.0) < 1e-12
    assert (got.removal_effect > 0).all()


def test_markov_hand_case_single_channel():
    # every converting journey goes through 'ad' -> removing it kills
    # all conversions: removal_effect = 1
    t = pa.table({
        "k": pa.array([1, 1, 2], pa.int64()),
        "t": pa.array([1, 2, 1], pa.int64()),
        "o": pa.array([1, 2, 3], pa.int64()),
        "ty": pa.array(["ad", "purchase", "ad"], pa.string())})
    got = markov_attribution(ray.data.from_arrow(t), key_col="k",
                             ts_col="t", order_col="o",
                             type_col="ty",
                             conv_type="purchase").to_pandas()
    assert got.channel.tolist() == ["ad"]
    assert got.removal_effect.tolist() == [1.0]
    assert got.share.tolist() == [1.0]


def test_markov_duplicate_key_ts_order_raises():
    # a (key, ts, order) tie leaves journey order block-layout-
    # dependent: the kernel must refuse (watermark/q248 contract)
    t = pa.table({
        "k": pa.array([1, 1, 1], pa.int64()),
        "t": pa.array([5, 5, 6], pa.int64()),
        "o": pa.array([2, 2, 3], pa.int64()),
        "ty": pa.array(["ad", "email", "purchase"], pa.string())})
    with pytest.raises(Exception, match="duplicate \\(key, ts, order\\)"):
        markov_attribution(ray.data.from_arrow(t), key_col="k",
                           ts_col="t", order_col="o", type_col="ty",
                           conv_type="purchase").to_pandas()


@pytest.mark.parametrize("name", ["\x00start", "\x00conv", "\x00null"])
def test_markov_channel_named_like_a_chain_state_raises(name):
    # a channel spelled like the start state or an absorber would
    # merge into it: the kernel refuses it by name
    t = pa.table({
        "k": pa.array([1, 1, 2, 2], pa.int64()),
        "t": pa.array([1, 2, 1, 2], pa.int64()),
        "o": pa.array([1, 2, 3, 4], pa.int64()),
        "ty": pa.array(["ad", "purchase", name, "purchase"], pa.string())})
    with pytest.raises(ValueError, match=re.escape(repr(name))):
        markov_attribution(ray.data.from_arrow(t), key_col="k",
                           ts_col="t", order_col="o", type_col="ty",
                           conv_type="purchase")
