"""Shapley attribution (stages/attribution.py:shapley_attribution)
vs the serial exact-rational replay; hand-checked 2-channel game;
partition invariance."""

import os
import sys

import numpy as np
import pyarrow as pa
import ray

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
from _oracle_replays import replay_shapley  # noqa: E402

from featurebox_ray.stages.attribution import (  # noqa
    shapley_attribution)


def _rows(got):
    return [tuple(r) for r in
            got[["channel", "n_users_with", "shapley"]]
            .itertuples(index=False)]


def test_shapley_matches_serial_replay_partition_invariant():
    rng = np.random.default_rng(563)
    users, types = [], []
    chans = ["ads", "email", "search", "social"]
    for u in range(300):
        k = rng.integers(1, 5)
        for c in rng.choice(chans, size=k, replace=True):
            users.append(u)
            types.append(str(c))
        # conversion type = lexicographically last ('zz_convert')
        if rng.random() < 0.4:
            users.append(u)
            types.append("zz_convert")
    users.append(None)
    types.append("ads")
    exp = replay_shapley(users, types)
    t = pa.table({"user_id": pa.array(users, pa.int64()),
                  "event_type": pa.array(types, pa.string())})
    prev = None
    for parts in (1, 9):
        ds = ray.data.from_arrow(t)
        if parts > 1:
            ds = ds.repartition(parts)
        got = (shapley_attribution(ds, key_col="user_id",
                                   type_col="event_type",
                                   num_partitions=5)
               .to_pandas())
        rows = _rows(got)
        assert rows == exp
        if prev is not None:
            assert rows == prev
        prev = rows


def test_shapley_hand_checked_two_channels():
    # exact-set stats: {a}: 2 users 1 conv -> v=1/2; {b}: 1 user
    # 0 conv -> v=0; {a,b}: 1 user 1 conv -> v=1.
    # phi_a = 1/2·(v{a}−0) + 1/2·(v{ab}−v{b}) = 1/4 + 1/2 = 3/4
    # phi_b = 1/2·(v{b}−0) + 1/2·(v{ab}−v{a}) = 0 + 1/4 = 1/4
    rows = [(1, "a"), (1, "z"), (2, "a"),
            (3, "b"),
            (4, "a"), (4, "b"), (4, "z")]
    t = pa.table({"u": pa.array([r[0] for r in rows], pa.int64()),
                  "ty": pa.array([r[1] for r in rows], pa.string())})
    got = (shapley_attribution(ray.data.from_arrow(t), key_col="u",
                               type_col="ty", conversion_type="z")
           .to_pandas().set_index("channel"))
    assert got.loc["a", "shapley"] == 0.75
    assert got.loc["b", "shapley"] == 0.25
    assert got.loc["a", "n_users_with"] == 3
    assert got.loc["b", "n_users_with"] == 2
