"""Kaplan-Meier survival (stages/retention.py:kaplan_meier) vs the
serial replay; hand-checked KM numbers with censoring; partition
invariance."""

import os
import sys

import numpy as np
import pyarrow as pa
import ray

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
from _oracle_replays import replay_kaplan_meier  # noqa: E402

from featurebox_ray.stages.retention import kaplan_meier  # noqa

DAY = 86_400_000_000
COLS = ["cohort", "dur_days", "at_risk", "deaths", "censored",
        "surv"]


def _rows(got):
    return [tuple(r) for r in got[COLS].itertuples(index=False)]


def test_kaplan_meier_matches_serial_replay_partition_invariant():
    rng = np.random.default_rng(499)
    users, ts, seq, types = [], [], [], []
    s = 0
    for u in range(120):
        n = int(rng.integers(1, 8))
        t0 = int(rng.integers(0, 30)) * DAY
        for i in range(n):
            users.append(u)
            ts.append(t0 + int(rng.integers(0, 60)) * DAY
                      + int(rng.integers(0, 1000)))
            seq.append(s)
            types.append(f"t{rng.integers(0, 3)}")
            s += 1
    users.append(None)
    ts.append(0)
    seq.append(s)
    types.append("t0")
    exp = replay_kaplan_meier(users, ts, seq, types)
    t = pa.table({"user_id": pa.array(users, pa.int64()),
                  "ts": pa.array(ts, pa.int64()),
                  "event_id": pa.array(seq, pa.int64()),
                  "event_type": pa.array(types, pa.string())})
    prev = None
    for parts in (1, 10):
        ds = ray.data.from_arrow(t)
        if parts > 1:
            ds = ds.repartition(parts)
        got = (kaplan_meier(ds, num_partitions=5)
               .to_pandas()
               .sort_values(["cohort", "dur_days"])
               .reset_index(drop=True))
        rows = _rows(got)
        assert rows == exp
        if prev is not None:
            assert rows == prev
        prev = rows


def test_kaplan_meier_hand_checked():
    # one cohort, 4 users: durations 1, 1, 2 (days), one user still
    # active at the corpus max (censored, dur 3)
    # deaths at d=1: at_risk 4, surv = 2/4; at d=2: at_risk 2,
    # surv = (2/4)*(1/2) = 1/4; censored user never enters a death
    # row
    rows = []
    for u, (start, end) in enumerate(
            [(0, 1), (0, 1), (0, 2), (57, 60)]):
        rows.append((u, start * DAY, 2 * u, "a"))
        rows.append((u, end * DAY, 2 * u + 1, "a"))
    t = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.int64()),
        "event_id": pa.array([r[2] for r in rows], pa.int64()),
        "event_type": pa.array([r[3] for r in rows], pa.string())})
    got = (kaplan_meier(ray.data.from_arrow(t))
           .to_pandas().sort_values("dur_days")
           .reset_index(drop=True))
    assert _rows(got) == [
        ("a", 1, 4, 2, 0, 0.5),
        ("a", 2, 2, 1, 0, 0.25)]
