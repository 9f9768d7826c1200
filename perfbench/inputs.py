"""Workload definitions and their seeded inputs.

Every input is generated with ``featurebox_ray.sources.synthetic`` before
any timing starts; the same seed gives the same bytes.  The reference
rows the output check compares against are computed here too, once per
run, because they depend only on the input.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from featurebox_ray.sources.synthetic import (
    make_feature_table, make_transcripts, write_dataset)
from featurebox_ray.stages.window import WindowSpec
from tests.oracle import oracle_asof, oracle_features

from . import reference

RIGHT_COLS = ("f_score", "f_label")
SORT_KEYS = ("conv_id", "ts", "turn_idx")
ROW_KEYS = ["conv_id", "turn_idx"]
N_SHARDS = 8
SAMPLE_CONVS = 24


@dataclass(frozen=True)
class Workload:
    name: str
    # map stages the job runs before the keyed exchange, in order
    stages: tuple
    # True: fused window + as-of backfill; False: checkpointed window kernel
    asof: bool
    spec: WindowSpec
    n_convs: int
    mega_turns: int
    # share of all turns held by the planted hot conversations (skew shape);
    # 0 plants one mega-conversation per shard instead
    hot_share: float = 0.0
    hot_convs: int = 0
    updates_per_conv: float = 3.0
    # share of checkpoint partitions whose manifests are deleted before resume
    lose_frac: float = 0.0


WORKLOADS = {
    "flagship": Workload(
        "flagship", stages=("scalar", "text", "dedup"), asof=True,
        spec=WindowSpec(), n_convs=2400, mega_turns=1500),
    "asof_window_skew": Workload(
        "asof_window_skew", stages=("scalar",), asof=True,
        spec=WindowSpec(lags=(1, 2, 3, 5), rolling_rows=(5, 20),
                        time_windows_s=(600.0, 3600.0),
                        rate_cols=("is_tool_turn",), rate_window=10,
                        context_cols=("role", "tool")),
        n_convs=6000, mega_turns=0, hot_share=0.10, hot_convs=3,
        updates_per_conv=12.0),
    "checkpoint_resume": Workload(
        "checkpoint_resume", stages=("scalar",), asof=False,
        spec=WindowSpec(), n_convs=4000, mega_turns=1500, lose_frac=0.25),
}


@dataclass
class Inputs:
    workload: Workload
    seed: int
    root: str
    n_turns: int
    sample_ids: list
    expected: pd.DataFrame

    @property
    def transcripts(self) -> str:
        return os.path.join(self.root, "transcripts")

    @property
    def feature_table(self) -> str:
        return os.path.join(self.root, "feature_table")


def _write_skewed(root: str, wl: Workload, seed: int) -> None:
    """``scripts/skew_bench.py`` shape: ordinary shards plus one shard of
    ``hot_convs`` conversations that together hold ``hot_share`` of all
    turns, with a denser feature table."""
    os.makedirs(f"{root}/transcripts", exist_ok=True)
    os.makedirs(f"{root}/feature_table", exist_ok=True)
    per = wl.n_convs // N_SHARDS
    normal = 0
    for s in range(N_SHARDS):
        t = make_transcripts(per, seed=seed, shard=s)
        normal += t.num_rows
        pq.write_table(t, f"{root}/transcripts/shard-{s:04d}.parquet")
        f = make_feature_table(per, seed=seed, shard=s,
                               updates_per_conv=wl.updates_per_conv)
        pq.write_table(f, f"{root}/feature_table/shard-{s:04d}.parquet")
    hot_turns = int(normal * wl.hot_share / (1 - wl.hot_share) / wl.hot_convs)
    hot = N_SHARDS  # shard id past the ordinary ones keeps conv ids unique
    t = make_transcripts(wl.hot_convs, seed=seed, shard=hot, mega_every=1,
                         mega_turns=hot_turns)
    pq.write_table(t, f"{root}/transcripts/shard-{hot:04d}.parquet")
    f = make_feature_table(wl.hot_convs, seed=seed, shard=hot,
                           match_frac=1.0,
                           updates_per_conv=wl.updates_per_conv)
    pq.write_table(f, f"{root}/feature_table/shard-{hot:04d}.parquet")


def generate(wl: Workload, seed: int, root: str) -> Inputs:
    if wl.hot_convs:
        _write_skewed(root, wl, seed)
    else:
        write_dataset(root, n_convs=wl.n_convs, n_shards=N_SHARDS, seed=seed,
                      mega_every=wl.n_convs // N_SHARDS,
                      mega_turns=wl.mega_turns)
    tx = pads.dataset(f"{root}/transcripts").to_table(
        columns=["conv_id", "turn_idx"])
    sizes = tx.group_by("conv_id").aggregate([("turn_idx", "count")])
    sizes = sizes.sort_by([("turn_idx_count", "descending"),
                           ("conv_id", "ascending")])
    ids = sizes["conv_id"].to_pylist()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    # the largest conversation plus a seeded spread of the others
    picks = rng.choice(np.arange(1, len(ids)), SAMPLE_CONVS - 1,
                       replace=False)
    sample_ids = sorted([ids[0]] + [ids[int(i)] for i in picks])
    inp = Inputs(wl, seed, root, tx.num_rows, sample_ids, pd.DataFrame())
    inp.expected = expected_rows(inp)
    return inp


def _sample_frame(path: str, ids: list) -> pd.DataFrame:
    t = pads.dataset(path).to_table(
        filter=pc.field("conv_id").isin(ids))
    return t.to_pandas()


def expected_rows(inp: Inputs) -> pd.DataFrame:
    """Reference output rows of the sampled conversations: window and
    as-of columns from the pandas oracle in ``tests/oracle.py``, the
    rate and context columns it does not cover from pandas group
    rolling/shift, and ``ta_*``/``mh_band*`` from :mod:`.reference`."""
    wl, spec = inp.workload, inp.workload.spec
    df = _sample_frame(inp.transcripts, inp.sample_ids)
    df = df.sort_values(list(SORT_KEYS)).reset_index(drop=True)
    exp = oracle_features(df, lags=spec.lags, rolling_rows=spec.rolling_rows,
                          time_windows_s=spec.time_windows_s,
                          session_gap_s=spec.session_gap_s, ddof=spec.ddof)
    for rc in spec.rate_cols:
        exp[f"rate{spec.rate_window}_{rc}"] = (
            exp[rc].astype(float).groupby(exp["conv_id"], sort=False)
            .rolling(spec.rate_window, min_periods=1).mean()
            .reset_index(level=0, drop=True))
    g = exp.groupby("conv_id", sort=False)
    for cc in spec.context_cols:
        exp[f"prev_{cc}"] = g[cc].shift(1)
        exp[f"next_{cc}"] = g[cc].shift(-1)
    if wl.asof:
        right = _sample_frame(inp.feature_table, inp.sample_ids)
        exp = oracle_asof(exp, right, right_cols=RIGHT_COLS)
    texts = exp["text"].tolist()
    if "text" in wl.stages:
        ta = pd.DataFrame([reference.text_row(t) for t in texts],
                          index=exp.index)
        exp = pd.concat([exp, ta], axis=1)
    if "dedup" in wl.stages:
        mh = pd.DataFrame([reference.band_row(t) for t in texts],
                          index=exp.index)
        for c in mh.columns:
            exp[c] = mh[c].to_numpy(np.uint64)
    return exp
