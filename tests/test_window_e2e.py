"""End-to-end window/sessionize/lag features through Ray vs the pandas
oracle (FIXTURES F5.1), plus parallelism-invariance (F5.3)."""

import numpy as np
import pandas as pd
import ray

from featurebox_ray.stages.scalar import add_scalar_features
from featurebox_ray.stages.window import WindowSpec, add_window_features

from .oracle import load_transcripts, oracle_features

FEATURES = [
    "text_len",
    "n_tokens",
    "role_code",
    "turn_number",
    "delta_ts_s",
    "session_id",
    "lag1_text_len",
    "lag2_text_len",
    "lead1_text_len",
    "lead2_text_len",
    "roll5_count_text_len",
    "roll5_sum_text_len",
    "roll5_mean_text_len",
    "roll5_std_text_len",
    "roll5_min_text_len",
    "roll5_max_text_len",
    "win_t3600s_count_text_len",
    "win_t3600s_sum_text_len",
    "win_t3600s_mean_text_len",
]


def run_engine(d, num_partitions=8):
    ds = ray.data.read_parquet(f"{d}/transcripts")
    ds = add_scalar_features(ds)
    ds = add_window_features(ds, WindowSpec(), num_partitions=num_partitions)
    df = ds.to_pandas()
    return df.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)


def _compare(eng: pd.DataFrame, ora: pd.DataFrame):
    ora = ora.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    assert len(eng) == len(ora)
    assert (eng["conv_id"].values == ora["conv_id"].values).all()
    assert (eng["turn_idx"].values == ora["turn_idx"].values).all()
    # per-turn text equality under stable ordering (input_hint invariant)
    assert (eng["text"].values == ora["text"].values).all()
    for c in FEATURES:
        a = eng[c].astype(float).values
        b = ora[c].astype(float).values
        assert np.allclose(a, b, equal_nan=True), f"feature mismatch: {c}"


def test_window_features_match_oracle(tiny_dir):
    eng = run_engine(tiny_dir)
    ora = oracle_features(load_transcripts(tiny_dir))
    _compare(eng, ora)


def test_parallelism_invariance(tiny_dir):
    a = run_engine(tiny_dir, num_partitions=1)
    b = run_engine(tiny_dir, num_partitions=16)
    for c in FEATURES:
        assert np.allclose(
            a[c].astype(float).values, b[c].astype(float).values, equal_nan=True
        ), c


def test_mega_conversation_partition(small_dir):
    """Planted mega-conversations (FIXTURES F1) stay whole and ordered."""
    eng = run_engine(small_dir, num_partitions=8)
    ora = oracle_features(load_transcripts(small_dir))
    _compare(eng, ora)
