"""Single-process pandas oracle (FIXTURES.md F5.1) — written with pandas
groupby/rolling/merge_asof, deliberately a different implementation route
than the engine's numpy segment kernels."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def load_transcripts(d: str) -> pd.DataFrame:
    import pyarrow.dataset as pads

    df = pads.dataset(f"{d}/transcripts").to_table().to_pandas()
    return df.sort_values(["conv_id", "ts", "turn_idx"]).reset_index(drop=True)


def load_feature_table(d: str) -> pd.DataFrame:
    import pyarrow.dataset as pads

    df = pads.dataset(f"{d}/feature_table").to_table().to_pandas()
    return df.sort_values(["conv_id", "ts"]).reset_index(drop=True)


def oracle_features(
    df: pd.DataFrame,
    *,
    value_col: str = "text_len",
    lags=(1, 2),
    rolling_rows=(5,),
    time_windows_s=(3600.0,),
    session_gap_s: float = 1800.0,
    ddof: int = 1,
) -> pd.DataFrame:
    df = df.copy()
    df["text_len"] = df["text"].str.len().astype("int64")
    df["n_tokens"] = (
        df["text"].str.split().map(len).where(df["text"].str.len() > 0, 0).astype("int64")
    )
    df["is_tool_turn"] = df["tool"].notna()
    role_codes = {"user": 0, "assistant": 1, "system": 2, "tool": 3}
    # unknown roles -> -1 sentinel, mirroring stages/scalar.py
    df["role_code"] = df["role"].map(role_codes).fillna(-1).astype("int32")

    # group on Arrow dictionary codes, not on the values: pandas' string
    # hash stops at an embedded NUL (it makes "" and "\x00null" one
    # conversation, and its sort may interleave their rows), and a NULL
    # key is a conversation of its own, as in the engine.  Each
    # conversation's rows are made contiguous, in the order given.
    codes = pc.dictionary_encode(
        pa.array(df["conv_id"], from_pandas=True),
        null_encoding="encode").indices.to_numpy(zero_copy_only=False)
    order = np.argsort(codes, kind="stable")
    df = df.iloc[order]
    conv = pd.Series(codes[order], index=df.index)
    g = df.groupby(conv, sort=False)
    df["turn_number"] = g.cumcount().astype("int64")
    df["delta_ts_s"] = g["ts"].diff().dt.total_seconds()
    new_sess = (df["delta_ts_s"] > session_gap_s) | (df["turn_number"] == 0)
    df["session_id"] = (
        new_sess.groupby(conv, sort=False).cumsum().astype("int64") - 1
    )
    v = df[value_col].astype(float)
    for k in lags:
        df[f"lag{k}_{value_col}"] = g[value_col].shift(k).astype(float)
        df[f"lead{k}_{value_col}"] = g[value_col].shift(-k).astype(float)
    for k in rolling_rows:
        r = v.groupby(conv, sort=False).rolling(k, min_periods=1)
        df[f"roll{k}_count_{value_col}"] = r.count().reset_index(level=0, drop=True)
        df[f"roll{k}_sum_{value_col}"] = r.sum().reset_index(level=0, drop=True)
        df[f"roll{k}_mean_{value_col}"] = r.mean().reset_index(level=0, drop=True)
        df[f"roll{k}_std_{value_col}"] = (
            v.groupby(conv, sort=False)
            .rolling(k, min_periods=1)
            .std(ddof=ddof)
            .reset_index(level=0, drop=True)
        )
        df[f"roll{k}_min_{value_col}"] = r.min().reset_index(level=0, drop=True)
        df[f"roll{k}_max_{value_col}"] = r.max().reset_index(level=0, drop=True)
    for w_s in time_windows_s:
        tag = f"t{int(w_s)}s"
        tmp = df.set_index("ts")
        rw = (
            tmp[value_col]
            .astype(float)
            .groupby(conv.to_numpy(), sort=False)
            .rolling(pd.Timedelta(seconds=w_s), closed="both")
        )
        df[f"win_{tag}_count_{value_col}"] = rw.count().reset_index(drop=True).values
        df[f"win_{tag}_sum_{value_col}"] = rw.sum().reset_index(drop=True).values
        df[f"win_{tag}_mean_{value_col}"] = rw.mean().reset_index(drop=True).values
    return df.iloc[np.argsort(order)]


def oracle_asof(
    left: pd.DataFrame,
    right: pd.DataFrame,
    right_cols=("f_score", "f_label"),
    strict: bool = False,
) -> pd.DataFrame:
    """merge_asof per conv with dedup of identical (conv_id, ts) right rows
    keeping the max value tuple (engine tie rule)."""
    r = right.sort_values(["conv_id", "ts"] + list(right_cols)).drop_duplicates(
        ["conv_id", "ts"], keep="last"
    )
    left_sorted = left.sort_values("ts", kind="mergesort").reset_index()
    r_sorted = r.sort_values("ts", kind="mergesort")
    out = pd.merge_asof(
        left_sorted,
        r_sorted[["conv_id", "ts"] + list(right_cols)],
        on="ts",
        by="conv_id",
        direction="backward",
        allow_exact_matches=not strict,
    )
    out = out.set_index("index").sort_index()
    out.index.name = None
    return out
