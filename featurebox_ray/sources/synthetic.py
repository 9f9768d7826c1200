"""Deterministic synthetic transcript tables (FIXTURES.md F1-F3).

Replaces the reference's synthetic generators
(featurebox/data/datasets.py:44-59,65-306 — seeded multivariate normal with
planted relations) with the transcript domain: seeded per *shard* so any
shard can be (re)generated independently and identically — the property the
resume tests rely on.

Schema (authoritative, BASELINE.json ``input_hint``):
    conv_id: string, turn_idx: int32, role: string, text: string,
    tool: string (null on non-tool turns), ts: timestamp[us]

Generation is pure numpy; rows are written shuffled across conv_ids in
multiple parquet fragments so the engine must actually repartition/sort.
"""

from __future__ import annotations

import concurrent.futures as cf
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

ROLES = np.array(["user", "assistant", "system", "tool"])
TOOLS = np.array(
    ["bash", "search", "read", "write", "edit", "fetch", "glob", "grep"]
)
EPOCH_US = 1_704_067_200_000_000  # 2024-01-01T00:00:00Z in microseconds
F_LABELS = np.array(["bronze", "silver", "gold", "platinum"])


def make_transcripts(
    n_convs: int = 100,
    *,
    seed: int = 42,
    shard: int = 0,
    mega_every: int = 0,
    mega_turns: int = 2000,
    mean_turns: float = 12.0,
) -> pa.Table:
    """One shard of the transcripts table.  Conversation ids are globally
    unique across shards (``c{shard:03d}{i:07d}``)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, shard, 1]))
    # Zipf-ish sizes: lognormal turns 2..50, plus planted mega-conversations
    n_turns = np.clip(
        rng.lognormal(np.log(mean_turns), 0.6, n_convs).astype(np.int64), 2, 50
    )
    if mega_every:
        n_turns[::mega_every] = mega_turns
    total = int(n_turns.sum())

    conv_ids = np.array(
        [f"c{shard:03d}{i:07d}" for i in range(n_convs)], dtype=object
    )
    conv_of_row = np.repeat(np.arange(n_convs), n_turns)
    conv_id = conv_ids[conv_of_row]
    starts = np.concatenate([[0], np.cumsum(n_turns)[:-1]])
    turn_idx = (np.arange(total) - np.repeat(starts, n_turns)).astype(np.int32)

    # roles: cycle with a per-conv phase offset
    phase = rng.integers(0, 4, n_convs)
    role = ROLES[(turn_idx + np.repeat(phase, n_turns)) % 4]

    # tools: only rows whose role == "tool" get a tool name, per-conv biased
    pref = rng.integers(0, len(TOOLS), n_convs)
    tool_pick = TOOLS[
        (np.repeat(pref, n_turns) + rng.integers(0, 3, total)) % len(TOOLS)
    ]
    tool = np.where(role == "tool", tool_pick, None)

    # ts: conv start shared with make_feature_table (so F2 update times
    # interleave with F1 turn times); lognormal inter-turn gaps with
    # occasional super-session gaps (> 30 min) to exercise sessionization
    conv_start = _conv_starts(seed, shard, n_convs)
    gaps_s = rng.lognormal(2.5, 1.0, total)
    big = rng.random(total) < 0.03
    gaps_s = np.where(big, gaps_s + 3600.0, gaps_s)
    gaps_us = (gaps_s * 1e6).astype(np.int64)
    gaps_us[turn_idx == 0] = 0
    ts = np.repeat(conv_start, n_turns) + _seg_cumsum(gaps_us, turn_idx == 0)

    # text: deterministic token sequences "w{k}", lognormal lengths
    text = _make_text(rng, total)

    t = pa.table(
        {
            "conv_id": pa.array(conv_id, type=pa.string()),
            "turn_idx": pa.array(turn_idx, type=pa.int32()),
            "role": pa.array(role, type=pa.string()),
            "text": pa.array(text, type=pa.string()),
            "tool": pa.array(tool, type=pa.string()),
            "ts": pa.array(ts, type=pa.timestamp("us")),
        }
    )
    # shuffle rows across conversations (stable given seed)
    perm = rng.permutation(total)
    return t.take(pa.array(perm))


def _conv_starts(seed: int, shard: int, n_convs: int) -> np.ndarray:
    """Conversation start timestamps — dedicated seed stream so transcripts
    and the feature table derive identical starts independently."""
    r = np.random.default_rng(np.random.SeedSequence([seed, shard, 3]))
    return EPOCH_US + (
        r.integers(0, 30 * 86400, n_convs).astype(np.int64) * 1_000_000
    )


def _seg_cumsum(v: np.ndarray, is_start: np.ndarray) -> np.ndarray:
    """Cumulative sum resetting at each segment start."""
    c = np.cumsum(v)
    base = np.where(is_start, c - v, 0)
    base = np.maximum.accumulate(base)
    return c - base


def _make_text(rng: np.random.Generator, n: int) -> np.ndarray:
    lens = np.clip(rng.lognormal(2.0, 0.8, n).astype(np.int64), 1, 120)
    words = rng.integers(0, 5000, int(lens.sum()))
    bounds = np.concatenate([[0], np.cumsum(lens)])
    return np.array(
        [" ".join(f"w{w}" for w in words[bounds[i]:bounds[i + 1]]) for i in range(n)],
        dtype=object,
    )


def make_feature_table(
    n_convs: int = 100,
    *,
    seed: int = 42,
    shard: int = 0,
    match_frac: float = 0.8,
    updates_per_conv: float = 3.0,
) -> pa.Table:
    """F2: slowly-changing per-conversation feature table keyed
    ``(conv_id, ts)``.  ~80% of conv_ids appear (the rest exercise the
    null-backfill path); update times interleave with turn times and include
    updates after the conv's last turn (must never leak backward) plus a
    deterministic share of exact-tie timestamps (== conv start)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, shard, 2]))
    keep = rng.random(n_convs) < match_frac
    idx = np.flatnonzero(keep)
    n_upd = rng.poisson(updates_per_conv, len(idx)) + 1
    total = int(n_upd.sum())
    conv_ids = np.array([f"c{shard:03d}{i:07d}" for i in idx], dtype=object)
    conv_id = np.repeat(conv_ids, n_upd)
    conv_start = _conv_starts(seed, shard, n_convs)
    base = np.repeat(conv_start[idx], n_upd)
    # offsets spanning before conv start .. after conv end (± 1 day)
    off = rng.integers(-86_400, 2 * 86_400, total).astype(np.int64) * 1_000_000
    is_first = _first_of_run(np.repeat(np.arange(len(idx)), n_upd))
    off = np.where(is_first, -3600 * 1_000_000, off)  # guarantee one early row
    # exact-tie rows must never land on the guaranteed early row, or the
    # "one update strictly before conv start" property silently breaks
    # for ~5% of conversations (strict as-of tests would flake by seed)
    tie = (rng.random(total) < 0.05) & ~is_first
    ts = np.where(tie, base, base + off)
    f_score = np.round(rng.normal(0, 1, total).cumsum() * 0.1, 6)
    f_label = F_LABELS[rng.integers(0, len(F_LABELS), total)]
    t = pa.table(
        {
            "conv_id": pa.array(conv_id, type=pa.string()),
            "ts": pa.array(ts, type=pa.timestamp("us")),
            "f_score": pa.array(f_score, type=pa.float64()),
            "f_label": pa.array(f_label, type=pa.string()),
        }
    )
    perm = rng.permutation(total)
    return t.take(pa.array(perm))


def _first_of_run(codes: np.ndarray) -> np.ndarray:
    out = np.ones(len(codes), dtype=bool)
    out[1:] = codes[1:] != codes[:-1]
    return out


def make_role_props() -> pa.Table:
    """F3: tiny broadcast dimension table (constants, like the reference's
    element property table data/impot_element_table.py:1-10)."""
    keys = list(ROLES) + list(TOOLS)
    rng = np.random.default_rng(7)
    cols = {"key": pa.array(keys, type=pa.string())}
    for p in range(8):
        cols[f"p{p}"] = pa.array(
            np.round(rng.uniform(0.1, 10.0, len(keys)), 4), type=pa.float64()
        )
    return pa.table(cols)


def _write_shard(args) -> None:
    out_dir, per, seed, s, mega_every, mega_turns = args
    t = make_transcripts(
        per, seed=seed, shard=s, mega_every=mega_every, mega_turns=mega_turns
    )
    pq.write_table(t, f"{out_dir}/transcripts/shard-{s:04d}.parquet")
    f = make_feature_table(per, seed=seed, shard=s)
    pq.write_table(f, f"{out_dir}/feature_table/shard-{s:04d}.parquet")


def write_dataset(
    out_dir: str,
    *,
    n_convs: int = 1000,
    n_shards: int = 4,
    seed: int = 42,
    mega_every: int = 0,
    mega_turns: int = 2000,
    processes: int = 1,
) -> None:
    """Write a multi-fragment transcripts + feature_table + role_props
    dataset under ``out_dir`` (fragments per shard → parallel read).
    Shards are seed-independent, so ``processes > 1`` parallelizes
    generation with identical output bytes."""
    os.makedirs(f"{out_dir}/transcripts", exist_ok=True)
    os.makedirs(f"{out_dir}/feature_table", exist_ok=True)
    # distribute the remainder so exactly n_convs conversations exist
    # (floor division alone silently dropped n_convs % n_shards of them)
    per = n_convs // n_shards
    rem = n_convs % n_shards
    jobs = [(out_dir, per + (1 if s < rem else 0), seed, s,
             mega_every, mega_turns)
            for s in range(n_shards)]
    if processes > 1:
        with cf.ProcessPoolExecutor(max_workers=processes) as ex:
            list(ex.map(_write_shard, jobs))
    else:
        for j in jobs:
            _write_shard(j)
    pq.write_table(make_role_props(), f"{out_dir}/role_props.parquet")
