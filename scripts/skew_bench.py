"""Skew microbenchmark (SURVEY.md §7.3 step 7): one conversation holds ~10%
of all rows.  Compares the plain conv-hash window stage (mega conv pins one
partition) against the salted bounded-overlap path, and proves both produce
identical bounded-window features.

Run:  python scripts/skew_bench.py  [n_convs]
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import numpy as np


def build_skewed(out_dir: str, n_convs: int) -> None:
    import os

    import pyarrow.parquet as pq

    from featurebox_ray.sources.synthetic import (
        make_feature_table, make_transcripts)

    os.makedirs(f"{out_dir}/transcripts", exist_ok=True)
    # normal shards
    per = n_convs // 4
    total_normal = 0
    for s in range(4):
        t = make_transcripts(per, seed=42, shard=s)
        total_normal += t.num_rows
        pq.write_table(t, f"{out_dir}/transcripts/shard-{s:04d}.parquet")
    # one mega conversation with ~10% of all rows
    mega_turns = int(total_normal / 9)
    t = make_transcripts(1, seed=42, shard=99, mega_every=1,
                         mega_turns=mega_turns)
    pq.write_table(t, f"{out_dir}/transcripts/shard-mega.parquet")
    print(f"rows: normal={total_normal} mega={t.num_rows} "
          f"({t.num_rows / (total_normal + t.num_rows):.1%} of total)")


def main():
    import shutil

    import ray

    n_convs = int(sys.argv[1]) if len(sys.argv) > 1 else 20000
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False)
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)

    from featurebox_ray.stages.salt import SaltPolicy, add_window_features_salted
    from featurebox_ray.stages.scalar import add_scalar_features
    from featurebox_ray.stages.window import WindowSpec, add_window_features

    d = "/tmp/fbr_skew"
    shutil.rmtree(d, ignore_errors=True)
    build_skewed(d, n_convs)

    spec = WindowSpec(lags=(1, 2), rolling_rows=(5,), time_windows_s=(),
                      add_session=False, add_turn_number=False)
    base = add_scalar_features(ray.data.read_parquet(f"{d}/transcripts"))

    t0 = time.time()
    plain = add_window_features(base, spec, num_partitions=16).materialize()
    t_plain = time.time() - t0

    t0 = time.time()
    salted = add_window_features_salted(
        base, spec, num_partitions=16,
        policy=SaltPolicy(bucket_rows=20_000, overlap=8)).materialize()
    t_salted = time.time() - t0

    a = plain.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    b = salted.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    cols = ["lag1_text_len", "roll5_mean_text_len", "roll5_std_text_len"]
    same = all(np.allclose(a[c].astype(float), b[c].astype(float), equal_nan=True)
               for c in cols)
    print(f"plain(mega pins a partition): {t_plain:.1f}s | "
          f"salted(bounded overlap): {t_salted:.1f}s | identical: {same}")
    ray.shutdown()


if __name__ == "__main__":
    main()
