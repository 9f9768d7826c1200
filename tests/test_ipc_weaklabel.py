"""write_ipc/read_ipc round trip (sources/io.py) and rule_label_fn
(stages/text.py)."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from featurebox_ray.sources.io import read_ipc, write_ipc, write_table
from featurebox_ray.stages.text import rule_label_fn


def test_ipc_roundtrip_exact(tmp_path):
    t = pa.table({
        "i": pa.array([1, 2, None, 4], pa.int64()),
        "s": pa.array(["a", None, "c", "d"]),
        "f": pa.array([1.5, 2.5, np.nan, None], pa.float64())})
    out = str(tmp_path / "ipc")
    n = write_ipc(ray.data.from_arrow(t).repartition(3), out)
    assert n == 4
    back = read_ipc(out).to_pandas().sort_values("i",
                                                 na_position="first")
    orig = t.to_pandas().sort_values("i", na_position="first")
    pd.testing.assert_frame_equal(back.reset_index(drop=True),
                                  orig.reset_index(drop=True))
    # write_table dispatch
    out2 = str(tmp_path / "ipc2")
    write_table(ray.data.from_arrow(t), out2, fmt="ipc")
    assert len(os.listdir(out2)) >= 1


def test_rule_label_fn():
    t = pa.table({"doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                  "text": pa.array([
                      "scan the join hash scan",   # exec 4
                      "sort order merge sort",     # plan 4
                      "windowing is not window",   # stream 1 (\b)
                      None])})
    fn = rule_label_fn({"exec": ["scan", "join", "hash"],
                        "plan": ["order", "sort", "merge"],
                        "stream": ["window", "batch", "stream"]})
    df = fn(t).to_pandas()
    assert list(df.topic) == ["exec", "plan", "stream", None]
    assert df.s_exec.iloc[0] == 4
    assert df.s_stream.iloc[2] == 1  # 'windowing' must NOT match


def test_rule_label_tie_min_topic():
    t = pa.table({"doc_id": pa.array([1], pa.int64()),
                  "text": pa.array(["scan sort"])})
    fn = rule_label_fn({"exec": ["scan"], "plan": ["sort"]})
    df = fn(t).to_pandas()
    assert df.topic.iloc[0] == "exec"  # tie -> first topic asc


def test_doc_scorecard_flags():
    import os
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    import __ray_entry__ as e

    # run the composed scorecard on a tiny planted corpus by writing
    # a parquet dir with the documents schema
    import tempfile

    import pyarrow.parquet as pq

    good = ("the data " * 30 + ". " + "run scan sort merge join "
            "table index query stream batch. ")
    junk = "aaaaaaaaaaaaaaaaa " * 40  # one long token repeated
    with tempfile.TemporaryDirectory() as d:
        pq.write_table(pa.table({
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array([good, junk]),
            "lang": pa.array(["en", "en"]),
            "source": pa.array(["s", "s"]),
            "n_chars": pa.array([len(good), len(junk)], pa.int64()),
        }), f"{d}/documents.parquet")
        df = (e.queries()["q271_doc_scorecard"](d).to_pandas()
              .sort_values("doc_id").reset_index(drop=True))
    assert bool(df.iloc[0].keep) is True
    assert bool(df.iloc[1].keep) is False
    assert df.iloc[1].quality_flags < df.iloc[0].quality_flags
