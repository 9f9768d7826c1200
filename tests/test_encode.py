"""Out-of-fold target encoding (stages/encode.py) vs a serial replay."""

import numpy as np
import pyarrow as pa
import pytest
import ray

from featurebox_ray.stages.encode import oof_target_encode
from featurebox_ray.stages.sample import knuth_hash


def _serial(cats, keys, ts, k):
    folds = (knuth_hash(np.asarray(keys, np.int64)) % np.uint64(k)
             ).astype(np.int64)
    cells, tot_c, tot_s = {}, {}, {}
    for c, f, t in zip(cats, folds.tolist(), ts):
        cc, cs = cells.get((c, f), (0, 0))
        cells[(c, f)] = (cc + 1, cs + int(t))
        tot_c[c] = tot_c.get(c, 0) + 1
        tot_s[c] = tot_s.get(c, 0) + int(t)
    out = {}
    for (c, f), (cc, cs) in cells.items():
        n_excl = tot_c[c] - cc
        enc = (None if n_excl == 0
               else float(tot_s[c] - cs) / float(n_excl))
        out[(c, f)] = (n_excl, enc)
    return out


def test_oof_encode_matches_serial_replay_any_partitioning():
    rng = np.random.default_rng(11)
    n = 500
    cats = rng.choice(["x", "y", "z", "w"], n).tolist()
    keys = rng.integers(0, 10_000, n).astype(np.int64)
    ts = rng.integers(-500, 500, n).astype(np.int64)
    t = pa.table({"cat": pa.array(cats), "key": pa.array(keys),
                  "t": pa.array(ts)})
    expect = _serial(cats, keys, ts, 3)

    for parts in (1, 9):
        ds = ray.data.from_arrow(t)
        if parts > 1:
            ds = ds.repartition(parts)
        res = oof_target_encode(ds, cat_col="cat", fold_key_col="key",
                                target_col="t", n_folds=3).to_pandas()
        got = {(r.cat, r.fold): (r.n_excl,
                                 None if np.isnan(r.enc) else r.enc)
               for r in res.itertuples()}
        assert got == expect  # bit-exact, any partitioning


def test_oof_encode_single_fold_category_emits_null():
    # one category entirely inside one fold -> NULL encoding
    t = pa.table({"cat": pa.array(["solo"] * 4 + ["duo"] * 4),
                  "key": pa.array([8, 8, 8, 8, 0, 1, 2, 3],
                                  type=pa.int64()),
                  "t": pa.array([10, 20, 30, 40, 1, 2, 3, 4],
                                type=pa.int64())})
    res = oof_target_encode(ray.data.from_arrow(t), cat_col="cat",
                            fold_key_col="key", target_col="t",
                            n_folds=4).to_pandas()
    solo = res[res.cat == "solo"]
    assert len(solo) == 1 and solo.n_excl.iloc[0] == 0
    assert np.isnan(solo.enc.iloc[0])
    duo = res[res.cat == "duo"]
    assert (duo.n_excl > 0).all() and duo.enc.notna().all()


def test_oof_encode_rejects_bad_inputs():
    t = pa.table({"cat": pa.array(["a"]), "key": pa.array([1]),
                  "t": pa.array([1.5], pa.float64())})
    with pytest.raises(ValueError):
        oof_target_encode(ray.data.from_arrow(t), cat_col="cat",
                          fold_key_col="key", target_col="t", n_folds=1)
    with pytest.raises(Exception, match="int64"):
        oof_target_encode(ray.data.from_arrow(t), cat_col="cat",
                          fold_key_col="key", target_col="t").materialize()
