"""gk_tau (stages/profile.py) and readability_fn (stages/text.py)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from _oracle_replays import replay_gk_tau
from featurebox_ray.stages.profile import gk_tau
from featurebox_ray.stages.text import readability_fn


def test_gk_tau_perfect_fd_and_independence():
    n = 600
    rng = np.random.default_rng(14)
    x = [f"x{rng.integers(4)}" for _ in range(n)]
    y_fd = [v.upper() for v in x]                 # Y = f(X)
    y_ind = [f"y{rng.integers(3)}" for _ in range(n)]
    t = pa.table({"x": pa.array(x), "y_fd": pa.array(y_fd),
                  "y_ind": pa.array(y_ind)})
    out = gk_tau(ray.data.from_arrow(t).repartition(4),
                 [("x", "y_fd"), ("x", "y_ind")]).to_pandas()
    taus = dict(zip(zip(out.x_col, out.y_col), out.tau))
    assert taus[("x", "y_fd")] == 1.0
    assert abs(taus[("x", "y_ind")]) < 0.02


def test_gk_tau_vs_replay_with_nulls_partition_invariant():
    rng = np.random.default_rng(90)
    n = 800
    x = [None if rng.random() < 0.05 else f"a{rng.integers(5)}"
         for _ in range(n)]
    y = [None if rng.random() < 0.05 else f"b{rng.integers(4)}"
         for _ in range(n)]
    exp = replay_gk_tau({"x": x, "y": y}, [("x", "y"), ("y", "x")])
    t = pa.table({"x": pa.array(x, pa.string()),
                  "y": pa.array(y, pa.string())})
    for parts in (1, 7):
        ds = ray.data.from_arrow(t)
        if parts > 1:
            ds = ds.repartition(parts)
        out = gk_tau(ds, [("x", "y"), ("y", "x")]).to_pandas()
        got = [(r.x_col, r.y_col, int(r.n),
                None if pd.isna(r.tau) else r.tau)
               for r in out.itertuples()]
        assert got == exp


def test_readability_counts():
    t = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "text": pa.array(
                      ["The cat sat. The dog ran!", None])})
    df = readability_fn()(t).to_pandas()
    r = df.iloc[0]
    assert (r.n_words, r.n_sents) == (6, 2)
    # vowel groups: e,a,a,e,o,a -> 6
    assert r.n_syll == 6
    exp = (np.float64(206.835) - np.float64(1.015) * (6.0 / 2.0)
           - np.float64(84.6) * (6.0 / 6.0))
    assert r.flesch == exp
    r2 = df.iloc[1]
    assert (r2.n_words, r2.n_sents, r2.n_syll) == (0, 0, 0)


def test_gk_tau_null_and_sentinel_string_are_two_categories():
    """A real value spelled like the old NULL stand-in ("\\x00null")
    stays apart from NULL, as in a DuckDB GROUP BY."""
    import duckdb
    from fractions import Fraction

    x = ["a", "a", None, None, "\x00null", "\x00null", "b", None] * 25
    y = ["p", "q", "p", "p", "q", "q", "p", "p"] * 25
    t = pa.table({"x": pa.array(x, pa.string()),
                  "y": pa.array(y, pa.string())})
    con = duckdb.connect()
    con.register("t", t)
    n = t.num_rows
    cells = con.sql("SELECT x, y, count(*)::BIGINT FROM t "
                    "GROUP BY x, y").fetchall()
    nx = dict(con.sql("SELECT x, count(*)::BIGINT FROM t GROUP BY x")
              .fetchall())
    ny = dict(con.sql("SELECT y, count(*)::BIGINT FROM t GROUP BY y")
              .fetchall())
    assert len(nx) == 4                  # a, b, NULL, "\x00null"
    e_y = Fraction(sum(c * c for c in ny.values()), n)
    e_xy = sum(Fraction(c * c, nx[xv]) for xv, _, c in cells)
    exp = float((e_xy - e_y) / (n - e_y))
    for parts in (1, 4):
        ds = ray.data.from_arrow(t)
        if parts > 1:
            ds = ds.repartition(parts)
        out = gk_tau(ds, [("x", "y")]).to_pandas()
        assert int(out.n[0]) == n
        assert out.tau[0] == exp
    assert replay_gk_tau({"x": x, "y": y}, [("x", "y")]) == [
        ("x", "y", n, exp)]
