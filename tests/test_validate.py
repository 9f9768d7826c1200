"""Constraint suite (stages/validate.py:validate_constraints) vs a
DuckDB union-of-checks replay; hand case with known violations."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray

from featurebox_ray.stages.validate import validate_constraints

RULES = [
    {"name": "a_not_null", "kind": "not_null", "col": "k"},
    {"name": "b_unique", "kind": "unique", "col": "k"},
    {"name": "c_range", "kind": "range", "col": "x", "lo": 0,
     "hi": 50},
    {"name": "d_set", "kind": "in_set", "col": "s",
     "values": ["a", "b"]},
    {"name": "e_regex", "kind": "regex", "col": "s",
     "pattern": "^[ab]$"},
]

ORACLE = """
    WITH tot AS (SELECT CAST(count(*) AS BIGINT) AS n FROM t),
    v AS (
      SELECT 'a_not_null' AS rule,
             CAST(count(*) FILTER (k IS NULL) AS BIGINT) AS violations
      FROM t
      UNION ALL
      SELECT 'b_unique',
             CAST(count(k) - count(DISTINCT k) AS BIGINT) FROM t
      UNION ALL
      SELECT 'c_range', CAST(count(*) FILTER (x IS NOT NULL AND
             (x < 0 OR x > 50)) AS BIGINT) FROM t
      UNION ALL
      SELECT 'd_set', CAST(count(*) FILTER (s IS NOT NULL AND
             s NOT IN ('a', 'b')) AS BIGINT) FROM t
      UNION ALL
      SELECT 'e_regex', CAST(count(*) FILTER (s IS NOT NULL AND
             NOT regexp_matches(s, '^[ab]$')) AS BIGINT) FROM t
    )
    SELECT rule, tot.n, violations, violations = 0 AS ok,
           CAST(violations AS DOUBLE) / CAST(tot.n AS DOUBLE)
               AS viol_frac
    FROM v, tot ORDER BY rule
"""


def test_validate_duckdb_fuzz_partition_invariant():
    rng = np.random.default_rng(283)
    n = 3000
    k = rng.integers(0, 2500, n).astype(float)      # some dups
    x = rng.integers(-10, 70, n).astype(float)
    s = rng.choice(["a", "b", "c", "zz"], n, p=[.6, .2, .1, .1])
    k[rng.choice(n, 15, replace=False)] = np.nan
    x[rng.choice(n, 15, replace=False)] = np.nan
    pdf = pd.DataFrame({"k": pd.array(k, dtype="Int64"),
                        "x": pd.array(x, dtype="Int64"), "s": s})
    con = duckdb.connect()
    con.register("t", pdf)
    exp = con.sql(ORACLE).df().reset_index(drop=True)
    assert (exp.violations > 0).any() and not exp.ok.all()
    t = pa.Table.from_pandas(pdf, preserve_index=False)
    prev = None
    for parts in (1, 6):
        ds = ray.data.from_arrow(t)
        if parts > 1:
            ds = ds.repartition(parts)
        got = (validate_constraints(ds, RULES, num_partitions=4)
               .to_pandas())
        pd.testing.assert_frame_equal(
            got.astype(exp.dtypes.to_dict()), exp)
        if prev is not None:
            assert got.equals(prev)
        prev = got


def test_validate_bad_kind_and_dup_names_raise():
    ds = ray.data.from_arrow(pa.table({"k": pa.array([1], pa.int64())}))
    with pytest.raises(ValueError):
        validate_constraints(ds, [{"name": "x", "kind": "nope",
                                   "col": "k"}])
    with pytest.raises(ValueError):
        validate_constraints(ds, [
            {"name": "x", "kind": "not_null", "col": "k"},
            {"name": "x", "kind": "not_null", "col": "k"}])


def test_validate_rule_named_like_a_total_keeps_its_count():
    """The row total travels in its own column, so no rule name can be
    folded into it: a rule named ``"\\x00total"`` reports its own
    violations and every rule reports the true row count."""
    t = pa.table({"k": pa.array([1, None, 3, None, 5, None], pa.int64())})
    ds = ray.data.from_arrow(t).repartition(3)
    got = validate_constraints(ds, [
        {"name": "\x00total", "kind": "not_null", "col": "k"},
        {"name": "u", "kind": "unique", "col": "k"}]).to_pylist()
    assert [r["rule"] for r in got] == ["\x00total", "u"]
    assert [r["n"] for r in got] == [6, 6]
    assert [r["violations"] for r in got] == [3, 0]
    only_unique = validate_constraints(ds, [
        {"name": "u", "kind": "unique", "col": "k"}]).to_pylist()
    assert only_unique[0]["n"] == 6
