"""Declarative data-quality constraint suite — the Deequ/Great-
Expectations-style validation gate a pipeline runs BEFORE trusting a
100-TB input: per-rule exact violation counts over one streaming pass
(plus one keyed exchange per uniqueness rule), reported as a compact
per-rule table the orchestrator can assert on.

Rules (each a dict):
  {"name": ..., "kind": "not_null",  "col": c}
  {"name": ..., "kind": "unique",    "col": c}             # dup rows
  {"name": ..., "kind": "range",     "col": c, "lo": a, "hi": b}
  {"name": ..., "kind": "in_set",    "col": c, "values": [...]}
  {"name": ..., "kind": "regex",     "col": c, "pattern": p}

Violation semantics (SQL-replayable, each rule independent):
``not_null`` counts NULLs; the value rules count NON-NULL values that
fail (NULL-ness is not_null's job — composing rules stays orthogonal);
``unique`` counts ``n_nonnull − n_distinct`` (every row beyond the
first of a duplicate value).  All counts are exact integers from
per-block partials; ``viol_frac`` is the one IEEE division per rule.
``regex`` uses Arrow's RE2 (``match_substring_regex``) — anchor the
pattern yourself; DuckDB ``regexp_matches`` is RE2 too, so the oracle
is the same automaton.

Scale shape: every rule except ``unique`` reduces per block and
combines by addition on the driver (a handful of ints per rule);
``unique`` routes the column's values through ONE hash-keyed exchange
(values co-located → per-partition distinct counts sum exactly — the
q05 two-level distinct shape).

Reference analog: the reference validates eagerly inside featurizers
(check_data / dim checks, featurizers/base.py); this lifts validation
to a declarative corpus-level gate.
"""

from __future__ import annotations

from typing import Dict, List

import pyarrow as pa
import pyarrow.compute as pc
import ray

from .partition import materialized_block_refs, partitioned_refs, sum_partials

KINDS = ("not_null", "unique", "range", "in_set", "regex")


def validate_constraints(ds, rules: List[Dict],
                         num_partitions: int = 8) -> pa.Table:
    """Run the rule suite; returns one row per rule (sorted by rule
    name): ``(rule:string, n:int64 — total rows, violations:int64,
    ok:bool, viol_frac:float64)``."""
    for r in rules:
        if r["kind"] not in KINDS:
            raise ValueError(f"unknown rule kind {r['kind']!r}")
    names = [r["name"] for r in rules]
    if len(set(names)) != len(names):
        raise ValueError("duplicate rule names")
    uniques = [r for r in rules if r["kind"] == "unique"]

    def partial(b: pa.Table) -> pa.Table:
        # one row per rule — the uniqueness rules too, with 0, so the
        # block's row count reaches the driver when every rule is a
        # uniqueness rule — and the row count in its own column
        out_v = []
        for r in rules:
            if b.num_rows == 0 or r["kind"] == "unique":
                out_v.append(0)
                continue
            col = b[r["col"]].combine_chunks()
            if r["kind"] == "not_null":
                v = col.null_count
            else:
                valid = pc.is_valid(col)
                if r["kind"] == "range":
                    bad = pc.or_(pc.less(col, r["lo"]),
                                 pc.greater(col, r["hi"]))
                elif r["kind"] == "in_set":
                    bad = pc.invert(pc.is_in(
                        col, value_set=pa.array(r["values"],
                                                col.type)))
                else:  # regex
                    bad = pc.invert(pc.match_substring_regex(
                        col, r["pattern"]))
                v = int(pc.sum(pc.and_(pc.fill_null(bad, False),
                                       valid)).as_py() or 0)
            out_v.append(v)
        return pa.table({"rule": pa.array(names, pa.string()),
                         "viol": pa.array(out_v, pa.int64()),
                         "n": pa.array([b.num_rows] * len(rules),
                                       pa.int64())})

    sums = sum_partials(
        ray.get(materialized_block_refs(
            ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None))),
        keys=["rule"], vals=["viol", "n"])
    agg_v = {} if sums is None else dict(
        zip(sums["rule"].to_pylist(), sums["viol"].to_pylist()))
    # every rule row of a block carries that block's row count
    total = 0 if sums is None else sums["n"][0].as_py()

    for r in uniques:
        col = r["col"]

        def prep(b: pa.Table, c=col) -> pa.Table:
            arr = b[c]
            t = pa.table({c: arr})
            return t.filter(pc.is_valid(arr))

        def kernel(t: pa.Table, c=col) -> pa.Table:
            if t.num_rows == 0 or c not in t.column_names:
                return pa.table({"nn": pa.array([], pa.int64()),
                                 "nd": pa.array([], pa.int64())})
            return pa.table({
                "nn": pa.array([t.num_rows], pa.int64()),
                "nd": pa.array([pc.count_distinct(t[c]).as_py()],
                               pa.int64())})

        prepped = ds.map_batches(prep, batch_format="pyarrow",
                                 zero_copy_batch=True)
        tot = sum_partials(ray.get(partitioned_refs(
            prepped, kernel, key=col, sort_keys=[col],
            num_partitions=num_partitions)), keys=[], vals=["nn", "nd"])
        agg_v[r["name"]] = (0 if tot is None else
                            tot["nn"][0].as_py() - tot["nd"][0].as_py())

    out = {"rule": [], "n": [], "violations": [], "ok": [],
           "viol_frac": []}
    for nm in sorted(names):
        v = agg_v.get(nm, 0)
        out["rule"].append(nm)
        out["n"].append(total)
        out["violations"].append(v)
        out["ok"].append(v == 0)
        out["viol_frac"].append(
            float(v) / float(total) if total else 0.0)
    return pa.table({
        "rule": pa.array(out["rule"], pa.string()),
        "n": pa.array(out["n"], pa.int64()),
        "violations": pa.array(out["violations"], pa.int64()),
        "ok": pa.array(out["ok"], pa.bool_()),
        "viol_frac": pa.array(out["viol_frac"], pa.float64())})
