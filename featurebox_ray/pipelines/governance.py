"""Composed data-governance release gate — the pre-release checklist a
dataset must pass before it leaves the pipeline, chaining three audit
operators into ONE summary table:

  * schema/content constraints (``stages/validate.py`` — q283 rules),
  * k-anonymity of the quasi-identifier grid (``stages/profile.py:
    k_anonymity``),
  * l-diversity of the sensitive column within that grid
    (``stages/profile.py:l_diversity_audit``).

The gate result is three rows ``(check, n_units, n_violations,
ok:bool)`` — units are rules / QI groups respectively; a release
script asserts ``ok.all()``.  Every count is the exact integer the
underlying operator produced, so the whole composition replays as one
chained-CTE SQL query (the q168/q268 composed-oracle convention).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..stages.partition import materialized_block_refs, sum_partials


def release_gate(docs_ds, *, rules, qi_cols, sensitive_col: str,
                 k: int, l_threshold: int,
                 num_partitions: int = 8) -> pa.Table:
    from ..stages.profile import k_anonymity, l_diversity_audit
    from ..stages.validate import validate_constraints

    vr = validate_constraints(docs_ds, rules,
                              num_partitions=num_partitions)

    def _qi_nonnull(b: pa.Table) -> pa.Table:
        m = pc.is_valid(b[qi_cols[0]])
        for c in qi_cols[1:]:
            m = pc.and_(m, pc.is_valid(b[c]))
        return b.filter(pc.fill_null(m, False))

    # k-anonymity over the same NULL-free QI universe as l-diversity,
    # so the two grids line up in the composed oracle
    def _count_flags(ds, flag_col, bad_when):
        """Distributive (n_units, n_violations) — the QI grid never
        passes through the driver, only two ints per block."""
        def part(b: pa.Table) -> pa.Table:
            if b.num_rows == 0 or flag_col not in b.column_names:
                return pa.table({"n": pa.array([], pa.int64()),
                                 "v": pa.array([], pa.int64())})
            flags = b[flag_col]
            bad = flags if bad_when else pc.invert(flags)
            return pa.table({
                "n": pa.array([b.num_rows], pa.int64()),
                "v": pa.array([int(pc.sum(pc.cast(
                    bad, pa.int64())).as_py() or 0)], pa.int64())})

        tot = sum_partials(ray.get(materialized_block_refs(
            ds.map_batches(part, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None))),
            keys=[], vals=["n", "v"])
        return ((0, 0) if tot is None
                else (tot["n"][0].as_py(), tot["v"][0].as_py()))

    ka_n, ka_v = _count_flags(
        k_anonymity(docs_ds.map_batches(
            _qi_nonnull, batch_format="pyarrow",
            zero_copy_batch=True), cols=qi_cols, k=k,
            num_partitions=num_partitions),
        "below_k", bad_when=True)
    ld_n, ld_v = _count_flags(
        l_diversity_audit(docs_ds, quasi_cols=qi_cols,
                          sensitive_col=sensitive_col,
                          l_threshold=l_threshold,
                          num_partitions=num_partitions),
        "ok", bad_when=False)
    checks = ["constraints", "k_anonymity", "l_diversity"]
    n_units = [vr.num_rows, ka_n, ld_n]
    n_viol = [int(pc.sum(pc.cast(pc.invert(vr["ok"]),
                                 pa.int64())).as_py() or 0),
              ka_v, ld_v]
    return pa.table({
        "check": pa.array(checks, pa.string()),
        "n_units": pa.array(n_units, pa.int64()),
        "n_violations": pa.array(n_viol, pa.int64()),
        "ok": pa.array([v == 0 for v in n_viol], pa.bool_())})
