"""Output checks run after every job.

A job's output passes when it has one row per input turn, its
order-insensitive digest equals that of the first job ever checked for
this workload and seed (kept in a file, so later runs of the seed compare
against it too), and every column of the sampled conversations matches
the reference rows built in :mod:`.inputs`.
"""

from __future__ import annotations

import glob
import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .inputs import ROW_KEYS, Inputs


def read_output(out_dir: str) -> pa.Table:
    files = sorted(glob.glob(os.path.join(out_dir, "*.parquet")))
    return pa.concat_tables([pq.read_table(f) for f in files],
                            promote_options="default")


def digest(table: pa.Table) -> str:
    """Order-insensitive content hash: rows sorted by their unique
    (conv_id, turn_idx) key, columns by name."""
    t = table.sort_by([(k, "ascending") for k in ROW_KEYS])
    df = t.select(sorted(t.column_names)).to_pandas()
    h = pd.util.hash_pandas_object(df, index=False).to_numpy()
    return hashlib.sha1(h.tobytes()).hexdigest()


def _column_matches(got: pd.Series, exp: pd.Series) -> bool:
    a, b = got.to_numpy(), exp.to_numpy()
    if a.dtype.kind in "iub" and a.dtype.kind == b.dtype.kind:
        return np.array_equal(a, b)
    if a.dtype.kind in "iufb" and b.dtype.kind in "iufb":
        # numpy's default allclose tolerances, as the repo's oracle tests use
        return np.allclose(a.astype(np.float64), b.astype(np.float64),
                           equal_nan=True)
    if a.dtype.kind == "M" or b.dtype.kind == "M":
        return np.array_equal(a.astype("datetime64[us]"),
                              b.astype("datetime64[us]"))
    na_a, na_b = pd.isna(got).to_numpy(), pd.isna(exp).to_numpy()
    return bool(np.array_equal(na_a, na_b)
                and (a[~na_a] == b[~na_b]).all())


def sample_mismatches(table: pa.Table, inp: Inputs) -> list:
    """Columns of the sampled conversations that differ from the
    reference (a missing or extra column counts as a mismatch)."""
    got = table.filter(pc.is_in(table["conv_id"],
                                value_set=pa.array(inp.sample_ids)))
    got = got.to_pandas().sort_values(ROW_KEYS).reset_index(drop=True)
    exp = inp.expected.sort_values(ROW_KEYS).reset_index(drop=True)
    if set(got.columns) != set(exp.columns):
        return sorted(set(got.columns) ^ set(exp.columns))
    if len(got) != len(exp):
        return ["<row count>"]
    return [c for c in exp.columns if not _column_matches(got[c], exp[c])]


class OutputCheck:
    """Checks every job's output against the input and against the first
    digest recorded for the workload and seed under ``digest_dir``."""

    def __init__(self, inp: Inputs, digest_dir: str):
        self.inp = inp
        self.digest_path = os.path.join(
            digest_dir, f"{inp.workload.name}-seed{inp.seed}.sha1")
        self.first_digest = None
        if os.path.exists(self.digest_path):
            with open(self.digest_path) as fh:
                self.first_digest = fh.read().strip()

    def __call__(self, table: pa.Table) -> list:
        """Returns the failed checks (empty when the output is correct)."""
        errors = []
        if table.num_rows != self.inp.n_turns:
            errors.append(f"rows {table.num_rows} != turns {self.inp.n_turns}")
        bad = sample_mismatches(table, self.inp)
        if bad:
            errors.append(f"sample mismatch in {bad}")
        d = digest(table)
        if self.first_digest is None:
            # only an output that passed the other checks sets the digest
            if not errors:
                self.first_digest = d
                os.makedirs(os.path.dirname(self.digest_path), exist_ok=True)
                with open(self.digest_path, "w") as fh:
                    fh.write(d)
        elif d != self.first_digest:
            errors.append(f"digest differs from the first one of this seed "
                          f"({self.digest_path})")
        return errors
