"""Per-stage error policy — the reference's ``on_errors='nan'/'keep'/'raise'``
featurizer contract (featurebox/featurizers/base.py:96-101,228-249)
re-expressed for batch kernels.

A vectorized kernel fails whole-batch, so the wrapper retries a failing
batch row-by-row, null-fills the failing rows' OUTPUT columns and counts
them (the per-record semantics of the reference's ``_wrapper``):

* ``"raise"``  — propagate the first error (default, fail fast);
* ``"nan"``    — failing rows get nulls in all columns the kernel would
  have added; ``__errors`` column records 0/1 per row;
* ``"keep"``   — like ``"nan"`` plus an ``__error_msg`` string column
  (the reference keeps the exception object; a string column is the
  Arrow-serializable equivalent).

At 100 TB a single malformed record must not kill a pipeline: wrap the
fragile stages (codec decode, parsers) with this.
"""

from __future__ import annotations

from typing import Callable

import pyarrow as pa


def robust_kernel(
    kernel: Callable[[pa.Table], pa.Table],
    *,
    on_errors: str = "raise",
) -> Callable[[pa.Table], pa.Table]:
    assert on_errors in ("raise", "nan", "keep")
    if on_errors == "raise":
        return kernel

    def wrapped(batch: pa.Table) -> pa.Table:
        try:
            out = kernel(batch)
            n = out.num_rows
            out = out.append_column("__errors", pa.array([0] * n, pa.int8()))
            if on_errors == "keep":
                out = out.append_column("__error_msg",
                                        pa.nulls(n, pa.string()))
            return out
        except Exception:
            pass
        # retry row-by-row; null-fill failures
        rows = []
        errors = []
        msgs = []
        out_schema = None
        for i in range(batch.num_rows):
            row = batch.slice(i, 1)
            try:
                r = kernel(row)
                out_schema = r.schema
                rows.append(r)
                errors.append(0)
                msgs.append(None)
            except Exception as e:  # noqa: BLE001 — policy is to record
                rows.append(None)
                errors.append(1)
                msgs.append(f"{type(e).__name__}: {e}"[:500])
        if out_schema is None:
            # the kernel never succeeded, so the output schema is unknown
            # and rows cannot be null-filled — fail with the real cause
            # (an empty batch that still raised has no per-row message)
            first = msgs[0] if msgs else "kernel failed on an empty batch"
            raise RuntimeError(
                "robust_kernel: every row of the batch failed; first error: "
                f"{first}")
        fixed = []
        for i, r in enumerate(rows):
            if r is not None:
                fixed.append(r)
                continue
            # null row with the kernel's output schema; carry input values
            # where the column exists on the input
            cols = []
            src = batch.slice(i, 1)
            for f in out_schema:
                if f.name in src.column_names:
                    try:
                        cols.append(src[f.name].cast(f.type))
                    except Exception:
                        # the failing row's input may be exactly what the
                        # kernel could not convert (e.g. an unparseable
                        # string for a now-float column) — null, don't die
                        cols.append(pa.nulls(1, f.type))
                else:
                    cols.append(pa.nulls(1, f.type))
            fixed.append(pa.table(dict(zip(out_schema.names, cols))))
        out = pa.concat_tables(fixed, promote_options="default")
        out = out.append_column("__errors", pa.array(errors, pa.int8()))
        if on_errors == "keep":
            out = out.append_column("__error_msg", pa.array(msgs, pa.string()))
        return out

    return wrapped
