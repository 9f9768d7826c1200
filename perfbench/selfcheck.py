"""Shows that the output check catches a wrong value; run from the
repository root:

    python3 perfbench/selfcheck.py --workload flagship --seed 1

Runs the workload's job twice on one input: once as measured, once with
one value of one sampled output row changed before the check.  Prints a
result line in the benchmark's format (the corrupted job must count as
failed) and exits 0 only if the first job passed and the second failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
os.environ["RAY_USAGE_STATS_ENABLED"] = "0"

import pyarrow as pa  # noqa: E402
import pyarrow.compute as pc  # noqa: E402

from perfbench import cluster  # noqa: E402
from perfbench.inputs import WORKLOADS, generate  # noqa: E402
from perfbench.jobs import JobRunner, TimeLimits  # noqa: E402
from perfbench.run import (  # noqa: E402
    CORES, DIGEST_DIR, NUM_PARTITIONS, READ_BLOCKS, RUN_LIMIT_S)

COLUMN = "roll5_mean_text_len"  # a window column every workload emits


def corrupt_row(table: pa.Table, conv_id: str) -> pa.Table:
    """``table`` with ``COLUMN`` of the first row of ``conv_id`` off by one."""
    i = pc.index(table["conv_id"], conv_id).as_py()
    vals = table[COLUMN].to_numpy().copy()
    vals[i] += 1.0
    return table.set_column(table.schema.get_field_index(COLUMN), COLUMN,
                            pa.array(vals))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    limits = TimeLimits(RUN_LIMIT_S)
    work_dir = os.path.join(ROOT, ".bench_work", f"selfcheck-{os.getpid()}")
    try:
        inp = generate(wl, args.seed, os.path.join(work_dir, "input"))
        cluster.start(CORES, inp.feature_table, ROOT)
        runner = JobRunner(inp, work_dir, NUM_PARTITIONS, READ_BLOCKS,
                           limits, DIGEST_DIR)
        clean = runner.run()
        runner.tamper = lambda t: corrupt_row(t, inp.sample_ids[0])
        corrupted = runner.run()
    finally:
        limits.cancel()
        cluster.stop(ROOT)
        shutil.rmtree(work_dir, ignore_errors=True)
    results = [clean, corrupted]
    failed = sum(1 for r in results if not r.ok)
    print(f"corrupted job errors: {corrupted.errors}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(results),
                      "failed": failed}))
    return 0 if clean.ok and not corrupted.ok else 1


if __name__ == "__main__":
    sys.exit(main())
