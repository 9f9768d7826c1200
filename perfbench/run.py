"""Benchmark entry point; run from the repository root:

    python3 perfbench/run.py --workload flagship --seed 1 --seconds 10 --trace 0

Generates the workload's input from ``--seed``, starts a local Ray cluster
with one slot per core of this host, then runs the workload's batch job
in a closed loop (the next job starts when the previous one has finished)
for ``--seconds``, checking every output.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``; with ``--trace 1`` the
per-layer metrics, whose spans are also written to ``.bench_spans/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
os.environ["RAY_USAGE_STATS_ENABLED"] = "0"

from perfbench import cluster  # noqa: E402
from perfbench.inputs import WORKLOADS, generate  # noqa: E402
from perfbench.jobs import JobRunner, TimeLimits  # noqa: E402
from perfbench.layers import layer_metrics  # noqa: E402
from perfbench.spans import Span, Tracer, self_s  # noqa: E402

CORES = os.cpu_count() or 1
# two hash partitions and two read blocks per core
NUM_PARTITIONS = READ_BLOCKS = 2 * CORES
# set-up is timed in this many fresh processes besides the measuring one
SETUP_PROBES = 1
MIN_JOBS = 4
# the whole run stops with an error, printing no result, past this; the
# cluster shutdown after it waits at most 20 s more
RUN_LIMIT_S = 150
# the first output digest of each workload and seed, for later runs
DIGEST_DIR = os.path.join(ROOT, ".bench_digests")

END_TO_END = {"turns_per_s": "turns/s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "read.wall_s": "s", "read.bytes": "B",
    "stages.scalar.busy_s": "s", "stages.scalar.rows": "count",
    "stages.scalar.calls": "count",
    "stages.text.busy_s": "s", "stages.text.rows_per_s": "rows/s",
    "stages.dedup.busy_s": "s", "stages.dedup.rows_per_s": "rows/s",
    "stages.map.wall_s": "s",
    "stages.partition.exchange_s": "s", "stages.partition.bytes_moved": "B",
    "stages.partition.skew": "ratio", "stages.partition.max_part_rows": "count",
    "stages.partition.sort_rows_per_s": "rows/s",
    "pipelines.transcript.fused_s": "s", "pipelines.transcript.kernel_s": "s",
    "stages.window.rows_per_s": "rows/s",
    "write.wall_s": "s", "write.bytes": "B",
    "state.checkpoint.run_s": "s", "state.checkpoint.kernel_busy_s": "s",
    "state.checkpoint.bytes_written": "B", "state.checkpoint.scan_s": "s",
    "state.checkpoint.resume_s": "s",
    "state.checkpoint.recompute_ratio": "ratio",
    "driver.gap_s": "s", "cluster.busy_frac": "ratio",
    "trace.overhead_frac": "ratio", "scaling_eff": "ratio",
    "scaling.turns_per_s_1cpu": "turns/s",
}


def _fresh_process_setup_s(warm_path: str) -> float:
    p = subprocess.run(
        [sys.executable, "-m", "perfbench.cluster", warm_path, str(CORES)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=60)
    return float(p.stdout.split()[-1])


def closed_loop(runner: JobRunner, seconds: float, tracer=None) -> list:
    """Jobs one after another for ``seconds`` (at least ``MIN_JOBS``), as
    ``(result, worker spans)`` pairs.  With a tracer every second job is
    traced; an untraced job has ``None`` for its spans."""
    jobs = []
    deadline = time.monotonic() + seconds
    while len(jobs) < MIN_JOBS or time.monotonic() < deadline:
        if tracer is not None and len(jobs) % 2:
            r = runner.run(tracer.sink)
            jobs.append((r, tracer.drain()))
        else:
            jobs.append((runner.run(), None))
    return jobs


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def gap_s(r, worker_spans) -> float:
    """The part of a job's timed wall in which no wrapped callable ran on
    any worker, so that wall = covered time + gap exactly."""
    return sum(self_s(Span("job", a, b), worker_spans) for a, b in r.timed)


def end_to_end(inp, jobs, setups) -> dict:
    ok = [r for r, _ in jobs if r.ok]
    return {
        "turns_per_s": _median(inp.n_turns / r.wall_s for r in ok),
        "peak_rss_mb": _median(r.peak_rss / 2**20 for r in ok),
        "setup_s": statistics.median(setups),
    }


def per_layer(inp, runner, jobs, tracer, work_dir) -> tuple:
    """Per-layer metrics and the extra jobs they run (on a 1-slot cluster)."""
    m = layer_metrics(inp, tracer, work_dir, NUM_PARTITIONS, READ_BLOCKS)
    wall = _median(r.wall_s for r, ws in jobs if r.ok and ws is None)
    traced = [(r, ws) for r, ws in jobs if r.ok and ws is not None]
    m["driver.gap_s"] = _median(gap_s(r, ws) for r, ws in traced)
    m["cluster.busy_frac"] = _median(
        sum(w.dur for w in ws) / (r.wall_s * CORES) for r, ws in traced)
    m["trace.overhead_frac"] = _median(r.wall_s for r, _ in traced) / wall - 1
    # the same job on a one-slot cluster: N=1 -> 4N=4 scaling diagnostic.
    # Its first job meets cold workers too, so it is run but not timed.
    cluster.stop(ROOT)
    cluster.start(1, inp.feature_table, ROOT)
    extra = [runner.run(), runner.run()]
    one = extra[-1]
    m["scaling.turns_per_s_1cpu"] = inp.n_turns / one.wall_s if one.ok else 0.0
    m["scaling_eff"] = (inp.n_turns / wall / (CORES * m["scaling.turns_per_s_1cpu"])
                        if one.ok else 0.0)
    return m, extra


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    limits = TimeLimits(RUN_LIMIT_S)
    t_start = time.monotonic()

    def log(msg: str) -> None:
        print(f"[{time.monotonic() - t_start:6.1f}s] {msg}", file=sys.stderr)

    wl = WORKLOADS[args.workload]
    work_dir = os.path.join(ROOT, ".bench_work",
                            f"{wl.name}-{args.seed}-{os.getpid()}")
    try:
        inp = generate(wl, args.seed, os.path.join(work_dir, "input"))
        log(f"input: {inp.n_turns} turns")
        setups = [] if args.trace else [
            _fresh_process_setup_s(inp.feature_table)
            for _ in range(SETUP_PROBES)]
        setups.append(cluster.start(CORES, inp.feature_table, ROOT))
        log("set-up (s): " + " ".join(f"{x:.3f}" for x in setups))
        runner = JobRunner(inp, work_dir, NUM_PARTITIONS, READ_BLOCKS,
                           limits, DIGEST_DIR)
        tracer = Tracer() if args.trace else None
        # the first job meets cold workers and unexported remote functions;
        # it is checked and counted, but not timed
        warm = runner.run()
        log("warm-up job done")
        jobs = closed_loop(runner, args.seconds, tracer)
        log(f"{len(jobs)} measured jobs done")
        results = [warm] + [r for r, _ in jobs]
        if args.trace:
            metrics, extra = per_layer(inp, runner, jobs, tracer, work_dir)
            results += extra
            tracer.dump(os.path.join(ROOT, ".bench_spans",
                                     f"{wl.name}-seed{args.seed}.json"))
            units = PER_LAYER
        else:
            metrics, units = end_to_end(inp, jobs, setups), END_TO_END
    finally:
        limits.cancel()
        cluster.stop(ROOT)
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = sum(1 for r in results if not r.ok)
    log("job walls (s): " + " ".join(f"{r.wall_s:.3f}" for r in results))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u}
                    for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
