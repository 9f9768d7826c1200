"""One batch job per workload, driven only through the engine's public
functions.  The clock runs from the first read until the complete result
is on disk; the output check runs after it and decides whether the job
counts.
"""

from __future__ import annotations

import glob
import os
import shutil
import signal
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from featurebox_ray.pipelines.transcript import fused_features_backfill
from featurebox_ray.stages.dedup import minhash_bands_fn
from featurebox_ray.stages.scalar import turn_scalar_features
from featurebox_ray.stages.text import text_features_fn
from featurebox_ray.stages.window import window_kernel
from featurebox_ray.state.checkpoint import run_partitioned_checkpointed

from .checks import OutputCheck, read_output
from .cluster import PeakRss
from .inputs import RIGHT_COLS, SORT_KEYS, Inputs
from .spans import wrap

STAGE_FNS = {"scalar": turn_scalar_features, "text": text_features_fn,
             "dedup": minhash_bands_fn}
# a job (with its output check) still running after this counts as failed
JOB_TIMEOUT_S = 60.0


def read(inp: Inputs, blocks: int):
    return ray.data.read_parquet(inp.transcripts, override_num_blocks=blocks)


def map_stages(ds, fns):
    # batch_size=None: one whole block per task, as bench.py runs the chain
    for fn in fns:
        ds = ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True,
                            batch_size=None)
    return ds


def left_schema(inp: Inputs) -> pa.Schema:
    """The left side's schema from a local one-row pass through the stage
    functions, so ``fused_features_backfill`` need not execute a block of
    the lazy chain to learn it (the bench.py call chain)."""
    first = sorted(glob.glob(os.path.join(inp.transcripts, "*.parquet")))[0]
    row = next(pq.ParquetFile(first).iter_batches(batch_size=1))
    t = pa.Table.from_batches([row.slice(0, 1)])
    for name in inp.workload.stages:
        t = STAGE_FNS[name](t)
    return t.schema


def part_files(out_dir: str) -> list:
    return sorted(glob.glob(os.path.join(out_dir, "part-*.parquet")))


def manifest_mtimes(out_dir: str) -> dict:
    return {f: os.stat(f).st_mtime_ns
            for f in glob.glob(os.path.join(out_dir, "_manifest", "part-*"))}


def changed_manifests(before: dict, after: dict) -> int:
    """Manifests written between two :func:`manifest_mtimes` snapshots."""
    return sum(1 for f, t in after.items() if before.get(f) != t)


def lose_manifests(out_dir: str, parts) -> None:
    for p in parts:
        os.remove(os.path.join(out_dir, "_manifest", f"part-{p:05d}.json"))


def lost_partitions(inp: Inputs, num_partitions: int) -> list:
    """The seeded share of partitions whose manifests a resume must redo."""
    rng = np.random.default_rng(np.random.SeedSequence([inp.seed, 11]))
    n = max(1, round(num_partitions * inp.workload.lose_frac))
    return sorted(int(p) for p in rng.choice(num_partitions, n,
                                             replace=False))


class RunLimitExceeded(BaseException):
    """The whole run took too long.  Not an ``Exception``, so a job's
    error handling cannot swallow it: the run stops with no result."""


class JobTimedOut(Exception):
    pass


class TimeLimits:
    """Two limits on one ``SIGALRM`` timer: each job's ``JOB_TIMEOUT_S``,
    after which the job fails and the loop goes on, and the whole run's
    limit, after which the run stops.  The timer is re-armed for every
    job, so neither limit is lost to the other."""

    def __init__(self, run_limit_s: float):
        self.run_deadline = time.monotonic() + run_limit_s
        self.expired = False
        signal.signal(signal.SIGALRM, self._fire)
        self._arm(self.run_deadline)

    def _arm(self, deadline: float) -> None:
        if not self.expired:
            signal.setitimer(signal.ITIMER_REAL,
                             max(deadline - time.monotonic(), 1e-3))

    def _fire(self, *_):
        if time.monotonic() >= self.run_deadline - 1e-3:
            self.expired = True
            raise RunLimitExceeded("benchmark run exceeded its time limit")
        raise JobTimedOut(f"job ran past {JOB_TIMEOUT_S:.0f}s")

    @contextmanager
    def job(self):
        self._arm(min(self.run_deadline, time.monotonic() + JOB_TIMEOUT_S))
        try:
            yield
        finally:
            self._arm(self.run_deadline)

    def cancel(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


@dataclass
class JobResult:
    # the (start, end) monotonic times of the timed parts of the job
    timed: list
    errors: list
    peak_rss: int = 0

    @property
    def wall_s(self) -> float:
        return sum(b - a for a, b in self.timed)

    @property
    def ok(self) -> bool:
        return not self.errors


class JobRunner:
    """Runs the workload's job again and again on one input, each time into
    a fresh output directory, and checks every output."""

    def __init__(self, inp: Inputs, work_dir: str, num_partitions: int,
                 read_blocks: int, limits: TimeLimits, digest_dir: str):
        self.inp = inp
        self.work_dir = work_dir
        self.P = num_partitions
        self.blocks = read_blocks
        self.limits = limits
        self.check = OutputCheck(inp, digest_dir)
        self.runs = 0
        self.lost = lost_partitions(inp, num_partitions)
        self.full_hashes = None
        # applied to each output before it is checked; the self-check
        # sets it to corrupt a sampled row
        self.tamper = None

    def stage_fns(self, sink=None) -> list:
        names = self.inp.workload.stages
        if sink is None:
            return [STAGE_FNS[n] for n in names]
        return [wrap(f"stages.{n}", STAGE_FNS[n], sink) for n in names]

    def kernel(self, sink=None):
        k = partial(window_kernel, spec=self.inp.workload.spec)
        return k if sink is None else wrap("state.checkpoint.kernel", k, sink)

    def run(self, sink=None) -> JobResult:
        """One job; ``sink`` (a span collector) makes it a traced job."""
        self.runs += 1
        out_dir = os.path.join(self.work_dir, f"out-{self.runs}")
        try:
            with self.limits.job():
                if self.inp.workload.asof:
                    res = self._asof_job(out_dir, sink)
                else:
                    res = self._checkpoint_job(out_dir, sink)
        except JobTimedOut as e:
            res = JobResult([], [str(e)])
        except Exception:  # a job that raises is a failed run, not a crash
            traceback.print_exc(file=sys.stderr)
            res = JobResult([], ["raised"])
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if res.errors:
            print(f"job {self.runs} failed: {res.errors}", file=sys.stderr)
        return res

    def _checked(self, out_dir: str) -> list:
        table = read_output(out_dir)
        if self.tamper is not None:
            table = self.tamper(table)
        return self.check(table)

    def _asof_job(self, out_dir: str, sink) -> JobResult:
        inp = self.inp
        with PeakRss() as rss:
            t0 = time.monotonic()
            ds = map_stages(read(inp, self.blocks), self.stage_fns(sink))
            out = fused_features_backfill(
                ds, ray.data.read_parquet(inp.feature_table),
                inp.workload.spec, right_cols=RIGHT_COLS,
                num_partitions=self.P, strategy="tasks",
                left_schema=left_schema(inp))
            out.write_parquet(out_dir)
            t1 = time.monotonic()
        return JobResult([(t0, t1)], self._checked(out_dir), rss.peak)

    def _checkpoint(self, out_dir: str, sink):
        inp = self.inp
        ds = map_stages(read(inp, self.blocks), self.stage_fns(sink))
        return run_partitioned_checkpointed(
            ds, self.kernel(sink), out_dir, key="conv_id",
            sort_keys=list(SORT_KEYS), num_partitions=self.P,
            input_desc=f"{inp.workload.name}-seed{inp.seed}")

    def _checkpoint_job(self, out_dir: str, sink) -> JobResult:
        """Full checkpointed run, loss of a seeded quarter of the partition
        manifests, resume.  The job's wall is the two runs together."""
        with PeakRss() as rss_full:
            t0 = time.monotonic()
            full = self._checkpoint(out_dir, sink)
            t1 = time.monotonic()
        errors = self._checked(out_dir)
        hashes = {m["partition"]: m["feature_hash"] for m in full}
        if self.full_hashes is None:
            self.full_hashes = hashes
        elif hashes != self.full_hashes:
            errors.append("full-run feature_hash differs between jobs")
        lose_manifests(out_dir, self.lost)
        before = manifest_mtimes(out_dir)
        with PeakRss() as rss_resume:
            t2 = time.monotonic()
            resumed = self._checkpoint(out_dir, sink)
            t3 = time.monotonic()
        recomputed = changed_manifests(before, manifest_mtimes(out_dir))
        if recomputed != len(self.lost):
            errors.append(f"resume recomputed {recomputed} partitions, "
                          f"{len(self.lost)} were lost")
        if {m["partition"]: m["feature_hash"] for m in resumed} != hashes:
            errors.append("resumed feature_hash differs from the full run")
        errors += self._checked(out_dir)
        return JobResult([(t0, t1), (t2, t3)], errors,
                         max(rss_full.peak, rss_resume.peak))
