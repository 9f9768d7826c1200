"""Ray lifecycle for the benchmark: a local cluster sized to this host,
its one-time set-up cost, RSS sampling, and a shutdown that waits for
every process the cluster started."""

from __future__ import annotations

import logging
import os
import shutil
import sys
import threading
import time

import ray
import psutil  # isort: skip  (the copy Ray ships; importing ray puts it on the path)

OBJECT_STORE_BYTES = 512 * 2**20
RSS_SAMPLE_S = 0.05
# Ray puts unix sockets under <temp dir>/session_<timestamp>_<pid>/sockets/;
# that suffix takes about 70 characters of the 107 a socket path may have
_MAX_TEMP_DIR_CHARS = 36


def _temp_dir(root: str):
    """Ray's session directory inside the checkout when the path is short
    enough for its sockets, else Ray's default."""
    d = os.path.join(root, ".bench_ray")
    return d if len(d) <= _MAX_TEMP_DIR_CHARS else None


def start(num_cpus: int, warm_path: str, root: str) -> float:
    """Start a local cluster of ``num_cpus`` slots and run Ray Data's
    one-time warm-up (lazy imports, worker pool, read path) on a small
    parquet directory.  Returns the seconds both took."""
    t0 = time.monotonic()
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             log_to_driver=False, logging_level=logging.ERROR,
             object_store_memory=OBJECT_STORE_BYTES,
             _temp_dir=_temp_dir(root))
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    ray.data.read_parquet(warm_path).count()
    return time.monotonic() - t0


def stop(root: str) -> None:
    """Shut the cluster down, wait until every process it started has
    ended (killing any that outlive the grace period) and remove its
    session directory."""
    if not ray.is_initialized():
        return
    kids = psutil.Process().children(recursive=True)
    ray.shutdown()
    _, alive = psutil.wait_procs(kids, timeout=15)
    for p in alive:
        p.kill()
    psutil.wait_procs(alive, timeout=5)
    if _temp_dir(root):
        shutil.rmtree(_temp_dir(root), ignore_errors=True)


def _tree_rss(me: psutil.Process) -> int:
    total = 0
    for p in [me, *me.children(recursive=True)]:
        try:
            total += p.memory_info().rss
        except psutil.Error:  # a worker exited between listing and reading
            pass
    return total


class PeakRss:
    """Peak summed RSS of this process and all its descendants (the Ray
    head processes and workers), sampled on a thread while the block runs."""

    def __init__(self):
        self.peak = 0

    def _run(self) -> None:
        me = psutil.Process()
        while True:
            self.peak = max(self.peak, _tree_rss(me))
            if self._stop.wait(RSS_SAMPLE_S):
                return

    def __enter__(self):
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, _tree_rss(psutil.Process()))
        return False


if __name__ == "__main__":
    # set-up time in a fresh process: python -m perfbench.cluster WARM_DIR CPUS
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    seconds = start(int(sys.argv[2]), sys.argv[1], root)
    stop(root)
    print(seconds)
